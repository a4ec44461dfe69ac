"""Generation control: one loop runs every stopping policy.

A source (trace replay or live stream) yields per-step observations.
At each step the natural emission of the watched terminator is checked
first, then the policy's step test (bound once per run), then the
budget; a stream that runs dry counts as an exhausted budget.  After the
loop the stop is decided once, the answer phase runs and the answer is
normalized for scoring.  A record keeps only the decision made at its
stop step; dynamic_threshold rebuilds a syncthink threshold at any step
from the trajectories and the record's config.  Every record, complete
or not, is built by _record.

Timing is split three ways and sums exactly to the total: generation
(recorded or measured step time, probes, answer), metric (policy
arithmetic), eval (answer normalization).  Record contents other than
the wall-time fields are deterministic for a given source and config;
record_fingerprint captures exactly that deterministic part.
"""

from __future__ import annotations

import dataclasses
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from . import jsonl
from .errors import (
    ConfigurationError,
    MalformedRecordError,
    PolicyUnavailableError,
    SessionError,
    SyncThinkError,
    UnsupportedProbeError,
)
from .evaluation import parse_answer
from .policy import (
    POLICIES,
    BaselineConfig,
    PolicyConfig,
    StopDecision,
    StopReason,
    answer_convergence_stop,
    dynamic_threshold,
    fixed_ratio_stop,
    should_stop,
)

TIMING_FIELDS = ("t_gen", "t_metric", "t_eval", "t_total")


@dataclass(frozen=True)
class GenerationRecord:
    """Everything one policy run produced for one sample."""

    sample_id: str
    policy: str
    config: dict
    complete: bool
    error: str
    stop_step: int | None
    injected: bool
    reason: StopReason | None
    reasoning_tokens: int
    answer_tokens: int
    total_tokens: int
    answer_text: str
    normalized_answer: str
    decision: StopDecision | None
    rank_trajectory: tuple[tuple[int, int], ...]
    entropy_trajectory: tuple[tuple[int, float], ...]
    t_gen: float
    t_metric: float
    t_eval: float
    t_total: float

    def validate(self) -> None:
        if self.policy not in POLICIES:
            raise ConfigurationError(f"unknown policy {self.policy!r}")
        if self.total_tokens != self.reasoning_tokens + self.answer_tokens:
            raise ConfigurationError("token counts do not add up")
        if self.injected and self.reason is not StopReason.THRESHOLD_FIRED:
            raise ConfigurationError("injected runs must end by a policy firing")
        if self.reason is StopReason.NATURAL_TERMINATION and self.injected:
            raise ConfigurationError("natural termination cannot be injected")
        if abs(self.t_total - (self.t_gen + self.t_metric + self.t_eval)) > 1e-9:
            raise ConfigurationError("timing breakdown does not sum to the total")


def _snapshot_config(
    policy: str,
    pcfg: PolicyConfig,
    bcfg: BaselineConfig,
    full_length: int | None,
    budget: int,
) -> dict:
    snap: dict = {"budget": budget, "watched_token": pcfg.watched_token}
    if policy == "syncthink":
        snap.update(
            entropy_weight=pcfg.entropy_weight,
            pacing_cap=pcfg.pacing_cap,
            min_steps=pcfg.min_steps,
            check_interval=pcfg.check_interval,
        )
    elif policy == "fixed_ratio":
        snap.update(ratio=bcfg.ratio, full_length=full_length)
    elif policy == "answer_convergence":
        snap.update(
            segment_len=bcfg.segment_len,
            convergence_k=bcfg.convergence_k,
            probe_suffix=bcfg.probe_suffix,
        )
    return snap


def run_generation(
    source,
    policy: str,
    *,
    policy_config: PolicyConfig | None = None,
    baseline_config: BaselineConfig | None = None,
    full_length: int | None = None,
    budget: int = 8192,
    sample_id: str = "",
    task_kind: str = "freeform",
) -> GenerationRecord:
    """Drive one source under one policy and build its record.

    The source yields StepObservation values and provides watched_token,
    probe_with_time(suffix) and answer_after(t, injected).  Mid-stream
    failures produce an incomplete record carrying the partial
    trajectories instead of raising.
    """
    if policy not in POLICIES:
        raise ConfigurationError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    if budget < 1:
        raise ConfigurationError(f"budget must be >= 1, got {budget!r}")
    watched = source.watched_token
    pcfg = policy_config or PolicyConfig(watched_token=watched)
    if pcfg.watched_token != watched:
        raise ConfigurationError(
            f"config watches {pcfg.watched_token!r} but the source watches {watched!r}"
        )
    bcfg = baseline_config or BaselineConfig()
    if policy == "fixed_ratio" and full_length is None:
        full_length = getattr(source, "reference_length", None)
        if full_length is None:
            raise ConfigurationError(
                "fixed_ratio needs a reference full-run length for this source"
            )
    config = _snapshot_config(policy, pcfg, bcfg, full_length, budget)

    ranks: list[tuple[int, int]] = []
    entropies: list[tuple[int, float]] = []
    step_times: list[float] = []
    probe_times: list[float] = []
    fires = _step_test(policy, source, pcfg, bcfg, full_length, task_kind, probe_times)
    obs = reason = decision = None
    error = ""
    metric_seconds = 0.0
    try:
        for obs in source:
            t = obs.t
            ranks.append((t, obs.watched_rank))
            entropies.append((t, obs.entropy))
            step_times.append(obs.step_wall_time)

            m0 = time.perf_counter()
            if obs.chosen_token == watched:
                # the source ended reasoning on its own; policy defers
                reason = StopReason.NATURAL_TERMINATION
            elif fires(obs):
                reason = StopReason.THRESHOLD_FIRED
            elif t + 1 >= budget:
                reason = StopReason.BUDGET_EXHAUSTED
            metric_seconds += time.perf_counter() - m0
            if reason is not None:
                break
    except SessionError as exc:
        error = f"SessionError: {exc}"
    except (UnsupportedProbeError, PolicyUnavailableError) as exc:
        raise PolicyUnavailableError(
            f"policy {policy!r} needs branch probes the source cannot provide: {exc}"
        ) from exc
    if obs is None and not error:
        error = "source yielded no steps"

    text, tokens, answer_seconds = "", 0, 0.0
    normalized, eval_seconds = "", 0.0
    if not error:
        m0 = time.perf_counter()
        # a stream that ran dry without stopping has exhausted its budget
        reason = reason or StopReason.BUDGET_EXHAUSTED
        decision = _stop_decision(policy, obs, pcfg, reason)
        metric_seconds += time.perf_counter() - m0
        remaining = budget - (obs.t + 1)
        if reason is not StopReason.BUDGET_EXHAUSTED and remaining > 0:
            try:
                text, tokens, answer_seconds = source.answer_after(
                    obs.t, reason is StopReason.THRESHOLD_FIRED
                )
            except SessionError as exc:
                error = f"SessionError in answer phase: {exc}"
            # the budget truncates the answer token count
            tokens = min(tokens, remaining)
    if not error:
        e0 = time.perf_counter()
        normalized = parse_answer(text, task_kind)
        eval_seconds = time.perf_counter() - e0

    # each probe ran inside a metric window; its time is generation time
    probe_seconds = math.fsum(probe_times)
    return _record(
        sample_id, policy, config, error,
        ranks=ranks, entropies=entropies, reason=reason, decision=decision,
        answer=(text, tokens), normalized=normalized,
        t_gen=math.fsum(step_times) + probe_seconds + answer_seconds,
        t_metric=metric_seconds - probe_seconds,
        t_eval=eval_seconds,
    )


def _step_test(policy: str, source, pcfg: PolicyConfig, bcfg: BaselineConfig,
               full_length: int | None, task_kind: str,
               probe_times: list[float]) -> Callable[[object], bool]:
    """Whether the policy fires at one step.

    The rules and parse_answer are looked up on this module at each call,
    so a wrapper installed after import (perfbench/tracer.py) sees them.
    answer_convergence's test owns its probe answers and adds each
    probe's generation time to probe_times.
    """
    if policy == "syncthink":
        return lambda obs: should_stop(obs.t, obs, pcfg)
    if policy == "full":
        return lambda obs: False
    if policy == "none":
        return lambda obs: True
    if policy == "fixed_ratio":
        return lambda obs: fixed_ratio_stop(obs.t, full_length, bcfg.ratio)
    answers: list[str] = []

    def converged(obs) -> bool:
        if obs.t == 0 or obs.t % bcfg.segment_len:
            return False
        raw, seconds = source.probe_with_time(bcfg.probe_suffix)
        probe_times.append(seconds)
        answers.append(parse_answer(raw, task_kind))
        return answer_convergence_stop(answers, bcfg.convergence_k)

    return converged


def _record(sample_id: str, policy: str, config: dict, error: str = "", *,
            ranks: Sequence = (), entropies: Sequence = (),
            reason: StopReason | None = None, decision: StopDecision | None = None,
            answer: tuple[str, int] = ("", 0), normalized: str = "",
            t_gen: float = 0.0, t_metric: float = 0.0, t_eval: float = 0.0) -> GenerationRecord:
    """The one constructor of a GenerationRecord; the defaults are a run of no steps.

    A run with a reason stopped at its last step, injecting the terminator
    if the policy fired there; a run without one failed after len(ranks)
    steps.  A run is complete when it carries no error.
    """
    stop_step = ranks[-1][0] if reason is not None else None
    reasoning = len(ranks) if stop_step is None else stop_step + 1
    answer_text, answer_tokens = answer
    record = GenerationRecord(
        sample_id=sample_id,
        policy=policy,
        config=config,
        complete=not error,
        error=error,
        stop_step=stop_step,
        injected=reason is StopReason.THRESHOLD_FIRED,
        reason=reason,
        reasoning_tokens=reasoning,
        answer_tokens=answer_tokens,
        total_tokens=reasoning + answer_tokens,
        answer_text=answer_text,
        normalized_answer=normalized,
        decision=decision,
        rank_trajectory=tuple(ranks),
        entropy_trajectory=tuple(entropies),
        t_gen=t_gen,
        t_metric=t_metric,
        t_eval=t_eval,
        t_total=t_gen + t_metric + t_eval,
    )
    record.validate()
    return record


def _stop_decision(policy: str, obs, pcfg: PolicyConfig, reason: StopReason) -> StopDecision:
    """The decision a record keeps, made at its stop step obs.

    syncthink's threshold is dynamic_threshold at that step; a baseline's
    is the rank when it fired and 0 otherwise.  A budget stop is a step
    at which nothing fired.
    """
    rank = obs.watched_rank
    if policy == "syncthink":
        threshold = dynamic_threshold(obs.t, obs.entropy, pcfg)
    else:
        threshold = rank if reason is StopReason.THRESHOLD_FIRED else 0
    stop = reason is not StopReason.BUDGET_EXHAUSTED
    return StopDecision(
        stop=stop,
        threshold=threshold,
        rank=rank,
        entropy=obs.entropy,
        reason=reason if stop else StopReason.NOT_TRIGGERED,
    )


@dataclass(frozen=True)
class BatchItem:
    """One sample's source recipe for a batch run."""

    sample_id: str
    open_source: Callable[[], object]
    task_kind: str = "freeform"
    full_length: int | None = None


def run_batch(
    items: Sequence[BatchItem],
    policies: Sequence[str],
    *,
    policy_config: PolicyConfig | None = None,
    baseline_config: BaselineConfig | None = None,
    budget: int = 8192,
    parallelism: int = 1,
) -> list[GenerationRecord]:
    """Run the items x policies grid; data failures become incomplete records.

    Results keep grid order regardless of parallelism.  Configuration
    errors still raise; a corrupt trace or dead stream only poisons its
    own record.
    """
    if parallelism < 1:
        raise ConfigurationError(f"parallelism must be >= 1, got {parallelism!r}")
    for policy in policies:
        if policy not in POLICIES:
            raise ConfigurationError(f"unknown policy {policy!r}")
    jobs = [(item, policy) for item in items for policy in policies]

    def run_job(job: tuple[BatchItem, str]) -> GenerationRecord:
        item, policy = job
        source = None
        try:
            source = item.open_source()
            return run_generation(
                source,
                policy,
                policy_config=policy_config,
                baseline_config=baseline_config,
                full_length=item.full_length,
                budget=budget,
                sample_id=item.sample_id,
                task_kind=item.task_kind,
            )
        except ConfigurationError:
            raise
        except (SyncThinkError, OSError) as exc:
            return _record(
                item.sample_id, policy, {"budget": budget}, f"{type(exc).__name__}: {exc}"
            )
        finally:
            if source is not None:
                source.close()

    if parallelism == 1:
        return [run_job(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(run_job, jobs))


def _optional(convert: Callable) -> Callable:
    return lambda value: None if value is None else convert(value)


def _pairs(value: list) -> tuple:
    return tuple((t, x) for t, x in value)


# JSON form of the fields that are not JSON values as they stand; every
# other field is written and read as it is
_TO_OBJ = {
    "reason": _optional(lambda reason: reason.value),
    "decision": _optional(lambda d: {**vars(d), "reason": d.reason.value}),
}
_FROM_OBJ = {
    "reason": _optional(StopReason),
    "decision": _optional(lambda d: StopDecision(**{**d, "reason": StopReason(d["reason"])})),
    "rank_trajectory": _pairs,
    "entropy_trajectory": _pairs,
}
_RECORD_FIELDS = tuple(f.name for f in dataclasses.fields(GenerationRecord))


def record_to_obj(record: GenerationRecord) -> dict:
    """JSON object of a record, keys in field order; trajectories stay tuples."""
    obj = {name: getattr(record, name) for name in _RECORD_FIELDS}
    for name, convert in _TO_OBJ.items():
        obj[name] = convert(obj[name])
    return obj


def record_from_obj(obj: dict) -> GenerationRecord:
    values = {name: obj[name] for name in _RECORD_FIELDS}
    for name, convert in _FROM_OBJ.items():
        values[name] = convert(values[name])
    return GenerationRecord(**values)


def write_records(path: str, records: Iterable[GenerationRecord]) -> None:
    jsonl.write_lines(path, (record_to_obj(r) for r in records))


def _check_trajectories(record: GenerationRecord) -> None:
    # json.loads accepts NaN and Infinity, so a file can hold what the
    # controller never writes
    if not all(isinstance(rank, int) and rank >= 0 for _, rank in record.rank_trajectory):
        raise ValueError("ranks must be finite and >= 0")
    if not all(math.isfinite(h) and h >= 0 for _, h in record.entropy_trajectory):
        raise ValueError("entropies must be finite and >= 0")


def read_records(path: str) -> list[GenerationRecord]:
    """Parse a records file; a malformed line raises MalformedRecordError."""
    records = []
    try:
        for lineno, obj in jsonl.read_lines(path):
            try:
                record = record_from_obj(obj)
                record.validate()
                _check_trajectories(record)
            except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
                raise MalformedRecordError(f"{path}:{lineno}: bad record: {exc!r}") from exc
            records.append(record)
    except ValueError as exc:  # not JSON; the message names path:line
        raise MalformedRecordError(str(exc)) from exc
    return records


def record_fingerprint(record: GenerationRecord) -> bytes:
    """Canonical bytes of everything deterministic in the record.

    Wall-time fields are zeroed: they are measured, not derived, and
    repeat runs legitimately differ there.
    """
    obj = record_to_obj(record)
    for key in TIMING_FIELDS:
        obj[key] = 0.0
    return jsonl.dumps(obj).encode("utf-8")
