"""Generation control: one loop runs every stopping policy.

A source (trace replay or live stream) yields per-step observations.
At each decision point the natural emission of the watched terminator is
checked first; otherwise the selected policy decides whether to inject
the terminator now.  After stopping, the answer phase runs and the
answer is normalized for scoring.

Timing is split three ways and sums exactly to the total: generation
(recorded or measured step time, probes, answer), metric (policy
arithmetic), eval (answer normalization).  Record contents other than
the wall-time fields are deterministic for a given source and config;
record_fingerprint captures exactly that deterministic part.

Each step's policy check is a plain bool (should_stop for syncthink),
and a record keeps only the decision made at its stop step, built there
once.  The rank and entropy of every step stay in its trajectories, and
dynamic_threshold rebuilds a syncthink threshold at any step from the
record's config.
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
    if policy_config is None:
        pcfg = PolicyConfig(watched_token=watched)
    else:
        if policy_config.watched_token != watched:
            raise ConfigurationError(
                f"config watches {policy_config.watched_token!r}"
                f" but the source watches {watched!r}"
            )
        pcfg = policy_config
    bcfg = baseline_config or BaselineConfig()
    if policy == "fixed_ratio" and full_length is None:
        full_length = getattr(source, "reference_length", None)
        if full_length is None:
            raise ConfigurationError(
                "fixed_ratio needs a reference full-run length for this source"
            )
    config = _snapshot_config(policy, pcfg, bcfg, full_length, budget)

    decision: StopDecision | None = None
    ranks: list[tuple[int, int]] = []
    entropies: list[tuple[int, float]] = []
    step_times: list[float] = []
    probe_answers: list[str] = []
    metric_seconds = 0.0
    probe_seconds = 0.0
    stop_step: int | None = None
    injected = False
    reason: StopReason | None = None
    error = ""

    def finish(complete: bool, answer: tuple[str, int, float], eval_secs: float,
               normalized: str) -> GenerationRecord:
        answer_text, answer_tokens, answer_secs = answer
        reasoning = (stop_step + 1) if stop_step is not None else len(step_times)
        gen = math.fsum(step_times) + probe_seconds + answer_secs
        total_time = gen + metric_seconds + eval_secs
        record = GenerationRecord(
            sample_id=sample_id,
            policy=policy,
            config=config,
            complete=complete,
            error=error,
            stop_step=stop_step,
            injected=injected,
            reason=reason,
            reasoning_tokens=reasoning,
            answer_tokens=answer_tokens,
            total_tokens=reasoning + answer_tokens,
            answer_text=answer_text,
            normalized_answer=normalized,
            decision=decision,
            rank_trajectory=tuple(ranks),
            entropy_trajectory=tuple(entropies),
            t_gen=gen,
            t_metric=metric_seconds,
            t_eval=eval_secs,
            t_total=total_time,
        )
        record.validate()
        return record

    try:
        for obs in source:
            t = obs.t
            ranks.append((t, obs.watched_rank))
            entropies.append((t, obs.entropy))
            step_times.append(obs.step_wall_time)

            m0 = time.perf_counter()
            if obs.chosen_token == watched:
                # the source ended reasoning on its own; policy defers
                reason, probe_secs = StopReason.NATURAL_TERMINATION, 0.0
            else:
                fired, probe_secs = _policy_decision(
                    policy, t, obs, pcfg, bcfg, full_length, probe_answers, source, task_kind,
                )
                if fired:
                    reason, injected = StopReason.THRESHOLD_FIRED, True
                elif t + 1 >= budget:
                    reason = StopReason.BUDGET_EXHAUSTED
            if reason is not None:
                stop_step = t
                decision = _stop_decision(policy, obs, pcfg, reason)
            metric_seconds += time.perf_counter() - m0 - probe_secs
            probe_seconds += probe_secs
            if reason is not None:
                break
        else:
            if step_times:
                # stream ran dry without stopping
                m0 = time.perf_counter()
                reason = StopReason.BUDGET_EXHAUSTED
                stop_step = len(step_times) - 1
                decision = _stop_decision(policy, obs, pcfg, reason)
                metric_seconds += time.perf_counter() - m0
    except SessionError as exc:
        error = f"SessionError: {exc}"
        return finish(False, ("", 0, 0.0), 0.0, "")
    except (UnsupportedProbeError, PolicyUnavailableError) as exc:
        raise PolicyUnavailableError(
            f"policy {policy!r} needs branch probes the source cannot provide: {exc}"
        ) from exc

    if stop_step is None:
        error = "source yielded no steps"
        return finish(False, ("", 0, 0.0), 0.0, "")

    answer = ("", 0, 0.0)
    if reason in (StopReason.THRESHOLD_FIRED, StopReason.NATURAL_TERMINATION):
        remaining = budget - (stop_step + 1)
        if remaining > 0:
            try:
                answer = source.answer_after(stop_step, injected)
            except SessionError as exc:
                error = f"SessionError in answer phase: {exc}"
                return finish(False, ("", 0, 0.0), 0.0, "")
            if answer[1] > remaining:
                # budget truncates the answer token count
                answer = (answer[0], remaining, answer[2])

    e0 = time.perf_counter()
    normalized = parse_answer(answer[0], task_kind)
    eval_secs = time.perf_counter() - e0
    return finish(True, answer, eval_secs, normalized)


def _policy_decision(
    policy: str,
    t: int,
    obs,
    pcfg: PolicyConfig,
    bcfg: BaselineConfig,
    full_length: int | None,
    probe_answers: list[str],
    source,
    task_kind: str,
) -> tuple[bool, float]:
    """Whether the policy fires at one step, and the probe generation time."""
    if policy == "syncthink":
        return should_stop(t, obs, pcfg), 0.0
    if policy == "full":
        return False, 0.0
    if policy == "none":
        return True, 0.0
    if policy == "fixed_ratio":
        return fixed_ratio_stop(t, full_length, bcfg.ratio), 0.0
    if policy == "answer_convergence":
        if t > 0 and t % bcfg.segment_len == 0:
            raw, probe_secs = source.probe_with_time(bcfg.probe_suffix)
            probe_answers.append(parse_answer(raw, task_kind))
            return answer_convergence_stop(probe_answers, bcfg.convergence_k), probe_secs
        return False, 0.0
    raise ConfigurationError(f"unknown policy {policy!r}")  # pragma: no cover


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
            return _failed_record(item.sample_id, policy, budget, exc)
        finally:
            if source is not None:
                closer = getattr(source, "close", None)
                if closer is not None:
                    closer()

    if parallelism == 1:
        return [run_job(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(run_job, jobs))


def _failed_record(sample_id: str, policy: str, budget: int, exc: Exception) -> GenerationRecord:
    return GenerationRecord(
        sample_id=sample_id,
        policy=policy,
        config={"budget": budget},
        complete=False,
        error=f"{type(exc).__name__}: {exc}",
        stop_step=None,
        injected=False,
        reason=None,
        reasoning_tokens=0,
        answer_tokens=0,
        total_tokens=0,
        answer_text="",
        normalized_answer="",
        decision=None,
        rank_trajectory=(),
        entropy_trajectory=(),
        t_gen=0.0,
        t_metric=0.0,
        t_eval=0.0,
        t_total=0.0,
    )


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
