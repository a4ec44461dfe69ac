"""Generation control: one loop runs every stopping policy.

A source (trace replay or live stream) yields per-step observations.
At each step the natural emission of the watched terminator is checked
first, then the policy's step test (bound once per run), then the
budget; a stream that runs dry counts as an exhausted budget.  After the
loop the stop is decided once, the answer phase runs and the answer is
normalized for scoring.  A record stores each fact once: the rank and
entropy at its stop are the last entries of its trajectories, and
dynamic_threshold rebuilds a syncthink threshold at any step from them
and the record's config.  Every record, complete or not, is built by
_record, and read_records rebuilds each line through it.

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
    CapabilityError,
    ConfigurationError,
    MalformedRecordError,
    PolicyUnavailableError,
    SessionError,
    SyncThinkError,
    UnsupportedProbeError,
)
from .evaluation import TASK_KINDS, Sample, parse_answer
from .jsonl import FLOAT, INT, TEXT, typed
from .policy import (
    POLICIES,
    BaselineConfig,
    PolicyConfig,
    StopReason,
    answer_convergence_stop,
    fixed_ratio_stop_step,
    should_stop,
)

TIMING_FIELDS = ("t_gen", "t_metric", "t_eval", "t_total")

# steps a run may take, reasoning and answer together, and the sources a
# batch runs at once, unless told otherwise
DEFAULT_BUDGET = 8192
DEFAULT_PARALLELISM = 1


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
    rank_trajectory: tuple[tuple[int, int], ...]
    entropy_trajectory: tuple[tuple[int, float], ...]
    t_gen: float
    t_metric: float
    t_eval: float
    t_total: float


# the config fields each policy's records hold after _CONFIG_HEAD, in
# record order, with their JSON types (see jsonl.typed)
_CONFIG_FIELDS = {
    "syncthink": {"entropy_weight": FLOAT, "pacing_cap": INT, "min_steps": INT,
                  "check_interval": INT},
    "full": {},
    "none": {},
    "fixed_ratio": {"ratio": FLOAT, "full_length": INT},
    "answer_convergence": {"segment_len": INT, "convergence_k": INT, "probe_suffix": TEXT},
}
# a source that never opened gives only the _UNOPENED fields
_UNOPENED = {"budget": INT, "task_kind": TEXT}
_CONFIG_HEAD = {**_UNOPENED, "watched_token": (int, str)}


def _snapshot_config(policy: str, pcfg: PolicyConfig, bcfg: BaselineConfig,
                     full_length: int | None, budget: int, task_kind: str) -> dict:
    """The record's config: _CONFIG_HEAD, then the policy's _CONFIG_FIELDS."""
    values = {**vars(pcfg), **vars(bcfg), "full_length": full_length, "budget": budget,
              "task_kind": task_kind}
    return {name: values[name] for name in [*_CONFIG_HEAD, *_CONFIG_FIELDS[policy]]}


def run_generation(
    source,
    policy: str,
    *,
    policy_config: PolicyConfig | None = None,
    baseline_config: BaselineConfig | None = None,
    full_length: int | None = None,
    budget: int = DEFAULT_BUDGET,
    sample_id: str = "",
    task_kind: str = Sample.task_kind,
) -> GenerationRecord:
    """Drive one source under one policy and build its record.

    The source yields StepObservation values and provides watched_token,
    probe_with_time(suffix) and answer_after(t, injected).  A syncthink
    config whose pacing cap exceeds the pacing_cap a source states (a
    live session's) is refused before any step.  Mid-stream
    failures (SessionError, or a CapabilityError such as a token streamed
    without logprobs) produce an incomplete record carrying the partial
    trajectories instead of raising; error names the class.
    """
    check_batch([policy], budget)
    watched = source.watched_token
    pcfg = policy_config or PolicyConfig(watched_token=watched)
    if pcfg.watched_token != watched:
        raise ConfigurationError(
            f"config watches {pcfg.watched_token!r} but the source watches {watched!r}"
        )
    if policy == "syncthink" and getattr(source, "pacing_cap", math.inf) < pcfg.pacing_cap:
        raise ConfigurationError(
            f"config pacing cap {pcfg.pacing_cap} exceeds the source's {source.pacing_cap}:"
            " its censored ranks could fire the rule"
        )
    bcfg = baseline_config or BaselineConfig()
    if policy == "fixed_ratio" and full_length is None:
        full_length = getattr(source, "reference_length", None)
        if full_length is None:
            raise ConfigurationError(
                "fixed_ratio needs a reference full-run length for this source"
            )
    config = _snapshot_config(policy, pcfg, bcfg, full_length, budget, task_kind)

    ranks: list[tuple[int, int]] = []
    entropies: list[tuple[int, float]] = []
    step_times: list[float] = []
    probe_times: list[float] = []
    fires = _step_test(policy, source, pcfg, bcfg, full_length, task_kind, probe_times)
    obs = reason = None
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
    except (SessionError, CapabilityError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    except (UnsupportedProbeError, PolicyUnavailableError) as exc:
        raise PolicyUnavailableError(
            f"policy {policy!r} needs branch probes the source cannot provide: {exc}"
        ) from exc
    if obs is None and not error:
        error = "source yielded no steps"

    text, tokens, answer_seconds = "", 0, 0.0
    normalized, eval_seconds = "", 0.0
    if not error:
        # a stream that ran dry without stopping has exhausted its budget
        reason = reason or StopReason.BUDGET_EXHAUSTED
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
        ranks=ranks, entropies=entropies, reason=reason,
        answer=(text, tokens), normalized=normalized,
        t_gen=math.fsum(step_times) + probe_seconds + answer_seconds,
        t_metric=metric_seconds - probe_seconds,
        t_eval=eval_seconds,
    )


def check_batch(policies: Sequence[str], budget: int,
                parallelism: int = DEFAULT_PARALLELISM) -> None:
    """Refuse an unknown policy, or a budget or parallelism below 1."""
    if parallelism < 1:
        raise ConfigurationError(f"parallelism must be >= 1, got {parallelism!r}")
    for policy in policies:
        if policy not in POLICIES:
            raise ConfigurationError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    if budget < 1:
        raise ConfigurationError(f"budget must be >= 1, got {budget!r}")


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
        stop_step = fixed_ratio_stop_step(full_length, bcfg.ratio)
        return lambda obs: obs.t >= stop_step
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
            reason: StopReason | None = None,
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
    return GenerationRecord(
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
        rank_trajectory=tuple(ranks),
        entropy_trajectory=tuple(entropies),
        t_gen=t_gen,
        t_metric=t_metric,
        t_eval=t_eval,
        t_total=t_gen + t_metric + t_eval,
    )


@dataclass(frozen=True)
class BatchItem:
    """One sample's source recipe for a batch run."""

    sample_id: str
    open_source: Callable[[], object]
    task_kind: str = Sample.task_kind
    full_length: int | None = None


def run_batch(
    items: Sequence[BatchItem],
    policies: Sequence[str],
    *,
    policy_config: PolicyConfig | None = None,
    baseline_config: BaselineConfig | None = None,
    budget: int = DEFAULT_BUDGET,
    parallelism: int = DEFAULT_PARALLELISM,
) -> list[GenerationRecord]:
    """Run the items x policies grid; data failures become incomplete records.

    Results keep grid order regardless of parallelism.  Configuration
    errors still raise; a corrupt trace or dead stream only poisons its
    own record.
    """
    check_batch(policies, budget, parallelism)
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
                item.sample_id, policy, {"budget": budget, "task_kind": item.task_kind},
                f"{type(exc).__name__}: {exc}",
            )
        finally:
            if source is not None:
                source.close()

    if parallelism == 1:
        return [run_job(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(run_job, jobs))


def _pairs(value: list) -> tuple:
    return tuple((t, x) for t, x in value)


_RECORD_FIELDS = tuple(f.name for f in dataclasses.fields(GenerationRecord))
# the JSON type of each field _record takes as it is given
_PRIMARY_TYPES = {
    "sample_id": TEXT, "config": (dict,), "error": TEXT, "answer_text": TEXT,
    "answer_tokens": INT,
    "t_gen": (float,), "t_metric": (float,), "t_eval": (float,),
}
# the fields _record derives from the others; normalized_answer is
# rebuilt from answer_text and the config's task_kind
_DERIVED = ("complete", "stop_step", "injected", "reasoning_tokens", "total_tokens",
            "normalized_answer", "t_total")


def record_to_obj(record: GenerationRecord) -> dict:
    """JSON object of a record, keys in field order; trajectories stay tuples."""
    obj = {name: getattr(record, name) for name in _RECORD_FIELDS}
    if record.reason is not None:
        obj["reason"] = record.reason.value
    return obj


def record_from_obj(obj: dict) -> GenerationRecord:
    """Rebuild a record through _record from its primary fields.

    Raises TypeError or ValueError when a field has the wrong JSON type,
    when the config names no task_kind or is not the policy's (or
    ConfigurationError, see _check_config), or when a stored derived
    field differs from the one rebuilt; normalized_answer is rebuilt through
    parse_answer, and is "" for a record with an error.  Keys that are
    not fields, such as those of earlier record formats, are ignored.
    """
    if obj["policy"] not in POLICIES:
        raise ValueError(f"unknown policy {obj['policy']!r}")
    for name, kinds in _PRIMARY_TYPES.items():
        typed(name, obj[name], kinds)
    task_kind = obj["config"].get("task_kind")
    if task_kind not in TASK_KINDS:
        raise ValueError(f"config task_kind must be one of {TASK_KINDS}, got {task_kind!r}")
    _check_config(obj)
    if obj["answer_tokens"] < 0:
        raise ValueError(f"answer_tokens must be >= 0, got {obj['answer_tokens']!r}")
    if not all(math.isfinite(obj[name]) for name in ("t_gen", "t_metric", "t_eval")):
        raise ValueError("times must be finite")
    ranks, entropies = _pairs(obj["rank_trajectory"]), _pairs(obj["entropy_trajectory"])
    _check_trajectories(ranks, entropies)
    record = _record(
        obj["sample_id"], obj["policy"], obj["config"], obj["error"],
        ranks=ranks, entropies=entropies,
        reason=None if obj["reason"] is None else StopReason(obj["reason"]),
        answer=(obj["answer_text"], obj["answer_tokens"]),
        normalized="" if obj["error"] else parse_answer(obj["answer_text"], task_kind),
        t_gen=obj["t_gen"], t_metric=obj["t_metric"], t_eval=obj["t_eval"],
    )
    for name in _DERIVED:
        stored, rebuilt = obj[name], getattr(record, name)
        if type(stored) is not type(rebuilt) or stored != rebuilt:
            raise ValueError(f"{name} is {stored!r} but the other fields give {rebuilt!r}")
    return record


def _check_config(obj: dict) -> None:
    """A record's config is what _snapshot_config writes for its policy, or
    _UNOPENED's fields for a record with an error and no steps: those keys
    in that order, each of its JSON type, and values that PolicyConfig and
    BaselineConfig accept, else ConfigurationError."""
    config, fields = obj["config"], {**_CONFIG_HEAD, **_CONFIG_FIELDS[obj["policy"]]}
    if list(config) == list(_UNOPENED) and obj["error"] and not obj["rank_trajectory"]:
        fields = _UNOPENED
    if list(config) != list(fields):
        raise ValueError(f"config keys {list(config)} are not {list(fields)}")
    for name, kinds in fields.items():
        typed(f"config {name}", config[name], kinds)
    if config["budget"] < 1 or config.get("full_length", 1) < 1:
        raise ValueError("config budget and full_length must be >= 1")
    for cls in (PolicyConfig, BaselineConfig):
        cls(**{name: config[name] for name in cls.__dataclass_fields__.keys() & config.keys()})


def write_records(path: str, records: Iterable[GenerationRecord]) -> None:
    jsonl.write_lines(path, (record_to_obj(r) for r in records))


def _check_trajectories(ranks: tuple, entropies: tuple) -> None:
    """Entry i of each trajectory is [i, value]: an int rank, a float entropy.

    json.loads accepts NaN and Infinity, so a file can hold what the
    controller never writes.
    """
    if len(ranks) != len(entropies):
        raise ValueError("rank and entropy trajectories differ in length")
    for i, ((t, rank), (u, h)) in enumerate(zip(ranks, entropies)):
        if not (type(t) is int and type(u) is int and t == u == i):
            raise ValueError(f"trajectory entry {i} is not step {i}")
        if not (type(rank) is int and rank >= 0):
            raise ValueError("ranks must be finite and >= 0")
        if not (type(h) is float and math.isfinite(h) and h >= 0):
            raise ValueError("entropies must be finite and >= 0")


def read_records(path: str) -> list[GenerationRecord]:
    """Parse a records file; a malformed line raises MalformedRecordError."""
    records = []
    try:
        for lineno, obj in jsonl.read_lines(path):
            try:
                records.append(record_from_obj(obj))
            except (LookupError, TypeError, ValueError, ConfigurationError) as exc:
                raise MalformedRecordError(f"{path}:{lineno}: bad record: {exc!r}") from exc
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
