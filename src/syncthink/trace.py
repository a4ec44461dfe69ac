"""Trace files: recorded decoding sessions for deterministic replay.

A trace is one JSON object per line.  Line 1 is a header identifying the
source (tokenizer, vocab size, watched terminator id, seed) plus replay
metadata: the natural stop step, if any, and recorded branch answers.
Every following line is one decoding step.  Floats are written with 17
significant digits so a parse/serialize cycle is byte-stable.

Branch answers are keyed by the number of already-consumed tokens, so the
same table serves probe forks (key t at decision point t), injected
answers (key t: the terminator replaces step t's token) and the natural
answer (key t+1: the terminator was step t's own token).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from . import jsonl
from .errors import (
    MalformedTraceError,
    TraceIntegrityError,
    UnsupportedProbeError,
)
from .policy import TokenId, compute_rank

HEADER_FIELDS = ("tokenizer", "vocab_size", "watched_token", "source", "seed")


@dataclass(frozen=True)
class StepObservation:
    """One decoding step as seen by the controller.

    topk holds (token, logprob) pairs sorted by logprob descending.
    watched_rank is the terminator's rank; censored=True means the true
    rank was unknown beyond the top-k and is reported as len(topk).
    """

    t: int
    chosen_token: TokenId
    chosen_text: str
    topk: tuple[tuple[TokenId, float], ...]
    watched_rank: int
    censored: bool
    entropy: float
    step_wall_time: float

    def validate(self) -> None:
        if self.t < 0:
            raise TraceIntegrityError(f"step index {self.t} is negative")
        if not self.topk:
            raise TraceIntegrityError(f"step {self.t}: empty topk")
        lps = [lp for _, lp in self.topk]
        if any(a < b for a, b in zip(lps, lps[1:])):
            raise TraceIntegrityError(f"step {self.t}: topk not sorted descending")
        ids = [tok for tok, _ in self.topk]
        if len(set(ids)) != len(ids):
            raise TraceIntegrityError(f"step {self.t}: duplicate token in topk")
        if self.watched_rank < 0:
            raise TraceIntegrityError(f"step {self.t}: negative rank")
        if self.entropy < 0.0:
            raise TraceIntegrityError(f"step {self.t}: negative entropy")
        if self.step_wall_time < 0.0:
            raise TraceIntegrityError(f"step {self.t}: negative wall time")


@dataclass(frozen=True)
class TraceHeader:
    tokenizer: str
    vocab_size: int
    watched_token: int
    source: str
    seed: int


@dataclass(frozen=True)
class TraceFile:
    header: TraceHeader
    steps: tuple[StepObservation, ...]
    # branch answers keyed by consumed-token count; value is (suffix, answer)
    probes: dict[int, tuple[str, str]] = field(default_factory=dict)
    natural_stop: int | None = None

    def validate(self) -> None:
        h = self.header
        if h.vocab_size < 1:
            raise TraceIntegrityError(f"vocab_size {h.vocab_size} < 1")
        if not (0 <= h.watched_token < h.vocab_size):
            raise TraceIntegrityError(
                f"watched token {h.watched_token} outside vocabulary of {h.vocab_size}"
            )
        if not self.steps:
            raise TraceIntegrityError("trace has no steps")
        for i, step in enumerate(self.steps):
            if step.t != i:
                raise TraceIntegrityError(
                    f"step indices must be consecutive from 0; saw {step.t} at line {i + 2}"
                )
            step.validate()
            self._check_step_tokens(step)
            self._check_rank_consistency(step)
        watched_positions = [
            s.t for s in self.steps if s.chosen_token == h.watched_token
        ]
        if self.natural_stop is None:
            if watched_positions:
                raise TraceIntegrityError(
                    f"watched token emitted at step {watched_positions[0]}"
                    " but natural_stop is unset"
                )
        else:
            if self.natural_stop != len(self.steps) - 1:
                raise TraceIntegrityError(
                    f"natural_stop {self.natural_stop} is not the final step"
                )
            if watched_positions != [self.natural_stop]:
                raise TraceIntegrityError(
                    "watched token emissions inconsistent with natural_stop"
                )
        for key in self.probes:
            if not (0 <= key <= len(self.steps)):
                raise TraceIntegrityError(f"probe key {key} out of range")

    def _check_step_tokens(self, step: StepObservation) -> None:
        vocab = self.header.vocab_size
        if isinstance(step.chosen_token, int) and not (0 <= step.chosen_token < vocab):
            raise TraceIntegrityError(
                f"step {step.t}: chosen token {step.chosen_token} outside vocabulary"
            )
        for tok, _ in step.topk:
            if isinstance(tok, int) and not (0 <= tok < vocab):
                raise TraceIntegrityError(
                    f"step {step.t}: topk token {tok} outside vocabulary"
                )

    def _check_rank_consistency(self, step: StepObservation) -> None:
        watched = self.header.watched_token
        rank, censored = compute_rank(step.topk, watched)
        if not censored:
            if step.censored:
                raise TraceIntegrityError(
                    f"step {step.t}: watched token present in topk but marked censored"
                )
            if step.watched_rank != rank:
                raise TraceIntegrityError(
                    f"step {step.t}: recorded rank {step.watched_rank}"
                    f" disagrees with topk rank {rank}"
                )
        else:
            if step.censored and step.watched_rank != len(step.topk):
                raise TraceIntegrityError(
                    f"step {step.t}: censored rank must equal topk size"
                )
            if not step.censored and step.watched_rank < len(step.topk):
                raise TraceIntegrityError(
                    f"step {step.t}: watched token absent from topk"
                    f" but rank {step.watched_rank} is inside it"
                )


def write_trace(trace: TraceFile, path: str) -> None:
    h = trace.header
    header_obj = {
        "tokenizer": h.tokenizer,
        "vocab_size": h.vocab_size,
        "watched_token": h.watched_token,
        "source": h.source,
        "seed": h.seed,
        "natural_stop": trace.natural_stop,
        "probes": {str(k): list(trace.probes[k]) for k in sorted(trace.probes)},
    }
    lines: list[object] = [header_obj]
    for s in trace.steps:
        lines.append(
            {
                "t": s.t,
                "chosen_token": s.chosen_token,
                "chosen_text": s.chosen_text,
                "topk": [[tok, lp] for tok, lp in s.topk],
                "watched_rank": s.watched_rank,
                "censored": s.censored,
                "entropy": s.entropy,
                "step_wall_time": s.step_wall_time,
            }
        )
    jsonl.write_lines(path, lines)


def _parse_header(obj: dict, path: str) -> tuple[TraceHeader, dict[int, tuple[str, str]], int | None]:
    for key in HEADER_FIELDS:
        if key not in obj:
            raise MalformedTraceError(f"{path}:1: header missing field {key!r}")
    try:
        header = TraceHeader(
            tokenizer=str(obj["tokenizer"]),
            vocab_size=int(obj["vocab_size"]),
            watched_token=int(obj["watched_token"]),
            source=str(obj["source"]),
            seed=int(obj["seed"]),
        )
        probes = {
            int(key): (str(value[0]), str(value[1]))
            for key, value in (obj.get("probes") or {}).items()
        }
        raw_stop = obj.get("natural_stop")
        natural_stop = None if raw_stop is None else int(raw_stop)
    except (ValueError, IndexError, TypeError, AttributeError) as exc:
        raise MalformedTraceError(f"{path}:1: bad header: {exc}") from exc
    return header, probes, natural_stop


def _parse_step(obj: dict, path: str, lineno: int) -> StepObservation:
    try:
        return StepObservation(
            t=int(obj["t"]),
            chosen_token=obj["chosen_token"],
            chosen_text=str(obj["chosen_text"]),
            topk=tuple((tok, float(lp)) for tok, lp in obj["topk"]),
            watched_rank=int(obj["watched_rank"]),
            censored=bool(obj["censored"]),
            entropy=float(obj["entropy"]),
            step_wall_time=float(obj["step_wall_time"]),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise MalformedTraceError(f"{path}:{lineno}: bad step record: {exc}") from exc


def read_trace(path: str) -> TraceFile:
    """Parse and integrity-check a trace file."""
    header = None
    probes: dict[int, tuple[str, str]] = {}
    natural_stop = None
    steps: list[StepObservation] = []
    try:
        rows = list(jsonl.read_lines(path))
    except ValueError as exc:
        raise MalformedTraceError(str(exc)) from exc
    except OSError as exc:
        raise MalformedTraceError(f"{path}: {exc}") from exc
    if not rows:
        raise MalformedTraceError(f"{path}: empty trace file")
    for lineno, obj in rows:
        if not isinstance(obj, dict):
            raise MalformedTraceError(f"{path}:{lineno}: expected a JSON object")
        if header is None:
            header, probes, natural_stop = _parse_header(obj, path)
        else:
            steps.append(_parse_step(obj, path, lineno))
    trace = TraceFile(
        header=header, steps=tuple(steps), probes=probes, natural_stop=natural_stop
    )
    trace.validate()
    return trace


class TraceReader:
    """Stream-like view over a trace: iterate steps, answer probes.

    Matches the controller's source protocol: watched_token, iteration,
    probe_with_time, answer_after, close.  Replay contributes no wall
    time of its own; recorded step times carry the cost model.
    """

    def __init__(self, trace: TraceFile):
        self.trace = trace
        self.watched_token: TokenId = trace.header.watched_token
        self._pos = 0
        self._current_t: int | None = None

    @property
    def reference_length(self) -> int:
        """Full-run reasoning length: through the natural stop if known."""
        if self.trace.natural_stop is not None:
            return self.trace.natural_stop + 1
        return len(self.trace.steps)

    def __iter__(self) -> Iterator[StepObservation]:
        return self

    def __next__(self) -> StepObservation:
        if self._pos >= len(self.trace.steps):
            raise StopIteration
        step = self.trace.steps[self._pos]
        self._pos += 1
        self._current_t = step.t
        return step

    def probe_with_time(self, suffix: str) -> tuple[str, float]:
        """Recorded branch answer at the current step, taking no time.

        Raises UnsupportedProbeError when no branch is recorded there.
        """
        if not self.trace.probes:
            raise UnsupportedProbeError("trace records no probe branches")
        key = 0 if self._current_t is None else self._current_t
        if key not in self.trace.probes:
            raise UnsupportedProbeError(f"no probe branch recorded at step {key}")
        return self.trace.probes[key][1], 0.0

    def answer_after(self, t: int, injected: bool) -> tuple[str, int, float]:
        """Answer text after stopping at step t, with token count and time.

        Injected stops answer from the state before step t's own token;
        natural stops include it.  Exact recorded branches are preferred,
        otherwise the nearest earlier branch stands in.
        """
        key = t if injected else t + 1
        candidates = [k for k in self.trace.probes if k <= key]
        if not candidates:
            return "", 0, 0.0
        answer = self.trace.probes[max(candidates)][1]
        return answer, len(answer.split()), 0.0

    def close(self) -> None:
        pass


def open_trace(path: str) -> TraceReader:
    """Load a trace file and return a replayable reader over it."""
    return TraceReader(read_trace(path))

