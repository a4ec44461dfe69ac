"""Trace files: recorded decoding sessions for deterministic replay.

A trace is one JSON object per line.  Line 1 is a header identifying the
source (tokenizer, vocab size, watched terminator id, seed) plus replay
metadata: the natural stop step, if any, and recorded branch answers.
Every following line is one decoding step, its top-K as [token, logprob]
pairs held in memory as one policy.Distribution.  Floats are written in
their shortest round-trip form, so a parse/serialize cycle is byte-stable.
write_trace splices each step line from one encode of its other fields,
a cached text per distinct token and the float texts of one encode of
the logprob row; the bytes are those jsonl.dumps writes for the row.

Replay and StubServer read branch answers only through two rules.  A
probe at decision step t reads key t, whose suffix must match; its live
partial holds t + 1 tokens.  An answer reads the nearest key at or
before the tokens kept: t for an injected stop at step t, t + 1 for a
natural stop there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

from . import jsonl
from .errors import (
    MalformedTraceError,
    TraceIntegrityError,
    UnsupportedProbeError,
)
from .policy import Distribution, TokenId, compute_rank

HEADER_FIELDS = ("tokenizer", "vocab_size", "watched_token", "source", "seed")


@dataclass(frozen=True)
class StepObservation:
    """One decoding step as seen by the controller.

    topk is the step's top-K as a Distribution, sorted by logprob
    descending.  watched_rank is the terminator's rank; censored=True
    means the true rank was unknown beyond the top-k and is reported as
    the number of top-K tokens.
    """

    t: int
    chosen_token: TokenId
    chosen_text: str
    topk: Distribution
    watched_rank: int
    censored: bool
    entropy: float
    step_wall_time: float

    def validate(self) -> None:
        """Check the step on its own."""
        if self.t < 0:
            raise TraceIntegrityError(f"step index {self.t} is negative")
        tokens, lps = self.topk.tokens, self.topk.logprobs
        if not len(tokens):
            raise TraceIntegrityError(f"step {self.t}: empty topk")
        # `not a >= b` also fails a NaN logprob
        if not (lps[:-1] >= lps[1:]).all():
            raise TraceIntegrityError(f"step {self.t}: topk not sorted descending")
        # sorted, so the first and last logprobs bound the rest
        if not (math.isfinite(lps[0]) and math.isfinite(lps[-1])):
            raise TraceIntegrityError(f"step {self.t}: topk logprobs must be finite")
        try:
            distinct = len(set(tokens))
        except TypeError as exc:  # a JSON array or object as a token
            raise TraceIntegrityError(f"step {self.t}: topk token of {exc}") from exc
        if distinct != len(tokens):
            raise TraceIntegrityError(f"step {self.t}: duplicate token in topk")
        if self.watched_rank < 0:
            raise TraceIntegrityError(f"step {self.t}: negative rank")
        if not (math.isfinite(self.entropy) and self.entropy >= 0.0):
            raise TraceIntegrityError(f"step {self.t}: entropy must be finite and >= 0")
        if not (math.isfinite(self.step_wall_time) and self.step_wall_time >= 0.0):
            raise TraceIntegrityError(f"step {self.t}: wall time must be finite and >= 0")


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
        """Check the trace held in memory; step i is named as file line i + 2."""
        _check_header(self.header)
        watched = []
        for i, step in enumerate(self.steps):
            _check_step(step, self.header, i, i + 2)
            if step.chosen_token == self.header.watched_token:
                watched.append(i)
        _check_end(len(self.steps), watched, self.natural_stop, self.probes)

    def probe_at(self, t: int, suffix: str) -> str:
        """Answer of the branch recorded at decision step t for suffix;
        UnsupportedProbeError if none is, or it asked for another suffix."""
        if not self.probes:
            raise UnsupportedProbeError("trace records no probe branches")
        if t not in self.probes:
            raise UnsupportedProbeError(f"no probe branch recorded at step {t}")
        recorded, answer = self.probes[t]
        if recorded != suffix:
            raise UnsupportedProbeError(
                f"probe suffix {suffix!r} differs from the suffix {recorded!r}"
                f" recorded at step {t}"
            )
        return answer

    def answer_at(self, consumed: int) -> str:
        """Answer of the nearest recorded branch at or before `consumed` tokens."""
        keys = [k for k in self.probes if k <= consumed]
        return self.probes[max(keys)][1] if keys else ""


def _check_header(h: TraceHeader) -> None:
    if h.vocab_size < 1:
        raise TraceIntegrityError(f"vocab_size {h.vocab_size} < 1")
    if not (0 <= h.watched_token < h.vocab_size):
        raise TraceIntegrityError(
            f"watched token {h.watched_token} outside vocabulary of {h.vocab_size}"
        )


def _check_step(step: StepObservation, header: TraceHeader, index: int, lineno: int) -> None:
    """Check step number `index`, read from file line `lineno`, against its header."""
    if step.t != index:
        raise TraceIntegrityError(
            f"step indices must be consecutive from 0; saw {step.t} at line {lineno}"
        )
    step.validate()
    ids, vocab = step.topk.tokens, header.vocab_size
    if isinstance(step.chosen_token, int) and not (0 <= step.chosen_token < vocab):
        raise TraceIntegrityError(
            f"step {step.t}: chosen token {step.chosen_token} outside vocabulary"
        )
    # min and max scan the ids in C.  Text tokens carry no id range; the
    # loop runs only to name the first token outside it, or when the ids
    # mix types that do not compare.
    try:
        lo, hi = min(ids), max(ids)
        in_range = isinstance(lo, str) or (0 <= lo and hi < vocab)
    except TypeError:
        in_range = False
    if not in_range:
        for tok in ids:
            if isinstance(tok, int) and not (0 <= tok < vocab):
                raise TraceIntegrityError(f"step {step.t}: topk token {tok} outside vocabulary")

    rank, absent = compute_rank(step.topk, header.watched_token)
    if absent:  # the true rank is censored at the top-K size
        if step.censored and step.watched_rank != rank:
            raise TraceIntegrityError(f"step {step.t}: censored rank must equal topk size")
        if not step.censored and step.watched_rank < rank:
            raise TraceIntegrityError(
                f"step {step.t}: watched token absent from topk"
                f" but rank {step.watched_rank} is inside it"
            )
    elif step.censored:
        raise TraceIntegrityError(
            f"step {step.t}: watched token present in topk but marked censored"
        )
    elif step.watched_rank != rank:
        raise TraceIntegrityError(
            f"step {step.t}: recorded rank {step.watched_rank} disagrees with topk rank {rank}"
        )


def _check_end(n_steps: int, watched: list[int], natural_stop: int | None, probes: dict) -> None:
    """The checks that need every step: `watched` lists the steps that emit the terminator."""
    if not n_steps:
        raise TraceIntegrityError("trace has no steps")
    if natural_stop is None:
        if watched:
            raise TraceIntegrityError(
                f"watched token emitted at step {watched[0]} but natural_stop is unset"
            )
    elif natural_stop != n_steps - 1:
        raise TraceIntegrityError(f"natural_stop {natural_stop} is not the final step")
    elif watched != [natural_stop]:
        raise TraceIntegrityError("watched token emissions inconsistent with natural_stop")
    for key in probes:
        if not (0 <= key <= n_steps):
            raise TraceIntegrityError(f"probe key {key} out of range")


def _pair_heads(tokens, heads: dict[TokenId, str]) -> list[str]:
    """Each top-K pair's `],[token,` text.  Exact int and str tokens share one
    cached text in `heads`; a step holding any other type encodes its own,
    since a dict takes 1, 1.0 and true for one key."""
    if not set(map(type, tokens)) <= {int, str}:
        return ["],[" + jsonl.dumps(tok) + "," for tok in tokens]
    for tok in set(tokens).difference(heads):
        heads[tok] = "],[" + jsonl.dumps(tok) + ","
    return list(map(heads.__getitem__, tokens))


def token_text(token: TokenId, watched: TokenId) -> str:
    """A token's text on the wire: a text token as it is; an id as
    "</think>" if it is the watched id, else "<w{id}>"."""
    if isinstance(token, str):
        return token
    return "</think>" if token == watched else f"<w{token}>"


def _step_line(step: StepObservation, heads: dict[TokenId, str]) -> str:
    """The text jsonl.dumps writes for the step with topk as [token, logprob]
    pairs, spliced from one encode of the other fields, each pair's head
    and the float texts of the logprob row.  The fields after topk are
    numbers and a bool, so the last `"topk":0` is the key itself."""
    head, _, tail = jsonl.dumps({**vars(step), "topk": 0}).rpartition('"topk":0')
    values = jsonl.float_texts(step.topk.logprobs.tolist())
    # each pair's head before its float text
    pieces = [""] * (2 * len(values))
    pieces[::2], pieces[1::2] = _pair_heads(step.topk.tokens, heads), values
    if pieces:
        pieces[0] = pieces[0][2:]  # the first pair drops its head's "],"
        pieces.append("]")  # and the last pair closes
    return head + '"topk":[' + "".join(pieces) + "]" + tail


def write_trace(trace: TraceFile, path: str) -> None:
    """Write the header line, then one line per step (see _step_line)."""
    header = {
        **vars(trace.header),
        "natural_stop": trace.natural_stop,
        "probes": {str(k): trace.probes[k] for k in sorted(trace.probes)},
    }
    heads: dict[TokenId, str] = {}  # one `],[token,` text per distinct token
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(jsonl.dumps(header) + "\n")
        for step in trace.steps:
            fh.write(_step_line(step, heads) + "\n")


def _parse_header(obj: dict, where: str) -> tuple[TraceHeader, dict[int, tuple[str, str]], int | None]:
    for key in HEADER_FIELDS:
        if key not in obj:
            raise MalformedTraceError(f"{where}: header missing field {key!r}")
    try:
        header = TraceHeader(
            tokenizer=str(obj["tokenizer"]),
            vocab_size=int(obj["vocab_size"]),
            watched_token=int(obj["watched_token"]),
            source=str(obj["source"]),
            seed=int(obj["seed"]),
        )
        probes = {
            int(key): _parse_branch(value) for key, value in (obj.get("probes") or {}).items()
        }
        raw_stop = obj.get("natural_stop")
        natural_stop = None if raw_stop is None else int(raw_stop)
    # OverflowError: an integer field holding 1e400, which json reads as inf
    except (ValueError, TypeError, AttributeError, OverflowError) as exc:
        raise MalformedTraceError(f"{where}: bad header: {exc}") from exc
    return header, probes, natural_stop


def _parse_branch(value) -> tuple[str, str]:
    """A header probe value, a [suffix, answer] pair, as a tuple of texts."""
    if not (isinstance(value, list) and len(value) == 2):
        raise ValueError(f"probe branch must be a [suffix, answer] pair, got {value!r}")
    return str(value[0]), str(value[1])


def _parse_step(obj: dict, where: str, shared: dict[TokenId, TokenId]) -> StepObservation:
    """One step row as a StepObservation; its int and str tokens come from `shared`.

    json.loads makes a new object for every token it parses, and an int
    above 256 costs 28 bytes, so at K = 513 unshared ids would be about
    7 KiB of every step held.  `shared` maps each token to its first copy
    in the trace.  Only exact ints and strs go through it: a dict takes
    1, 1.0 and true for one key, and a list token must reach the step
    check unhashed.
    """
    setdefault = shared.setdefault
    try:
        return StepObservation(
            t=int(obj["t"]),
            chosen_token=obj["chosen_token"],
            chosen_text=str(obj["chosen_text"]),
            topk=Distribution(
                [setdefault(tok, tok) if type(tok) is int or type(tok) is str else tok
                 for tok, _ in obj["topk"]],
                [float(lp) for _, lp in obj["topk"]],
            ),
            watched_rank=int(obj["watched_rank"]),
            censored=bool(obj["censored"]),
            entropy=float(obj["entropy"]),
            step_wall_time=float(obj["step_wall_time"]),
        )
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise MalformedTraceError(f"{where}: bad step record: {exc}") from exc


def read_trace(path: str) -> TraceFile:
    """Parse and check a trace file in one pass; the first fault by line is reported."""
    header = None
    steps: list[StepObservation] = []
    watched: list[int] = []
    shared: dict[TokenId, TokenId] = {}  # one object per distinct token
    where = path  # a step's integrity error names its line, others the file
    try:
        for lineno, obj in jsonl.read_lines(path):
            if not isinstance(obj, dict):
                raise MalformedTraceError(f"{path}:{lineno}: expected a JSON object")
            if header is None:
                header, probes, natural_stop = _parse_header(obj, f"{path}:{lineno}")
                _check_header(header)
                continue
            where = f"{path}:{lineno}"
            step = _parse_step(obj, where, shared)
            _check_step(step, header, len(steps), lineno)
            if step.chosen_token == header.watched_token:
                watched.append(step.t)
            steps.append(step)
        where = path
        if header is None:
            raise MalformedTraceError(f"{path}: empty trace file")
        _check_end(len(steps), watched, natural_stop, probes)
    except TraceIntegrityError as exc:
        raise TraceIntegrityError(f"{where}: {exc}") from exc
    except ValueError as exc:
        raise MalformedTraceError(str(exc)) from exc
    except OSError as exc:
        raise MalformedTraceError(f"{path}: {exc}") from exc
    return TraceFile(
        header=header, steps=tuple(steps), probes=probes, natural_stop=natural_stop
    )


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
        return step

    def probe_with_time(self, suffix: str) -> tuple[str, float]:
        """Recorded probe answer at the last step read, taking no time."""
        return self.trace.probe_at(self._pos - 1, suffix), 0.0

    def answer_after(self, t: int, injected: bool) -> tuple[str, int, float]:
        """Answer text after stopping at step t, with token count and time.

        Injected stops answer from the state before step t's own token;
        natural stops include it.  Exact recorded branches are preferred,
        otherwise the nearest earlier branch stands in.
        """
        answer = self.trace.answer_at(t if injected else t + 1)
        return answer, len(answer.split()), 0.0

    def close(self) -> None:
        pass


def open_trace(path: str) -> TraceReader:
    """Load a trace file and return a replayable reader over it."""
    return TraceReader(read_trace(path))

