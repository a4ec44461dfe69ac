"""Trace files: recorded decoding sessions for deterministic replay.

A trace is one JSON object per line.  Line 1 is a header identifying the
source (tokenizer, vocab size, watched terminator id, seed) plus replay
metadata: the natural stop step, if any, and recorded branch answers.
Every following line is one decoding step, its top-K as [token, logprob]
pairs.  Floats are written in their shortest round-trip form, so a
parse/serialize cycle is byte-stable.  Each field is read by its JSON
type and never coerced (jsonl.typed; a float field also takes an
integer).  _check_step, the one check of a step, holds that its text is
not empty and its top-K passes policy.topk_probs, the one top-K rule,
with its chosen token, and the format's rules: rows sorted descending,
no -inf logprob (jsonl cannot write it), ids inside the vocabulary, and
a rank, censored flag and entropy that agree with the top-K.
read_trace, TraceFile.validate and write_trace each run it with the
header and end checks.  write_trace splices each line from one encode
of its other fields, a cached text per distinct token and the float
texts of one encode of the logprob row, the bytes jsonl.dumps writes
for the row, into a temporary file it renames over the target, so a
failed write leaves the target as it was.

Replay reads only a step's scalars (rank, censored flag, entropy, wall
time, chosen token and text), so read_trace checks every line against
its top-K and then keeps the step without it (topk is None): about
0.55 KiB a step whatever K is (tracemalloc), where a K = 513 top-K
held as a Distribution costs about 8 KiB.  For each step it also keeps
the line's byte offset, line number and CRC-32.  TraceFile.iter_topk is
the one way to a step's top-K: the step's own for a trace built in
memory (the generator's, or a hand-built one), the line re-read and
parsed for a read trace.  A re-read line that is not byte for byte the one checked
raises TraceIntegrityError naming its file:line.  write_trace and
StubServer are its callers.

Replay and StubServer read branch answers only through two rules.  A
probe at decision step t reads key t, whose suffix must match; its live
partial holds t + 1 tokens.  An answer reads the nearest key at or
before the tokens kept: t for an injected stop at step t, t + 1 for a
natural stop there.  An answer counts one token per piece it streams in
(answer_pieces): each word with the whitespace before it, the last also
with the whitespace after it, or, for an answer of whitespace alone, the
whole answer as one piece.
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
import zlib
from array import array
from dataclasses import dataclass, field
from typing import Iterator

from . import jsonl
from .errors import (
    MalformedDistributionError,
    MalformedTraceError,
    TraceIntegrityError,
    UnsupportedProbeError,
)
from .jsonl import BOOL, FLOAT, INT, TEXT, typed
from .policy import ENTROPY_TOLERANCE, Distribution, TokenId, compute_rank, shannon_entropy

# the JSON type of each header field, and of each step field but the
# tokens (see jsonl.typed)
HEADER_FIELDS = {"tokenizer": TEXT, "vocab_size": INT, "watched_token": INT, "source": TEXT,
                 "seed": INT}
_STEP_FIELDS = {"t": INT, "chosen_text": TEXT, "watched_rank": INT, "censored": BOOL,
                "entropy": FLOAT, "step_wall_time": FLOAT}
# the watched id's text on the wire, and an endpoint's default watched token
WATCHED_TEXT = "</think>"


@dataclass(frozen=True)
class StepObservation:
    """One decoding step as seen by the controller.

    topk is the step's top-K as a Distribution, sorted by logprob
    descending, or None for a step of a read trace, which keeps only its
    scalars (TraceFile.iter_topk gives its top-K).  watched_rank is the
    terminator's rank; censored=True means the true rank was unknown
    beyond the top-k and is reported as the number of top-K tokens.
    """

    t: int
    chosen_token: TokenId
    chosen_text: str
    topk: Distribution | None
    watched_rank: int
    censored: bool
    entropy: float
    step_wall_time: float


@dataclass(frozen=True)
class TraceHeader:
    tokenizer: str
    vocab_size: int
    watched_token: int
    source: str
    seed: int


@dataclass
class StepLines:
    """Where each step of a read trace was read: its file and, per step,
    the byte offset, line number and CRC-32 of its line."""

    path: str
    offsets: array = field(default_factory=lambda: array("q"))
    linenos: array = field(default_factory=lambda: array("q"))
    crcs: array = field(default_factory=lambda: array("L"))

    def add(self, offset: int, lineno: int, raw: bytes) -> None:
        self.offsets.append(offset)
        self.linenos.append(lineno)
        self.crcs.append(zlib.crc32(raw))

    def topk(self, fh, i: int) -> Distribution:
        """Step i's top-K from its line in fh, the file opened in binary."""
        fh.seek(self.offsets[i])
        raw = fh.readline()
        if zlib.crc32(raw) != self.crcs[i]:
            raise TraceIntegrityError(
                f"{self.path}:{self.linenos[i]}: step {i}: line changed since the trace was read"
            )
        return _parse_topk(json.loads(raw)["topk"])


@dataclass(frozen=True)
class TraceFile:
    header: TraceHeader
    steps: tuple[StepObservation, ...]
    # branch answers keyed by consumed-token count; value is (suffix, answer)
    probes: dict[int, tuple[str, str]] = field(default_factory=dict)
    natural_stop: int | None = None
    # where a read trace's step lines are; None for a trace built in memory
    lines: StepLines | None = field(default=None, repr=False, compare=False)

    def iter_topk(self) -> Iterator[Distribution]:
        """Each step's top-K in step order: the one the step holds, else
        its line re-read from the file it was read from.

        A re-read line that differs from the one read_trace checked raises
        TraceIntegrityError naming its file:line; an unreadable file raises
        it too, and so does a step of a trace built in memory that holds
        no top-K.
        """
        fh = None
        try:
            for i, step in enumerate(self.steps):
                if step.topk is not None:
                    yield step.topk
                    continue
                if self.lines is None:
                    raise TraceIntegrityError(f"step {i}: no top-K held and no line to re-read")
                if fh is None:
                    try:
                        fh = open(self.lines.path, "rb")
                    except OSError as exc:
                        raise TraceIntegrityError(f"{self.lines.path}: {exc}") from exc
                yield self.lines.topk(fh, i)
        finally:
            if fh is not None:
                fh.close()

    def validate(self) -> None:
        """Check the whole trace as read_trace and write_trace do (_checked_steps)."""
        for _ in _checked_steps(self):
            pass

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


# a word with the whitespace before it and, the last one, after it; or
# an answer of whitespace alone
_PIECE = re.compile(r"\s*\S+(?:\s+\Z)?|\s+\Z")


def answer_pieces(answer: str) -> list[str]:
    """The pieces an answer streams in, one token each (see the module doc)."""
    return _PIECE.findall(answer)


def _check_header(h: TraceHeader) -> None:
    if h.vocab_size < 1:
        raise TraceIntegrityError(f"vocab_size {h.vocab_size} < 1")
    if not (0 <= h.watched_token < h.vocab_size):
        raise TraceIntegrityError(
            f"watched token {h.watched_token} outside vocabulary of {h.vocab_size}"
        )


def _check_step(step: StepObservation, topk: Distribution, header: TraceHeader,
                index: int, lineno: int) -> None:
    """The one check of a trace row: step number `index`, read from file
    line `lineno` with top-K `topk`, on its own and against its header.
    An int token lies inside the vocabulary, a text token has no id range,
    and the entropy is its top-K's within ENTROPY_TOLERANCE (relative)."""
    if step.t != index:
        raise TraceIntegrityError(
            f"step indices must be consecutive from 0; saw {step.t} at line {lineno}"
        )
    tokens, lps = topk.tokens, topk.logprobs
    # `not a >= b` also fails a NaN logprob
    if not (lps[:-1] >= lps[1:]).all():
        raise TraceIntegrityError(f"step {step.t}: topk not sorted descending")
    if not step.chosen_text:
        raise TraceIntegrityError(f"step {step.t}: empty chosen text")
    try:
        entropy = shannon_entropy(topk, step.chosen_token)
    except MalformedDistributionError as exc:
        raise TraceIntegrityError(f"step {step.t}: {exc}") from exc
    # sorted, and the rule refuses NaN and +inf, so only the last can be -inf
    if not math.isfinite(lps[-1]):
        raise TraceIntegrityError(f"step {step.t}: topk logprobs must be finite")
    if step.watched_rank < 0:
        raise TraceIntegrityError(f"step {step.t}: negative rank")
    if not (math.isfinite(step.entropy) and step.entropy >= 0.0):
        raise TraceIntegrityError(f"step {step.t}: entropy must be finite and >= 0")
    if not (math.isfinite(step.step_wall_time) and step.step_wall_time >= 0.0):
        raise TraceIntegrityError(f"step {step.t}: wall time must be finite and >= 0")
    vocab = header.vocab_size
    if type(step.chosen_token) is int and not (0 <= step.chosen_token < vocab):
        raise TraceIntegrityError(
            f"step {step.t}: chosen token {step.chosen_token} outside vocabulary"
        )
    # min and max scan the ids in C, and a row mixing ints and strs raises
    try:
        ids, lo, hi = tokens, min(tokens), max(tokens)
    except TypeError:
        ids = [tok for tok in tokens if type(tok) is int]
        lo, hi = min(ids), max(ids)
    if type(lo) is int and not (0 <= lo and hi < vocab):
        tok = next(tok for tok in ids if not 0 <= tok < vocab)
        raise TraceIntegrityError(f"step {step.t}: topk token {tok} outside vocabulary")

    rank, absent = compute_rank(topk, header.watched_token)
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
    if not math.isclose(step.entropy, entropy, rel_tol=ENTROPY_TOLERANCE):
        raise TraceIntegrityError(f"step {step.t}: recorded entropy {step.entropy!r}"
                                  f" disagrees with topk entropy {entropy!r}")


def _checked_steps(trace: TraceFile) -> Iterator[tuple[StepObservation, Distribution]]:
    """Each step and its top-K, checked as read_trace checks its lines:
    step i as file line i + 2, between _check_header and _check_end."""
    _check_header(trace.header)
    for i, (step, topk) in enumerate(zip(trace.steps, trace.iter_topk())):
        _check_step(step, topk, trace.header, i, i + 2)
        yield step, topk
    _check_end(trace.steps, trace.header, trace.natural_stop, trace.probes)


def _check_end(steps, header: TraceHeader, natural_stop: int | None, probes: dict) -> None:
    """The checks that need every step, each of which passed _check_step."""
    if not steps:
        raise TraceIntegrityError("trace has no steps")
    watched = [step.t for step in steps if step.chosen_token == header.watched_token]
    if natural_stop is None:
        if watched:
            raise TraceIntegrityError(
                f"watched token emitted at step {watched[0]} but natural_stop is unset"
            )
    elif natural_stop != len(steps) - 1:
        raise TraceIntegrityError(f"natural_stop {natural_stop} is not the final step")
    elif watched != [natural_stop]:
        raise TraceIntegrityError("watched token emissions inconsistent with natural_stop")
    for key in probes:
        if not (0 <= key <= len(steps)):
            raise TraceIntegrityError(f"probe key {key} out of range")


def _pair_heads(tokens, heads: dict[TokenId, str]) -> list[str]:
    """Each top-K pair's `],[token,` text, one cached text per distinct
    token in `heads`.  A dict takes 1, 1.0 and True for one key, so
    write_trace puts each row through the top-K rule first."""
    for tok in set(tokens).difference(heads):
        heads[tok] = "],[" + jsonl.dumps(tok) + ","
    return list(map(heads.__getitem__, tokens))


def token_text(token: TokenId, watched: TokenId) -> str:
    """A token's text on the wire: a text token as it is; an id as
    WATCHED_TEXT if it is the watched id, else "<w{id}>"."""
    if isinstance(token, str):
        return token
    return WATCHED_TEXT if token == watched else f"<w{token}>"


def _step_line(step: StepObservation, topk: Distribution, heads: dict[TokenId, str]) -> str:
    """The text jsonl.dumps writes for the step with topk as [token, logprob]
    pairs, spliced from one encode of the other fields, each pair's head
    and the float texts of the logprob row.  The fields after topk are
    numbers and a bool, so the last `"topk":0` is the key itself."""
    head, _, tail = jsonl.dumps({**vars(step), "topk": 0}).rpartition('"topk":0')
    values = jsonl.float_texts(topk.logprobs.tolist())
    # each pair's head before its float text
    pieces = [""] * (2 * len(values))
    pieces[::2], pieces[1::2] = _pair_heads(topk.tokens, heads), values
    if pieces:
        pieces[0] = pieces[0][2:]  # the first pair drops its head's "],"
        pieces.append("]")  # and the last pair closes
    return head + '"topk":[' + "".join(pieces) + "]" + tail


def write_trace(trace: TraceFile, path: str) -> None:
    """Write the header line, then one line per step (see _step_line).

    Each step passes read_trace's checks (_checked_steps) before its line
    is made, and the whole trace before path is replaced, else
    TraceIntegrityError.  The lines go to a temporary file beside path; a
    write that fails leaves path as it was, so a read trace can be
    written onto the file it was read from.
    """
    header = {
        **vars(trace.header),
        "natural_stop": trace.natural_stop,
        "probes": {str(k): trace.probes[k] for k in sorted(trace.probes)},
    }
    heads: dict[TokenId, str] = {}  # one `],[token,` text per distinct token
    partial = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        with open(partial, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(jsonl.dumps(header) + "\n")
            for step, topk in _checked_steps(trace):
                fh.write(_step_line(step, topk, heads) + "\n")
        os.replace(partial, path)
    except BaseException:
        if os.path.exists(partial):
            os.remove(partial)
        raise


def _parse_header(obj: dict, where: str) -> tuple[TraceHeader, dict[int, tuple[str, str]], int | None]:
    """The header line's fields, each read by its JSON type; natural_stop
    (an int or null) and probes (an object) may be left out."""
    for key in HEADER_FIELDS:
        if key not in obj:
            raise MalformedTraceError(f"{where}: header missing field {key!r}")
    try:
        header = TraceHeader(**{key: typed(key, obj[key], kinds)
                                for key, kinds in HEADER_FIELDS.items()})
        probes = dict(map(_parse_branch, typed("probes", obj.get("probes", {}), (dict,)).items()))
        natural_stop = obj.get("natural_stop")
        if natural_stop is not None:
            typed("natural_stop", natural_stop, INT)
    except (ValueError, TypeError) as exc:
        raise MalformedTraceError(f"{where}: bad header: {exc}") from exc
    return header, probes, natural_stop


def _parse_branch(entry: tuple[str, object]) -> tuple[int, tuple[str, str]]:
    """A header probes entry, a step count's decimal text and a [suffix,
    answer] pair of texts, as an int and a tuple."""
    key, value = entry
    if str(step := int(key)) != key:
        raise ValueError(f"probe key {key!r} is not a step count's decimal text")
    if not (type(value) is list and len(value) == 2):
        raise ValueError(f"probe branch must be a [suffix, answer] pair, got {value!r}")
    return step, (typed("probe suffix", value[0], TEXT), typed("probe answer", value[1], TEXT))


def _parse_topk(pairs) -> Distribution:
    """A step row's [token, logprob] pairs as a Distribution, which refuses a
    logprob that is not a JSON number, as a string or object pair unpacks to."""
    if type(pairs) is not list:
        raise TypeError("topk must be a list of [token, logprob] pairs")
    return Distribution([tok for tok, _ in pairs], [lp for _, lp in pairs])


def _parse_step(obj: dict, where: str) -> tuple[StepObservation, Distribution]:
    """One step row as a StepObservation that holds no top-K, and its top-K.
    Each scalar is read by its JSON type; _check_step checks the tokens."""
    try:
        fields = {key: typed(key, obj[key], kinds) for key, kinds in _STEP_FIELDS.items()}
        step = StepObservation(chosen_token=obj["chosen_token"], topk=None, **fields)
        return step, _parse_topk(obj["topk"])
    except (KeyError, ValueError, TypeError, OverflowError, MalformedDistributionError) as exc:
        raise MalformedTraceError(f"{where}: bad step record: {exc}") from exc


def read_trace(path: str) -> TraceFile:
    """Parse and check a trace file in one pass; the first fault by line is
    reported.  The trace keeps each step without its top-K (see iter_topk)."""
    header = None
    steps: list[StepObservation] = []
    lines = StepLines(path)
    where = path  # a step's integrity error names its line, others the file
    try:
        for lineno, offset, raw, obj in jsonl.scan_lines(path):
            if not isinstance(obj, dict):
                raise MalformedTraceError(f"{path}:{lineno}: expected a JSON object")
            if header is None:
                header, probes, natural_stop = _parse_header(obj, f"{path}:{lineno}")
                _check_header(header)
                continue
            where = f"{path}:{lineno}"
            step, topk = _parse_step(obj, where)
            _check_step(step, topk, header, len(steps), lineno)
            steps.append(step)
            lines.add(offset, lineno, raw)
        where = path
        if header is None:
            raise MalformedTraceError(f"{path}: empty trace file")
        _check_end(steps, header, natural_stop, probes)
    except TraceIntegrityError as exc:
        raise TraceIntegrityError(f"{where}: {exc}") from exc
    except ValueError as exc:
        raise MalformedTraceError(str(exc)) from exc
    except OSError as exc:
        raise MalformedTraceError(f"{path}: {exc}") from exc
    return TraceFile(
        header=header, steps=tuple(steps), probes=probes, natural_stop=natural_stop,
        lines=lines,
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
        return answer, len(answer_pieces(answer)), 0.0

    def close(self) -> None:
        pass


def open_trace(path: str) -> TraceReader:
    """Load a trace file and return a replayable reader over it."""
    return TraceReader(read_trace(path))

