"""Trace format round-trips and integrity checks."""

from __future__ import annotations

import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from syncthink import jsonl
from syncthink.errors import (
    MalformedDistributionError,
    MalformedTraceError,
    TraceIntegrityError,
    UnsupportedProbeError,
)
from syncthink.policy import ENTROPY_TOLERANCE, Distribution, shannon_entropy
from syncthink.trace import (
    StepObservation,
    TraceFile,
    TraceHeader,
    open_trace,
    read_trace,
    write_trace,
)


def topk(*pairs):
    """A step's top-K Distribution from (token, logprob) pairs."""
    return Distribution([tok for tok, _ in pairs], np.array([lp for _, lp in pairs]))


def entropy_of(*pairs):
    """The entropy a step with this top-K records."""
    return shannon_entropy(topk(*pairs))


def row_entropy(pairs):
    """A written row's entropy: its top-K's, or 0.0 for pairs the reader
    refuses before it compares the entropy."""
    try:
        return entropy_of(*pairs)
    except (MalformedDistributionError, TypeError, ValueError, OverflowError):
        return 0.0


def make_step(t, rank, *, watched=3, width=4, chosen=None):
    """A hand-built consistent step: watched sits at its rank if visible,
    and the entropy is its top-K's."""
    lps = [-1.5 - 0.4 * i for i in range(width)]
    fillers = [i for i in range(10, 10 + width)]
    if rank < width:
        ids = fillers[:rank] + [watched] + fillers[rank : width - 1]
        censored = False
    else:
        ids = fillers[:width]
        censored = False
    if chosen is None:
        chosen = ids[0]
    dist = topk(*zip(ids, lps))
    return StepObservation(
        t=t,
        chosen_token=chosen,
        chosen_text=f"<w{chosen}>",
        topk=dist,
        watched_rank=rank,
        censored=censored,
        entropy=shannon_entropy(dist),
        step_wall_time=0.01,
    )


def make_trace(ranks, *, watched=3, natural=False, probes=None):
    steps = []
    for t, r in enumerate(ranks):
        chosen = watched if (natural and t == len(ranks) - 1) else None
        steps.append(make_step(t, r, watched=watched, chosen=chosen))
    return TraceFile(
        header=TraceHeader(
            tokenizer="toy", vocab_size=64, watched_token=watched, source="test", seed=1
        ),
        steps=tuple(steps),
        probes=probes or {},
        natural_stop=len(ranks) - 1 if natural else None,
    )


class TestRoundTrip:
    def test_write_read_write_is_byte_stable(self, tmp_path):
        trace = make_trace([9, 7, 5, 2, 0], natural=True, probes={2: ("Q:", "a b")})
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        write_trace(trace, str(p1))
        reread = read_trace(str(p1))
        write_trace(reread, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_floats_round_trip_exactly(self, tmp_path):
        trace = make_trace([4, 3, 0], natural=True)
        path = tmp_path / "t.jsonl"
        write_trace(trace, str(path))
        reread = read_trace(str(path))
        for a, b, topk in zip(trace.steps, reread.steps, reread.iter_topk()):
            assert a.entropy == b.entropy
            assert a.step_wall_time == b.step_wall_time
            assert a.topk.logprobs.tolist() == topk.logprobs.tolist()

    def test_17_digit_floats(self):
        v = 0.1 + 0.2  # 0.30000000000000004
        text = jsonl.dumps({"x": v})
        assert "0.30000000000000004" in text
        import json

        assert json.loads(text)["x"] == v

    def test_float_keeps_type_marker(self):
        # whole-valued floats must not collapse to ints on re-read
        import json

        assert json.loads(jsonl.dumps(2.0)) == 2.0
        assert isinstance(json.loads(jsonl.dumps(2.0)), float)

    def test_probe_keys_round_trip_as_ints(self, tmp_path):
        trace = make_trace([5, 4, 1], probes={0: ("s", "x"), 3: ("s", "y")})
        path = tmp_path / "t.jsonl"
        write_trace(trace, str(path))
        assert read_trace(str(path)).probes == {0: ("s", "x"), 3: ("s", "y")}

    def test_fixed_bytes_survive_read_and_write(self, tmp_path):
        # written by the writer that held top-K as (token, logprob) pairs:
        # int tokens, a censored step of text tokens with a tie, 17-digit
        # and whole-valued floats, probes and a natural stop; each entropy
        # is its top-K's
        original = "".join([
            '{"tokenizer":"toy","vocab_size":64,"watched_token":3,"source":"test",'
            '"seed":7,"natural_stop":2,"probes":{"1":["Final answer:","4 2"],'
            '"3":["Final answer:","42"]}}\n',
            '{"t":0,"chosen_token":10,"chosen_text":"<w10>","topk":[[10,-0.2],'
            '[11,-2.5],[3,-3.0000000000000004],[12,-7.25]],"watched_rank":2,'
            '"censored":false,"entropy":0.670617452399297,"step_wall_time":0.0125}\n',
            '{"t":1,"chosen_token":"é","chosen_text":"é","topk":[["é",-1.0],'
            '["b",-1.0],["</think>",-2.0]],"watched_rank":3,"censored":true,'
            '"entropy":1.2705153651168923,"step_wall_time":0.02}\n',
            '{"t":2,"chosen_token":3,"chosen_text":"</think>","topk":[[3,-1e-05],'
            '[10,-11.5]],"watched_rank":0,"censored":false,'
            '"entropy":0.0001264959763847589,"step_wall_time":0.001}\n',
        ]).encode("utf-8")
        src, dst = tmp_path / "src.jsonl", tmp_path / "dst.jsonl"
        src.write_bytes(original)
        write_trace(read_trace(str(src)), str(dst))
        assert dst.read_bytes() == original

    def test_logprob_beyond_exp_range_reads_without_warning(self, tmp_path):
        # exp(800) overflows a double to a mass of inf, refused without a
        # RuntimeWarning
        path = tmp_path / "t.jsonl"
        write_trace(make_trace([9, 7, 0], natural=True), str(path))
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = lines[1].replace("[10,-1.5]", "[10,800.0]")
        path.write_text("".join(lines), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TraceIntegrityError) as err:
                read_trace(str(path))
        assert str(err.value) == f"{path}:2: step 0: probability mass sums to inf, above 1 + 1e-06"


class TestIntegrity:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text("")
        with pytest.raises(MalformedTraceError):
            read_trace(str(path))

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        header = '{"tokenizer":"x","vocab_size":10,"watched_token":3,"source":"s","seed":0}'
        path.write_text(header + "\nnot json\n")
        with pytest.raises(MalformedTraceError) as err:
            read_trace(str(path))
        assert "bad.jsonl:2:" in str(err.value)

    def test_missing_header_field(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"tokenizer":"x","vocab_size":10}\n')
        with pytest.raises(MalformedTraceError) as err:
            read_trace(str(path))
        assert "watched_token" in str(err.value)
        # present but unusable header fields fail the same way
        header = '"tokenizer":"x","watched_token":3,"source":"s","seed":0'
        for bad in ('"vocab_size":"x"', '"vocab_size":10,"probes":[1]'):
            path.write_text("{" + header + "," + bad + "}\n")
            with pytest.raises(MalformedTraceError, match="h.jsonl:1:"):
                read_trace(str(path))

    @pytest.mark.parametrize(
        "line,field",
        [(1, "vocab_size"), (1, "watched_token"), (1, "seed"), (1, "natural_stop"),
         (4, "t"), (4, "watched_rank")],
    )
    def test_integer_field_of_1e400_names_its_line(self, tmp_path, line, field):
        # json reads 1e400 as inf, and int(inf) raises OverflowError
        path = tmp_path / "t.jsonl"
        write_trace(make_trace([9, 7, 5, 2, 0], natural=True), str(path))
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[line - 1] = re.sub(rf'"{field}":\d+', f'"{field}":1e400', lines[line - 1])
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(MalformedTraceError, match="^" + re.escape(f"{path}:{line}: ")):
            read_trace(str(path))

    @pytest.mark.parametrize("value", ['{"a":1}', '["s","x","y"]', '"sx"'])
    def test_probe_branch_must_be_a_pair(self, tmp_path, value):
        path = tmp_path / "t.jsonl"
        write_trace(make_trace([9, 7, 5], probes={3: ("s", "x")}), str(path))
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace('"3":["s","x"]', f'"3":{value}'), encoding="utf-8")
        with pytest.raises(MalformedTraceError, match="^" + re.escape(f"{path}:1: bad header")):
            read_trace(str(path))

    @pytest.mark.parametrize("value", ['{"15":0,"42":0}', '["15","42"]'])
    def test_topk_items_must_be_pairs(self, tmp_path, value):
        # each two-character key or string would unpack into a token and a logprob
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"tokenizer":"x","vocab_size":100,"watched_token":3,"source":"s","seed":0}\n'
            '{"t":0,"chosen_token":"1","chosen_text":"a","topk":' + value + ','
            '"watched_rank":2,"censored":true,"entropy":0.5,"step_wall_time":0.01}\n',
            encoding="utf-8",
        )
        with pytest.raises(MalformedTraceError, match="^" + re.escape(f"{path}:2: bad step")):
            read_trace(str(path))

    def test_header_error_names_its_line(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('\n\n{"tokenizer":"x","vocab_size":10}\n')
        with pytest.raises(MalformedTraceError, match="h.jsonl:3: header missing field"):
            read_trace(str(path))

    def test_nonconsecutive_steps_rejected(self):
        trace = make_trace([5, 4, 3])
        steps = list(trace.steps)
        object.__setattr__(steps[2], "t", 7)
        bad = TraceFile(header=trace.header, steps=tuple(steps), probes={}, natural_stop=None)
        with pytest.raises(TraceIntegrityError):
            bad.validate()

    def test_rank_topk_disagreement_rejected(self):
        trace = make_trace([2, 1, 0], natural=True)
        steps = list(trace.steps)
        bad_step = StepObservation(
            t=1,
            chosen_token=steps[1].chosen_token,
            chosen_text=steps[1].chosen_text,
            topk=steps[1].topk,
            watched_rank=3,  # topk shows the watched token at rank 1
            censored=False,
            entropy=steps[1].entropy,
            step_wall_time=0.01,
        )
        steps[1] = bad_step
        bad = TraceFile(header=trace.header, steps=tuple(steps), probes={}, natural_stop=2)
        with pytest.raises(TraceIntegrityError):
            bad.validate()

    def test_unsorted_topk_rejected(self):
        step = StepObservation(
            t=0,
            chosen_token=10,
            chosen_text="<w10>",
            topk=topk((10, -1.0), (11, -0.5)),
            watched_rank=2,
            censored=True,
            entropy=entropy_of((10, -1.0), (11, -0.5)),
            step_wall_time=0.0,
        )
        trace = TraceFile(header=TraceHeader("toy", 64, 3, "t", 0), steps=(step,))
        with pytest.raises(TraceIntegrityError, match="^step 0: topk not sorted descending$"):
            trace.validate()

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"topk": topk()}, "empty topk"),
            ({"topk": topk((10, -1.5), (10, -1.9), (12, -2.3), (13, -2.7))}, "duplicate token"),
            ({"topk": topk((10, -1.5), ([1], -1.9), (12, -2.3), (13, -2.7))},
             "step 2: topk token must be an int or a str, not list"),
            ({"topk": topk((10, -1.5), (11, math.nan), (12, -2.3), (13, -2.7))}, "not sorted"),
            ({"topk": topk((10, math.nan))}, "logprobs must be finite"),
            ({"topk": topk((10, -1.5), (11, -1.9), (12, -2.3), (13, -math.inf))}, "logprobs must be finite"),
            ({"topk": topk((10, math.inf), (11, -1.9), (12, -2.3), (13, -2.7))}, "logprobs must be finite"),
            ({"watched_rank": -1}, "negative rank"),
            ({"entropy": -0.5}, "entropy must be finite"),
            ({"entropy": math.nan}, "entropy must be finite"),
            ({"entropy": math.inf}, "entropy must be finite"),
            ({"step_wall_time": -0.01}, "wall time must be finite"),
            ({"step_wall_time": math.nan}, "wall time must be finite"),
            ({"chosen_token": 64}, "chosen token 64 outside vocabulary"),
            ({"topk": topk((10, -1.5), (11, -1.9), (12, -2.3), (99, -2.7))}, "topk token 99 outside"),
            (None, "probe key 6 out of range"),
        ],
        ids=[
            "empty-topk", "duplicate-token", "unhashable-token", "nan-logprob", "nan-logprob-k1",
            "minus-inf-logprob", "plus-inf-logprob", "negative-rank",
            "negative-entropy", "nan-entropy", "inf-entropy", "negative-wall",
            "nan-wall", "chosen-outside-vocab", "topk-outside-vocab", "probe-key",
        ],
    )
    def test_step_checks(self, change, message):
        trace = make_trace([9, 7, 5, 2, 0], natural=True, probes={5: ("s", "x")})
        if change is None:
            bad = dataclasses.replace(trace, probes={6: ("s", "x")})
        else:
            steps = list(trace.steps)
            steps[2] = dataclasses.replace(steps[2], **change)
            bad = dataclasses.replace(trace, steps=tuple(steps))
        trace.validate()
        with pytest.raises(TraceIntegrityError, match=message):
            bad.validate()

    def test_integrity_error_names_the_file(self, tmp_path):
        trace = make_trace([9, 7, 5], probes={4: ("s", "x")})
        path = tmp_path / "t.jsonl"
        write_unchecked(trace, path)
        with pytest.raises(TraceIntegrityError, match="^" + re.escape(f"{path}: probe key 4 out of range")):
            read_trace(str(path))

    def test_watched_emitted_without_natural_stop_rejected(self):
        trace = make_trace([2, 1, 0], natural=True)
        bad = TraceFile(header=trace.header, steps=trace.steps, probes={}, natural_stop=None)
        with pytest.raises(TraceIntegrityError):
            bad.validate()

    def test_natural_stop_must_be_final(self):
        trace = make_trace([2, 1, 0], natural=True)
        bad = TraceFile(header=trace.header, steps=trace.steps, probes={}, natural_stop=1)
        with pytest.raises(TraceIntegrityError):
            bad.validate()

    def test_censored_rank_must_equal_topk_size(self):
        step = StepObservation(
            t=0,
            chosen_token=10,
            chosen_text="<w10>",
            topk=topk((10, -0.5), (11, -1.0)),
            watched_rank=7,
            censored=True,
            entropy=entropy_of((10, -0.5), (11, -1.0)),
            step_wall_time=0.0,
        )
        trace = TraceFile(
            header=TraceHeader(
                tokenizer="toy", vocab_size=64, watched_token=3, source="t", seed=0
            ),
            steps=(step,),
        )
        with pytest.raises(TraceIntegrityError):
            trace.validate()

    def test_hidden_watched_rank_inside_topk_rejected(self):
        # watched absent from topk, so its true rank cannot be 1
        step = StepObservation(
            t=0,
            chosen_token=10,
            chosen_text="<w10>",
            topk=topk((10, -0.5), (11, -1.0)),
            watched_rank=1,
            censored=False,
            entropy=entropy_of((10, -0.5), (11, -1.0)),
            step_wall_time=0.0,
        )
        trace = TraceFile(
            header=TraceHeader(
                tokenizer="toy", vocab_size=64, watched_token=3, source="t", seed=0
            ),
            steps=(step,),
        )
        with pytest.raises(TraceIntegrityError):
            trace.validate()


def test_empty_step_text_is_refused(tmp_path):
    # a step that streams no text cannot be served: over StubServer this
    # trace's full run stopped one step short of the 300 its replay ran
    from syncthink.synthetic import SyntheticPhaseSpec, generate_synthetic

    trace = generate_synthetic(SyntheticPhaseSpec(seed=3), topk_width=80)
    bad = replace_step(trace, 5, chosen_text="")
    message = "step 5: empty chosen text"
    with pytest.raises(TraceIntegrityError, match="^" + message + "$"):
        bad.validate()
    path = tmp_path / "t.jsonl"
    with pytest.raises(TraceIntegrityError, match="^" + message + "$"):
        write_trace(bad, str(path))
    assert not path.exists()
    write_unchecked(bad, path)
    with pytest.raises(TraceIntegrityError, match="^" + re.escape(f"{path}:7: {message}") + "$"):
        read_trace(str(path))


def test_recorded_entropy_is_its_top_ks(tmp_path):
    # with every entropy 0.0, this trace replayed syncthink (cap 64) to a
    # stop at step 270, and served live, where each entropy is derived
    # from the top-K, it stopped at 275
    from syncthink.synthetic import SyntheticPhaseSpec, generate_synthetic

    trace = generate_synthetic(SyntheticPhaseSpec(seed=7), topk_width=80)
    bad = dataclasses.replace(trace, steps=tuple(
        dataclasses.replace(step, entropy=0.0) for step in trace.steps))
    message = f"step 0: recorded entropy 0.0 disagrees with topk entropy {trace.steps[0].entropy!r}"
    with pytest.raises(TraceIntegrityError, match="^" + re.escape(message) + "$"):
        bad.validate()
    path = tmp_path / "t.jsonl"
    with pytest.raises(TraceIntegrityError, match="^" + re.escape(message) + "$"):
        write_trace(bad, str(path))
    assert not path.exists()
    write_unchecked(bad, path)
    with pytest.raises(TraceIntegrityError, match="^" + re.escape(f"{path}:2: {message}") + "$"):
        read_trace(str(path))


def test_entropy_within_the_tolerance_is_taken():
    # an ulp apart, as exp and log may differ across CPUs, is the same entropy
    trace = make_trace(BASE_RANKS, natural=True)
    entropy = trace.steps[2].entropy
    replace_step(trace, 2, entropy=math.nextafter(entropy, math.inf)).validate()
    replace_step(trace, 2, entropy=entropy * (1 + 0.5 * ENTROPY_TOLERANCE)).validate()
    with pytest.raises(TraceIntegrityError, match="^step 2: recorded entropy "):
        replace_step(trace, 2, entropy=entropy * (1 + 2 * ENTROPY_TOLERANCE)).validate()


def replace_step(trace, index, **change):
    steps = list(trace.steps)
    steps[index] = dataclasses.replace(steps[index], **change)
    return dataclasses.replace(trace, steps=tuple(steps))


def replace_header(trace, **change):
    return dataclasses.replace(trace, header=dataclasses.replace(trace.header, **change))


# make_trace([9, 7, 5, 2, 0], natural=True): width 4, watched token 3 at
# ranks 2 and 0 in steps 3 and 4, fillers 10-13, vocabulary of 64
BASE_RANKS = (9, 7, 5, 2, 0)
MESSAGES = {
    "vocab-size": (
        lambda tr: replace_header(tr, vocab_size=0), "vocab_size 0 < 1"),
    "watched-outside-vocab": (
        lambda tr: replace_header(tr, watched_token=64),
        "watched token 64 outside vocabulary of 64"),
    "no-steps": (
        lambda tr: dataclasses.replace(tr, steps=()), "trace has no steps"),
    "nonconsecutive": (
        lambda tr: replace_step(tr, 2, t=7),
        "step indices must be consecutive from 0; saw 7 at line 4"),
    "empty-topk": (lambda tr: replace_step(tr, 2, topk=topk()), "step 2: empty topk"),
    "unsorted": (
        lambda tr: replace_step(tr, 2, topk=topk((10, -1.9), (11, -1.5))),
        "step 2: topk not sorted descending"),
    "not-finite": (
        lambda tr: replace_step(tr, 2, topk=topk((10, -1.5), (11, -math.inf))),
        "step 2: topk logprobs must be finite"),
    "duplicate": (
        lambda tr: replace_step(tr, 2, topk=topk((10, -1.5), (10, -1.9))),
        "step 2: duplicate token in topk"),
    "negative-rank": (
        lambda tr: replace_step(tr, 2, watched_rank=-1), "step 2: negative rank"),
    "entropy": (
        lambda tr: replace_step(tr, 2, entropy=-0.5),
        "step 2: entropy must be finite and >= 0"),
    "wall-time": (
        lambda tr: replace_step(tr, 2, step_wall_time=math.inf),
        "step 2: wall time must be finite and >= 0"),
    "chosen-outside-vocab": (
        lambda tr: replace_step(tr, 2, chosen_token=-1),
        "step 2: chosen token -1 outside vocabulary"),
    "chosen-before-topk": (
        lambda tr: replace_step(
            tr, 2, chosen_token=70, topk=topk((10, -1.5), (99, -1.9), (12, -2.3), (13, -2.7))),
        "step 2: chosen token 70 outside vocabulary"),
    "first-of-two-outside": (
        lambda tr: replace_step(tr, 2, topk=topk((10, -1.5), (-1, -1.9), (99, -2.3), (13, -2.7))),
        "step 2: topk token -1 outside vocabulary"),
    "first-of-two-outside-high": (
        lambda tr: replace_step(tr, 2, topk=topk((10, -1.5), (64, -1.9), (-5, -2.3), (13, -2.7))),
        "step 2: topk token 64 outside vocabulary"),
    "topk-at-vocab-size": (
        lambda tr: replace_step(tr, 2, topk=topk((10, -1.5), (64, -1.9), (12, -2.3), (13, -2.7))),
        "step 2: topk token 64 outside vocabulary"),
    "outside-among-text": (
        lambda tr: replace_step(tr, 2, topk=topk(("a", -1.5), (99, -1.9), ("b", -2.3), (13, -2.7))),
        "step 2: topk token 99 outside vocabulary"),
    "marked-censored": (
        lambda tr: replace_step(tr, 3, censored=True),
        "step 3: watched token present in topk but marked censored"),
    "rank-disagrees": (
        lambda tr: replace_step(tr, 3, watched_rank=1),
        "step 3: recorded rank 1 disagrees with topk rank 2"),
    "rank-disagrees-on-tie": (
        lambda tr: replace_step(
            tr, 3, topk=topk((10, -1.5), (11, -1.9), (3, -1.9), (13, -2.7))),
        "step 3: recorded rank 2 disagrees with topk rank 1"),
    "censored-rank": (
        lambda tr: replace_step(tr, 2, censored=True, watched_rank=5),
        "step 2: censored rank must equal topk size"),
    "absent-but-inside": (
        lambda tr: replace_step(tr, 2, watched_rank=3),
        "step 2: watched token absent from topk but rank 3 is inside it"),
    "emitted-without-natural-stop": (
        lambda tr: dataclasses.replace(tr, natural_stop=None),
        "watched token emitted at step 4 but natural_stop is unset"),
    "natural-stop-not-final": (
        lambda tr: dataclasses.replace(tr, natural_stop=3),
        "natural_stop 3 is not the final step"),
    "emissions-inconsistent": (
        lambda tr: replace_step(tr, 1, chosen_token=3),
        "watched token emissions inconsistent with natural_stop"),
    "probe-key": (
        lambda tr: dataclasses.replace(tr, probes={6: ("s", "x")}),
        "probe key 6 out of range"),
}


# jsonl cannot write a non-finite float, so these faults never reach a file
FILE_CASES = sorted(set(MESSAGES) - {"not-finite", "wall-time"})


def write_unchecked(trace, path):
    """The trace's lines as jsonl writes them, checking nothing: a fault
    that write_trace refuses to write, such as an empty top-K, reaches
    the file."""
    header = {**vars(trace.header), "natural_stop": trace.natural_stop,
              "probes": {str(k): v for k, v in sorted(trace.probes.items())}}
    rows = [{**vars(step), "topk": list(map(list, zip(step.topk.tokens,
                                                       step.topk.logprobs.tolist())))}
            for step in trace.steps]
    jsonl.write_lines(str(path), [header, *rows])


def file_location(message):
    """Where read_trace names a MESSAGES fault: ":line" of its step, or "" for the file."""
    step = re.match(r"step (\d+): ", message)
    if step:
        return f":{int(step[1]) + 2}"
    line = re.search(r" at line (\d+)$", message)
    return f":{line[1]}" if line else ""


class TestIntegrityMessages:
    """Every integrity error, pinned to its exact message."""

    @pytest.mark.parametrize("case", sorted(MESSAGES))
    def test_message(self, case):
        trace = make_trace(BASE_RANKS, natural=True)
        trace.validate()
        corrupt, message = MESSAGES[case]
        with pytest.raises(TraceIntegrityError, match="^" + re.escape(message) + "$"):
            corrupt(trace).validate()

    @pytest.mark.parametrize("case", sorted(MESSAGES))
    def test_write_trace_refuses_what_validate_refuses(self, case, tmp_path):
        corrupt, message = MESSAGES[case]
        path = tmp_path / "t.jsonl"
        path.write_bytes(b"an earlier trace\n")
        with pytest.raises(TraceIntegrityError, match="^" + re.escape(message) + "$"):
            write_trace(corrupt(make_trace(BASE_RANKS, natural=True)), str(path))
        assert path.read_bytes() == b"an earlier trace\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.jsonl"]

    @pytest.mark.parametrize("case", FILE_CASES)
    def test_message_from_file(self, case, tmp_path):
        corrupt, message = MESSAGES[case]
        path = tmp_path / "t.jsonl"
        write_unchecked(corrupt(make_trace(BASE_RANKS, natural=True)), path)
        where = f"{path}{file_location(message)}"
        with pytest.raises(TraceIntegrityError, match="^" + re.escape(f"{where}: {message}") + "$"):
            read_trace(str(path))

    @pytest.mark.parametrize("case", ["nonconsecutive", "unsorted"])
    def test_blank_lines_do_not_shift_the_line(self, case, tmp_path):
        # header on line 1, blank lines 2 and 3, so step 2 sits on line 6
        path = tmp_path / "t.jsonl"
        write_unchecked(MESSAGES[case][0](make_trace(BASE_RANKS, natural=True)), path)
        header, *steps = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join([header, "\n", " \n", *steps]), encoding="utf-8")
        with pytest.raises(TraceIntegrityError) as err:
            read_trace(str(path))
        assert str(err.value).startswith(f"{path}:6: step ")
        if case == "nonconsecutive":
            assert str(err.value).endswith("saw 7 at line 6")

    def test_first_fault_by_line_is_reported(self, tmp_path):
        # a bad rank on line 4 comes before a line that is not JSON
        path = tmp_path / "t.jsonl"
        write_unchecked(replace_step(make_trace(BASE_RANKS, natural=True), 2, watched_rank=-1),
                        path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not json\n")
        with pytest.raises(TraceIntegrityError) as err:
            read_trace(str(path))
        assert str(err.value) == f"{path}:4: step 2: negative rank"

    def test_negative_step_index(self):
        # the consecutive-index check refuses a negative index at step 0
        trace = replace_step(make_trace(BASE_RANKS, natural=True), 0, t=-1)
        with pytest.raises(TraceIntegrityError, match=re.escape(
                "step indices must be consecutive from 0; saw -1 at line 2") + "$"):
            trace.validate()

    def test_text_tokens_have_no_id_range(self):
        trace = make_trace(BASE_RANKS, natural=True)
        pairs = ("a", -1.5), ("b", -1.9), ("c", -2.3)
        text = replace_step(trace, 2, topk=topk(*pairs), entropy=entropy_of(*pairs))
        text.validate()


class TestReader:
    def test_iteration_and_probe(self, tmp_path):
        trace = make_trace([6, 5, 4], probes={1: ("Q:", "maybe"), 3: ("Q:", "done")})
        path = tmp_path / "t.jsonl"
        write_trace(trace, str(path))
        reader = open_trace(str(path))
        first = next(reader)
        assert first.t == 0
        with pytest.raises(UnsupportedProbeError):
            reader.probe_with_time("Q:")  # no branch at step 0
        second = next(reader)
        assert second.t == 1
        assert reader.probe_with_time("Q:") == ("maybe", 0.0)

    def test_probe_for_another_suffix_is_unsupported(self):
        from syncthink.trace import TraceReader

        reader = TraceReader(make_trace([6, 5, 4], probes={1: ("Q:", "maybe")}))
        next(reader), next(reader)
        with pytest.raises(UnsupportedProbeError, match="'A:' differs from the suffix 'Q:'"):
            reader.probe_with_time("A:")

    def test_probe_without_branches(self, tmp_path):
        trace = make_trace([6, 5])
        path = tmp_path / "t.jsonl"
        write_trace(trace, str(path))
        reader = open_trace(str(path))
        next(reader)
        with pytest.raises(UnsupportedProbeError):
            reader.probe_with_time("Q:")

    def test_reference_length_without_natural_stop_is_the_step_count(self):
        from syncthink.controller import run_generation
        from syncthink.policy import BaselineConfig
        from syncthink.trace import TraceReader

        trace = make_trace([9, 7, 5, 2, 6])
        assert trace.natural_stop is None
        assert TraceReader(trace).reference_length == 5
        record = run_generation(TraceReader(trace), "fixed_ratio",
                                baseline_config=BaselineConfig(ratio=0.5))
        assert record.config["full_length"] == 5
        assert record.stop_step == math.ceil(0.5 * 5) == 3

    def test_answer_after_key_semantics(self):
        from syncthink.trace import TraceReader

        trace = make_trace(
            [6, 5, 4, 0],
            natural=True,
            probes={2: ("s", "early one"), 4: ("s", "final word")},
        )
        reader = TraceReader(trace)
        # injected stop at step 2 answers from the branch keyed 2
        assert reader.answer_after(2, injected=True) == ("early one", 2, 0.0)
        # natural stop at step 3 consumed 4 tokens
        assert reader.answer_after(3, injected=False) == ("final word", 2, 0.0)
        # stop between branches falls back to the nearest earlier one
        assert reader.answer_after(3, injected=True)[0] == "early one"

    def test_answer_after_without_branches(self):
        from syncthink.trace import TraceReader

        reader = TraceReader(make_trace([6, 5]))
        assert reader.answer_after(1, injected=True) == ("", 0, 0.0)

    def test_answer_at_takes_the_nearest_branch_at_or_before(self):
        trace = make_trace([6, 5, 4, 0], natural=True,
                           probes={1: ("s", "one"), 3: ("s", "three")})
        assert [trace.answer_at(k) for k in range(5)] == ["", "one", "one", "three", "three"]
        assert make_trace([6, 5]).answer_at(2) == ""


WIDE_K, LONG_N = 513, 1024


def write_flat_trace(path, width, n, rank=None):
    """An n-step trace whose steps share one top-K of width entries: the
    watched token 0 at rank, or censored when rank is None."""
    ids = list(range(1, width + 1))
    if rank is not None:
        ids = ids[:rank] + [0] + ids[rank : width - 1]
    header = {"tokenizer": "toy", "vocab_size": 4 * WIDE_K, "watched_token": 0,
              "source": "test", "seed": 0, "natural_stop": None, "probes": {}}
    pairs = [[tok, -7.0 - 0.001 * i] for i, tok in enumerate(ids, start=1)]
    row = {"chosen_token": ids[0], "chosen_text": f"<w{ids[0]}>", "topk": pairs,
           "watched_rank": width if rank is None else rank, "censored": rank is None,
           "entropy": entropy_of(*pairs), "step_wall_time": 0.04}
    jsonl.write_lines(str(path), [header, *({"t": t, **row} for t in range(n))])
    return path


@pytest.fixture(scope="module")
def long_wide_trace(tmp_path_factory):
    """A LONG_N-step trace of WIDE_K top-K entries, the watched token censored at every step."""
    return write_flat_trace(tmp_path_factory.mktemp("wide") / "t.jsonl", WIDE_K, LONG_N)


def held_by_read(path):
    """(the trace read from path, bytes it holds, peak bytes while reading)."""
    tracemalloc.start()
    try:
        trace = read_trace(str(path))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return trace, held, peak


def test_reading_a_long_wide_trace_peaks_at_what_it_holds(long_wide_trace):
    # the peak above the trace held is one line's parse (about 16x the
    # line's bytes), whatever the step count; holding every parsed row
    # at once would cost about 3x the trace held
    line = max(map(len, long_wide_trace.read_bytes().splitlines()))
    trace, held, peak = held_by_read(long_wide_trace)
    assert len(trace.steps) == LONG_N
    over = peak - held
    assert over < 32 * line, f"{over / 2**10:.0f} KiB above {held / 2**20:.1f} MiB held"
    # a read step keeps its scalars and where its line is, not its top-K,
    # which held as a Distribution costs about 8.8 KiB at K = 513
    per_step = held / LONG_N
    assert per_step < 2**10, f"{per_step / 2**10:.2f} KiB held per step"


def test_held_bytes_do_not_grow_with_the_top_k_width(tmp_path):
    # the watched token at one rank in both, so every scalar is equal
    wide = write_flat_trace(tmp_path / "wide.jsonl", WIDE_K, LONG_N, rank=7)
    narrow = write_flat_trace(tmp_path / "narrow.jsonl", 32, LONG_N, rank=7)
    _, wide_held, _ = held_by_read(wide)
    _, narrow_held, _ = held_by_read(narrow)
    assert abs(wide_held - narrow_held) <= 0.1 * narrow_held, (wide_held, narrow_held)


class TestSharedTokens:
    """Top-K tokens, read back through iter_topk, keep their exact type."""

    def write(self, path, *topks):
        header = {"tokenizer": "toy", "vocab_size": 4096, "watched_token": 3,
                  "source": "test", "seed": 0, "natural_stop": None, "probes": {}}
        rows = [{"t": t, "chosen_token": 10, "chosen_text": "<w10>", "topk": pairs,
                 "watched_rank": len(pairs), "censored": True, "entropy": row_entropy(pairs),
                 "step_wall_time": 0.01} for t, pairs in enumerate(topks)]
        jsonl.write_lines(str(path), [header, *rows])

    def test_equal_tokens_of_other_types_are_refused(self, tmp_path):
        # a dict takes 1, 1.0 and true for one key, and == takes a float
        # equal to the watched id for the watched token
        path = tmp_path / "t.jsonl"
        for token, kind in ((1.0, "float"), (True, "bool"), (3.0, "float")):
            self.write(path, [[1, -1.5], [2, -1.9]], [[token, -1.5], [2, -1.9]])
            with pytest.raises(TraceIntegrityError) as err:
                read_trace(str(path))
            assert str(err.value) == (
                f"{path}:3: step 1: topk token must be an int or a str, not {kind}")

    @pytest.mark.parametrize(
        "pairs,message",
        [
            ([[15, "-0.5"], [42, "-1"]], "topk logprob must be an int or a float, not str"),
            ([[15, True], [42, False]], "topk logprob must be an int or a float, not bool"),
            ([[15, -0.5], [42, None]], "topk logprob must be an int or a float, not NoneType"),
            ([[15, "-0.5"], [42, [1]]],
             "topk logprob must be an int or a float, not list, str"),
            ([[15, -0.5], "ab"], "topk logprob must be an int or a float, not str"),
            ([[15, -0.5], {"a": 1, "b": 2}], "topk logprob must be an int or a float, not str"),
        ],
        ids=["string-logprobs", "bool-logprobs", "null-logprob", "two-types", "string-pair",
             "object-pair"],
    )
    def test_logprob_not_a_number_names_its_line(self, tmp_path, pairs, message):
        # float() takes "-0.5" and true, and write_trace would then write
        # numbers where the file held strings and bools
        path = tmp_path / "t.jsonl"
        self.write(path, [[10, -0.5]], pairs)
        with pytest.raises(MalformedTraceError) as err:
            read_trace(str(path))
        assert str(err.value) == f"{path}:3: bad step record: {message}"

    def test_logprob_beyond_float_range_names_its_line(self, tmp_path):
        # a JSON integer of 401 digits is a number that no float holds
        path = tmp_path / "t.jsonl"
        self.write(path, [[10, -0.5]], [[15, -0.5], [42, -10**400]])
        with pytest.raises(MalformedTraceError) as err:
            read_trace(str(path))
        assert str(err.value) == f"{path}:3: bad step record: int too large to convert to float"

    @pytest.mark.parametrize("pairs", [[[None, -0.5], [42, -1]], [[None, -0.5]],
                                       [["a", -0.5], [None, -1]]])
    def test_null_token_names_its_line(self, tmp_path, pairs):
        path = tmp_path / "t.jsonl"
        self.write(path, [[10, -0.5]], pairs)
        with pytest.raises(TraceIntegrityError) as err:
            read_trace(str(path))
        assert str(err.value) == (
            f"{path}:3: step 1: topk token must be an int or a str, not NoneType")

    def test_int_logprobs_read_as_floats(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self.write(path, [[10, -1], [11, -2], [12, -2.5]])
        [topk] = read_trace(str(path)).iter_topk()
        assert topk.logprobs.tolist() == [-1.0, -2.0, -2.5]

    @pytest.mark.parametrize("token,kind", [([1], "list"), ({"id": 1}, "dict")])
    def test_unhashable_token_names_its_line(self, tmp_path, token, kind):
        path = tmp_path / "t.jsonl"
        self.write(path, [[10, -0.5]], [[10, -0.5]], [[10, -1.5], [token, -1.9]])
        with pytest.raises(TraceIntegrityError) as err:
            read_trace(str(path))
        assert str(err.value) == (
            f"{path}:4: step 2: topk token must be an int or a str, not {kind}")


ONE_STEP = (
    '{"tokenizer":"toy","vocab_size":64,"watched_token":3,"source":"s","seed":0,'
    '"natural_stop":null,"probes":{"1":["Q:","a"]}}\n'
    '{"t":0,"chosen_token":10,"chosen_text":"<w10>","topk":[[10,-1.5],[11,-1.9]],'
    '"watched_rank":2,"censored":true,"entropy":0.9114040151394609,"step_wall_time":0.01}\n'
)


class TestExactJsonTypes:
    """Each trace field is read by its JSON type, never coerced."""

    def test_one_step_trace_round_trips(self, tmp_path):
        src, dst = tmp_path / "src.jsonl", tmp_path / "dst.jsonl"
        src.write_text(ONE_STEP, encoding="utf-8")
        write_trace(read_trace(str(src)), str(dst))
        assert dst.read_text(encoding="utf-8") == ONE_STEP

    @pytest.mark.parametrize(
        "old,new,where,message",
        [
            ('"censored":true', '"censored":"false"', 2,
             "bad step record: censored must be a JSON bool, got 'false'"),
            ('"watched_rank":2', '"watched_rank":2.9', 2,
             "bad step record: watched_rank must be a JSON int, got 2.9"),
            ('"t":0', '"t":0.7', 2, "bad step record: t must be a JSON int, got 0.7"),
            ('"t":0', '"t":false', 2, "bad step record: t must be a JSON int, got False"),
            ('"entropy":0.9114040151394609', '"entropy":"0.9"', 2,
             "bad step record: entropy must be a JSON int or float, got '0.9'"),
            ('"chosen_text":"<w10>"', '"chosen_text":10', 2,
             "bad step record: chosen_text must be a JSON str, got 10"),
            ('"watched_token":3', '"watched_token":3.7', 1,
             "bad header: watched_token must be a JSON int, got 3.7"),
            ('"seed":0', '"seed":true', 1, "bad header: seed must be a JSON int, got True"),
            ('"source":"s"', '"source":5', 1, "bad header: source must be a JSON str, got 5"),
            ('"natural_stop":null', '"natural_stop":"0"', 1,
             "bad header: natural_stop must be a JSON int, got '0'"),
            ('"probes":{"1":["Q:","a"]}', '"probes":null', 1,
             "bad header: probes must be a JSON dict, got None"),
            ('["Q:","a"]', '["Q:",7]', 1, "bad header: probe answer must be a JSON str, got 7"),
            ('{"1":', '{"01":', 1,
             "bad header: probe key '01' is not a step count's decimal text"),
        ],
        ids=["censored-text", "rank-float", "t-float", "t-bool", "entropy-text",
             "chosen-text-int", "watched-float", "seed-bool", "source-int",
             "natural-stop-text", "probes-null", "answer-int", "probe-key-padded"],
    )
    def test_scalar_of_another_type_names_its_line(self, tmp_path, old, new, where, message):
        # int(), float(), bool() and str() would read each, and write_trace
        # would then write other bytes
        path = tmp_path / "t.jsonl"
        assert old in ONE_STEP
        path.write_text(ONE_STEP.replace(old, new, 1), encoding="utf-8")
        with pytest.raises(MalformedTraceError) as err:
            read_trace(str(path))
        assert str(err.value) == f"{path}:{where}: {message}"

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("[11,-1.9]", "[99.0,-1.9]", "topk token must be an int or a str, not float"),
            # a float equal to the watched id would read as an uncensored rank 1
            ('[11,-1.9]],"watched_rank":2,"censored":true',
             '[3.0,-1.9]],"watched_rank":1,"censored":false',
             "topk token must be an int or a str, not float"),
            ('"chosen_token":10', '"chosen_token":10.0',
             "chosen token must be an int or a str, not float"),
            ('"chosen_token":10', '"chosen_token":null',
             "chosen token must be an int or a str, not NoneType"),
        ],
        ids=["float-outside-vocab", "float-watched", "chosen-float", "chosen-null"],
    )
    def test_token_of_another_type_names_its_line(self, tmp_path, old, new, message):
        path = tmp_path / "t.jsonl"
        assert old in ONE_STEP
        path.write_text(ONE_STEP.replace(old, new, 1), encoding="utf-8")
        with pytest.raises(TraceIntegrityError) as err:
            read_trace(str(path))
        assert str(err.value) == f"{path}:2: step 0: {message}"


def edit_line(path, lineno, old, new):
    """Replace old with new in line lineno of path; returns the file's new bytes."""
    lines = path.read_bytes().splitlines(keepends=True)
    assert old in lines[lineno - 1]
    lines[lineno - 1] = lines[lineno - 1].replace(old, new, 1)
    path.write_bytes(b"".join(lines))
    return path.read_bytes()


class TestReadTraceTopK:
    """A read trace keeps no top-K; iter_topk re-reads each step's line."""

    def test_steps_hold_no_top_k_and_iter_topk_reads_it_back(self, tmp_path):
        trace = make_trace(BASE_RANKS, natural=True, probes={2: ("Q:", "a")})
        path = tmp_path / "t.jsonl"
        write_trace(trace, str(path))
        reread = read_trace(str(path))
        assert all(step.topk is None for step in reread.steps)
        assert [step.topk for step in trace.steps] == list(trace.iter_topk())
        for held, topk in zip(trace.steps, reread.iter_topk()):
            assert list(topk.tokens) == list(held.topk.tokens)
            assert topk.logprobs.tolist() == held.topk.logprobs.tolist()
        reread.validate()

    def test_a_line_changed_after_the_read_names_its_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(make_trace(BASE_RANKS, natural=True), str(path))
        trace = read_trace(str(path))
        # a logprob that keeps the step valid, on step 2's line
        edit_line(path, 4, b"[11,-1.9]", b"[11,-2.0]")
        topks = trace.iter_topk()
        next(topks), next(topks)
        with pytest.raises(TraceIntegrityError, match="^" + re.escape(
                f"{path}:4: step 2: line changed since the trace was read") + "$"):
            next(topks)

    def test_blank_lines_keep_the_line_named(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(make_trace(BASE_RANKS, natural=True), str(path))
        header, *steps = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join([header, b"\n", b" \n", *steps]))
        trace = read_trace(str(path))
        edit_line(path, 6, b"[11,-1.9]", b"[11,-2.0]")
        with pytest.raises(TraceIntegrityError, match=re.escape(f"{path}:6: step 2: ")):
            trace.validate()

    def test_a_missing_file_fails_the_re_read(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(make_trace(BASE_RANKS, natural=True), str(path))
        trace = read_trace(str(path))
        path.unlink()
        with pytest.raises(TraceIntegrityError, match="^" + re.escape(f"{path}: ")):
            list(trace.iter_topk())

    def test_a_built_step_without_its_top_k_names_the_step(self, tmp_path):
        # the form every step of a read trace has, without a file to re-read
        trace = TraceFile(TraceHeader("t", 10, 3, "hand", 0),
                          (StepObservation(0, 1, "<w1>", None, 1, False, 0.5, 0.01),))
        message = "^" + re.escape("step 0: no top-K held and no line to re-read")
        with pytest.raises(TraceIntegrityError, match=message):
            trace.validate()
        target = tmp_path / "t.jsonl"
        target.write_bytes(b"an earlier trace\n")
        with pytest.raises(TraceIntegrityError, match=message):
            write_trace(trace, str(target))
        assert target.read_bytes() == b"an earlier trace\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.jsonl"]

    def test_a_line_that_is_not_an_object_names_its_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(make_trace(BASE_RANKS, natural=True), str(path))
        with path.open("a", encoding="utf-8") as fh:
            fh.write("[1, 2]\n")
        lineno = len(BASE_RANKS) + 2
        with pytest.raises(MalformedTraceError,
                           match="^" + re.escape(f"{path}:{lineno}: expected a JSON object")):
            read_trace(str(path))


class TestSafeWrites:
    """write_trace renames a finished temporary file over its target."""

    def test_a_read_trace_writes_onto_its_own_path(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(make_trace(BASE_RANKS, natural=True, probes={2: ("Q:", "a")}), str(path))
        original = path.read_bytes()
        write_trace(read_trace(str(path)), str(path))
        assert path.read_bytes() == original
        assert [p.name for p in tmp_path.iterdir()] == ["t.jsonl"]

    def test_a_write_that_fails_partway_leaves_the_target(self, tmp_path):
        src, dst = tmp_path / "t.jsonl", tmp_path / "dst.jsonl"
        write_trace(make_trace(BASE_RANKS, natural=True), str(src))
        trace = read_trace(str(src))
        edited = edit_line(src, 5, b"[3,-2.3]", b"[3,-2.4]")
        dst.write_bytes(b"an earlier trace\n")
        for target, before in ((dst, b"an earlier trace\n"), (src, edited)):
            with pytest.raises(TraceIntegrityError, match="^" + re.escape(f"{src}:5: step 3: ")):
                write_trace(trace, str(target))
            assert target.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dst.jsonl", "t.jsonl"]


def reference_line(step):
    """A step line as jsonl.dumps writes the step with topk as [token, logprob] pairs."""
    pairs = zip(step.topk.tokens, step.topk.logprobs.tolist())
    return jsonl.dumps({**vars(step), "topk": [[tok, lp] for tok, lp in pairs]})


def free_step(t, pairs, *, chosen=10, text="<w10>", entropy=None):
    """A step whose watched token is censored; its entropy is its top-K's
    unless given, as for a row the step check refuses before the entropy."""
    dist = topk(*pairs)
    return StepObservation(t=t, chosen_token=chosen, chosen_text=text, topk=dist,
                           watched_rank=len(pairs), censored=True,
                           entropy=shannon_entropy(dist) if entropy is None else entropy,
                           step_wall_time=0.01)


AWKWARD_TEXTS = ['say "hi"', "back\\slash", "a,b", "],[", '"topk":0', "é日本", "\x00\n\t\x1f\x7f"]


class TestStepLines:
    """write_trace splices each step line; every byte is the reference encode's."""

    def write(self, tmp_path, steps):
        # ids up to 10**20 lie inside the vocabulary
        trace = TraceFile(header=TraceHeader("toy", 10**21, 3, "test", 0), steps=tuple(steps))
        path = tmp_path / "t.jsonl"
        write_trace(trace, str(path))
        return path.read_text(encoding="utf-8").split("\n")[1:-1]

    def test_corpus_is_byte_identical(self, tmp_path):
        steps = [
            free_step(0, [(text, -0.5 - i) for i, text in enumerate(AWKWARD_TEXTS)]),
            free_step(1, [(text, -2.25) for text in reversed(AWKWARD_TEXTS)],
                      chosen='"topk":0', text='x"topk":0,"y'),
            free_step(2, [(1, -1.5), (2, -1.75), (1000, -2.0), (0, -3.0), (10**20, -4.0)]),
            # an id and its text are two tokens; each keeps its own text
            free_step(3, [("1", -1.5), (1, -1.75), ("true", -2.0)]),
            free_step(4, [("1.0", -1.5), (1, -1.75)]),
            free_step(5, [(1, -1.5), (2, -1.75)]),
            free_step(6, [(7, -0.0)]),
            free_step(7, [(4, 5e-324)]),
            free_step(8, [(4, -5e-324), (5, -1e16), (6, -1.7976931348623157e308)]),
            free_step(9, [(4, -1e-05), (5, -12.000000000000002), (6, -1e16)]),
        ]
        lines = self.write(tmp_path, steps)
        assert lines == [reference_line(step) for step in steps]
        assert '"topk":[[4,5e-324]]' in lines[7]
        assert '["1",-1.5],[1,-1.75],["true",-2.0]' in lines[3]
        assert '["1.0",-1.5],[1,-1.75]' in lines[4]

    @pytest.mark.parametrize("bad,message", [
        (math.nan, "topk not sorted descending"), (math.inf, "topk not sorted descending"),
        (-math.inf, "topk logprobs must be finite"),
    ], ids=["nan", "inf", "-inf"])
    def test_non_finite_logprob_raises(self, tmp_path, bad, message):
        # refused by the step check, as the reader refuses it, before jsonl
        # would refuse to write it
        with pytest.raises(TraceIntegrityError, match=f"^step 0: {message}$"):
            self.write(tmp_path, [free_step(0, [(1, -1.5), (2, bad)], entropy=0.0)])

    @pytest.mark.parametrize("step,message", [
        # a dict takes True and 1 for one key, so True would be written as
        # the text cached for step 0's id 1: [[1,-1.5],[1,-1.75],["1",-2.0]]
        (free_step(1, [(True, -1.5), (1, -1.75), ("1", -2.0)], entropy=0.0),
         "step 1: topk token must be an int or a str, not bool"),
        (free_step(1, [(1, -1.5)], chosen=1.0), "step 1: chosen token must be an int or a str,"
         " not float"),
        (free_step(1, [], entropy=0.0), "step 1: empty topk"),
        (free_step(1, [(1, -1.5)], text=""), "step 1: empty chosen text"),
    ], ids=["topk-bool", "chosen-float", "empty-topk", "empty-text"])
    def test_token_rule_is_checked_before_the_write(self, tmp_path, step, message):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b"an earlier trace\n")
        trace = TraceFile(header=TraceHeader("toy", 64, 3, "test", 0),
                          steps=(free_step(0, [(1, -1.5), (2, -1.75)]), step))
        with pytest.raises(TraceIntegrityError, match="^" + re.escape(message) + "$"):
            write_trace(trace, str(path))
        assert path.read_bytes() == b"an earlier trace\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.jsonl"]

    def test_synthetic_trace_reads_back_and_writes_the_same_bytes(self, tmp_path):
        from syncthink.synthetic import SyntheticPhaseSpec, generate_synthetic

        trace = generate_synthetic(SyntheticPhaseSpec(phase_lengths=(4, 4, 8, 4), seed=3),
                                   topk_width=33)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace(trace, str(p1))
        lines = p1.read_text(encoding="utf-8").split("\n")[1:-1]
        assert lines == [reference_line(step) for step in trace.steps]
        write_trace(read_trace(str(p1)), str(p2))
        assert p2.read_bytes() == p1.read_bytes()
