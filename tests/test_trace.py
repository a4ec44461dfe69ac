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
    MalformedTraceError,
    TraceIntegrityError,
    UnsupportedProbeError,
)
from syncthink.policy import Distribution
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


def make_step(t, rank, *, watched=3, width=4, chosen=None, entropy=1.0):
    """A hand-built consistent step: watched sits at its rank if visible."""
    lps = [-0.5 - 0.4 * i for i in range(width)]
    fillers = [i for i in range(10, 10 + width)]
    if rank < width:
        ids = fillers[:rank] + [watched] + fillers[rank : width - 1]
        censored = False
    else:
        ids = fillers[:width]
        censored = False
    if chosen is None:
        chosen = ids[0]
    return StepObservation(
        t=t,
        chosen_token=chosen,
        chosen_text=f"<w{chosen}>",
        topk=topk(*zip(ids, lps)),
        watched_rank=rank,
        censored=censored,
        entropy=entropy,
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
        for a, b in zip(trace.steps, reread.steps):
            assert a.entropy == b.entropy
            assert a.step_wall_time == b.step_wall_time
            assert a.topk.logprobs.tolist() == b.topk.logprobs.tolist()

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
        # and whole-valued floats, probes and a natural stop
        original = "".join([
            '{"tokenizer":"toy","vocab_size":64,"watched_token":3,"source":"test",'
            '"seed":7,"natural_stop":2,"probes":{"1":["Final answer:","4 2"],'
            '"3":["Final answer:","42"]}}\n',
            '{"t":0,"chosen_token":10,"chosen_text":"<w10>","topk":[[10,-0.1],'
            '[11,-2.5],[3,-3.0000000000000004],[12,-7.25]],"watched_rank":2,'
            '"censored":false,"entropy":0.30000000000000004,"step_wall_time":0.0125}\n',
            '{"t":1,"chosen_token":"é","chosen_text":"é","topk":[["é",-1.0],'
            '["b",-1.0],["</think>",-2.0]],"watched_rank":3,"censored":true,'
            '"entropy":1.1,"step_wall_time":0.02}\n',
            '{"t":2,"chosen_token":3,"chosen_text":"</think>","topk":[[3,-1e-05],'
            '[10,-11.5]],"watched_rank":0,"censored":false,"entropy":0.0,'
            '"step_wall_time":0.001}\n',
        ]).encode("utf-8")
        src, dst = tmp_path / "src.jsonl", tmp_path / "dst.jsonl"
        src.write_bytes(original)
        write_trace(read_trace(str(src)), str(dst))
        assert dst.read_bytes() == original

    def test_logprob_beyond_exp_range_reads_without_warning(self, tmp_path):
        # exp(800) overflows a double; the step is still well-formed
        path = tmp_path / "t.jsonl"
        write_trace(make_trace([9, 7, 0], natural=True), str(path))
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = lines[1].replace("[10,-0.5]", "[10,800.0]")
        path.write_text("".join(lines), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = read_trace(str(path))
        assert trace.steps[0].topk.logprobs[0] == 800.0


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
            entropy=1.0,
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
            entropy=1.0,
            step_wall_time=0.0,
        )
        with pytest.raises(TraceIntegrityError):
            step.validate()

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"topk": topk()}, "empty topk"),
            ({"topk": topk((10, -0.5), (10, -0.9), (12, -1.3), (13, -1.7))}, "duplicate token"),
            ({"topk": topk((10, -0.5), ([1], -0.9), (12, -1.3), (13, -1.7))},
             "step 2: topk token of unhashable type"),
            ({"topk": topk((10, -0.5), (11, math.nan), (12, -1.3), (13, -1.7))}, "not sorted"),
            ({"topk": topk((10, math.nan))}, "logprobs must be finite"),
            ({"topk": topk((10, -0.5), (11, -0.9), (12, -1.3), (13, -math.inf))}, "logprobs must be finite"),
            ({"topk": topk((10, math.inf), (11, -0.9), (12, -1.3), (13, -1.7))}, "logprobs must be finite"),
            ({"watched_rank": -1}, "negative rank"),
            ({"entropy": -0.5}, "entropy must be finite"),
            ({"entropy": math.nan}, "entropy must be finite"),
            ({"entropy": math.inf}, "entropy must be finite"),
            ({"step_wall_time": -0.01}, "wall time must be finite"),
            ({"step_wall_time": math.nan}, "wall time must be finite"),
            ({"chosen_token": 64}, "chosen token 64 outside vocabulary"),
            ({"topk": topk((10, -0.5), (11, -0.9), (12, -1.3), (99, -1.7))}, "topk token 99 outside"),
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
        write_trace(trace, str(path))
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
            entropy=1.0,
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
            entropy=1.0,
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
        lambda tr: replace_step(tr, 2, topk=topk((10, -0.9), (11, -0.5))),
        "step 2: topk not sorted descending"),
    "not-finite": (
        lambda tr: replace_step(tr, 2, topk=topk((10, -0.5), (11, -math.inf))),
        "step 2: topk logprobs must be finite"),
    "duplicate": (
        lambda tr: replace_step(tr, 2, topk=topk((10, -0.5), (10, -0.9))),
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
            tr, 2, chosen_token=70, topk=topk((10, -0.5), (99, -0.9), (12, -1.3), (13, -1.7))),
        "step 2: chosen token 70 outside vocabulary"),
    "first-of-two-outside": (
        lambda tr: replace_step(tr, 2, topk=topk((10, -0.5), (-1, -0.9), (99, -1.3), (13, -1.7))),
        "step 2: topk token -1 outside vocabulary"),
    "first-of-two-outside-high": (
        lambda tr: replace_step(tr, 2, topk=topk((10, -0.5), (64, -0.9), (-5, -1.3), (13, -1.7))),
        "step 2: topk token 64 outside vocabulary"),
    "topk-at-vocab-size": (
        lambda tr: replace_step(tr, 2, topk=topk((10, -0.5), (64, -0.9), (12, -1.3), (13, -1.7))),
        "step 2: topk token 64 outside vocabulary"),
    "outside-among-text": (
        lambda tr: replace_step(tr, 2, topk=topk(("a", -0.5), (99, -0.9), ("b", -1.3), (13, -1.7))),
        "step 2: topk token 99 outside vocabulary"),
    "marked-censored": (
        lambda tr: replace_step(tr, 3, censored=True),
        "step 3: watched token present in topk but marked censored"),
    "rank-disagrees": (
        lambda tr: replace_step(tr, 3, watched_rank=1),
        "step 3: recorded rank 1 disagrees with topk rank 2"),
    "rank-disagrees-on-tie": (
        lambda tr: replace_step(
            tr, 3, topk=topk((10, -0.5), (11, -0.9), (3, -0.9), (13, -1.7))),
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


# write_trace refuses a non-finite float, so these faults never reach a file
FILE_CASES = sorted(set(MESSAGES) - {"not-finite", "wall-time"})


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

    @pytest.mark.parametrize("case", FILE_CASES)
    def test_message_from_file(self, case, tmp_path):
        corrupt, message = MESSAGES[case]
        path = tmp_path / "t.jsonl"
        write_trace(corrupt(make_trace(BASE_RANKS, natural=True)), str(path))
        where = f"{path}{file_location(message)}"
        with pytest.raises(TraceIntegrityError, match="^" + re.escape(f"{where}: {message}") + "$"):
            read_trace(str(path))

    @pytest.mark.parametrize("case", ["nonconsecutive", "unsorted"])
    def test_blank_lines_do_not_shift_the_line(self, case, tmp_path):
        # header on line 1, blank lines 2 and 3, so step 2 sits on line 6
        path = tmp_path / "t.jsonl"
        write_trace(MESSAGES[case][0](make_trace(BASE_RANKS, natural=True)), str(path))
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
        write_trace(replace_step(make_trace(BASE_RANKS, natural=True), 2, watched_rank=-1),
                    str(path))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not json\n")
        with pytest.raises(TraceIntegrityError) as err:
            read_trace(str(path))
        assert str(err.value) == f"{path}:4: step 2: negative rank"

    def test_negative_step_index(self):
        step = dataclasses.replace(make_step(0, 1), t=-1)
        with pytest.raises(TraceIntegrityError, match="^step index -1 is negative$"):
            step.validate()

    def test_text_tokens_have_no_id_range(self):
        trace = make_trace(BASE_RANKS, natural=True)
        text = replace_step(trace, 2, topk=topk(("a", -0.5), ("b", -0.9), ("c", -1.3)))
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


@pytest.fixture(scope="module")
def long_wide_trace(tmp_path_factory):
    """A LONG_N-step trace of WIDE_K top-K entries, the watched token censored at every step."""
    path = tmp_path_factory.mktemp("wide") / "t.jsonl"
    header = {"tokenizer": "toy", "vocab_size": 4 * WIDE_K, "watched_token": 0,
              "source": "test", "seed": 0, "natural_stop": None, "probes": {}}
    row = {"chosen_token": 1, "chosen_text": "<w1>",
           "topk": [[tok, -0.001 * tok] for tok in range(1, WIDE_K + 1)],
           "watched_rank": WIDE_K, "censored": True, "entropy": 1.5, "step_wall_time": 0.04}
    jsonl.write_lines(str(path), [header, *({"t": t, **row} for t in range(LONG_N))])
    return path


def test_reading_a_long_wide_trace_peaks_at_what_it_holds(long_wide_trace):
    # the peak above the trace held is one line's parse (about 16x the
    # line's bytes), whatever the step count; holding every parsed row
    # at once would cost about 3x the trace held
    line = max(map(len, long_wide_trace.read_bytes().splitlines()))
    tracemalloc.start()
    try:
        trace = read_trace(str(long_wide_trace))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace.steps) == LONG_N
    over = peak - held
    assert over < 32 * line, f"{over / 2**10:.0f} KiB above {held / 2**20:.1f} MiB held"
