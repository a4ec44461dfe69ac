"""Trace format round-trips and integrity checks."""

from __future__ import annotations

import math

import pytest

from syncthink import jsonl
from syncthink.errors import (
    MalformedTraceError,
    TraceIntegrityError,
    UnsupportedProbeError,
)
from syncthink.trace import (
    StepObservation,
    TraceFile,
    TraceHeader,
    open_trace,
    read_trace,
    write_trace,
)


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
        topk=tuple(zip(ids, lps)),
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
            assert all(x == y for (_, x), (_, y) in zip(a.topk, b.topk))

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


class TestIntegrity:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text("")
        with pytest.raises(MalformedTraceError):
            read_trace(str(path))

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"tokenizer":"x"}\nnot json\n')
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
            topk=((10, -1.0), (11, -0.5)),
            watched_rank=2,
            censored=True,
            entropy=1.0,
            step_wall_time=0.0,
        )
        with pytest.raises(TraceIntegrityError):
            step.validate()

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
            topk=((10, -0.5), (11, -1.0)),
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
            topk=((10, -0.5), (11, -1.0)),
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
