"""Policy-driven generation runs, batch orchestration, and record IO."""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from syncthink import controller, policy as policy_module
from syncthink.controller import (
    BatchItem,
    GenerationRecord,
    read_records,
    record_fingerprint,
    record_from_obj,
    record_to_obj,
    run_batch,
    run_generation,
    write_records,
)
from syncthink.errors import (
    ConfigurationError,
    MalformedRecordError,
    PolicyUnavailableError,
    SessionError,
    TraceIntegrityError,
)
from syncthink.policy import (
    POLICIES,
    BaselineConfig,
    Distribution,
    PolicyConfig,
    StopDecision,
    StopReason,
    dynamic_threshold,
)
from syncthink.synthetic import SyntheticPhaseSpec, generate_synthetic
from syncthink.trace import StepObservation, TraceReader, open_trace, write_trace


def synth_reader(seed=0, **kw):
    return TraceReader(generate_synthetic(SyntheticPhaseSpec(seed=seed), **kw))


def oracle_stop(trace, pcfg):
    """Independent re-derivation of the first stopping step."""
    for step in trace.steps:
        if step.chosen_token == trace.header.watched_token:
            return step.t, "natural"
        if step.t >= pcfg.min_steps and step.t % pcfg.check_interval == 0:
            cap = min(step.t, pcfg.pacing_cap)
            threshold = math.floor(cap * math.exp(-pcfg.entropy_weight * step.entropy))
            if step.watched_rank <= threshold:
                return step.t, "fired"
    return None, "none"


def plain_step(t, *, watched=3, chosen=10, rank=50, entropy=1.2):
    lps = [-0.5, -1.5, -2.5, -3.5]
    ids = [chosen, 11, 12, 13]
    return StepObservation(
        t=t,
        chosen_token=chosen,
        chosen_text=f"<w{chosen}>",
        topk=Distribution(ids, lps),
        watched_rank=rank,
        censored=False,
        entropy=entropy,
        step_wall_time=0.01,
    )


class FakeSource:
    """Scripted source for edge cases a recorded trace cannot reach."""

    def __init__(self, steps, *, watched=3, fail_after=None, answer=("ok", 1, 0.0),
                 answer_fails=False):
        self.watched_token = watched
        self._steps = list(steps)
        self._fail_after = fail_after
        self._answer = answer
        self._answer_fails = answer_fails
        self._i = 0
        self.closed = False

    def __iter__(self):
        return self

    def __next__(self):
        if self._fail_after is not None and self._i >= self._fail_after:
            raise SessionError("stream died")
        if self._i >= len(self._steps):
            raise StopIteration
        step = self._steps[self._i]
        self._i += 1
        return step

    def probe_with_time(self, suffix):
        return "probed", 0.0

    def answer_after(self, t, injected):
        if self._answer_fails:
            raise SessionError("answer stream died")
        return self._answer

    def close(self):
        self.closed = True


class TestRunGeneration:
    def test_syncthink_stops_at_first_eligible_step(self):
        reader = synth_reader(seed=0)
        expected_t, expected_kind = oracle_stop(reader.trace, PolicyConfig(watched_token=3))
        record = run_generation(reader, "syncthink", task_kind="numeric")
        assert expected_kind == "fired"
        assert record.stop_step == expected_t
        assert record.injected
        assert record.reason is StopReason.THRESHOLD_FIRED
        assert record.complete
        # it fired well before the planted natural stop
        assert record.stop_step < reader.trace.natural_stop

    def test_syncthink_decision_trail_is_consistent(self):
        reader = synth_reader(seed=1)
        record = run_generation(reader, "syncthink", task_kind="numeric")
        last = record.decision
        assert last.stop and last.rank <= last.threshold
        assert last.reason is StopReason.THRESHOLD_FIRED
        assert (record.stop_step, last.rank) == record.rank_trajectory[-1]
        assert (record.stop_step, last.entropy) == record.entropy_trajectory[-1]
        # the config rebuilds every earlier threshold: none of them fired
        pcfg = PolicyConfig(**{k: v for k, v in record.config.items() if k != "budget"})
        assert last.threshold == dynamic_threshold(record.stop_step, last.entropy, pcfg)
        for (t, rank), (_, entropy) in zip(
            record.rank_trajectory[:-1], record.entropy_trajectory[:-1]
        ):
            due = t >= pcfg.min_steps and t % pcfg.check_interval == 0
            assert not (due and rank <= dynamic_threshold(t, entropy, pcfg)), t

    def test_full_runs_to_natural_termination(self):
        reader = synth_reader(seed=0)
        record = run_generation(reader, "full", task_kind="numeric")
        assert record.stop_step == reader.trace.natural_stop == 299
        assert record.reason is StopReason.NATURAL_TERMINATION
        assert not record.injected
        assert record.reasoning_tokens == 300
        assert record.normalized_answer == "42"

    def test_none_fires_on_first_observation(self):
        record = run_generation(synth_reader(seed=0), "none", task_kind="numeric")
        assert record.stop_step == 0
        assert record.reasoning_tokens == 1
        assert record.injected

    def test_fixed_ratio_stops_at_ceil_of_reference(self):
        reader = synth_reader(seed=0)
        record = run_generation(
            reader,
            "fixed_ratio",
            baseline_config=BaselineConfig(ratio=0.25),
            task_kind="numeric",
        )
        # reference length 300, so the first eligible step is ceil(75) = 75
        assert record.stop_step == math.ceil(0.25 * 300) == 75
        assert record.config["full_length"] == 300

    def test_fixed_ratio_explicit_full_length_wins(self):
        record = run_generation(
            synth_reader(seed=0),
            "fixed_ratio",
            baseline_config=BaselineConfig(ratio=0.5),
            full_length=100,
            task_kind="numeric",
        )
        assert record.stop_step == 50

    def test_fixed_ratio_one_matches_full_field_for_field(self):
        full = run_generation(synth_reader(seed=2), "full", task_kind="numeric")
        ratio = run_generation(
            synth_reader(seed=2),
            "fixed_ratio",
            baseline_config=BaselineConfig(ratio=1.0),
            task_kind="numeric",
        )
        skip = {"policy", "config", "t_gen", "t_metric", "t_eval", "t_total"}
        for field in dataclasses.fields(GenerationRecord):
            if field.name in skip:
                continue
            assert getattr(full, field.name) == getattr(ratio, field.name), field.name

    def test_answer_convergence_fires_on_kth_stable_probe(self):
        reader = synth_reader(seed=0)
        commit_start = sum(SyntheticPhaseSpec().phase_lengths[:3])
        segment = 16
        # probe answers stabilize from the final descent on; the policy
        # needs two consecutive stable drafts at the probe cadence
        stable_probes = [t for t in range(segment, 300, segment) if t >= commit_start]
        expected = stable_probes[1]
        record = run_generation(
            reader,
            "answer_convergence",
            baseline_config=BaselineConfig(segment_len=segment, convergence_k=2),
            task_kind="numeric",
        )
        assert record.stop_step == expected
        assert record.normalized_answer == "42"

    def test_budget_exhaustion_yields_no_answer(self):
        record = run_generation(synth_reader(seed=0), "full", budget=50, task_kind="numeric")
        assert record.reason is StopReason.BUDGET_EXHAUSTED
        assert record.stop_step == 49
        assert record.complete
        assert record.answer_tokens == 0
        assert record.total_tokens == 50
        assert record.normalized_answer == ""

    def test_budget_truncates_answer_tokens(self):
        probe = "alpha beta gamma delta epsilon"
        first = run_generation(
            synth_reader(seed=0, probe_answer=probe), "syncthink", task_kind="freeform"
        )
        stop = first.stop_step
        assert first.answer_tokens == 5
        tight = run_generation(
            synth_reader(seed=0, probe_answer=probe),
            "syncthink",
            budget=stop + 1 + 2,
            task_kind="freeform",
        )
        assert tight.stop_step == stop
        assert tight.answer_tokens == 2
        assert tight.total_tokens == stop + 3

    def test_natural_stop_with_exhausted_budget_skips_answer(self):
        record = run_generation(synth_reader(seed=0), "full", budget=300, task_kind="numeric")
        assert record.reason is StopReason.NATURAL_TERMINATION
        assert record.answer_tokens == 0
        assert record.normalized_answer == ""

    def test_watched_token_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            run_generation(
                synth_reader(seed=0),
                "syncthink",
                policy_config=PolicyConfig(watched_token=99),
            )

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            run_generation(synth_reader(seed=0), "oracle")

    def test_bad_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            run_generation(synth_reader(seed=0), "full", budget=0)

    def test_stream_dry_counts_as_budget_exhaustion(self):
        source = FakeSource([plain_step(t) for t in range(5)])
        record = run_generation(source, "full")
        assert record.reason is StopReason.BUDGET_EXHAUSTED
        assert record.stop_step == 4
        assert record.complete

    def test_empty_source_is_incomplete(self):
        record = run_generation(FakeSource([]), "full")
        assert not record.complete
        assert record.stop_step is None
        assert "no steps" in record.error

    def test_session_error_keeps_partial_trajectories(self):
        source = FakeSource([plain_step(t) for t in range(10)], fail_after=3)
        record = run_generation(source, "full")
        assert not record.complete
        assert "SessionError" in record.error
        assert len(record.rank_trajectory) == 3
        assert record.reasoning_tokens == 3
        assert record.answer_tokens == 0

    def test_probeless_source_fails_convergence_policy(self):
        trace = generate_synthetic(SyntheticPhaseSpec(seed=0), probe_every=0)
        with pytest.raises(PolicyUnavailableError):
            run_generation(
                TraceReader(trace),
                "answer_convergence",
                baseline_config=BaselineConfig(segment_len=16),
            )

    def test_timing_breakdown_sums_exactly(self):
        for policy in ("syncthink", "full", "none"):
            record = run_generation(synth_reader(seed=0), policy, task_kind="numeric")
            assert abs(record.t_total - (record.t_gen + record.t_metric + record.t_eval)) <= 1e-9

    def test_replay_gen_time_is_deterministic(self):
        a = run_generation(synth_reader(seed=0), "syncthink", task_kind="numeric")
        b = run_generation(synth_reader(seed=0), "syncthink", task_kind="numeric")
        # generation time replays recorded wall times; metric and eval
        # time are measured live and may differ
        assert a.t_gen == b.t_gen

    def test_baseline_threshold_convention(self):
        record = run_generation(
            synth_reader(seed=0),
            "fixed_ratio",
            baseline_config=BaselineConfig(ratio=0.3),
            task_kind="numeric",
        )
        decision = record.decision
        assert decision.stop
        assert decision.threshold == decision.rank
        budget_hit = run_generation(
            synth_reader(seed=0), "full", budget=50, task_kind="numeric"
        ).decision
        assert not budget_hit.stop
        assert budget_hit.threshold == 0


# every way a run can end; the decision a record keeps depends on which
STOP_KINDS = (
    "threshold_fired",
    "natural_termination",
    "budget_exhausted",
    "stream_ran_dry",
    "session_error",
    "answer_error",
)
# full never fires; none fires at its first step, before a budget or the
# end of the stream can stop it
STOP_CASES = [
    (policy, kind)
    for policy in POLICIES
    for kind in STOP_KINDS
    if not (policy == "full" and kind == "threshold_fired")
    and not (policy == "none" and kind in ("budget_exhausted", "stream_ran_dry"))
]
# the syncthink case fires at step 100 with the rank exactly at the bar
STOP_PCFG = PolicyConfig(watched_token=3, entropy_weight=0.8, min_steps=0)
STOP_H = 1.0
STOP_BAR = dynamic_threshold(100, STOP_H, STOP_PCFG)
STOP_RUN = {
    "policy_config": STOP_PCFG,
    # fixed_ratio fires at ceil(0.5 * 200) = 100; answer_convergence probes
    # every 20 steps and fires on the fifth stable probe, at step 100
    "baseline_config": BaselineConfig(ratio=0.5, segment_len=20, convergence_k=5),
    "full_length": 200,
}


def stop_case(policy, kind):
    """(source, budget, stop step or None, record reason or None) for one case."""
    fires_at = 0 if policy == "none" else 100
    steps = [
        plain_step(t, rank=STOP_BAR if t == fires_at else 50, entropy=STOP_H)
        for t in range(104)
    ]
    budget, stop, reason = 8192, fires_at, StopReason.THRESHOLD_FIRED
    source_kw = {}
    if kind == "natural_termination" or (kind == "answer_error" and policy == "full"):
        stop, reason = (0 if policy == "none" else 60), StopReason.NATURAL_TERMINATION
        steps[stop] = plain_step(stop, chosen=3, rank=0, entropy=STOP_H)
    elif kind == "budget_exhausted":
        budget, stop, reason = 51, 50, StopReason.BUDGET_EXHAUSTED
    elif kind == "stream_ran_dry":
        steps, stop, reason = steps[:30], 29, StopReason.BUDGET_EXHAUSTED
    elif kind == "session_error":
        source_kw["fail_after"] = 0 if policy == "none" else 30
        stop, reason = None, None
    if kind == "answer_error":
        source_kw["answer_fails"] = True
    return FakeSource(steps, **source_kw), budget, stop, reason


def rebuilt_decision(policy, record):
    """The decision at the record's stop step, from its trajectories."""
    if record.stop_step is None:
        return None
    (t, rank), (_, entropy) = record.rank_trajectory[-1], record.entropy_trajectory[-1]
    fired = record.reason is StopReason.THRESHOLD_FIRED
    if policy == "syncthink":
        threshold = dynamic_threshold(t, entropy, STOP_PCFG)
    else:
        threshold = rank if fired else 0
    stop = record.reason is not StopReason.BUDGET_EXHAUSTED
    return StopDecision(
        stop=stop,
        threshold=threshold,
        rank=rank,
        entropy=entropy,
        reason=record.reason if stop else StopReason.NOT_TRIGGERED,
    )


class TestStopDecision:
    @pytest.mark.parametrize("policy,kind", STOP_CASES)
    def test_kept_decision_is_the_stop_steps(self, policy, kind):
        source, budget, stop, reason = stop_case(policy, kind)
        record = run_generation(source, policy, budget=budget, **STOP_RUN)
        assert (record.stop_step, record.reason) == (stop, reason)
        assert record.complete == (kind not in ("session_error", "answer_error"))
        assert record.decision == rebuilt_decision(policy, record)
        if stop is not None:
            assert record.rank_trajectory[-1][0] == stop
        if policy == "syncthink" and kind == "threshold_fired":
            # the rank sits exactly at the bar, and that fires
            assert record.decision.stop
            assert record.decision.reason is StopReason.THRESHOLD_FIRED
            assert record.decision.threshold == STOP_BAR == record.decision.rank
        if policy == "syncthink" and kind == "budget_exhausted":
            # a rank above the bar holds; the budget stops the run
            assert not record.decision.stop
            assert record.decision.reason is StopReason.NOT_TRIGGERED
            assert record.decision.rank > record.decision.threshold

    @pytest.mark.parametrize("policy,kind", STOP_CASES)
    def test_one_decision_built_per_stopped_record(self, policy, kind, monkeypatch):
        built = []

        def counting(*args, **kwargs):
            built.append(StopDecision(*args, **kwargs))
            return built[-1]

        # the rule and the controller both resolve the name at call time
        monkeypatch.setattr(controller, "StopDecision", counting)
        monkeypatch.setattr(policy_module, "StopDecision", counting)
        source, budget, stop, _ = stop_case(policy, kind)
        record = run_generation(source, policy, budget=budget, **STOP_RUN)
        assert len(built) == (0 if stop is None else 1)
        assert built == ([] if stop is None else [record.decision])

    def test_no_decision_built_without_steps(self, monkeypatch):
        built = []
        monkeypatch.setattr(controller, "StopDecision", lambda **kw: built.append(kw))
        for policy in POLICIES:
            record = run_generation(FakeSource([]), policy, **STOP_RUN)
            assert record.decision is None
        assert built == []


class TestTracedCallSites:
    """A wrapper installed on the controller's names after import, as
    perfbench/tracer.py installs its spans, sees every call."""

    def counting(self, monkeypatch, name):
        calls = []
        inner = getattr(controller, name)

        def wrapper(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(controller, name, wrapper)
        return calls

    def test_syncthink_calls_the_rule_once_per_step(self, monkeypatch):
        calls = self.counting(monkeypatch, "should_stop")
        record = run_generation(synth_reader(seed=0), "syncthink", task_kind="numeric")
        assert record.reason is StopReason.THRESHOLD_FIRED
        assert [args[0] for args in calls] == list(range(record.stop_step + 1))

    def test_answer_convergence_parses_once_per_probe(self, monkeypatch):
        calls = self.counting(monkeypatch, "parse_answer")
        reader = synth_reader(seed=0)
        record = run_generation(
            reader,
            "answer_convergence",
            baseline_config=BaselineConfig(segment_len=16, convergence_k=2),
            task_kind="numeric",
        )
        probed = range(16, record.stop_step + 1, 16)
        assert len(probed) >= 2
        # one parse per probe, then one of the final answer
        assert calls == [(reader.trace.probes[t][1], "numeric") for t in probed] + [
            (record.answer_text, "numeric")
        ]


class TestRecordIO:
    def run_all_policies(self):
        records = []
        for policy in ("syncthink", "full", "none", "fixed_ratio", "answer_convergence"):
            records.append(
                run_generation(
                    synth_reader(seed=3),
                    policy,
                    baseline_config=BaselineConfig(ratio=0.4, segment_len=32),
                    sample_id=f"s-{policy}",
                    task_kind="numeric",
                )
            )
        return records

    def test_jsonl_round_trip_is_exact(self, tmp_path):
        records = self.run_all_policies()
        records.append(
            run_generation(FakeSource([plain_step(t) for t in range(4)], fail_after=2), "full")
        )
        path = str(tmp_path / "records.jsonl")
        write_records(path, records)
        assert read_records(path) == records
        # one decision per record, the one made at its stop step
        with open(path, encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh]
        for obj, record in zip(lines, records):
            assert "decisions" not in obj
            if record.stop_step is None:
                assert obj["decision"] is None
            else:
                assert obj["decision"]["rank"] == record.rank_trajectory[-1][1]

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("rank_trajectory", float("nan"), "ranks"),
            ("rank_trajectory", float("inf"), "ranks"),
            ("rank_trajectory", -1, "ranks"),
            ("rank_trajectory", 2.5, "ranks"),
            ("entropy_trajectory", float("nan"), "entropies"),
            ("entropy_trajectory", float("inf"), "entropies"),
            ("entropy_trajectory", -0.5, "entropies"),
        ],
    )
    def test_out_of_range_trajectory_names_the_line(self, tmp_path, field, value, message):
        record = run_generation(synth_reader(seed=3), "full", task_kind="numeric")
        good = json.dumps(record_to_obj(record))
        obj = json.loads(good)
        obj[field][1][1] = value
        path = tmp_path / "bad.jsonl"
        path.write_text(good + "\n" + json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(MalformedRecordError, match=f"bad.jsonl:2: .*{message} must be finite"):
            read_records(str(path))

    def test_obj_round_trip_preserves_incomplete(self):
        source = FakeSource([plain_step(t) for t in range(4)], fail_after=2)
        record = run_generation(source, "full")
        assert record_from_obj(record_to_obj(record)) == record

    def test_fingerprint_ignores_wall_time(self):
        record = self.run_all_policies()[0]
        jittered = dataclasses.replace(
            record, t_gen=9.0, t_metric=1.0, t_eval=0.5, t_total=10.5
        )
        assert record_fingerprint(record) == record_fingerprint(jittered)

    def test_fingerprint_deterministic_across_runs(self):
        a = run_generation(synth_reader(seed=4), "syncthink", task_kind="numeric")
        b = run_generation(synth_reader(seed=4), "syncthink", task_kind="numeric")
        assert record_fingerprint(a) == record_fingerprint(b)

    def test_fingerprint_separates_policies(self):
        a = run_generation(synth_reader(seed=4), "syncthink", task_kind="numeric")
        b = run_generation(synth_reader(seed=4), "full", task_kind="numeric")
        assert record_fingerprint(a) != record_fingerprint(b)


class TestRunBatch:
    def items(self, tmp_path, seeds=(0, 1)):
        out = []
        for seed in seeds:
            path = str(tmp_path / f"trace-{seed}.jsonl")
            write_trace(generate_synthetic(SyntheticPhaseSpec(seed=seed)), path)
            out.append(
                BatchItem(
                    sample_id=f"s{seed}",
                    open_source=lambda p=path: open_trace(p),
                    task_kind="numeric",
                )
            )
        return out

    def test_grid_order(self, tmp_path):
        records = run_batch(self.items(tmp_path), ["syncthink", "none"])
        assert [(r.sample_id, r.policy) for r in records] == [
            ("s0", "syncthink"),
            ("s0", "none"),
            ("s1", "syncthink"),
            ("s1", "none"),
        ]

    def test_data_failure_poisons_only_its_record(self, tmp_path):
        def broken():
            raise TraceIntegrityError("planted corruption")

        items = self.items(tmp_path, seeds=(0,))
        items.append(BatchItem(sample_id="bad", open_source=broken, task_kind="numeric"))
        records = run_batch(items, ["full"])
        assert records[0].complete
        assert not records[1].complete
        assert "TraceIntegrityError" in records[1].error

    def test_unopened_source_record_is_pinned(self):
        def broken():
            raise TraceIntegrityError("planted corruption")

        [record] = run_batch([BatchItem(sample_id="bad", open_source=broken)], ["syncthink"],
                             budget=77)
        expected = {
            "sample_id": "bad", "policy": "syncthink", "config": {"budget": 77},
            "complete": False, "error": "TraceIntegrityError: planted corruption",
            "stop_step": None, "injected": False, "reason": None,
            "reasoning_tokens": 0, "answer_tokens": 0, "total_tokens": 0,
            "answer_text": "", "normalized_answer": "", "decision": None,
            "rank_trajectory": (), "entropy_trajectory": (),
            "t_gen": 0.0, "t_metric": 0.0, "t_eval": 0.0, "t_total": 0.0,
        }
        obj = record_to_obj(record)
        assert obj == expected
        assert list(obj) == list(expected)

    def test_missing_file_poisons_only_its_record(self, tmp_path):
        items = self.items(tmp_path, seeds=(0,))
        items.append(
            BatchItem(
                sample_id="gone",
                open_source=lambda: open_trace(str(tmp_path / "absent.jsonl")),
            )
        )
        records = run_batch(items, ["full"])
        assert records[0].complete
        assert not records[1].complete

    def test_configuration_error_propagates(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_batch(self.items(tmp_path, seeds=(0,)), ["warp"])
        with pytest.raises(ConfigurationError):
            run_batch(self.items(tmp_path, seeds=(0,)), ["full"], parallelism=0)

    def test_parallel_matches_serial(self, tmp_path):
        items = self.items(tmp_path, seeds=(0, 1, 2))
        policies = ["syncthink", "full", "fixed_ratio"]
        serial = run_batch(items, policies)
        parallel = run_batch(items, policies, parallelism=4)
        assert [record_fingerprint(r) for r in serial] == [
            record_fingerprint(r) for r in parallel
        ]

    def test_sources_closed_even_on_failure(self):
        opened = []

        def open_failing():
            source = FakeSource([plain_step(t) for t in range(6)], fail_after=2)
            source._fail_after = 0
            opened.append(source)
            return source

        def open_fine():
            source = FakeSource([plain_step(t) for t in range(3)])
            opened.append(source)
            return source

        items = [
            BatchItem(sample_id="a", open_source=open_fine),
            BatchItem(sample_id="b", open_source=open_failing),
        ]
        run_batch(items, ["full"])
        assert [s.closed for s in opened] == [True, True]
