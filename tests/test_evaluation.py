"""Answer parsing, dataset loading, scoring, and report round-trips."""

import json
import os

import pytest

from syncthink.controller import GenerationRecord
from syncthink.errors import ConfigurationError, ScoringError
from syncthink.evaluation import (
    BenchmarkReport,
    ReportRow,
    Sample,
    emit_report,
    load_dataset,
    parse_answer,
    read_report,
    score,
)
from syncthink.policy import StopReason

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "parser_cases.jsonl")


def load_cases():
    with open(FIXTURE, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestParseAnswer:
    def test_fixture_corpus(self):
        cases = load_cases()
        assert len(cases) == 50
        failures = []
        for case in cases:
            got = parse_answer(case["text"], case["task_kind"])
            if got != case["expected"]:
                failures.append((case["text"], case["task_kind"], case["expected"], got))
        assert failures == []

    def test_idempotent_on_own_output(self):
        for case in load_cases():
            out = parse_answer(case["text"], case["task_kind"])
            assert parse_answer(out, case["task_kind"]) == out

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_answer("42", "essay")

    def test_empty_text_yields_empty(self):
        for kind in ("numeric", "multiple_choice", "freeform"):
            assert parse_answer("", kind) == ""


class TestLoadDataset:
    def write(self, tmp_path, lines, name="demo.jsonl"):
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_happy_path_and_dataset_stem(self, tmp_path):
        path = self.write(
            tmp_path,
            [
                json.dumps({"id": "q1", "question": "2+2?", "gold": "4", "task_kind": "numeric"}),
                json.dumps({"id": "q2", "question": "capital?", "gold": "Paris"}),
            ],
        )
        samples, errors = load_dataset(path)
        assert errors == []
        assert [s.sample_id for s in samples] == ["q1", "q2"]
        assert samples[0].task_kind == "numeric"
        assert samples[1].task_kind == "freeform"
        assert all(s.dataset == "demo" for s in samples)

    def test_explicit_dataset_name_wins(self, tmp_path):
        path = self.write(
            tmp_path, [json.dumps({"id": "a", "question": "x", "gold": "y"})]
        )
        samples, _ = load_dataset(path, dataset="bench")
        assert samples[0].dataset == "bench"

    def test_bad_lines_reported_not_fatal(self, tmp_path):
        path = self.write(
            tmp_path,
            [
                json.dumps({"id": "ok", "question": "x", "gold": "y"}),
                "{not json",
                json.dumps(["a", "list"]),
                json.dumps({"question": "missing id", "gold": "z"}),
                json.dumps({"id": "ok", "question": "dup", "gold": "z"}),
                json.dumps({"id": "bad", "question": "k", "gold": "z", "task_kind": "essay"}),
                "",
            ],
        )
        samples, errors = load_dataset(path)
        assert [s.sample_id for s in samples] == ["ok"]
        assert [lineno for lineno, _ in errors] == [2, 3, 4, 5, 6]
        assert "duplicate id" in errors[3][1]


def make_record(
    sample_id,
    policy="syncthink",
    normalized_answer="",
    complete=True,
    reasoning_tokens=100,
    answer_tokens=10,
    t_total=1.0,
):
    return GenerationRecord(
        sample_id=sample_id,
        policy=policy,
        config={},
        complete=complete,
        error="" if complete else "stream died",
        stop_step=reasoning_tokens - 1 if complete else None,
        injected=complete and policy != "full",
        reason=StopReason.THRESHOLD_FIRED if complete and policy != "full" else (
            StopReason.NATURAL_TERMINATION if complete else None
        ),
        reasoning_tokens=reasoning_tokens,
        answer_tokens=answer_tokens if complete else 0,
        total_tokens=reasoning_tokens + (answer_tokens if complete else 0),
        answer_text=normalized_answer,
        normalized_answer=normalized_answer,
        decision=None,
        rank_trajectory=(),
        entropy_trajectory=(),
        t_gen=t_total,
        t_metric=0.0,
        t_eval=0.0,
        t_total=t_total,
    )


def demo_samples():
    return [
        Sample("s1", "2+2?", "4", task_kind="numeric", dataset="demo"),
        Sample("s2", "3*3?", "9", task_kind="numeric", dataset="demo"),
        Sample("s3", "pick", "B", task_kind="multiple_choice", dataset="demo"),
    ]


class TestScore:
    def test_empty_records_rejected(self):
        with pytest.raises(ScoringError):
            score([], demo_samples())

    def test_duplicate_sample_ids_rejected(self):
        samples = demo_samples() + [Sample("s1", "again", "4", dataset="demo")]
        with pytest.raises(ScoringError):
            score([make_record("s1")], samples)

    def test_unknown_sample_rejected(self):
        with pytest.raises(ScoringError) as exc:
            score([make_record("ghost")], demo_samples())
        assert "ghost" in str(exc.value)

    def test_top1_counts_all_but_means_skip_incomplete(self):
        records = [
            make_record("s1", normalized_answer="4", reasoning_tokens=100),
            make_record("s2", normalized_answer="8", reasoning_tokens=200),
            make_record("s3", complete=False, reasoning_tokens=300),
        ]
        report = score(records, demo_samples())
        (row,) = report.rows
        assert row.n == 3
        assert row.n_incomplete == 1
        # one match out of three; the incomplete run is a miss
        assert row.top1 == pytest.approx(100.0 / 3.0)
        # means over the two complete runs only
        assert row.mean_reasoning_tokens == pytest.approx(150.0)
        assert row.mean_answer_tokens == pytest.approx(10.0)
        assert row.mean_total_tokens == pytest.approx(160.0)

    def test_empty_gold_never_matches(self):
        samples = [Sample("s1", "q", "no numbers", task_kind="numeric", dataset="d")]
        report = score([make_record("s1", normalized_answer="")], samples)
        assert report.rows[0].top1 == 0.0

    def test_gold_is_normalized_before_compare(self):
        samples = [Sample("s1", "q", "$1,250.50", task_kind="numeric", dataset="d")]
        report = score([make_record("s1", normalized_answer="1250.5")], samples)
        assert report.rows[0].top1 == 100.0

    def test_rows_sorted_dataset_then_policy_order(self):
        samples = [
            Sample("a1", "q", "4", task_kind="numeric", dataset="alpha"),
            Sample("b1", "q", "4", task_kind="numeric", dataset="beta"),
        ]
        records = [
            make_record("b1", policy="none"),
            make_record("a1", policy="fixed_ratio"),
            make_record("b1", policy="syncthink"),
            make_record("a1", policy="full"),
        ]
        report = score(records, samples)
        assert [(r.dataset, r.policy) for r in report.rows] == [
            ("alpha", "full"),
            ("alpha", "fixed_ratio"),
            ("beta", "syncthink"),
            ("beta", "none"),
        ]

    def test_objective_applies_token_cost(self):
        records = [make_record("s1", normalized_answer="4")]
        report = score(records, demo_samples(), alpha_cost=0.01)
        row = report.rows[0]
        assert row.objective == pytest.approx(row.top1 - 0.01 * row.mean_total_tokens)

    def test_efficiency_against_none_baseline(self):
        samples = [
            Sample("s1", "q", "4", task_kind="numeric", dataset="d"),
            Sample("s2", "q", "9", task_kind="numeric", dataset="d"),
        ]
        records = [
            make_record("s1", policy="none", normalized_answer="", reasoning_tokens=0,
                        answer_tokens=10),
            make_record("s2", policy="none", normalized_answer="", reasoning_tokens=0,
                        answer_tokens=10),
            make_record("s1", policy="syncthink", normalized_answer="4",
                        reasoning_tokens=90, answer_tokens=10),
            make_record("s2", policy="syncthink", normalized_answer="9",
                        reasoning_tokens=90, answer_tokens=10),
        ]
        report = score(records, samples)
        by_policy = {r.policy: r for r in report.rows}
        assert by_policy["none"].efficiency is None
        # (100 - 0) accuracy points over (100 - 10) extra tokens
        assert by_policy["syncthink"].efficiency == pytest.approx(100.0 * 100.0 / 90.0)

    def test_efficiency_undefined_when_no_extra_tokens(self):
        samples = [Sample("s1", "q", "4", task_kind="numeric", dataset="d")]
        records = [
            make_record("s1", policy="none", normalized_answer="4",
                        reasoning_tokens=0, answer_tokens=50),
            make_record("s1", policy="syncthink", normalized_answer="4",
                        reasoning_tokens=0, answer_tokens=50),
        ]
        report = score(records, samples)
        by_policy = {r.policy: r for r in report.rows}
        assert by_policy["syncthink"].efficiency is None


class TestReportRoundTrip:
    def sample_report(self):
        rows = (
            ReportRow(
                dataset="demo",
                policy="syncthink",
                n=3,
                n_incomplete=1,
                top1=100.0 / 3.0,
                mean_reasoning_tokens=150.0,
                mean_answer_tokens=10.0,
                mean_total_tokens=160.0,
                mean_total_time=0.1 + 0.2,
                objective=100.0 / 3.0 - 0.01 * 160.0,
                efficiency=0.1344,
            ),
            ReportRow(
                dataset="demo",
                policy="none",
                n=3,
                n_incomplete=0,
                top1=0.0,
                mean_reasoning_tokens=0.0,
                mean_answer_tokens=12.5,
                mean_total_tokens=12.5,
                mean_total_time=0.05,
                objective=-0.125,
                efficiency=None,
            ),
        )
        return BenchmarkReport(rows=rows, alpha_cost=0.01)

    def test_lossless(self, tmp_path):
        report = self.sample_report()
        path = str(tmp_path / "report.csv")
        emit_report(report, path)
        back = read_report(path)
        assert back == report

    def test_tabular_is_plain_csv(self, tmp_path):
        path = str(tmp_path / "report.csv")
        emit_report(self.sample_report(), path)
        with open(path, encoding="utf-8") as fh:
            assert fh.readline().startswith("dataset,policy,n,")

    def test_float_precision_survives(self, tmp_path):
        # 0.1 + 0.2 is not 0.3; the report must keep the exact double
        path = str(tmp_path / "p.csv")
        emit_report(self.sample_report(), path)
        assert read_report(path).rows[0].mean_total_time == 0.1 + 0.2
