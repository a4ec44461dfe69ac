"""End-to-end command-line behavior: exit codes, outputs, manifests."""

from __future__ import annotations

import csv
import dataclasses
import json
import os
from pathlib import Path

import pytest

from syncthink.cli import main
from syncthink.controller import GenerationRecord, read_records
from syncthink.saliency import load_tensor, saliency_report, save_tensor
from syncthink.stub import StubServer
from syncthink.synthetic import SyntheticPhaseSpec, generate_synthetic

TIMING_FIELDS = {"t_gen", "t_metric", "t_eval", "t_total"}


def run_cli(*argv) -> int:
    return main(list(argv))


def read_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def records_sans_timing(path):
    rows = []
    for record in read_records(path):
        row = {
            f.name: getattr(record, f.name)
            for f in dataclasses.fields(GenerationRecord)
            if f.name not in TIMING_FIELDS
        }
        rows.append(row)
    return rows


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Ten short traces whose commit point sits at 60% of the run."""
    root = tmp_path_factory.mktemp("cli")
    trace_dir = root / "traces"
    rc = run_cli(
        "gen-synthetic", "--phases", "10,20,30,40", "--seed", "11",
        "--count", "10", "--out", str(trace_dir),
    )
    assert rc == 0
    traces = sorted(str(p) for p in trace_dir.glob("*.jsonl"))
    assert len(traces) == 10
    gold = root / "gold.jsonl"
    with open(gold, "w", encoding="utf-8") as fh:
        for path in traces:
            stem = os.path.splitext(os.path.basename(path))[0]
            fh.write(json.dumps({
                "id": stem, "question": f"q {stem}", "gold": "42",
                "task_kind": "numeric",
            }) + "\n")
    return {"root": root, "traces": traces, "gold": str(gold)}


class TestGenSynthetic:
    def test_count_and_manifest(self, tmp_path):
        out = tmp_path / "gen"
        assert run_cli("gen-synthetic", "--count", "3", "--seed", "4",
                       "--out", str(out)) == 0
        manifest = read_manifest(out)
        assert len(manifest["outputs"]) == 3
        assert all(os.path.isfile(p) for p in manifest["outputs"])
        assert manifest["seed"] == 4
        assert manifest["config"]["seeds"] == [4, 5, 6]

    def test_seeded_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("gen-synthetic", "--count", "2", "--seed", "9",
                           "--phases", "8,8,20,8", "--out", str(out)) == 0
        for name in ("synth_0000.jsonl", "synth_0001.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_bad_phase_spec_is_usage_error(self, tmp_path):
        out = tmp_path / "nope"
        assert run_cli("gen-synthetic", "--phases", "1,2,3", "--out", str(out)) == 2
        assert run_cli("gen-synthetic", "--phases", "0,5,5,5", "--out", str(out)) == 2
        assert run_cli("gen-synthetic", "--count", "0", "--out", str(out)) == 2
        assert not out.exists()


class TestRun:
    def test_ten_traces_ten_records(self, workspace, tmp_path):
        out = tmp_path / "run"
        rc = run_cli("run", "--policy", "syncthink",
                     "--traces", *workspace["traces"], "--out", str(out))
        assert rc == 0
        records = read_records(str(out / "records.jsonl"))
        assert len(records) == 10
        assert all(r.complete for r in records)
        manifest = read_manifest(out)
        assert manifest["command"] == "run"
        assert all(os.path.isfile(p) for p in manifest["outputs"])
        assert manifest["config"]["entropy_weight"] == 0.8
        assert manifest["started"] <= manifest["finished"]

    def test_negative_lambda_is_usage_error(self, workspace, tmp_path):
        out = tmp_path / "nope"
        rc = run_cli("run", "--lambda", "-1",
                     "--traces", *workspace["traces"], "--out", str(out))
        assert rc == 2
        assert not out.exists()

    def test_rerun_identical_records(self, workspace, tmp_path):
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            rc = run_cli("run", "--policy", "syncthink",
                         "--traces", *workspace["traces"],
                         "--dataset", workspace["gold"], "--out", str(out))
            assert rc == 0
        first, second = (records_sans_timing(str(o / "records.jsonl")) for o in outs)
        assert first == second
        digests = [read_manifest(o)["record_digest"] for o in outs]
        assert digests[0] == digests[1]

    def test_dataset_join_scores_the_run(self, workspace, tmp_path):
        out = tmp_path / "scored"
        rc = run_cli("run", "--policy", "full",
                     "--traces", *workspace["traces"],
                     "--dataset", workspace["gold"], "--out", str(out))
        assert rc == 0
        with open(out / "report.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        # every full run ends at the commit answer, so exact match is total
        assert float(rows[0]["top1"]) == 100.0

    def test_dataset_missing_trace_id_is_usage_error(self, workspace, tmp_path):
        lonely = tmp_path / "lonely.jsonl"
        lonely.write_text(json.dumps(
            {"id": "someone_else", "question": "q", "gold": "1"}) + "\n")
        out = tmp_path / "nope"
        rc = run_cli("run", "--traces", *workspace["traces"],
                     "--dataset", str(lonely), "--out", str(out))
        assert rc == 2
        assert not out.exists()

    def test_out_collides_with_file(self, workspace, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        rc = run_cli("run", "--traces", *workspace["traces"], "--out", str(blocker))
        assert rc == 2

    def test_missing_trace_file_is_usage_error(self, tmp_path):
        out = tmp_path / "nope"
        rc = run_cli("run", "--traces", str(tmp_path / "ghost.jsonl"),
                     "--out", str(out))
        assert rc == 2
        assert not out.exists()


@pytest.fixture(scope="module")
def stub():
    trace = generate_synthetic(SyntheticPhaseSpec(seed=2), topk_width=80)
    with StubServer(trace) as server:
        yield server


class TestRunEndpoint:
    @pytest.fixture()
    def prompts(self, tmp_path):
        path = tmp_path / "prompts.jsonl"
        path.write_text(json.dumps(
            {"id": "x1", "question": "solve it", "gold": "42",
             "task_kind": "numeric"}) + "\n")
        return str(path)

    def test_live_run_over_stub(self, stub, prompts, tmp_path):
        out = tmp_path / "live"
        rc = run_cli("run", "--source", "endpoint", "--api-base", stub.base_url,
                     "--model", "stub", "--top-logprobs", "80", "--t-max", "64",
                     "--dataset", prompts, "--out", str(out))
        assert rc == 0
        records = read_records(str(out / "records.jsonl"))
        assert len(records) == 1 and records[0].complete
        assert records[0].normalized_answer == "42"

    def test_api_base_env_fallback(self, stub, prompts, tmp_path, monkeypatch):
        monkeypatch.setenv("SYNCTHINK_API_BASE", stub.base_url)
        out = tmp_path / "live_env"
        rc = run_cli("run", "--source", "endpoint", "--model", "stub",
                     "--top-logprobs", "80", "--t-max", "64",
                     "--dataset", prompts, "--out", str(out))
        assert rc == 0
        assert read_manifest(out)["config"]["api_base"] == stub.base_url

    def test_endpoint_usage_errors(self, prompts, tmp_path, monkeypatch):
        monkeypatch.delenv("SYNCTHINK_API_BASE", raising=False)
        out = str(tmp_path / "nope")
        base = ["run", "--source", "endpoint", "--dataset", prompts, "--out", out]
        assert run_cli(*base, "--model", "m") == 2  # no api base anywhere
        assert run_cli(*base, "--api-base", "http://x") == 2  # no model
        assert run_cli(*base, "--api-base", "http://x", "--model", "m",
                       "--policy", "fixed_ratio") == 2  # no reference length
        assert run_cli(*base, "--api-base", "http://x", "--model", "m",
                       "--top-logprobs", "10") == 2  # cannot cover t-max
        assert not os.path.exists(out)

    def test_unreachable_endpoint_is_runtime_failure(self, prompts, tmp_path):
        out = tmp_path / "dead"
        rc = run_cli("run", "--source", "endpoint", "--api-base",
                     "http://127.0.0.1:9", "--model", "m", "--timeout", "2",
                     "--top-logprobs", "80", "--t-max", "64",
                     "--dataset", prompts, "--out", str(out))
        # the dead endpoint poisons its record, not the batch
        assert rc == 0
        records = read_records(str(out / "records.jsonl"))
        assert not records[0].complete
        assert records[0].error


class TestSweep:
    def test_lambda_grid_monotone(self, workspace, tmp_path):
        out = tmp_path / "sw"
        rc = run_cli("sweep", "--lambda-grid", "0.2,0.8,1.6",
                     "--traces", *workspace["traces"],
                     "--dataset", workspace["gold"], "--out", str(out))
        assert rc == 0
        with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["param"] for r in rows] == ["lambda"] * 3
        lengths = [float(r["mean_reasoning_tokens"]) for r in rows]
        assert lengths == sorted(lengths)  # tighter threshold, later stop
        assert all(r["error"] == "" for r in rows)

    def test_ratio_one_equals_full_run(self, workspace, tmp_path):
        sweep_out = tmp_path / "sw"
        rc = run_cli("sweep", "--ratio-grid", "0.25,0.5,0.75,1.0",
                     "--traces", *workspace["traces"], "--out", str(sweep_out))
        assert rc == 0
        full_out = tmp_path / "full"
        rc = run_cli("run", "--policy", "full",
                     "--traces", *workspace["traces"], "--out", str(full_out))
        assert rc == 0
        ratio_rows = records_sans_timing(str(sweep_out / "point_03" / "records.jsonl"))
        full_rows = records_sans_timing(str(full_out / "records.jsonl"))
        skip = {"policy", "config"}
        for left, right in zip(ratio_rows, full_rows):
            for name in left:
                if name not in skip:
                    assert left[name] == right[name], name

    def test_empty_grid_is_usage_error(self, workspace, tmp_path):
        out = str(tmp_path / "nope")
        base = ["sweep", "--traces", *workspace["traces"], "--out", out]
        assert run_cli(*base) == 2
        assert run_cli(*base, "--lambda-grid", " , ") == 2
        assert run_cli(*base, "--lambda-grid", "0.5", "--ratio-grid", "0.5") == 2
        assert run_cli(*base, "--ratio-grid", "0,0.5") == 2  # ratio 0 invalid
        assert not os.path.exists(out)

    def test_failing_point_is_flagged_not_fatal(self, workspace, tmp_path, monkeypatch):
        import syncthink.cli as cli_module
        from syncthink.errors import SessionError

        real = cli_module.run_batch
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise SessionError("endpoint fell over")
            return real(*args, **kwargs)

        monkeypatch.setattr(cli_module, "run_batch", flaky)
        out = tmp_path / "sw"
        rc = run_cli("sweep", "--lambda-grid", "0.2,0.8,1.6",
                     "--traces", *workspace["traces"], "--out", str(out))
        assert rc == 0
        with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert rows[1]["error"] == "endpoint fell over"
        assert rows[0]["error"] == "" and rows[2]["error"] == ""
        assert not (out / "point_01").exists()


class TestAnalyze:
    def test_traces_with_gold_emit_all_tables(self, workspace, tmp_path):
        out = tmp_path / "an"
        rc = run_cli("analyze", "--traces", *workspace["traces"],
                     "--dataset", workspace["gold"],
                     "--grid", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
                     "--epsilon", "0.05", "--out", str(out))
        assert rc == 0
        names = {os.path.basename(p) for p in read_manifest(out)["outputs"]}
        assert names == {"segmentations.csv", "macro_median.csv",
                         "truncation_curve.csv", "zone.json"}
        with open(out / "segmentations.csv", newline="", encoding="utf-8") as fh:
            assert len(list(csv.DictReader(fh))) == 10

    def test_zone_starts_at_the_commit_point(self, workspace, tmp_path):
        # commit sits at step 60 of 100, so truncation is safe from ~0.6 on
        out = tmp_path / "zone"
        rc = run_cli("analyze", "--traces", *workspace["traces"],
                     "--dataset", workspace["gold"],
                     "--grid", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
                     "--epsilon", "0.05", "--out", str(out))
        assert rc == 0
        with open(out / "zone.json", encoding="utf-8") as fh:
            zone = json.load(fh)
        assert zone["end"] == 1.0
        assert not zone["degenerate"]
        assert abs(zone["start"] - 0.6) < 0.05

    def test_records_only_analysis(self, workspace, tmp_path):
        run_out = tmp_path / "run"
        assert run_cli("run", "--policy", "full",
                       "--traces", *workspace["traces"], "--out", str(run_out)) == 0
        out = tmp_path / "an"
        rc = run_cli("analyze", "--records", str(run_out / "records.jsonl"),
                     "--out", str(out))
        assert rc == 0
        names = {os.path.basename(p) for p in read_manifest(out)["outputs"]}
        assert names == {"segmentations.csv", "macro_median.csv"}

    def test_short_trajectories_flagged_not_fatal(self, workspace, tmp_path, capsys):
        run_out = tmp_path / "run"
        # the none policy stops immediately, leaving nothing to segment
        assert run_cli("run", "--policy", "none",
                       "--traces", *workspace["traces"], "--out", str(run_out)) == 0
        out = tmp_path / "an"
        rc = run_cli("analyze", "--records", str(run_out / "records.jsonl"),
                     "--traces", *workspace["traces"], "--out", str(out))
        assert rc == 0
        assert "skipped" in capsys.readouterr().err
        with open(out / "segmentations.csv", newline="", encoding="utf-8") as fh:
            assert len(list(csv.DictReader(fh))) == 10  # traces only

    def test_requires_some_input(self, tmp_path):
        assert run_cli("analyze", "--out", str(tmp_path / "nope")) == 2

    def test_malformed_records_name_the_line(self, workspace, tmp_path, capsys):
        run_out = tmp_path / "run"
        assert run_cli("run", "--policy", "full",
                       "--traces", *workspace["traces"][:2], "--out", str(run_out)) == 0
        good = (run_out / "records.jsonl").read_text(encoding="utf-8").splitlines()
        missing = json.loads(good[1])
        del missing["stop_step"]
        for second in (json.dumps(missing), "{not json"):
            path = tmp_path / "bad.jsonl"
            path.write_text(good[0] + "\n" + second + "\n", encoding="utf-8")
            rc = run_cli("analyze", "--records", str(path), "--out", str(tmp_path / "an"))
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}:2:"), err

    def test_non_finite_rank_is_an_error(self, workspace, tmp_path, capsys):
        run_out = tmp_path / "run"
        assert run_cli("run", "--policy", "full",
                       "--traces", workspace["traces"][0], "--out", str(run_out)) == 0
        record = json.loads((run_out / "records.jsonl").read_text(encoding="utf-8"))
        record["rank_trajectory"][5][1] = float("nan")
        path = tmp_path / "nan.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        rc = run_cli("analyze", "--records", str(path), "--out", str(tmp_path / "an"))
        assert rc == 1
        assert "ranks must be finite" in capsys.readouterr().err

    def test_dataset_without_traces_is_usage_error(self, workspace, tmp_path):
        run_out = tmp_path / "run"
        assert run_cli("run", "--policy", "full",
                       "--traces", *workspace["traces"], "--out", str(run_out)) == 0
        rc = run_cli("analyze", "--records", str(run_out / "records.jsonl"),
                     "--dataset", workspace["gold"], "--out", str(tmp_path / "nope"))
        assert rc == 2


class TestSaliency:
    @pytest.fixture()
    def tensor_files(self, tmp_path):
        import numpy as np

        rng = np.random.default_rng(3)
        att = rng.random((2, 3, 12, 12)).astype(np.float32)
        grad = rng.standard_normal((2, 3, 12, 12)).astype(np.float32)
        att_path, grad_path = str(tmp_path / "a.stns"), str(tmp_path / "g.stns")
        save_tensor(att, att_path)
        save_tensor(grad, grad_path)
        return att_path, grad_path

    def test_report_matches_library_call(self, tensor_files, tmp_path):
        att_path, grad_path = tensor_files
        out = tmp_path / "sal"
        rc = run_cli("saliency", "--attention", att_path, "--gradients", grad_path,
                     "--boundaries", "0,4,6,12", "--out", str(out))
        assert rc == 0
        with open(out / "report.json", encoding="utf-8") as fh:
            emitted = json.load(fh)
        direct = saliency_report(
            load_tensor(att_path).data, load_tensor(grad_path).data, (0, 4, 6, 12)
        )
        for layer, row in enumerate(emitted["layer_scores"]):
            for col, path in enumerate(direct.paths):
                assert row[path] == float(direct.layer_scores[layer][col])

    def test_corrupt_tensor_names_file_and_offset(self, tensor_files, tmp_path, capsys):
        att_path, grad_path = tensor_files
        blob = bytearray(Path(att_path).read_bytes())
        blob[0] ^= 0xFF
        bad_path = str(tmp_path / "bad.stns")
        with open(bad_path, "wb") as fh:
            fh.write(bytes(blob))
        rc = run_cli("saliency", "--attention", bad_path, "--gradients", grad_path,
                     "--boundaries", "0,4,6,12", "--out", str(tmp_path / "nope"))
        assert rc == 1
        err = capsys.readouterr().err
        assert "bad.stns" in err and "offset" in err

    def test_bad_boundaries_usage_error(self, tensor_files, tmp_path):
        att_path, grad_path = tensor_files
        out = str(tmp_path / "nope")
        base = ["saliency", "--attention", att_path, "--gradients", grad_path,
                "--out", out]
        assert run_cli(*base, "--boundaries", "4,4,6,12") == 2
        assert run_cli(*base, "--boundaries", "0,4,6") == 2
        assert run_cli(*base, "--boundaries", "0,x,6,12") == 2
        assert not os.path.exists(out)


class TestTopLevel:
    def test_no_command(self):
        assert run_cli() == 2

    def test_unknown_command(self):
        assert run_cli("frobnicate") == 2

    def test_help_exits_zero(self):
        assert run_cli("--help") == 0

    def test_version_exits_zero(self):
        assert run_cli("--version") == 0
