"""End-to-end command-line behavior: exit codes, outputs, manifests."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import re
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from syncthink import __version__, cli
from syncthink.cli import main
from syncthink.controller import GenerationRecord, read_records, record_fingerprint
from syncthink.policy import Distribution, shannon_entropy
from syncthink.saliency import load_tensor, saliency_report, save_tensor
from syncthink.stub import StubServer
from syncthink.synthetic import SyntheticPhaseSpec, generate_synthetic
from syncthink.trace import StepObservation, TraceFile, TraceHeader, write_trace

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


SUBPARSERS = next(a for a in cli._build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)).choices


def parses_to_float(action) -> bool:
    try:
        return isinstance(action.type("0.5"), float)
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        return False


# (command, flag) for every flag whose value is parsed as a float
FLOAT_FLAGS = [
    (command, action.option_strings[0])
    for command, parser in sorted(SUBPARSERS.items())
    for action in parser._actions
    if parses_to_float(action)
]


def valid_argv(command, workspace, tmp_path) -> list[str]:
    """The fewest flags with which each command runs to exit 0, --out aside."""
    trace = workspace["traces"][0]
    att, grad = str(tmp_path / "a.stns"), str(tmp_path / "g.stns")
    save_tensor(np.ones((1, 1, 8, 8), dtype=np.float32), att)
    save_tensor(np.ones((1, 1, 8, 8), dtype=np.float32), grad)
    return {
        "run": ["--traces", trace],
        "sweep": ["--lambda-grid", "0.8", "--traces", trace],
        "analyze": ["--traces", trace],
        "saliency": ["--attention", att, "--gradients", grad, "--boundaries", "0,2,4,8"],
        "gen-synthetic": ["--phases", "4,4,4,4"],
    }[command]


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


@pytest.mark.parametrize("command,flags", [("run", []), ("sweep", ["--lambda-grid", "0.8"]),
                                           ("analyze", [])])
def test_two_traces_of_one_sample_id_are_a_usage_error(workspace, tmp_path, capsys,
                                                       command, flags):
    # a trace's file stem is its sample id, which a second trace would score twice
    trace = workspace["traces"][0]
    twin = tmp_path / "other" / os.path.basename(trace)
    twin.parent.mkdir()
    twin.write_bytes(Path(trace).read_bytes())
    out = tmp_path / "out"
    assert run_cli(command, *flags, "--traces", trace, str(twin),
                   "--dataset", workspace["gold"], "--out", str(out)) == 2
    assert not out.exists()
    stem = os.path.splitext(os.path.basename(trace))[0]
    assert f"two traces have the sample id {stem!r}" in capsys.readouterr().err


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

    @pytest.mark.parametrize("width", ["17", "8"])
    def test_benchmark_smoke_corpora_replay(self, tmp_path, width):
        # the benchmark's corpus shapes at smoke size: write_trace checks
        # each generated trace, and a full run reads them back
        corpus, out = tmp_path / "corpus", tmp_path / "run"
        assert run_cli("gen-synthetic", "--count", "2", "--seed", "3", "--phases", "6,6,20,6",
                       "--topk-width", width, "--out", str(corpus)) == 0
        traces = sorted(str(p) for p in corpus.glob("*.jsonl"))
        assert len(traces) == 2
        assert run_cli("run", "--policy", "full", "--traces", *traces, "--out", str(out)) == 0

    def test_bad_phase_spec_is_usage_error(self, tmp_path):
        out = tmp_path / "nope"
        assert run_cli("gen-synthetic", "--phases", "1,2,3", "--out", str(out)) == 2
        assert run_cli("gen-synthetic", "--phases", "0,5,5,5", "--out", str(out)) == 2
        assert run_cli("gen-synthetic", "--count", "0", "--out", str(out)) == 2
        assert run_cli("gen-synthetic", "--seed", "-1", "--out", str(out)) == 2
        assert not out.exists()


class TestManifest:
    def pop_times(self, manifest):
        started, finished = manifest.pop("started"), manifest.pop("finished")
        assert datetime.fromisoformat(started) <= datetime.fromisoformat(finished)

    def test_gen_synthetic_and_run_manifests(self, tmp_path):
        corpus, run = tmp_path / "corpus", tmp_path / "run"
        assert run_cli("gen-synthetic", "--count", "2", "--seed", "4", "--topk-width", "8",
                       "--phases", "10,20,30,10", "--out", str(corpus)) == 0
        traces = [str(corpus / "synth_0000.jsonl"), str(corpus / "synth_0001.jsonl")]
        manifest = read_manifest(corpus)
        self.pop_times(manifest)
        assert manifest == {
            "command": "gen-synthetic",
            "config": {
                "count": 2, "phases": [10, 20, 30, 10], "probe_every": 1,
                "seeds": [4, 5], "topk_width": 8,
            },
            "inputs": {},
            "outputs": traces,
            "record_digest": "",
            "seed": 4,
            "version": __version__,
        }

        assert run_cli("run", "--policy", "syncthink", "--traces", *traces,
                       "--out", str(run)) == 0
        records = str(run / "records.jsonl")
        digest = hashlib.sha256()
        for record in read_records(records):
            digest.update(record_fingerprint(record))
        manifest = read_manifest(run)
        self.pop_times(manifest)
        assert manifest == {
            "command": "run",
            "config": {
                "alpha_cost": 0.0, "api_base": None, "api_key_set": False,
                "budget": 8192, "check_interval": 1, "convergence_k": 2,
                "entropy_weight": 0.8, "full_length": None,
                "min_steps": 16, "model": None, "pacing_cap": 512,
                "parallelism": 1, "policy": "syncthink",
                "probe_suffix": "Final answer:", "ratio": 0.5,
                "segment_len": 64, "source": "trace", "task_kind": None,
                "timeout": 120.0, "top_logprobs": 513, "watched_token": None,
            },
            "inputs": {"traces": traces},
            "outputs": [records],
            "record_digest": digest.hexdigest(),
            "seed": None,
            "version": __version__,
        }

    def test_sweep_manifest(self, workspace, tmp_path, monkeypatch):
        monkeypatch.delenv("SYNCTHINK_API_BASE", raising=False)
        monkeypatch.delenv("SYNCTHINK_API_KEY", raising=False)
        out = tmp_path / "sw"
        traces, gold = workspace["traces"], workspace["gold"]
        assert run_cli("sweep", "--lambda-grid", "0.2,1.6", "--traces", *traces,
                       "--dataset", gold, "--out", str(out)) == 0
        points = [out / "point_00", out / "point_01"]
        digest = hashlib.sha256()
        for point in points:
            for record in read_records(str(point / "records.jsonl")):
                digest.update(record_fingerprint(record))
        manifest = read_manifest(out)
        self.pop_times(manifest)
        assert manifest == {
            "command": "sweep",
            "config": {
                "alpha_cost": 0.0, "api_base": None, "api_key_set": False,
                "budget": 8192, "check_interval": 1, "convergence_k": 2,
                "entropy_weight": 0.8, "full_length": None,
                "lambda_grid": [0.2, 1.6], "min_steps": 16, "model": None,
                "pacing_cap": 512, "parallelism": 1, "policy": "syncthink",
                "probe_suffix": "Final answer:", "ratio": 0.5,
                "segment_len": 64, "source": "trace", "task_kind": None,
                "timeout": 120.0, "top_logprobs": 513, "watched_token": None,
            },
            # the dataset is read to score each point, so it is an input
            "inputs": {"traces": traces, "dataset": gold},
            "outputs": [
                *(str(p / name) for p in points for name in ("records.jsonl", "report.csv")),
                str(out / "sweep.csv"),
            ],
            "record_digest": digest.hexdigest(),
            "seed": None,
            "version": __version__,
        }

    @pytest.mark.parametrize("command", sorted(SUBPARSERS))
    def test_every_flag_reaches_the_manifest(self, command, workspace, tmp_path):
        # a flag added later lands in config unless _NOT_CONFIG names it
        out = tmp_path / "out"
        assert run_cli(command, *valid_argv(command, workspace, tmp_path), "--out", str(out)) == 0
        config = read_manifest(out)["config"]
        dests = {a.dest for a in SUBPARSERS[command]._actions} - {"help"}
        assert dests, command
        assert not {d for d in dests if d not in config and d not in cli._NOT_CONFIG}

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command,flag", FLOAT_FLAGS)
    def test_every_float_flag_rejects_non_finite(self, command, flag, value, workspace,
                                                 tmp_path, capsys):
        # a manifest is strict JSON, and no flag may carry NaN or inf into one
        out = tmp_path / "out"
        argv = valid_argv(command, workspace, tmp_path)
        assert run_cli(command, *argv, f"{flag}={value}", "--out", str(out)) == 2
        assert f"argument {flag}" in capsys.readouterr().err
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

    def test_probe_suffix_other_than_recorded_fails_each_record(self, workspace, tmp_path):
        out = tmp_path / "run"
        rc = run_cli("run", "--policy", "answer_convergence", "--segment-len", "8",
                     "--probe-suffix", "Something else entirely:",
                     "--traces", *workspace["traces"][:2], "--out", str(out))
        assert rc == 0
        records = read_records(str(out / "records.jsonl"))
        assert [r.complete for r in records] == [False, False]
        for record in records:
            assert "'Something else entirely:'" in record.error
            assert "'Final answer:'" in record.error

    def test_out_collides_with_file(self, workspace, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        rc = run_cli("run", "--traces", *workspace["traces"], "--out", str(blocker))
        assert rc == 2

    @pytest.mark.parametrize("field,value", [
        ("entropy", float("nan")), ("entropy", float("inf")), ("step_wall_time", float("nan")),
    ])
    def test_non_finite_step_names_the_trace(self, workspace, tmp_path, capsys, field, value):
        lines = Path(workspace["traces"][0]).read_text(encoding="utf-8").splitlines()
        step = json.loads(lines[10])
        step[field] = value
        lines[10] = json.dumps(step)
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "nope"
        rc = run_cli("run", "--policy", "syncthink", "--traces", str(path), "--out", str(out))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:11: step 9: ") and "must be finite" in err, err

    def test_unhashable_topk_token_names_the_trace(self, workspace, tmp_path, capsys):
        lines = Path(workspace["traces"][0]).read_text(encoding="utf-8").splitlines()
        step = json.loads(lines[10])
        step["topk"][1][0] = [1]
        lines[10] = json.dumps(step)
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "nope"
        rc = run_cli("run", "--policy", "syncthink", "--traces", str(path), "--out", str(out))
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}:11: step 9: topk token must be an int or a str, not list\n", err
        assert not out.exists()

    def test_missing_trace_file_is_usage_error(self, tmp_path):
        out = tmp_path / "nope"
        rc = run_cli("run", "--traces", str(tmp_path / "ghost.jsonl"),
                     "--out", str(out))
        assert rc == 2
        assert not out.exists()

    def test_run_without_traces_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "nope"
        assert run_cli("run", "--out", str(out)) == 2
        assert "--traces is required here" in capsys.readouterr().err
        assert not out.exists()

    def test_dataset_without_usable_samples_is_usage_error(self, workspace, tmp_path, capsys):
        dataset = tmp_path / "unusable.jsonl"
        dataset.write_text(json.dumps({"id": "x", "question": "q"}) + "\n")  # no gold
        out = tmp_path / "nope"
        assert run_cli("run", "--traces", *workspace["traces"], "--dataset", str(dataset),
                       "--out", str(out)) == 2
        assert f"--dataset {dataset} holds no usable samples" in capsys.readouterr().err
        assert not out.exists()

    def test_traces_watching_different_tokens_are_usage_error(self, workspace, tmp_path,
                                                               capsys):
        other = tmp_path / "other.jsonl"
        topk = Distribution([7, 8], [-0.5, -1.5])
        step = StepObservation(0, 7, "<w7>", topk, 2, True, shannon_entropy(topk), 0.01)
        write_trace(TraceFile(TraceHeader("toy", 64, 5, "hand", 0), (step,)), str(other))
        out = tmp_path / "nope"
        assert run_cli("run", "--traces", workspace["traces"][0], str(other),
                       "--out", str(out)) == 2
        assert "traces watch different tokens" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("flag,value", [
        ("--watched-token", "</think>"), ("--api-base", "http://x"),
        ("--model", "m"), ("--full-length", "5"),
    ])
    def test_endpoint_only_flags_are_usage_errors_over_traces(
        self, workspace, tmp_path, capsys, command, flag, value,
    ):
        # a trace carries its own terminator and length; a flag that
        # would be ignored must not reach the manifest as if it applied
        out = tmp_path / "nope"
        argv = valid_argv(command, workspace, tmp_path)
        assert run_cli(command, *argv, flag, value, "--out", str(out)) == 2
        assert flag in capsys.readouterr().err
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
        for length in ("0", "-3"):  # a reference length below 1
            assert run_cli(*base, "--api-base", "http://x", "--model", "m",
                           "--policy", "fixed_ratio", "--full-length", length) == 2
            assert run_cli(*base, "--api-base", "http://x", "--model", "m",
                           "--full-length", length) == 2
        assert not os.path.exists(out)

    def test_traces_or_no_dataset_with_endpoint_are_usage_errors(self, workspace, prompts,
                                                                  tmp_path, capsys):
        out = str(tmp_path / "nope")
        base = ["run", "--source", "endpoint", "--api-base", "http://x", "--model", "m",
                "--out", out]
        assert run_cli(*base, "--dataset", prompts, "--traces", workspace["traces"][0]) == 2
        assert "--traces applies to --source trace only" in capsys.readouterr().err
        assert run_cli(*base) == 2
        assert "--source endpoint needs --dataset" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_empty_watched_token_is_usage_error(self, stub, prompts, tmp_path, capsys):
        # the sessions watched "</think>" while the manifest recorded ""
        out = tmp_path / "nope"
        assert run_cli("run", "--source", "endpoint", "--api-base", stub.base_url,
                       "--model", "m", "--top-logprobs", "80", "--t-max", "64",
                       "--watched-token", "", "--dataset", prompts, "--out", str(out)) == 2
        assert "usage error: watched_token must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("timeout", ["0", "-1"])
    def test_timeout_not_above_zero_is_usage_error(self, prompts, tmp_path, capsys, timeout):
        out = tmp_path / "nope"
        assert run_cli("run", "--source", "endpoint", "--api-base", "http://x",
                       "--model", "m", "--dataset", prompts, "--timeout", timeout,
                       "--out", str(out)) == 2
        assert "usage error: timeout must be > 0" in capsys.readouterr().err
        assert not out.exists()

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


def argv_from_manifest(manifest: dict, out) -> list[str]:
    """The command a manifest records, rebuilt through its parser's actions
    from the manifest alone: each flag's value from config, inputs or seed,
    a list flag's parsed values joined again."""
    values = {**manifest["config"], **manifest["inputs"], "seed": manifest["seed"],
              "out": str(out)}
    argv = [manifest["command"]]
    for action in SUBPARSERS[manifest["command"]]._actions:
        value = values.get(action.dest)
        if not action.option_strings or value is None:
            continue
        if isinstance(value, list) and action.nargs is None:
            value = ",".join(map(str, value))
        argv += [action.option_strings[0], *map(str, value if isinstance(value, list) else [value])]
    return argv


# outputs that hold wall times; the record digest stands in for them
TIMED_OUTPUTS = {"records.jsonl", "report.csv", "sweep.csv"}


class TestManifestReplaysItsCommand:
    """Each command, run with non-default flags, then rerun from the argv
    its manifest rebuilds into a fresh --out, gives the same record digest
    and the same bytes in every output that holds no wall time.  A flag the
    manifest misstates or drops fails it."""

    @pytest.fixture()
    def records(self, workspace, tmp_path):
        out = tmp_path / "full"
        assert run_cli("run", "--policy", "full", "--traces", *workspace["traces"],
                       "--out", str(out)) == 0
        return str(out / "records.jsonl")

    def argv(self, case, workspace, tmp_path, stub, records) -> list[str]:
        traces, gold = workspace["traces"], workspace["gold"]
        if case == "endpoint":
            prompts = tmp_path / "prompts.jsonl"
            prompts.write_text(json.dumps({"id": "x1", "question": "solve it",
                                           "gold": "42", "task_kind": "numeric"}) + "\n")
            return ["run", "--source", "endpoint", "--api-base", stub.base_url,
                    "--model", "stub", "--top-logprobs", "80", "--t-max", "64",
                    "--lambda", "1.6", "--min-steps", "4", "--budget", "250",
                    "--timeout", "30", "--dataset", str(prompts)]
        if case == "saliency":
            rng = np.random.default_rng(5)
            att, grad = str(tmp_path / "a.stns"), str(tmp_path / "g.stns")
            save_tensor(rng.random((2, 2, 12, 12)).astype(np.float32), att)
            save_tensor(rng.standard_normal((2, 2, 12, 12)).astype(np.float32), grad)
            return ["saliency", "--attention", att, "--gradients", grad,
                    "--boundaries", "0,4,6,12", "--alpha", "0.5"]
        return {
            "run": ["run", "--policy", "syncthink", "--traces", *traces, "--dataset", gold,
                    "--lambda", "1.2", "--t-max", "40", "--min-steps", "8",
                    "--check-interval", "2", "--budget", "90", "--task-kind", "numeric",
                    "--alpha-cost", "0.01", "--parallelism", "2"],
            "sweep": ["sweep", "--ratio-grid", "0.3,0.9", "--traces", *traces[:3],
                      "--dataset", gold, "--budget", "100"],
            "analyze": ["analyze", "--records", records, "--traces", *traces[:4],
                        "--dataset", gold, "--grid", "0.2,0.6,1.0", "--epsilon", "2.5"],
            "gen-synthetic": ["gen-synthetic", "--phases", "6,8,12,6", "--seed", "3",
                              "--count", "2", "--topk-width", "9", "--probe-every", "0"],
        }[case]

    @pytest.mark.parametrize("case", ["run", "endpoint", "sweep", "analyze",
                                      "gen-synthetic", "saliency"])
    def test_rebuilt_argv_reproduces_the_run(self, case, workspace, tmp_path, stub, records,
                                             monkeypatch):
        monkeypatch.delenv("SYNCTHINK_API_BASE", raising=False)
        monkeypatch.delenv("SYNCTHINK_API_KEY", raising=False)
        first, again = tmp_path / "first", tmp_path / "again"
        assert run_cli(*self.argv(case, workspace, tmp_path, stub, records),
                       "--out", str(first)) == 0
        manifest = read_manifest(first)
        assert run_cli(*argv_from_manifest(manifest, again)) == 0
        replayed = read_manifest(again)
        assert replayed["record_digest"] == manifest["record_digest"]
        names = [os.path.relpath(p, first) for p in manifest["outputs"]]
        assert names == [os.path.relpath(p, again) for p in replayed["outputs"]]
        for name in names:
            if os.path.basename(name) not in TIMED_OUTPUTS:
                assert (first / name).read_bytes() == (again / name).read_bytes(), name
        for key in ("config", "inputs", "seed", "command"):
            assert replayed[key] == manifest[key], key


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

    @pytest.mark.parametrize("grid", ["0.5,nan", "0.5,inf", "-0.1"])
    def test_invalid_lambda_is_usage_error(self, workspace, tmp_path, grid):
        # each point's PolicyConfig would reject it, after point_00 is written
        out = tmp_path / "nope"
        assert run_cli("sweep", "--lambda-grid", grid, "--traces", *workspace["traces"],
                       "--out", str(out)) == 2
        assert not out.exists()

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

    def test_negative_epsilon_is_usage_error(self, workspace, tmp_path, capsys):
        out = tmp_path / "nope"
        assert run_cli("analyze", "--traces", *workspace["traces"],
                       "--dataset", workspace["gold"], "--epsilon", "-0.5",
                       "--out", str(out)) == 2
        assert "usage error: epsilon must be >= 0" in capsys.readouterr().err
        assert not out.exists()

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

    def test_records_all_too_short_skip_the_macro_curve(self, workspace, tmp_path, capsys):
        run_out = tmp_path / "run"
        assert run_cli("run", "--policy", "none",
                       "--traces", *workspace["traces"], "--out", str(run_out)) == 0
        out = tmp_path / "an"
        assert run_cli("analyze", "--records", str(run_out / "records.jsonl"),
                       "--out", str(out)) == 0
        assert "no usable trajectories; macro curve skipped" in capsys.readouterr().err
        assert not (out / "macro_median.csv").exists()
        assert [os.path.basename(p) for p in read_manifest(out)["outputs"]] == [
            "segmentations.csv"]

    def test_full_record_and_its_trace_are_fitted_once(self, workspace, tmp_path, monkeypatch):
        import syncthink.cli

        trace = workspace["traces"][0]
        run_out = tmp_path / "run"
        assert run_cli("run", "--policy", "full", "--traces", trace,
                       "--out", str(run_out)) == 0
        calls = []
        fit = syncthink.cli.segment_phases

        def counting(ranks, **kwargs):
            calls.append(len(ranks))
            return fit(ranks, **kwargs)

        monkeypatch.setattr(syncthink.cli, "segment_phases", counting)
        out = tmp_path / "an"
        rc = run_cli("analyze", "--records", str(run_out / "records.jsonl"),
                     "--traces", trace, "--out", str(out))
        assert rc == 0
        assert calls == [100]
        with open(out / "segmentations.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        stem = os.path.splitext(os.path.basename(trace))[0]
        assert [row.pop("sample_id") for row in rows] == [f"{stem}:full", stem]
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("with_dataset", [False, True])
    def test_parallelism_is_not_an_analyze_flag(self, workspace, tmp_path, with_dataset):
        # replays hold the GIL, so analyze has nothing to run in parallel
        out = tmp_path / "nope"
        dataset = ["--dataset", workspace["gold"]] if with_dataset else []
        assert run_cli("analyze", "--traces", *workspace["traces"], *dataset,
                       "--parallelism", "1", "--out", str(out)) == 2
        assert not out.exists()

    def test_dataset_missing_trace_id_is_usage_error(self, workspace, tmp_path, capsys):
        partial = tmp_path / "partial.jsonl"
        partial.write_text(Path(workspace["gold"]).read_text(encoding="utf-8").splitlines()[0]
                           + "\n", encoding="utf-8")
        out = tmp_path / "nope"
        assert run_cli("analyze", "--traces", *workspace["traces"][:2],
                       "--dataset", str(partial), "--out", str(out)) == 2
        missing = os.path.splitext(os.path.basename(workspace["traces"][1]))[0]
        assert f"dataset lacks entries for trace ids: {missing}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("golds,rc", [(["", ""], 2), (["", "42"], 0)])
    def test_gold_that_scores_nothing_is_usage_error(self, workspace, tmp_path, golds, rc):
        # an empty gold is excluded from the curve; with no other sample the
        # full-length point would hold no accuracy
        dataset = tmp_path / "gold.jsonl"
        traces = workspace["traces"][:2]
        dataset.write_text("".join(
            json.dumps({"id": os.path.splitext(os.path.basename(path))[0], "question": "q",
                        "gold": gold, "task_kind": "numeric"}) + "\n"
            for path, gold in zip(traces, golds)), encoding="utf-8")
        out = tmp_path / "an"
        assert run_cli("analyze", "--traces", *traces, "--dataset", str(dataset),
                       "--out", str(out)) == rc
        assert out.exists() == (rc == 0)

    def test_requires_some_input(self, tmp_path):
        assert run_cli("analyze", "--out", str(tmp_path / "nope")) == 2

    @pytest.mark.parametrize("grid,rc", [
        ("0.5", 2), ("0.1,0.5,0.99", 2), ("0.5,0.994", 2),
        # the curve places 0.995 on its last point, so the zone has a reference
        ("0.5,0.995", 0),
    ])
    def test_grid_short_of_full_length_is_usage_error(self, workspace, tmp_path, grid, rc):
        out = tmp_path / "an"
        assert run_cli("analyze", "--traces", *workspace["traces"][:2],
                       "--dataset", workspace["gold"], "--grid", grid,
                       "--out", str(out)) == rc
        assert out.exists() == (rc == 0)

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
        err = capsys.readouterr().err
        assert "ranks must be finite" in err
        assert f"error: {path}:1:" in err

    def test_dataset_without_traces_is_usage_error(self, workspace, tmp_path):
        run_out = tmp_path / "run"
        assert run_cli("run", "--policy", "full",
                       "--traces", *workspace["traces"], "--out", str(run_out)) == 0
        rc = run_cli("analyze", "--records", str(run_out / "records.jsonl"),
                     "--dataset", workspace["gold"], "--out", str(tmp_path / "nope"))
        assert rc == 2


# a line nested this deep makes json.loads raise RecursionError, not ValueError
DEEP = "[" * 100_000


class TestDeeplyNestedLines:
    def test_trace_step_line(self, workspace, tmp_path, capsys):
        lines = Path(workspace["traces"][0]).read_text(encoding="utf-8").splitlines()
        path = tmp_path / "deep.jsonl"
        path.write_text("\n".join([*lines[:2], DEEP, *lines[3:]]) + "\n", encoding="utf-8")
        rc = run_cli("run", "--traces", str(path), "--policy", "full",
                     "--out", str(tmp_path / "out"))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:3: invalid JSON: "), err

    def test_records_line(self, workspace, tmp_path, capsys):
        run_out = tmp_path / "run"
        assert run_cli("run", "--policy", "full",
                       "--traces", workspace["traces"][0], "--out", str(run_out)) == 0
        good = (run_out / "records.jsonl").read_text(encoding="utf-8")
        path = tmp_path / "deep.jsonl"
        path.write_text(good + DEEP + "\n", encoding="utf-8")
        rc = run_cli("analyze", "--records", str(path), "--out", str(tmp_path / "an"))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2: invalid JSON: "), err

    def test_dataset_line(self, workspace, tmp_path, capsys):
        gold = Path(workspace["gold"]).read_text(encoding="utf-8")
        path = tmp_path / "gold.jsonl"
        path.write_text(gold + DEEP + "\n", encoding="utf-8")
        rc = run_cli("run", "--policy", "full", "--traces", *workspace["traces"],
                     "--dataset", str(path), "--out", str(tmp_path / "out"))
        assert rc == 0
        err = capsys.readouterr().err
        assert f"warning: {path}:11: invalid JSON: " in err, err


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

    def test_corrupt_tensor_names_its_file_once(self, tensor_files, tmp_path, capsys):
        _, grad_path = tensor_files
        bad_path = tmp_path / "bad.stns"
        bad_path.write_bytes(b"XTNS")
        rc = run_cli("saliency", "--attention", str(bad_path), "--gradients", grad_path,
                     "--boundaries", "0,4,6,12", "--out", str(tmp_path / "nope"))
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {bad_path}: bad magic b'XTNS' at offset 0, expected b'STNS'\n")

    def test_bad_boundaries_usage_error(self, tensor_files, tmp_path):
        att_path, grad_path = tensor_files
        out = str(tmp_path / "nope")
        base = ["saliency", "--attention", att_path, "--gradients", grad_path,
                "--out", out]
        assert run_cli(*base, "--boundaries", "4,4,6,12") == 2
        assert run_cli(*base, "--boundaries", "0,4,6") == 2
        assert run_cli(*base, "--boundaries", "0,x,6,12") == 2
        assert not os.path.exists(out)


def readme_flag_defaults() -> dict[str, dict[str, str]]:
    """README's "Key flags" lists, by the first command each names: each
    flag and the text in its parentheses, a quoted default whole, any other
    up to the first comma."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lists = {}
    for block in readme.split("Key flags (defaults in parentheses) of `")[1:]:
        command, block = block.split("`", 1)
        found = re.findall(r"^- `(--[a-z-]+)` \((?:`([^`]*)`|([^,)]*))", block.split("\n\n")[0],
                           re.MULTILINE)
        lists[command] = {flag: quoted or bare for flag, quoted, bare in found}
    return lists


def test_readme_key_flags_are_the_parser_defaults():
    # the defaults come from their owners; the docs must follow them
    documented = readme_flag_defaults()
    assert list(documented) == ["run", "analyze", "gen-synthetic"]
    for command, flags in documented.items():
        parsed = {action.option_strings[0]: json.dumps(action.default)
                  for action in SUBPARSERS[command]._actions
                  if action.default not in (None, argparse.SUPPRESS)}
        assert flags == parsed, command


class TestTopLevel:
    def test_no_command(self):
        assert run_cli() == 2

    def test_unknown_command(self):
        assert run_cli("frobnicate") == 2

    def test_help_exits_zero(self):
        assert run_cli("--help") == 0

    def test_version_exits_zero(self):
        assert run_cli("--version") == 0
