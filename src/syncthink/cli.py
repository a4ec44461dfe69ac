"""Command-line surface: batch runs, sweeps, trajectory analysis, plot data.

Every command validates its flags before touching the filesystem, writes
its outputs under --out, then drops a manifest.json recording the
resolved configuration, inputs, outputs and timestamps.  Exit codes:
0 success, 1 runtime failure, 2 usage error.

Each config is built once, during validation, from the flags named after
its fields.  The manifest's config is the parsed flags less _NOT_CONFIG:
list flags in parsed form, endpoint settings resolved from the environment.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

from . import __version__
from .client import connect_endpoint
from .controller import (
    POLICIES,
    BatchItem,
    read_records,
    record_fingerprint,
    run_batch,
    write_records,
)
from .errors import (
    EmptyInputError,
    InsufficientDataError,
    SyncThinkError,
    UsageError,
)
from .evaluation import TASK_KINDS, emit_report, load_dataset, parse_answer, score
from .jsonl import dumps, format_float
from .phase_analysis import (
    aggregate_macro,
    grid_index,
    macro_curve_to_csv,
    optimal_truncation_zone,
    segment_phases,
    segmentations_to_csv,
    truncation_accuracy_curve,
)
from .policy import BaselineConfig, PolicyConfig
from .saliency import load_tensor, report_curves_to_csv, report_to_obj, saliency_report
from .synthetic import SyntheticPhaseSpec, generate_synthetic
from .trace import TraceReader, read_trace, write_trace

API_BASE_ENV = "SYNCTHINK_API_BASE"
API_KEY_ENV = "SYNCTHINK_API_KEY"

# Parsed flags the manifest's config leaves out: the command and --out,
# input paths (the manifest lists them under inputs), the API key (only
# api_key_set is recorded), the seed (a manifest field of its own) and
# the raw grid strings (their parsed lists stand in).
_NOT_CONFIG = frozenset({
    "command", "out", "traces", "records", "attention", "gradients",
    "api_key", "seed", "lambda_grid", "ratio_grid", "_started",
})


@dataclass
class _Outcome:
    """What a command reports; manifest.json adds the command, version and times."""

    config: dict
    inputs: list
    outputs: list
    seed: int | None = None
    record_digest: str = ""


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _stem(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def _parse_list(text: str, flag: str, kind=float) -> list:
    """Comma-separated values of one kind (float or int)."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise UsageError(f"{flag} is empty")
    try:
        return [kind(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from exc


def _finite_float(text: str) -> float:
    """Every float flag's type: NaN and the infinities are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _require_files(paths, flag: str) -> None:
    if not paths:
        raise UsageError(f"{flag} is required here")
    missing = [p for p in paths if not os.path.isfile(p)]
    if missing:
        raise UsageError(f"{flag}: no such file: {missing[0]}")


def _require_positive(args, *names: str) -> None:
    for name in names:
        value = getattr(args, name)
        if value is not None and value < 1:
            raise UsageError(f"--{name.replace('_', '-')} must be >= 1, got {value}")


def _flag_configs(args) -> tuple[PolicyConfig, BaselineConfig]:
    """Both rule configs; a field without a flag, or left unset, keeps its default."""
    def flags(cls) -> dict:
        return {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
                if getattr(args, f.name, None) is not None}

    try:
        return PolicyConfig(**flags(PolicyConfig)), BaselineConfig(**flags(BaselineConfig))
    except SyncThinkError as exc:
        raise UsageError(str(exc)) from exc


def _inputs(args) -> list[str]:
    """The records and trace paths given, then the dataset."""
    paths = (getattr(args, "records", None) or []) + (args.traces or [])
    return paths + ([args.dataset] if args.dataset else [])


def _load_samples(args) -> tuple[list, dict]:
    samples, errors = load_dataset(args.dataset)
    for line, message in errors:
        print(f"warning: {args.dataset}:{line}: {message}", file=sys.stderr)
    if not samples:
        raise UsageError(f"--dataset {args.dataset} holds no usable samples")
    return samples, {s.sample_id: s for s in samples}


def _require_trace_entries(traces, by_id: dict) -> None:
    missing = [s for s in map(_stem, traces) if s not in by_id]
    if missing:
        raise UsageError(f"dataset lacks entries for trace ids: {', '.join(missing)}")


def _trace_items(traces, by_id: dict, task_kind) -> list[BatchItem]:
    """One replay item per (path, TraceFile); task kind from the flag, the dataset or freeform."""
    return [
        BatchItem(
            sample_id=_stem(path),
            open_source=(lambda tr=tr: TraceReader(tr)),
            task_kind=task_kind or getattr(by_id.get(_stem(path)), "task_kind", "freeform"),
        )
        for path, tr in traces
    ]


def _records_digest(records) -> str:
    digest = hashlib.sha256()
    for record in records:
        digest.update(record_fingerprint(record))
    return digest.hexdigest()


def _manifest_config(args, **parsed) -> dict:
    """The parsed flags less _NOT_CONFIG; parsed values replace their raw text."""
    flags = vars(args)
    config = {name: value for name, value in flags.items() if name not in _NOT_CONFIG}
    if "api_key" in flags:
        config["api_key_set"] = bool(args.api_key)
    return {**config, **parsed}


def _write_manifest(outcome: _Outcome, args) -> None:
    """Drop the reproducibility receipt next to the command's outputs."""
    manifest = {
        **dataclasses.asdict(outcome),
        "command": args.command,
        "version": __version__,
        "started": args._started,
        "finished": _utc_now(),
    }
    path = os.path.join(args.out, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


# ---------------------------------------------------------------- run


def _validate_run(args) -> dict:
    pcfg, bcfg = _flag_configs(args)
    _require_positive(args, "budget", "parallelism", "full_length")

    plan = {"pcfg": pcfg, "bcfg": bcfg, "samples": None, "by_id": {}}
    if args.dataset:
        plan["samples"], plan["by_id"] = _load_samples(args)

    if args.source == "trace":
        endpoint_only = {"--watched-token": args.watched_token, "--api-base": args.api_base,
                         "--model": args.model, "--full-length": args.full_length}
        given = [flag for flag, value in endpoint_only.items() if value is not None]
        if given:
            raise UsageError(f"{given[0]} applies to --source endpoint only;"
                             " a trace carries its own terminator and length")
        _require_files(args.traces, "--traces")
        if args.dataset:
            _require_trace_entries(args.traces, plan["by_id"])
    # resolved for both sources: the manifest records what the environment set
    args.api_base = args.api_base or os.environ.get(API_BASE_ENV, "")
    args.api_key = args.api_key or os.environ.get(API_KEY_ENV, "")
    if args.source == "endpoint":
        if args.traces:
            raise UsageError("--traces applies to --source trace only")
        if not args.api_base:
            raise UsageError(f"--api-base or ${API_BASE_ENV} is required")
        if not args.model:
            raise UsageError("--model is required for --source endpoint")
        if not args.dataset:
            raise UsageError("--source endpoint needs --dataset for the prompts")
        if args.policy == "fixed_ratio" and args.full_length is None:
            raise UsageError(
                "fixed_ratio against an endpoint needs --full-length;"
                " there is no recorded run to take the reference from"
            )
        if args.top_logprobs < args.pacing_cap + 1:
            raise UsageError(
                f"--top-logprobs {args.top_logprobs} cannot cover"
                f" --t-max {args.pacing_cap} + 1"
            )
    plan["inputs"] = _inputs(args)
    return plan


def _build_items(args, plan) -> None:
    """Adds the batch items and fills in the watched token; opens no sessions."""
    if args.source == "trace":
        traces = [(path, read_trace(path)) for path in args.traces]
        watched = {tr.header.watched_token for _, tr in traces}
        if len(watched) > 1:
            raise UsageError(f"traces watch different tokens: {sorted(map(repr, watched))}")
        plan["items"] = _trace_items(traces, plan["by_id"], args.task_kind)
        plan["pcfg"] = dataclasses.replace(plan["pcfg"], watched_token=watched.pop())
        return

    watched = args.watched_token or "</think>"
    factory = connect_endpoint(
        args.api_base, args.model, api_key=args.api_key, top_logprobs=args.top_logprobs,
        max_new_tokens=args.budget, timeout=args.timeout,
    )
    plan["items"] = [
        BatchItem(
            sample_id=sample.sample_id,
            open_source=(lambda q=sample.question: factory.open_session(
                q, watched_token=watched, pacing_cap=args.pacing_cap)),
            task_kind=args.task_kind or sample.task_kind,
            full_length=args.full_length,
        )
        for sample in plan["samples"]
    ]
    plan["pcfg"] = dataclasses.replace(plan["pcfg"], watched_token=watched)


def _run_point(args, plan, pcfg, bcfg, out_dir: str) -> tuple[list, object, list[str]]:
    """Run the batch, then make out_dir and write records.jsonl (and report.csv) there."""
    records = run_batch(
        plan["items"], [args.policy], policy_config=pcfg, baseline_config=bcfg,
        budget=args.budget, parallelism=args.parallelism,
    )
    os.makedirs(out_dir, exist_ok=True)
    records_path = os.path.join(out_dir, "records.jsonl")
    write_records(records_path, records)
    outputs, report = [records_path], None
    if plan["samples"] is not None:
        report = score(records, plan["samples"], alpha_cost=args.alpha_cost)
        report_path = os.path.join(out_dir, "report.csv")
        emit_report(report, report_path)
        outputs.append(report_path)
    return records, report, outputs


def cmd_run(args) -> _Outcome:
    plan = _validate_run(args)
    _build_items(args, plan)
    records, _, outputs = _run_point(args, plan, plan["pcfg"], plan["bcfg"], args.out)
    return _Outcome(
        config=_manifest_config(args),
        inputs=plan["inputs"],
        outputs=outputs,
        record_digest=_records_digest(records),
    )


# ---------------------------------------------------------------- sweep


def _validate_sweep(args) -> dict:
    if bool(args.lambda_grid) == bool(args.ratio_grid):
        raise UsageError("give exactly one of --lambda-grid or --ratio-grid")
    over_lambda = bool(args.lambda_grid)
    param = "lambda" if over_lambda else "ratio"
    values = _parse_list(args.lambda_grid or args.ratio_grid, f"--{param}-grid")
    # the ranges PolicyConfig.entropy_weight and BaselineConfig.ratio accept
    bad = [v for v in values if not (0 <= v < math.inf if over_lambda else 0 < v <= 1)]
    if bad:
        raise UsageError(f"--{param}-grid holds invalid value {bad[0]!r}")
    args.policy = "syncthink" if over_lambda else "fixed_ratio"
    plan = _validate_run(args)
    plan.update(param=param, values=values)
    return plan


def _overall_top1(report) -> str:
    total = sum(row.n for row in report.rows)
    return format_float(sum(row.top1 * row.n for row in report.rows) / total if total else 0.0)


def _mean_of(records, field: str) -> str:
    values = [getattr(r, field) for r in records if r.complete]
    return format_float(sum(values) / len(values) if values else 0.0)


def cmd_sweep(args) -> _Outcome:
    plan = _validate_sweep(args)
    _build_items(args, plan)
    param, values = plan["param"], plan["values"]

    os.makedirs(args.out, exist_ok=True)
    outputs, rows, all_records = [], [], []
    for i, value in enumerate(values):
        pcfg, bcfg = plan["pcfg"], plan["bcfg"]
        if param == "lambda":
            pcfg = dataclasses.replace(pcfg, entropy_weight=value)
        else:
            bcfg = dataclasses.replace(bcfg, ratio=value)
        try:
            point_dir = os.path.join(args.out, f"point_{i:02d}")
            records, report, point_outputs = _run_point(args, plan, pcfg, bcfg, point_dir)
        except (SyncThinkError, OSError) as exc:
            # a failing grid point is flagged, not fatal to the sweep
            print(f"warning: {param}={value:g} failed: {exc}", file=sys.stderr)
            rows.append([param, format_float(value), "0", "0", "", "", "", "", str(exc)])
            continue
        outputs.extend(point_outputs)
        all_records.extend(records)
        rows.append([
            param, format_float(value), str(len(records)),
            str(sum(1 for r in records if r.complete)),
            "" if report is None else _overall_top1(report),
            *(_mean_of(records, f) for f in ("reasoning_tokens", "total_tokens", "t_total")),
            "",
        ])

    curve_path = os.path.join(args.out, "sweep.csv")
    with open(curve_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "param", "value", "records", "complete", "top1",
            "mean_reasoning_tokens", "mean_total_tokens", "mean_total_time", "error",
        ])
        writer.writerows(rows)
    outputs.append(curve_path)

    return _Outcome(
        config=_manifest_config(args, **{f"{param}_grid": values}),
        inputs=plan["inputs"],
        outputs=outputs,
        record_digest=_records_digest(all_records),
    )


# ---------------------------------------------------------------- analyze


def _validate_analyze(args) -> dict:
    if not args.records and not args.traces:
        raise UsageError("give --records and/or --traces")
    if args.records:
        _require_files(args.records, "--records")
    if args.traces:
        _require_files(args.traces, "--traces")
    if args.epsilon < 0:
        raise UsageError(f"--epsilon must be >= 0, got {args.epsilon}")
    plan = {"grid": _parse_list(args.grid, "--grid"), "samples": None}
    bad = [v for v in plan["grid"] if not 0 < v <= 1]
    if bad:
        raise UsageError(f"--grid ratio {bad[0]!r} outside (0, 1]")
    if args.dataset:
        if not args.traces:
            raise UsageError("--dataset only pairs with --traces"
                             " (the truncation curve replays probes)")
        if max(map(grid_index, plan["grid"])) != grid_index(1.0):
            raise UsageError("--grid never reaches full length; the truncation"
                             " zone is measured against a ratio at 1.0")
        plan["samples"], plan["by_id"] = _load_samples(args)
        _require_trace_entries(args.traces, plan["by_id"])
        traced = [plan["by_id"][_stem(path)] for path in args.traces]
        if not any(parse_answer(s.gold, s.task_kind) for s in traced):
            raise UsageError("no traced sample's gold answer normalizes to a"
                             " non-empty answer; the truncation curve would score nothing")
        plan["bcfg"] = _flag_configs(args)[1]
    return plan


def cmd_analyze(args) -> _Outcome:
    plan = _validate_analyze(args)
    rows, trajectories = [], []
    # segment_phases is a pure function of the ranks, and a full run's
    # record repeats its trace's trajectory: fit each distinct one once
    fits = {}

    def add(label, ranks):
        key = tuple(ranks)
        try:
            if key not in fits:
                fits[key] = segment_phases(ranks)
            rows.append((label, fits[key]))
            trajectories.append(ranks)
        except (InsufficientDataError, EmptyInputError) as exc:
            print(f"warning: skipped {label}: {exc}", file=sys.stderr)

    for path in args.records or []:
        for record in read_records(path):
            ranks = [rank for _, rank in record.rank_trajectory]
            add(f"{record.sample_id}:{record.policy}", ranks)
    parsed_traces = [(path, read_trace(path)) for path in args.traces or []]
    for path, trace in parsed_traces:
        add(_stem(path), [step.watched_rank for step in trace.steps])

    os.makedirs(args.out, exist_ok=True)
    seg_path = os.path.join(args.out, "segmentations.csv")
    segmentations_to_csv(rows, seg_path)
    outputs = [seg_path]

    if trajectories:
        macro_path = os.path.join(args.out, "macro_median.csv")
        macro_curve_to_csv(aggregate_macro(trajectories), macro_path)
        outputs.append(macro_path)
    else:
        print("warning: no usable trajectories; macro curve skipped", file=sys.stderr)

    if plan["samples"] is not None:
        items = _trace_items(parsed_traces, plan["by_id"], None)
        records_by_ratio = {
            ratio: run_batch(
                items,
                ["fixed_ratio"],
                baseline_config=dataclasses.replace(plan["bcfg"], ratio=ratio),
            )
            for ratio in plan["grid"]
        }
        curve = truncation_accuracy_curve(records_by_ratio, plan["samples"])
        curve_path = os.path.join(args.out, "truncation_curve.csv")
        macro_curve_to_csv(curve, curve_path)
        zone = optimal_truncation_zone(curve, epsilon=args.epsilon)
        zone_path = os.path.join(args.out, "zone.json")
        with open(zone_path, "w", encoding="utf-8") as fh:
            fh.write(dumps({
                "start": zone.start, "end": zone.end, "degenerate": zone.degenerate,
            }))
            fh.write("\n")
        outputs.extend([curve_path, zone_path])

    return _Outcome(
        config=_manifest_config(args, grid=plan["grid"]),
        inputs=_inputs(args),
        outputs=outputs,
    )


# ---------------------------------------------------------------- saliency


def _validate_saliency(args) -> list[int]:
    _require_files([args.attention], "--attention")
    _require_files([args.gradients], "--gradients")
    bounds = _parse_list(args.boundaries, "--boundaries", int)
    if len(bounds) != 4:
        raise UsageError(f"--boundaries needs p,r,s,end; got {len(bounds)} values")
    p, r, s, end = bounds
    if not 0 <= p < r < s <= end:
        raise UsageError(f"--boundaries must satisfy 0 <= p < r < s <= end, got {bounds}")
    return bounds


def cmd_saliency(args) -> _Outcome:
    bounds = _validate_saliency(args)
    tensors = []
    for path in (args.attention, args.gradients):
        try:
            tensors.append(load_tensor(path).data)
        except SyncThinkError as exc:
            raise type(exc)(f"{path}: {exc}") from exc
    report = saliency_report(*tensors, tuple(bounds), alpha=args.alpha)

    os.makedirs(args.out, exist_ok=True)
    report_path = os.path.join(args.out, "report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(dumps(report_to_obj(report)))
        fh.write("\n")
    curves_path = os.path.join(args.out, "curves.csv")
    report_curves_to_csv(report, curves_path)
    return _Outcome(
        config=_manifest_config(args, boundaries=bounds),
        inputs=[args.attention, args.gradients],
        outputs=[report_path, curves_path],
    )


# ---------------------------------------------------------------- gen-synthetic


def _validate_gen(args) -> SyntheticPhaseSpec:
    lengths = _parse_list(args.phases, "--phases", int)
    _require_positive(args, "count", "probe_every")
    if args.topk_width < 2:
        raise UsageError(f"--topk-width must be >= 2, got {args.topk_width}")
    try:
        return SyntheticPhaseSpec(phase_lengths=tuple(lengths), seed=args.seed)
    except SyncThinkError as exc:
        raise UsageError(str(exc)) from exc


def cmd_gen_synthetic(args) -> _Outcome:
    spec = _validate_gen(args)
    os.makedirs(args.out, exist_ok=True)
    outputs = []
    for i in range(args.count):
        trace = generate_synthetic(
            dataclasses.replace(spec, seed=args.seed + i),
            topk_width=args.topk_width, probe_every=args.probe_every,
        )
        path = os.path.join(args.out, f"synth_{i:04d}.jsonl")
        write_trace(trace, path)
        outputs.append(path)
    return _Outcome(
        config=_manifest_config(
            args, phases=list(spec.phase_lengths),
            seeds=list(range(args.seed, args.seed + args.count)),
        ),
        inputs=[],
        outputs=outputs,
        seed=args.seed,
    )


# ---------------------------------------------------------------- wiring


def _add_run_flags(parser) -> None:
    """Flags shared by run and sweep; each dest names the field it sets."""
    parser.add_argument("--lambda", dest="entropy_weight", type=_finite_float, default=0.8,
                        help="entropy weight in the stop rule")
    parser.add_argument("--t-max", dest="pacing_cap", metavar="T_MAX", type=int,
                        default=512, help="pacing cap")
    parser.add_argument("--min-steps", type=int, default=16)
    parser.add_argument("--check-interval", type=int, default=1)
    parser.add_argument("--budget", type=int, default=8192)
    parser.add_argument("--ratio", type=_finite_float, default=0.5,
                        help="fixed_ratio truncation point")
    parser.add_argument("--segment-len", type=int, default=64)
    parser.add_argument("--convergence-k", type=int, default=2)
    parser.add_argument("--probe-suffix", default="Final answer:")
    parser.add_argument("--source", choices=("trace", "endpoint"), default="trace")
    parser.add_argument("--traces", nargs="+", metavar="TRACE")
    parser.add_argument("--dataset", help="JSONL samples: id, question, gold")
    parser.add_argument("--task-kind", choices=TASK_KINDS, default=None)
    parser.add_argument("--alpha-cost", type=_finite_float, default=0.0)
    parser.add_argument("--parallelism", type=int, default=1)
    parser.add_argument("--api-base", default=None,
                        help=f"endpoint URL; falls back to ${API_BASE_ENV}")
    parser.add_argument("--api-key", default=None,
                        help=f"falls back to ${API_KEY_ENV}")
    parser.add_argument("--model", default=None)
    parser.add_argument("--top-logprobs", type=int, default=513)
    parser.add_argument("--watched-token", default=None,
                        help="terminator text for endpoint sessions")
    parser.add_argument("--full-length", type=int, default=None,
                        help="reference length for fixed_ratio on endpoints")
    parser.add_argument("--timeout", type=_finite_float, default=120.0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syncthink",
        description="Early-termination decoding controller and benchmark harness.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one policy over traces or an endpoint")
    run.add_argument("--policy", choices=POLICIES, default="syncthink")
    _add_run_flags(run)

    sweep = sub.add_parser("sweep", help="grid over lambda or truncation ratio")
    sweep.add_argument("--lambda-grid", default=None,
                       help="comma-separated entropy weights")
    sweep.add_argument("--ratio-grid", default=None,
                       help="comma-separated truncation ratios")
    _add_run_flags(sweep)

    analyze = sub.add_parser("analyze", help="segment trajectories, macro curves, zone")
    analyze.add_argument("--records", nargs="+", metavar="RECORDS")
    analyze.add_argument("--traces", nargs="+", metavar="TRACE")
    analyze.add_argument("--dataset", default=None)
    analyze.add_argument("--grid", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
                         help="truncation ratios for the accuracy curve")
    analyze.add_argument("--epsilon", type=_finite_float, default=0.05,
                         help="accuracy slack defining the safe truncation zone")

    sal = sub.add_parser("saliency", help="score attention paths between regions")
    sal.add_argument("--attention", required=True)
    sal.add_argument("--gradients", required=True)
    sal.add_argument("--boundaries", required=True, help="p,r,s,end indices")
    sal.add_argument("--alpha", type=_finite_float, default=1.0)

    gen = sub.add_parser("gen-synthetic", help="write planted four-phase traces")
    gen.add_argument("--phases", default="20,40,200,40",
                     help="comma-separated phase lengths")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--topk-width", type=int, default=64)
    gen.add_argument("--probe-every", type=int, default=1)

    for command in sub.choices.values():
        command.add_argument("--out", required=True)
    return parser


_COMMANDS = {
    "run": cmd_run,
    "sweep": cmd_sweep,
    "analyze": cmd_analyze,
    "saliency": cmd_saliency,
    "gen-synthetic": cmd_gen_synthetic,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    args._started = _utc_now()
    try:
        if os.path.isfile(args.out):
            raise UsageError(f"--out {args.out!r} is an existing file, need a directory")
        outcome = _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (SyncThinkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_manifest(outcome, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
