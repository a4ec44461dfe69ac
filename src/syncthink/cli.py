"""Command-line surface: batch runs, sweeps, trajectory analysis, plot data.

Every command validates its flags before touching the filesystem, writes
its outputs under --out, then drops a manifest.json recording the
resolved configuration, inputs, outputs and timestamps.  Exit codes:
0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
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
from .evaluation import TASK_KINDS, emit_report, load_dataset, score
from .jsonl import dumps, format_float
from .phase_analysis import (
    aggregate_macro,
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


def _require_files(paths, flag: str) -> list[str]:
    if not paths:
        raise UsageError(f"{flag} is required here")
    missing = [p for p in paths if not os.path.isfile(p)]
    if missing:
        raise UsageError(f"{flag}: no such file: {missing[0]}")
    return list(paths)


def _check_out(out: str) -> None:
    if os.path.isfile(out):
        raise UsageError(f"--out {out!r} is an existing file, need a directory")


def _validated_policy_numbers(args) -> None:
    # constructing a throwaway config reuses the module's own validation
    try:
        PolicyConfig(
            watched_token=0,
            entropy_weight=args.entropy_weight,
            pacing_cap=args.t_max,
            min_steps=args.min_steps,
            check_interval=args.check_interval,
        )
    except SyncThinkError as exc:
        raise UsageError(str(exc)) from exc
    if args.budget < 1:
        raise UsageError(f"--budget must be >= 1, got {args.budget}")
    if args.parallelism < 1:
        raise UsageError(f"--parallelism must be >= 1, got {args.parallelism}")


def _baseline_config(args) -> BaselineConfig:
    try:
        return BaselineConfig(
            ratio=args.ratio,
            segment_len=args.segment_len,
            convergence_k=args.convergence_k,
            probe_suffix=args.probe_suffix,
        )
    except SyncThinkError as exc:
        raise UsageError(str(exc)) from exc


def _load_samples(args) -> tuple[list, dict]:
    samples, errors = load_dataset(args.dataset)
    for line, message in errors:
        print(f"warning: {args.dataset}:{line}: {message}", file=sys.stderr)
    if not samples:
        raise UsageError(f"--dataset {args.dataset} holds no usable samples")
    return samples, {s.sample_id: s for s in samples}


def _task_kind_for(sample_id: str, by_id: dict, flag_kind) -> str:
    if flag_kind:
        return flag_kind
    sample = by_id.get(sample_id)
    return sample.task_kind if sample else "freeform"


def _records_digest(records) -> str:
    digest = hashlib.sha256()
    for record in records:
        digest.update(record_fingerprint(record))
    return digest.hexdigest()


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
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------- run


def _validate_run(args) -> dict:
    _check_out(args.out)
    _validated_policy_numbers(args)
    bcfg = _baseline_config(args)

    plan = {"bcfg": bcfg, "samples": None, "by_id": {}}
    if args.dataset:
        plan["samples"], plan["by_id"] = _load_samples(args)

    if args.source == "trace":
        if args.watched_token is not None:
            raise UsageError("--watched-token applies to --source endpoint only;"
                             " traces carry their own")
        if args.api_base or args.model:
            raise UsageError("--api-base/--model apply to --source endpoint only")
        plan["traces"] = _require_files(args.traces, "--traces")
        if args.dataset:
            known = set(plan["by_id"])
            missing = [s for s in map(_stem, plan["traces"]) if s not in known]
            if missing:
                raise UsageError(
                    f"dataset lacks entries for trace ids: {', '.join(missing)}"
                )
    else:
        if args.traces:
            raise UsageError("--traces applies to --source trace only")
        api_base = args.api_base or os.environ.get(API_BASE_ENV, "")
        if not api_base:
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
        if args.top_logprobs < args.t_max + 1:
            raise UsageError(
                f"--top-logprobs {args.top_logprobs} cannot cover"
                f" --t-max {args.t_max} + 1"
            )
        plan["api_base"] = api_base
        plan["api_key"] = args.api_key or os.environ.get(API_KEY_ENV, "")
    return plan


def _build_items(args, plan) -> tuple[list[BatchItem], object, list[str]]:
    """Returns (items, policy_config, input paths); opens no sessions."""
    by_id = plan["by_id"]
    if args.source == "trace":
        traces = [(path, read_trace(path)) for path in plan["traces"]]
        watched = {tr.header.watched_token for _, tr in traces}
        if len(watched) > 1:
            raise UsageError(f"traces watch different tokens: {sorted(map(repr, watched))}")
        pcfg = PolicyConfig(
            watched_token=next(iter(watched)),
            entropy_weight=args.entropy_weight,
            pacing_cap=args.t_max,
            min_steps=args.min_steps,
            check_interval=args.check_interval,
        )
        items = [
            BatchItem(
                sample_id=_stem(path),
                open_source=(lambda tr=tr: TraceReader(tr)),
                task_kind=_task_kind_for(_stem(path), by_id, args.task_kind),
            )
            for path, tr in traces
        ]
        return items, pcfg, plan["traces"]

    watched = args.watched_token or "</think>"
    pcfg = PolicyConfig(
        watched_token=watched,
        entropy_weight=args.entropy_weight,
        pacing_cap=args.t_max,
        min_steps=args.min_steps,
        check_interval=args.check_interval,
    )
    factory = connect_endpoint(
        plan["api_base"],
        args.model,
        api_key=plan["api_key"],
        top_logprobs=args.top_logprobs,
        max_new_tokens=args.budget,
        timeout=args.timeout,
    )
    items = [
        BatchItem(
            sample_id=sample.sample_id,
            open_source=(
                lambda q=sample.question: factory.open_session(
                    q, watched_token=watched, pacing_cap=args.t_max
                )
            ),
            task_kind=_task_kind_for(sample.sample_id, by_id, args.task_kind),
            full_length=args.full_length,
        )
        for sample in plan["samples"]
    ]
    return items, pcfg, [args.dataset]


def _run_config(args) -> dict:
    return {
        "source": args.source,
        "policy": args.policy,
        "entropy_weight": args.entropy_weight,
        "pacing_cap": args.t_max,
        "min_steps": args.min_steps,
        "check_interval": args.check_interval,
        "budget": args.budget,
        "ratio": args.ratio,
        "segment_len": args.segment_len,
        "convergence_k": args.convergence_k,
        "probe_suffix": args.probe_suffix,
        "task_kind": args.task_kind,
        "alpha_cost": args.alpha_cost,
        "parallelism": args.parallelism,
        "watched_token": args.watched_token,
        "model": args.model,
        "api_base": args.api_base or os.environ.get(API_BASE_ENV, ""),
        "api_key_set": bool(args.api_key or os.environ.get(API_KEY_ENV, "")),
        "top_logprobs": args.top_logprobs,
        "full_length": args.full_length,
        "timeout": args.timeout,
        "dataset": args.dataset,
    }


def cmd_run(args) -> _Outcome:
    plan = _validate_run(args)
    items, pcfg, inputs = _build_items(args, plan)
    if args.dataset:
        inputs = inputs + [args.dataset] if args.dataset not in inputs else inputs

    os.makedirs(args.out, exist_ok=True)
    records = run_batch(
        items,
        [args.policy],
        policy_config=pcfg,
        baseline_config=plan["bcfg"],
        budget=args.budget,
        parallelism=args.parallelism,
    )
    records_path = os.path.join(args.out, "records.jsonl")
    write_records(records_path, records)
    outputs = [records_path]
    if plan["samples"] is not None:
        report = score(records, plan["samples"], alpha_cost=args.alpha_cost)
        report_path = os.path.join(args.out, "report.csv")
        emit_report(report, report_path)
        outputs.append(report_path)
    return _Outcome(
        config=_run_config(args),
        inputs=inputs,
        outputs=outputs,
        record_digest=_records_digest(records),
    )


# ---------------------------------------------------------------- sweep


def _validate_sweep(args) -> dict:
    if bool(args.lambda_grid) == bool(args.ratio_grid):
        raise UsageError("give exactly one of --lambda-grid or --ratio-grid")
    if args.lambda_grid:
        values = _parse_list(args.lambda_grid, "--lambda-grid")
        bad = [v for v in values if v < 0]
        param = "lambda"
    else:
        values = _parse_list(args.ratio_grid, "--ratio-grid")
        bad = [v for v in values if not 0 < v <= 1]
        param = "ratio"
    if bad:
        raise UsageError(f"--{param}-grid holds invalid value {bad[0]!r}")
    args.policy = "syncthink" if param == "lambda" else "fixed_ratio"
    plan = _validate_run(args)
    plan.update(param=param, values=values)
    return plan


def _overall_top1(report) -> float:
    total = sum(row.n for row in report.rows)
    if total == 0:
        return 0.0
    return sum(row.top1 * row.n for row in report.rows) / total


def _mean_of(records, getter) -> float:
    values = [getter(r) for r in records if r.complete]
    return sum(values) / len(values) if values else 0.0


def cmd_sweep(args) -> _Outcome:
    plan = _validate_sweep(args)
    items, pcfg, inputs = _build_items(args, plan)
    param, values = plan["param"], plan["values"]

    os.makedirs(args.out, exist_ok=True)
    outputs, rows = [], []
    all_records = []
    for i, value in enumerate(values):
        point_dir = os.path.join(args.out, f"point_{i:02d}")
        if param == "lambda":
            point_pcfg = dataclasses.replace(pcfg, entropy_weight=value)
            point_bcfg = plan["bcfg"]
        else:
            point_pcfg = pcfg
            point_bcfg = dataclasses.replace(plan["bcfg"], ratio=value)
        try:
            records = run_batch(
                items,
                [args.policy],
                policy_config=point_pcfg,
                baseline_config=point_bcfg,
                budget=args.budget,
                parallelism=args.parallelism,
            )
            os.makedirs(point_dir, exist_ok=True)
            records_path = os.path.join(point_dir, "records.jsonl")
            write_records(records_path, records)
            outputs.append(records_path)
            top1 = ""
            if plan["samples"] is not None:
                report = score(records, plan["samples"], alpha_cost=args.alpha_cost)
                report_path = os.path.join(point_dir, "report.csv")
                emit_report(report, report_path)
                outputs.append(report_path)
                top1 = format_float(_overall_top1(report))
            all_records.extend(records)
            rows.append([
                param,
                format_float(value),
                str(len(records)),
                str(sum(1 for r in records if r.complete)),
                top1,
                format_float(_mean_of(records, lambda r: r.reasoning_tokens)),
                format_float(_mean_of(records, lambda r: r.total_tokens)),
                format_float(_mean_of(records, lambda r: r.t_total)),
                "",
            ])
        except (SyncThinkError, OSError) as exc:
            # a failing grid point is flagged, not fatal to the sweep
            print(f"warning: {param}={value:g} failed: {exc}", file=sys.stderr)
            rows.append([param, format_float(value), "0", "0", "", "", "", "", str(exc)])

    curve_path = os.path.join(args.out, "sweep.csv")
    with open(curve_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "param", "value", "records", "complete", "top1",
            "mean_reasoning_tokens", "mean_total_tokens", "mean_total_time", "error",
        ])
        writer.writerows(rows)
    outputs.append(curve_path)

    config = _run_config(args)
    config[f"{param}_grid"] = values
    return _Outcome(
        config=config,
        inputs=inputs,
        outputs=outputs,
        record_digest=_records_digest(all_records),
    )


# ---------------------------------------------------------------- analyze


def _validate_analyze(args) -> dict:
    _check_out(args.out)
    if not args.records and not args.traces:
        raise UsageError("give --records and/or --traces")
    plan = {"records": [], "traces": [], "samples": None}
    if args.records:
        plan["records"] = _require_files(args.records, "--records")
    if args.traces:
        plan["traces"] = _require_files(args.traces, "--traces")
    if args.epsilon < 0:
        raise UsageError(f"--epsilon must be >= 0, got {args.epsilon}")
    plan["grid"] = _parse_list(args.grid, "--grid")
    bad = [v for v in plan["grid"] if not 0 < v <= 1]
    if bad:
        raise UsageError(f"--grid ratio {bad[0]!r} outside (0, 1]")
    if args.dataset:
        if not args.traces:
            raise UsageError("--dataset only pairs with --traces"
                             " (the truncation curve replays probes)")
        plan["samples"], plan["by_id"] = _load_samples(args)
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

    for path in plan["records"]:
        for record in read_records(path):
            ranks = [rank for _, rank in record.rank_trajectory]
            add(f"{record.sample_id}:{record.policy}", ranks)
    parsed_traces = [(path, read_trace(path)) for path in plan["traces"]]
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
        items = [
            BatchItem(
                sample_id=_stem(path),
                open_source=(lambda tr=trace: TraceReader(tr)),
                task_kind=_task_kind_for(_stem(path), plan["by_id"], None),
            )
            for path, trace in parsed_traces
        ]
        records_by_ratio = {
            ratio: run_batch(
                items,
                ["fixed_ratio"],
                baseline_config=BaselineConfig(ratio=ratio),
                parallelism=args.parallelism,
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

    inputs = plan["records"] + plan["traces"] + ([args.dataset] if args.dataset else [])
    return _Outcome(
        config={
            "grid": plan["grid"],
            "epsilon": args.epsilon,
            "dataset": args.dataset,
            "parallelism": args.parallelism,
        },
        inputs=inputs,
        outputs=outputs,
    )


# ---------------------------------------------------------------- saliency


def _validate_saliency(args) -> dict:
    _check_out(args.out)
    _require_files([args.attention], "--attention")
    _require_files([args.gradients], "--gradients")
    bounds = _parse_list(args.boundaries, "--boundaries", int)
    if len(bounds) != 4:
        raise UsageError(f"--boundaries needs p,r,s,end; got {len(bounds)} values")
    p, r, s, end = bounds
    if not 0 <= p < r < s <= end:
        raise UsageError(f"--boundaries must satisfy 0 <= p < r < s <= end, got {bounds}")
    return {"bounds": tuple(bounds)}


def cmd_saliency(args) -> _Outcome:
    plan = _validate_saliency(args)
    tensors = {}
    for name, path in (("attention", args.attention), ("gradients", args.gradients)):
        try:
            tensors[name] = load_tensor(path).data
        except SyncThinkError as exc:
            raise type(exc)(f"{path}: {exc}") from exc
    report = saliency_report(
        tensors["attention"], tensors["gradients"], plan["bounds"], alpha=args.alpha
    )

    os.makedirs(args.out, exist_ok=True)
    report_path = os.path.join(args.out, "report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(dumps(report_to_obj(report)))
        fh.write("\n")
    curves_path = os.path.join(args.out, "curves.csv")
    report_curves_to_csv(report, curves_path)
    return _Outcome(
        config={"boundaries": list(plan["bounds"]), "alpha": args.alpha},
        inputs=[args.attention, args.gradients],
        outputs=[report_path, curves_path],
    )


# ---------------------------------------------------------------- gen-synthetic


def _validate_gen(args) -> dict:
    _check_out(args.out)
    lengths = _parse_list(args.phases, "--phases", int)
    if len(lengths) != 4:
        raise UsageError(f"--phases needs four lengths, got {len(lengths)}")
    if args.count < 1:
        raise UsageError(f"--count must be >= 1, got {args.count}")
    if args.topk_width < 2:
        raise UsageError(f"--topk-width must be >= 2, got {args.topk_width}")
    if args.probe_every < 1:
        raise UsageError(f"--probe-every must be >= 1, got {args.probe_every}")
    try:
        SyntheticPhaseSpec(phase_lengths=tuple(lengths), seed=args.seed)
    except SyncThinkError as exc:
        raise UsageError(str(exc)) from exc
    return {"lengths": tuple(lengths)}


def cmd_gen_synthetic(args) -> _Outcome:
    plan = _validate_gen(args)
    os.makedirs(args.out, exist_ok=True)
    outputs = []
    for i in range(args.count):
        spec = SyntheticPhaseSpec(phase_lengths=plan["lengths"], seed=args.seed + i)
        trace = generate_synthetic(
            spec, topk_width=args.topk_width, probe_every=args.probe_every
        )
        path = os.path.join(args.out, f"synth_{i:04d}.jsonl")
        write_trace(trace, path)
        outputs.append(path)
    return _Outcome(
        config={
            "phases": list(plan["lengths"]),
            "count": args.count,
            "topk_width": args.topk_width,
            "probe_every": args.probe_every,
            "seeds": list(range(args.seed, args.seed + args.count)),
        },
        inputs=[],
        outputs=outputs,
        seed=args.seed,
    )


# ---------------------------------------------------------------- wiring


def _add_policy_flags(parser) -> None:
    parser.add_argument("--lambda", dest="entropy_weight", type=float, default=0.8,
                        help="entropy weight in the stop rule")
    parser.add_argument("--t-max", type=int, default=512, help="pacing cap")
    parser.add_argument("--min-steps", type=int, default=16)
    parser.add_argument("--check-interval", type=int, default=1)
    parser.add_argument("--budget", type=int, default=8192)
    parser.add_argument("--ratio", type=float, default=0.5,
                        help="fixed_ratio truncation point")
    parser.add_argument("--segment-len", type=int, default=64)
    parser.add_argument("--convergence-k", type=int, default=2)
    parser.add_argument("--probe-suffix", default="Final answer:")


def _add_source_flags(parser) -> None:
    parser.add_argument("--source", choices=("trace", "endpoint"), default="trace")
    parser.add_argument("--traces", nargs="+", metavar="TRACE")
    parser.add_argument("--dataset", help="JSONL samples: id, question, gold")
    parser.add_argument("--task-kind", choices=TASK_KINDS, default=None)
    parser.add_argument("--alpha-cost", type=float, default=0.0)
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
    parser.add_argument("--timeout", type=float, default=120.0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syncthink",
        description="Early-termination decoding controller and benchmark harness.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one policy over traces or an endpoint")
    run.add_argument("--policy", choices=POLICIES, default="syncthink")
    _add_policy_flags(run)
    _add_source_flags(run)
    run.add_argument("--out", required=True)

    sweep = sub.add_parser("sweep", help="grid over lambda or truncation ratio")
    sweep.add_argument("--lambda-grid", default=None,
                       help="comma-separated entropy weights")
    sweep.add_argument("--ratio-grid", default=None,
                       help="comma-separated truncation ratios")
    _add_policy_flags(sweep)
    _add_source_flags(sweep)
    sweep.add_argument("--out", required=True)

    analyze = sub.add_parser("analyze", help="segment trajectories, macro curves, zone")
    analyze.add_argument("--records", nargs="+", metavar="RECORDS")
    analyze.add_argument("--traces", nargs="+", metavar="TRACE")
    analyze.add_argument("--dataset", default=None)
    analyze.add_argument("--grid", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
                         help="truncation ratios for the accuracy curve")
    analyze.add_argument("--epsilon", type=float, default=0.05,
                         help="accuracy slack defining the safe truncation zone")
    analyze.add_argument("--parallelism", type=int, default=1)
    analyze.add_argument("--out", required=True)

    sal = sub.add_parser("saliency", help="score attention paths between regions")
    sal.add_argument("--attention", required=True)
    sal.add_argument("--gradients", required=True)
    sal.add_argument("--boundaries", required=True, help="p,r,s,end indices")
    sal.add_argument("--alpha", type=float, default=1.0)
    sal.add_argument("--out", required=True)

    gen = sub.add_parser("gen-synthetic", help="write planted four-phase traces")
    gen.add_argument("--phases", default="20,40,200,40",
                     help="comma-separated phase lengths")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--topk-width", type=int, default=64)
    gen.add_argument("--probe-every", type=int, default=1)
    gen.add_argument("--out", required=True)

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
    command = _COMMANDS[args.command]
    try:
        outcome = command(args)
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
