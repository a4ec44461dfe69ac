"""Command-line surface: batch runs, sweeps, trajectory analysis, plot data.

Every command validates its flags before touching the filesystem, writes
its outputs under --out, then drops a manifest.json recording the
resolved configuration, inputs, outputs and timestamps.  Exit codes:
0 success, 1 runtime failure, 2 usage error.

Each setting is stated once, by the class or function that owns its
rule: a flag takes its default from there, and the owner, called through
_checked before --out exists, checks its range.  run and sweep check
their flags into one _Batch, one config pair per grid point, and analyze
into one _Analysis.  The manifest's config is the parsed flags less
_NOT_CONFIG, list flags parsed and endpoint settings resolved; its inputs
name each input path by its flag, so the manifest alone rebuilds the
command.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

from . import __version__
from .client import EndpointFactory
from .controller import (
    DEFAULT_BUDGET,
    DEFAULT_PARALLELISM,
    POLICIES,
    BatchItem,
    check_batch,
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
from .evaluation import (TASK_KINDS, BenchmarkReport, Sample, emit_report, load_dataset,
                         parse_answer, score)
from .jsonl import dumps, write_csv
from .phase_analysis import (
    DEFAULT_EPSILON,
    aggregate_macro,
    grid_index,
    macro_curve_to_csv,
    optimal_truncation_zone,
    segment_phases,
    segmentations_to_csv,
    truncation_accuracy_curve,
)
from .policy import BaselineConfig, PolicyConfig
from .saliency import (DEFAULT_ALPHA, _regions, load_tensor, report_curves_to_csv,
                       report_to_obj, saliency_report)
from .synthetic import (DEFAULT_PROBE_EVERY, DEFAULT_TOPK_WIDTH, SyntheticPhaseSpec,
                        generate_synthetic)
from .trace import WATCHED_TEXT, TraceReader, read_trace, write_trace

API_BASE_ENV = "SYNCTHINK_API_BASE"
API_KEY_ENV = "SYNCTHINK_API_KEY"

# the flags that name input files; the manifest's inputs maps each given
# one to its path or paths
_INPUTS = ("records", "traces", "dataset", "attention", "gradients")
# Parsed flags the manifest's config leaves out: the command and --out,
# the _INPUTS, the API key (only api_key_set is recorded), the seed (a
# manifest field of its own) and the raw grid strings (their parsed lists
# stand in).
_NOT_CONFIG = frozenset({
    "command", "out", *_INPUTS, "api_key", "seed", "lambda_grid", "ratio_grid", "_started",
})


@dataclass
class _Outcome:
    """What a command reports; manifest.json adds the command, inputs, version and times."""

    config: dict
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


def _require_traces(paths) -> None:
    """--traces: existing files, no two with one stem (the sample id)."""
    _require_files(paths, "--traces")
    stems = sorted(map(_stem, paths))
    twice = [a for a, b in zip(stems, stems[1:]) if a == b]
    if twice:
        raise UsageError(f"--traces: two traces have the sample id {twice[0]!r}")


def _checked(build, *args, **kwargs):
    """build(*args, **kwargs), a library error in it raised as a usage error."""
    try:
        return build(*args, **kwargs)
    except SyncThinkError as exc:
        raise UsageError(str(exc)) from exc


def _configs(args, **fields) -> tuple[PolicyConfig, BaselineConfig]:
    """Both rule configs from the flags named after their fields, then
    `fields`; a field without a flag, or left unset, keeps its default."""
    values = {**vars(args), **fields}
    return tuple(
        _checked(cls, **{f.name: values[f.name] for f in dataclasses.fields(cls)
                         if values.get(f.name) is not None})
        for cls in (PolicyConfig, BaselineConfig)
    )


def _inputs(args) -> dict:
    """Each input flag given, by dest, with its path or paths."""
    return {name: getattr(args, name) for name in _INPUTS if getattr(args, name, None) is not None}


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
    """One replay item per (path, TraceFile); task kind from the flag, the
    dataset or Sample's default."""
    return [
        BatchItem(
            sample_id=_stem(path),
            open_source=(lambda tr=tr: TraceReader(tr)),
            task_kind=task_kind or getattr(by_id.get(_stem(path)), "task_kind", Sample.task_kind),
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
        "inputs": _inputs(args),
        "version": __version__,
        "started": args._started,
        "finished": _utc_now(),
    }
    path = os.path.join(args.out, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


# ---------------------------------------------------------------- run


@dataclass(frozen=True)
class _Batch:
    """A checked run or sweep: one (PolicyConfig, BaselineConfig) pair per
    grid point, the items and the samples to score (None without --dataset)."""

    points: list[tuple[PolicyConfig, BaselineConfig]]
    items: list[BatchItem]
    samples: list | None


def _batch(args, grid=({},)) -> _Batch:
    """Check run's and sweep's flags, then build the items: the traces read,
    or a session recipe per sample.  grid holds each point's config fields
    beyond the flags.  Opens no session."""
    endpoint = args.source == "endpoint"
    if endpoint:
        # resolved here, so the manifest records the values the sessions use
        args.api_base = args.api_base or os.environ.get(API_BASE_ENV, "")
        args.api_key = args.api_key or os.environ.get(API_KEY_ENV, "")
        if args.watched_token is None:
            args.watched_token = WATCHED_TEXT
    else:
        endpoint_only = {"--watched-token": args.watched_token, "--api-base": args.api_base,
                         "--model": args.model, "--full-length": args.full_length}
        given = [flag for flag, value in endpoint_only.items() if value is not None]
        if given:
            raise UsageError(f"{given[0]} applies to --source endpoint only;"
                             " a trace carries its own terminator and length")
    # PolicyConfig checks the watched token; a trace's own replaces it below
    points = [_configs(args, **point) for point in grid]
    _checked(check_batch, [args.policy], args.budget, args.parallelism)
    if args.full_length is not None and args.full_length < 1:
        raise UsageError(f"--full-length must be >= 1, got {args.full_length}")
    samples, by_id = _load_samples(args) if args.dataset else (None, {})

    if not endpoint:
        _require_traces(args.traces)
        if args.dataset:
            _require_trace_entries(args.traces, by_id)
        traces = [(path, read_trace(path)) for path in args.traces]
        tokens = {tr.header.watched_token for _, tr in traces}
        if len(tokens) > 1:
            raise UsageError(f"traces watch different tokens: {sorted(map(repr, tokens))}")
        token = tokens.pop()
        points = [(dataclasses.replace(p, watched_token=token), b) for p, b in points]
        return _Batch(points, _trace_items(traces, by_id, args.task_kind), samples)

    if args.traces:
        raise UsageError("--traces applies to --source trace only")
    if not args.dataset:
        raise UsageError("--source endpoint needs --dataset for the prompts")
    if args.policy == "fixed_ratio" and args.full_length is None:
        raise UsageError(
            "fixed_ratio against an endpoint needs --full-length;"
            " there is no recorded run to take the reference from"
        )
    factory = _checked(
        EndpointFactory, args.api_base, args.model, api_key=args.api_key,
        top_logprobs=args.top_logprobs, max_new_tokens=args.budget, timeout=args.timeout,
    )
    # every point has the flags' watched token and pacing cap; sessions open with them
    pcfg = points[0][0]
    _checked(factory.check_cover, pcfg.pacing_cap)
    items = [
        BatchItem(sample.sample_id, (lambda q=sample.question: factory.open_session(
            q, watched_token=pcfg.watched_token, pacing_cap=pcfg.pacing_cap)),
            args.task_kind or sample.task_kind, args.full_length)
        for sample in samples
    ]
    return _Batch(points, items, samples)


def _run_point(args, batch: _Batch, pcfg, bcfg, out_dir: str) -> tuple[list, object, list[str]]:
    """Run the batch, then make out_dir and write records.jsonl (and report.csv) there."""
    records = run_batch(
        batch.items, [args.policy], policy_config=pcfg, baseline_config=bcfg,
        budget=args.budget, parallelism=args.parallelism,
    )
    os.makedirs(out_dir, exist_ok=True)
    records_path = os.path.join(out_dir, "records.jsonl")
    write_records(records_path, records)
    outputs, report = [records_path], None
    if batch.samples is not None:
        report = score(records, batch.samples, alpha_cost=args.alpha_cost)
        report_path = os.path.join(out_dir, "report.csv")
        emit_report(report, report_path)
        outputs.append(report_path)
    return records, report, outputs


def cmd_run(args) -> _Outcome:
    batch = _batch(args)
    records, _, outputs = _run_point(args, batch, *batch.points[0], args.out)
    return _Outcome(
        config=_manifest_config(args),
        outputs=outputs,
        record_digest=_records_digest(records),
    )


# ---------------------------------------------------------------- sweep


# each grid flag's dest: its name in sweep.csv, the config field it sets
# and the policy every point runs
_GRIDS = {"lambda_grid": ("lambda", "entropy_weight", "syncthink"),
          "ratio_grid": ("ratio", "ratio", "fixed_ratio")}


def _overall_top1(report) -> float:
    total = sum(row.n for row in report.rows)
    return sum(row.top1 * row.n for row in report.rows) / total if total else 0.0


def _mean_of(records, field: str) -> float:
    values = [getattr(r, field) for r in records if r.complete]
    return sum(values) / len(values) if values else 0.0


def cmd_sweep(args) -> _Outcome:
    given = [dest for dest in _GRIDS if getattr(args, dest)]
    if len(given) != 1:
        raise UsageError("give exactly one of --lambda-grid or --ratio-grid")
    param, field, args.policy = _GRIDS[given[0]]
    values = _parse_list(getattr(args, given[0]), f"--{param}-grid")
    batch = _batch(args, [{field: value} for value in values])

    os.makedirs(args.out, exist_ok=True)
    outputs, rows, all_records = [], [], []
    for i, (value, (pcfg, bcfg)) in enumerate(zip(values, batch.points)):
        try:
            point_dir = os.path.join(args.out, f"point_{i:02d}")
            records, report, point_outputs = _run_point(args, batch, pcfg, bcfg, point_dir)
        except (SyncThinkError, OSError) as exc:
            # a failing grid point is flagged, not fatal to the sweep
            print(f"warning: {param}={value:g} failed: {exc}", file=sys.stderr)
            rows.append([param, value, 0, 0, None, None, None, None, str(exc)])
            continue
        outputs.extend(point_outputs)
        all_records.extend(records)
        rows.append([
            param, value, len(records), sum(1 for r in records if r.complete),
            None if report is None else _overall_top1(report),
            *(_mean_of(records, f) for f in ("reasoning_tokens", "total_tokens", "t_total")),
            None,
        ])

    curve_path = os.path.join(args.out, "sweep.csv")
    write_csv(curve_path, ["param", "value", "records", "complete", "top1",
                           "mean_reasoning_tokens", "mean_total_tokens", "mean_total_time",
                           "error"], rows)
    outputs.append(curve_path)

    return _Outcome(
        config=_manifest_config(args, **{given[0]: values}),
        outputs=outputs,
        record_digest=_records_digest(all_records),
    )


# ---------------------------------------------------------------- analyze


@dataclass(frozen=True)
class _Analysis:
    """A checked analyze: one BaselineConfig per --grid ratio, and the
    samples to score with their index by id (None and {} without --dataset)."""

    points: list[BaselineConfig]
    samples: list | None
    by_id: dict


def _analysis(args) -> _Analysis:
    if not args.records and not args.traces:
        raise UsageError("give --records and/or --traces")
    if args.records:
        _require_files(args.records, "--records")
    if args.traces:
        _require_traces(args.traces)
    points = [_checked(BaselineConfig, ratio=ratio) for ratio in _parse_list(args.grid, "--grid")]
    if not args.dataset:
        return _Analysis(points, None, {})
    if not args.traces:
        raise UsageError("--dataset only pairs with --traces"
                         " (the truncation curve replays probes)")
    if max(grid_index(b.ratio) for b in points) != grid_index(1.0):
        raise UsageError("--grid never reaches full length; the truncation"
                         " zone is measured against a ratio at 1.0")
    samples, by_id = _load_samples(args)
    _require_trace_entries(args.traces, by_id)
    traced = [by_id[_stem(path)] for path in args.traces]
    if not any(parse_answer(s.gold, s.task_kind) for s in traced):
        raise UsageError("no traced sample's gold answer normalizes to a"
                         " non-empty answer; the truncation curve would score nothing")
    return _Analysis(points, samples, by_id)


def cmd_analyze(args) -> _Outcome:
    plan = _analysis(args)
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

    if plan.samples is not None:
        items = _trace_items(parsed_traces, plan.by_id, None)
        records_by_ratio = {
            bcfg.ratio: run_batch(items, ["fixed_ratio"], baseline_config=bcfg)
            for bcfg in plan.points
        }
        curve = truncation_accuracy_curve(records_by_ratio, plan.samples)
        # the zone's owner checks --epsilon, before --out exists
        zone = _checked(optimal_truncation_zone, curve, epsilon=args.epsilon)

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

    if plan.samples is not None:
        curve_path = os.path.join(args.out, "truncation_curve.csv")
        macro_curve_to_csv(curve, curve_path)
        zone_path = os.path.join(args.out, "zone.json")
        with open(zone_path, "w", encoding="utf-8") as fh:
            fh.write(dumps(dataclasses.asdict(zone)) + "\n")
        outputs.extend([curve_path, zone_path])

    return _Outcome(
        config=_manifest_config(args, grid=[bcfg.ratio for bcfg in plan.points]),
        outputs=outputs,
    )


# ---------------------------------------------------------------- saliency


def cmd_saliency(args) -> _Outcome:
    _require_files([args.attention], "--attention")
    _require_files([args.gradients], "--gradients")
    bounds = _parse_list(args.boundaries, "--boundaries", int)
    if len(bounds) != 4:
        raise UsageError(f"--boundaries needs p,r,s,end; got {len(bounds)} values")
    _checked(_regions, bounds)
    # every load_tensor error names its file
    tensors = [load_tensor(path) for path in (args.attention, args.gradients)]
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
        outputs=[report_path, curves_path],
    )


# ---------------------------------------------------------------- gen-synthetic


def cmd_gen_synthetic(args) -> _Outcome:
    lengths = _parse_list(args.phases, "--phases", int)
    if args.count < 1:
        raise UsageError(f"--count must be >= 1, got {args.count}")
    spec = _checked(SyntheticPhaseSpec, phase_lengths=tuple(lengths), seed=args.seed)
    outputs = []
    for i in range(args.count):
        # generate_synthetic checks --topk-width and --probe-every, and the
        # first trace is made before --out exists
        trace = _checked(
            generate_synthetic, dataclasses.replace(spec, seed=args.seed + i),
            topk_width=args.topk_width, probe_every=args.probe_every,
        )
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"synth_{i:04d}.jsonl")
        write_trace(trace, path)
        outputs.append(path)
    return _Outcome(
        config=_manifest_config(
            args, phases=list(spec.phase_lengths),
            seeds=list(range(args.seed, args.seed + args.count)),
        ),
        outputs=outputs,
        seed=args.seed,
    )


# ---------------------------------------------------------------- wiring


def _add_run_flags(parser) -> None:
    """Flags shared by run and sweep; each dest names the field it sets, and
    a flag that sets a config or endpoint field defaults to its class's."""
    parser.add_argument("--lambda", dest="entropy_weight", type=_finite_float,
                        default=PolicyConfig.entropy_weight, help="entropy weight in the stop rule")
    parser.add_argument("--t-max", dest="pacing_cap", metavar="T_MAX", type=int,
                        default=PolicyConfig.pacing_cap, help="pacing cap")
    parser.add_argument("--min-steps", type=int, default=PolicyConfig.min_steps)
    parser.add_argument("--check-interval", type=int, default=PolicyConfig.check_interval)
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    parser.add_argument("--ratio", type=_finite_float, default=BaselineConfig.ratio,
                        help="fixed_ratio truncation point")
    parser.add_argument("--segment-len", type=int, default=BaselineConfig.segment_len)
    parser.add_argument("--convergence-k", type=int, default=BaselineConfig.convergence_k)
    parser.add_argument("--probe-suffix", default=BaselineConfig.probe_suffix)
    parser.add_argument("--source", choices=("trace", "endpoint"), default="trace")
    parser.add_argument("--traces", nargs="+", metavar="TRACE")
    parser.add_argument("--dataset", help="JSONL samples: id, question, gold")
    parser.add_argument("--task-kind", choices=TASK_KINDS, default=None)
    parser.add_argument("--alpha-cost", type=_finite_float, default=BenchmarkReport.alpha_cost)
    parser.add_argument("--parallelism", type=int, default=DEFAULT_PARALLELISM)
    parser.add_argument("--api-base", default=None,
                        help=f"endpoint URL; falls back to ${API_BASE_ENV}")
    parser.add_argument("--api-key", default=None,
                        help=f"falls back to ${API_KEY_ENV}")
    parser.add_argument("--model", default=None)
    parser.add_argument("--top-logprobs", type=int, default=EndpointFactory.top_logprobs)
    parser.add_argument("--watched-token", default=None,
                        help=f"terminator text for endpoint sessions; {WATCHED_TEXT} if unset")
    parser.add_argument("--full-length", type=int, default=None,
                        help="reference length for fixed_ratio on endpoints")
    parser.add_argument("--timeout", type=_finite_float, default=EndpointFactory.timeout)


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
    analyze.add_argument("--epsilon", type=_finite_float, default=DEFAULT_EPSILON,
                         help="accuracy slack defining the safe truncation zone")

    sal = sub.add_parser("saliency", help="score attention paths between regions")
    sal.add_argument("--attention", required=True)
    sal.add_argument("--gradients", required=True)
    sal.add_argument("--boundaries", required=True, help="p,r,s,end indices")
    sal.add_argument("--alpha", type=_finite_float, default=DEFAULT_ALPHA)

    gen = sub.add_parser("gen-synthetic", help="write planted four-phase traces")
    gen.add_argument("--phases", default=",".join(map(str, SyntheticPhaseSpec.phase_lengths)),
                     help="comma-separated phase lengths")
    gen.add_argument("--seed", type=int, default=SyntheticPhaseSpec.seed)
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--topk-width", type=int, default=DEFAULT_TOPK_WIDTH)
    gen.add_argument("--probe-every", type=int, default=DEFAULT_PROBE_EVERY,
                     help="0 records no branch answers")

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
