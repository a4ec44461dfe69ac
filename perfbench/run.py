"""The repository benchmark: end-to-end timings and a per-layer traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   (each workload in turn)
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the package is imported from
./src.  Inputs come from the seed alone: the benchmark writes a
synthetic corpus and a dataset, then the program sees only those files.

Workloads (see WORKLOADS; each puts most of its time into one module):

  replay-wide   K=513 corpus with the default 300-step phases.  `run
                --policy full` and a 16-point `sweep --lambda-grid`:
                trace parse and validate of wide top-K, many short
                records written and fingerprinted.
  analyze-long  K=32 corpus with 2,250-step phases.  `run --policy full`
                then `analyze --records --traces --dataset` over the
                default 10-ratio grid: O(n^2) segment_phases and long
                records written, then read back; a 2-point sweep.
  live-stub     StubServer in its own process serves a K=513 trace of
                1,100 steps; one client process runs sessions one at a
                time (closed loop, parallelism 1) cycling through full,
                syncthink and answer_convergence: SSE decode, JSON,
                compute_rank and shannon_entropy.

Every workload runs the same kind of round, one operation at a time:
`run`, `analyze` and `sweep` as CLI child processes over the workload's
own inputs (twice per round on live-stub, whose feed cycle is long),
then one cycle of the feed process (live sessions over the stub on
live-stub, in-process trace replay elsewhere).  So every end-to-end
metric is defined on every workload; the sizes above put each
workload's time where its description says.

With --trace 0 the last stdout line carries the end-to-end metrics
(END_TO_END), with every time taken at a reference host speed (see
HostClock; the values as measured are printed beside them); with
--trace 1 it carries the per-layer metrics of a traced run (PER_LAYER),
as measured, timed from outside each public function by tracer.py.
saliency is deliberately unmeasured: no roadmap item targets it.

Correctness: every command must exit 0, every record must be complete,
each command's manifest record_digest must be identical across its
repeats, analyze must segment every trajectory it was given, and every
feed record must match an in-process replay of the same trace under the
same policy.  Each failed operation counts in "failed".
"""

from __future__ import annotations

import argparse
import http.client
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from urllib.parse import urlparse

from tracer import root_of, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

POLICIES = ("full", "syncthink", "answer_convergence")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150.0
# steps per replay feed cycle in a traced run, and in the untraced round
# it is compared with: every step records spans, which all stay in memory
TRACED_CYCLE_STEPS = 20_000

# name -> (unit, better); all measured with tracing off
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "sweep_s": ("s", "lower"),
    "analyze_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "feed_steps_per_s": ("1/s", "higher"),
    "step_gap_iqm_ms": ("ms", "lower"),
    "step_gap_p90_ms": ("ms", "lower"),
    "client_cpu_ms_per_step": ("ms", "lower"),
}

# name -> unit; "per round" totals cover one pass over a workload's
# operations, and every time is self time (the span minus its children)
PER_LAYER = {
    "trace.read_trace.ms": "ms",
    "trace.read_trace.mb": "MB",
    "trace.validate.ms": "ms",
    "trace.write_trace.ms": "ms",
    "trace.steps_parsed": "count",
    "synthetic.generate_synthetic.ms": "ms",
    "jsonl.dumps.ms": "ms",
    "jsonl.dumps.calls": "count",
    "jsonl.dumps.mb": "MB",
    "controller.run_generation.self_us_per_step": "us",
    "controller.record_fingerprint.ms_per_record": "ms",
    "controller.write_records.ms": "ms",
    "controller.read_records.ms": "ms",
    "controller.records.bytes_per_step": "count",
    "controller.overhead_frac_of_step": "frac",
    "policy.should_stop.us_per_call": "us",
    "policy.should_stop.calls": "count",
    "policy.compute_rank.us_per_call": "us",
    "policy.compute_rank.calls": "count",
    "policy.shannon_entropy.us_per_call": "us",
    "policy.shannon_entropy.calls": "count",
    "evaluation.parse_answer.us_per_call": "us",
    "evaluation.score.ms": "ms",
    "phase_analysis.segment_phases.ms_per_call": "ms",
    "phase_analysis.segment_phases.peak_mb": "MB",
    "phase_analysis.segment_phases.n_max": "count",
    "phase_analysis.aggregate_macro.ms": "ms",
    "client.open_session.ms": "ms",
    "client.next.cpu_us_per_step": "us",
    "client.next.wait_us_per_step": "us",
    "client.branch.ms_per_call": "ms",
    "client.branch.calls": "count",
    "stub.cpu_ms_per_step": "ms",
    "cli.gen_synthetic.self_ms": "ms",
    "cli.run.self_ms": "ms",
    "cli.sweep.self_ms": "ms",
    "cli.analyze.self_ms": "ms",
    "bench.trace_overhead": "ratio",
}


@dataclass(frozen=True)
class Workload:
    phases: tuple[int, int, int, int]
    topk: int
    count: int
    lambda_grid: tuple[float, ...]
    analyze_traces: bool
    live: bool
    # CLI command rounds per feed cycle: a live cycle takes seconds, so the
    # commands run more often to get as many samples as the feed metrics
    cli_per_cycle: int = 1
    pacing_cap: int = 512
    # steps per untraced replay feed cycle (a live cycle runs each session once)
    cycle_steps: int = 200_000

    @property
    def ops(self) -> tuple[str, ...]:
        return ("run", "analyze", "sweep") * self.cli_per_cycle + ("feed",)


WORKLOADS = {
    "replay-wide": Workload(
        phases=(20, 40, 200, 40), topk=513, count=2,
        lambda_grid=tuple(round(0.1 * i, 1) for i in range(1, 17)),
        analyze_traces=False, live=False,
    ),
    "analyze-long": Workload(
        # large weights stop syncthink in the final descent, so the records
        # the sweep writes are long and their length barely depends on seed
        phases=(150, 300, 1500, 300), topk=32, count=2, lambda_grid=(0.8, 1.6),
        analyze_traces=True, live=False,
    ),
    "live-stub": Workload(
        phases=(60, 120, 800, 120), topk=513, count=1,
        lambda_grid=(0.1, 0.2, 0.3, 0.4),
        analyze_traces=False, live=True, cli_per_cycle=2,
    ),
}


def smoke_size(workload: Workload) -> Workload:
    """The same workload shape at a size that runs in seconds."""
    return replace(
        workload,
        phases=(6, 6, 20, 6),
        topk=17 if workload.topk > 32 else 8,
        lambda_grid=workload.lambda_grid[:2],
        pacing_cap=16,
        cycle_steps=200,
    )


# ------------------------------------------------------------ child processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH", "")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class ChildResult:
    code: int
    wall_s: float
    rss_mb: float
    stderr: str


def run_child(argv: list[str], log: Path) -> ChildResult:
    """Run one child to completion; wall time and peak RSS from wait4."""
    with open(log, "w", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=err, env=child_env(), cwd=ROOT,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        code=proc.returncode,
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024.0,
        stderr=log.read_text(encoding="utf-8", errors="replace")[-2000:],
    )


def cli_argv(args: list[str], spans: Path | None, memory: bool = False) -> list[str]:
    if spans is None:
        return [sys.executable, "-m", "syncthink.cli", *args]
    flags = ["--memory"] if memory else []
    return [sys.executable, str(HERE / "traced_cli.py"), *flags, str(spans), *args]


class LineProcess:
    """A helper child that answers one JSON line per command line."""

    def __init__(self, argv: list[str], log: Path):
        self._log = open(log, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log,
            env=child_env(), cwd=ROOT, text=True,
        )
        self.log_path = log

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"{self.proc.args[1]} exited early:\n"
                + self.log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            )
        return json.loads(line)

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self) -> float:
        """Ask the child to quit, reap it, and return its peak RSS in MB."""
        rss = 0.0
        if self.proc.returncode is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.close()
            except (BrokenPipeError, OSError):
                pass
            watchdog = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(self.proc.pid, 0)
            finally:
                watchdog.cancel()
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            rss = usage.ru_maxrss / 1024.0
        self.proc.stdout.close()
        self._log.close()
        return rss

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.close()


def split_cpus() -> tuple[set[int], set[int]]:
    """(client CPU, stub CPU); one CPU serves both if there is only one.

    The benchmark, HostClock's probe and every client-side child share
    the client CPU, so the probe samples the CPU the operations run on.
    A served model runs on another machine than its client; pinning the
    stub apart keeps the two from time-sharing one CPU, which otherwise
    happens for stretches the scheduler chooses and makes gaps bimodal.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return {cpus[0]}, {cpus[-1]}


def wait_until_answering(base_url: str) -> None:
    """Block until the stub answers one HTTP request (any status)."""
    url = urlparse(base_url)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=30)
    try:
        conn.request("GET", "/")
        conn.getresponse().read()
    finally:
        conn.close()


# ------------------------------------------------------------ statistics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half of the values.

    Unlike the median it moves smoothly when the values come from two
    modes in varying proportion, as step gaps do on a host whose CPU
    speed switches between two levels for stretches of about a second.
    """
    ordered = sorted(values)
    n = len(ordered)
    middle = ordered[n // 4: n - n // 4]
    return sum(middle) / len(middle)


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest listed percentile with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (1.0 - pct / 100.0) >= 10.0:
            return pct, percentile(values, pct)
    return None


# ------------------------------------------------------------ traced spans


class LayerStats:
    """Span totals per function name, plus the check on self-time sums."""

    def __init__(self):
        self.fn: dict[str, dict[str, float]] = {}
        # command -> layer -> self seconds, plus the commands' "wall" and "calls"
        self.by_command: dict[str, dict[str, float]] = {}

    def add(self, spans: list[list]) -> list[str]:
        """Fold one process's spans in; returns roots whose sums disagree."""
        selfs = self_times(spans)
        roots = root_of(spans)
        tree: dict[int, dict[str, float]] = {}
        for i, (name, _, _, _, _, _, attrs) in enumerate(spans):
            attrs = attrs or {}
            if name == "client.answer_after" and attrs.get("injected"):
                name = "client.branch"
            stats = self.fn.setdefault(name, {"calls": 0.0, "self_wall": 0.0,
                                              "self_cpu": 0.0})
            stats["calls"] += 1
            stats["self_wall"] += selfs[i][0]
            stats["self_cpu"] += selfs[i][1]
            for key, value in attrs.items():
                if key in ("peak_bytes", "n"):
                    stats[key] = max(stats.get(key, 0.0), value)
                else:
                    stats[key] = stats.get(key, 0.0) + value
            layers = tree.setdefault(roots[i], {})
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + selfs[i][0]
        problems = []
        for root, layers in tree.items():
            name, _, t0, t1 = spans[root][:4]
            total = sum(layers.values())
            if abs(total - (t1 - t0)) > 1e-6 * max(1.0, t1 - t0):
                problems.append(f"{name}: self times sum to {total} of {t1 - t0}")
            if name.startswith("cli."):
                command = self.by_command.setdefault(name, {"wall": 0.0, "calls": 0.0})
                command["wall"] += t1 - t0
                command["calls"] += 1
                for layer, seconds in layers.items():
                    command[layer] = command.get(layer, 0.0) + seconds
        return problems

    def get(self, name: str, key: str = "self_wall") -> float:
        return self.fn.get(name, {}).get(key, 0.0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: LayerStats, memory: LayerStats, rounds: int,
                  extra: dict) -> dict[str, float]:
    """PER_LAYER values from folded spans; totals are per round.

    memory holds the spans of the memory run, used for segment_phases'
    peak memory and input size only.
    """
    g = stats.get
    per_round = 1.0 / rounds
    m = {
        "trace.read_trace.ms": g("trace.read_trace") * per_round * 1e3,
        "trace.read_trace.mb": g("trace.read_trace", "bytes") * per_round / 2**20,
        "trace.validate.ms": g("trace.validate") * per_round * 1e3,
        "trace.write_trace.ms": g("trace.write_trace") * per_round * 1e3,
        "trace.steps_parsed": g("trace.read_trace", "steps") * per_round,
        "synthetic.generate_synthetic.ms":
            g("synthetic.generate_synthetic") * per_round * 1e3,
        "jsonl.dumps.ms": g("jsonl.dumps") * per_round * 1e3,
        "jsonl.dumps.calls": g("jsonl.dumps", "calls") * per_round,
        "jsonl.dumps.mb": g("jsonl.dumps", "bytes") * per_round / 2**20,
        "controller.run_generation.self_us_per_step": 1e6 * _ratio(
            g("controller.run_generation"), g("controller.run_generation", "steps")),
        "controller.record_fingerprint.ms_per_record": 1e3 * _ratio(
            g("controller.record_fingerprint"),
            g("controller.record_fingerprint", "calls")),
        "controller.write_records.ms": g("controller.write_records") * per_round * 1e3,
        "controller.read_records.ms": g("controller.read_records") * per_round * 1e3,
        "controller.records.bytes_per_step": _ratio(
            g("controller.write_records", "bytes"), g("controller.write_records", "steps")),
        "evaluation.parse_answer.us_per_call": 1e6 * _ratio(
            g("evaluation.parse_answer"), g("evaluation.parse_answer", "calls")),
        "evaluation.score.ms": g("evaluation.score") * per_round * 1e3,
        "phase_analysis.segment_phases.ms_per_call": 1e3 * _ratio(
            g("phase_analysis.segment_phases"),
            g("phase_analysis.segment_phases", "calls")),
        "phase_analysis.segment_phases.peak_mb":
            memory.get("phase_analysis.segment_phases", "peak_bytes") / 2**20,
        "phase_analysis.segment_phases.n_max":
            memory.get("phase_analysis.segment_phases", "n"),
        "phase_analysis.aggregate_macro.ms":
            g("phase_analysis.aggregate_macro") * per_round * 1e3,
        "client.open_session.ms": 1e3 * _ratio(
            g("client.open_session"), g("client.open_session", "calls")),
        "client.next.cpu_us_per_step": 1e6 * _ratio(
            g("client.next", "self_cpu"), extra["live_steps"]),
        "client.next.wait_us_per_step": 1e6 * _ratio(
            max(0.0, g("client.next") - g("client.next", "self_cpu")),
            extra["live_steps"]),
        "client.branch.ms_per_call": 1e3 * _ratio(
            g("client.branch"), g("client.branch", "calls")),
        "client.branch.calls": g("client.branch", "calls") * per_round,
        "stub.cpu_ms_per_step": 1e3 * _ratio(extra["stub_cpu_s"], extra["live_steps"]),
        "controller.overhead_frac_of_step": extra["overhead_frac"],
        "bench.trace_overhead": extra["trace_overhead"],
    }
    for fn in ("should_stop", "compute_rank", "shannon_entropy"):
        name = f"policy.{fn}"
        m[f"{name}.us_per_call"] = 1e6 * _ratio(g(name), g(name, "calls"))
        m[f"{name}.calls"] = g(name, "calls") * per_round
    for command in ("gen_synthetic", "run", "sweep", "analyze"):
        layers = stats.by_command.get(f"cli.{command}", {})
        m[f"cli.{command}.self_ms"] = 1e3 * _ratio(layers.get("cli", 0.0),
                                                   layers.get("calls", 0.0))
    return {name: m[name] for name in PER_LAYER}


def overhead_per_step(feed: LayerStats, steps: int) -> float:
    """Seconds per step in policy, controller self time and client CPU."""
    policy = sum(feed.get(f"policy.{fn}") for fn in
                 ("should_stop", "compute_rank", "shannon_entropy"))
    spent = policy + feed.get("controller.run_generation") + feed.get("client.next",
                                                                      "self_cpu")
    return _ratio(spent, steps)


def session_gaps(cycles: list[tuple[dict, float]]) -> tuple[list[float], list[float]]:
    """(gaps, their end times) between consecutive observations of each
    session of the feed cycles, in the order they happened."""
    gaps, ends = [], []
    for cycle, _ in cycles:
        for marks in cycle["marks"]:
            gaps.extend(b - a for a, b in zip(marks, marks[1:]))
            ends.extend(marks[1:])
    return gaps, ends


def feed_metrics(cycles: list[tuple[dict, float]], gaps: list[float],
                 scaled: bool) -> dict[str, float]:
    """The feed's end-to-end metrics, pooled over every session of the
    (cycle, factor) pairs; when scaled, each cycle's times are multiplied
    by its factor (the gaps come scaled or not from the caller)."""
    steps = sum(cycle["steps"] for cycle, _ in cycles)
    wall = sum(cycle["wall_s"] * (f if scaled else 1.0) for cycle, f in cycles)
    cpu = sum(cycle["cpu_s"] * (f if scaled else 1.0) for cycle, f in cycles)
    return {
        "feed_steps_per_s": _ratio(steps, wall),
        "step_gap_iqm_ms": 1e3 * interquartile_mean(gaps),
        "step_gap_p90_ms": 1e3 * percentile(gaps, 90),
        "client_cpu_ms_per_step": 1e3 * _ratio(cpu, steps),
    }


# ------------------------------------------------------------ host speed

# On a shared host the same code runs at one of two or three speeds, up to
# 1.7x apart, switching every 0.3-1.5 s; over minutes the mix drifts, and
# command times followed a probe run between them (correlation 0.7-0.9
# across runs).  So every time in an end-to-end metric is taken at a
# reference host speed: a thread times a small probe every PROBE_EVERY_S on
# the CPU the operations run on, and an operation's times are multiplied
# by PROBE_REF_MS over the mean probe time while it ran.  The probe is the
# benchmark's own code, so no change to the program moves it.  Per-layer
# metrics stay as measured.
PROBE_REF_MS = 1.0
PROBE_EVERY_S = 0.05


def probe_ms() -> float:
    """CPU time of a fixed loop of benchmark code, in ms.

    Thread CPU time, so the probe does not count time its CPU spends on
    the operation it shares that CPU with.
    """
    c0 = time.thread_time()
    for i in range(500):
        json.dumps([i, i * 0.5, "step"])
    return 1e3 * (time.thread_time() - c0)


class HostClock:
    """Samples the host's speed in a thread; gives an interval its factor."""

    def __init__(self):
        self.samples = [(time.perf_counter(), probe_ms())]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        while not self._stop.wait(PROBE_EVERY_S):
            self.samples.append((time.perf_counter(), probe_ms()))

    def factor(self, t0: float, t1: float) -> float:
        """PROBE_REF_MS over the mean probe time between t0 and t1."""
        inside = [ms for t, ms in self.samples if t0 <= t <= t1]
        if not inside:
            inside = [ms for t, ms in self.samples if t <= t1][-1:]
        return PROBE_REF_MS / statistics.mean(inside)

    def local_factors(self, times: list[float]) -> list[float]:
        """The factor at each of the ascending times, from the probes
        within PROBE_EVERY_S of it (or the latest probe before it).

        Step gaps are scaled one by one, so that a stretch at another
        speed inside a long feed cycle does not move their quantiles.
        """
        at = [t for t, _ in self.samples]
        ms = [m for _, m in self.samples]
        factors, lo, hi = [], 0, 0
        for t in times:
            while hi < len(at) and at[hi] <= t + PROBE_EVERY_S:
                hi += 1
            while lo < hi and at[lo] < t - PROBE_EVERY_S:
                lo += 1
            near = ms[lo:hi] or ms[max(0, hi - 1):hi]
            factors.append(PROBE_REF_MS * len(near) / sum(near))
        return factors

    def close(self) -> None:
        self._stop.set()
        self._thread.join()


# ------------------------------------------------------------ the benchmark


class Bench:
    """One workload at one seed: set up, run rounds, check, report."""

    def __init__(self, workload: Workload, seed: int, seconds: float, work: Path):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        # name -> [(seconds as measured, host factor)]
        self.samples: dict[str, list[tuple[float, float]]] = {
            "setup_s": [], "run_s": [], "sweep_s": [], "analyze_s": [],
        }
        # (feed cycle answer, host factor); the feed's gaps at reference speed
        self.cycles: list[tuple[dict, float]] = []
        self.gaps: list[float] = []
        self.clock: HostClock | None = None
        self.rss_mb = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, set[str]] = {}
        self.layers: LayerStats | None = None
        self.corpus: list[Path] = []
        self.dataset = work / "dataset.jsonl"
        self.base_url = ""
        self.stub: LineProcess | None = None
        self.feed: LineProcess | None = None
        self.last_run: Path | None = None
        self.cpus = split_cpus()
        self._own_cpus = os.sched_getaffinity(0)
        self._serial = 0

    def _dir(self, label: str) -> Path:
        self._serial += 1
        return self.work / f"{self._serial:04d}-{label}"

    def close(self) -> None:
        for proc in (self.feed, self.stub):
            if proc is not None:
                proc.kill()
        if self.clock is not None:
            self.clock.close()
        os.sched_setaffinity(0, self._own_cpus)

    # -- inputs

    def _gen_args(self, out: Path) -> list[str]:
        return [
            "gen-synthetic", "--count", str(self.w.count), "--seed", str(self.seed),
            "--topk-width", str(self.w.topk),
            "--phases", ",".join(map(str, self.w.phases)), "--out", str(out),
        ]

    def _write_dataset(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(self.w.count):
                fh.write(json.dumps({
                    "id": f"synth_{i:04d}", "question": "solve", "gold": "42",
                    "task_kind": "numeric",
                }) + "\n")

    def setup_once(self, keep: bool) -> float:
        """Write the inputs, start the stub if live; returns the seconds taken."""
        out = self._dir("corpus")
        t0 = time.perf_counter()
        result = run_child(cli_argv(self._gen_args(out), None), out.with_suffix(".log"))
        if result.code != 0:
            raise RuntimeError(f"gen-synthetic exited {result.code}:\n{result.stderr}")
        dataset = out / "dataset.jsonl"
        self._write_dataset(dataset)
        corpus = sorted(out.glob("synth_*.jsonl"))
        stub, base_url = None, ""
        if self.w.live:
            stub = LineProcess(
                [sys.executable, str(HERE / "stub_proc.py"), str(corpus[0])],
                out.with_suffix(".stub.log"),
            )
            try:
                os.sched_setaffinity(stub.proc.pid, self.cpus[1])
                base_url = stub.read()["base_url"]
                wait_until_answering(base_url)
            except BaseException:
                stub.kill()
                raise
        elapsed = time.perf_counter() - t0
        if keep:
            self.corpus, self.dataset = corpus, dataset
            self.stub, self.base_url = stub, base_url
        else:
            if stub is not None:
                stub.close()
            shutil.rmtree(out)
        return elapsed

    def setup(self) -> None:
        # the benchmark and every child it starts but the stub
        os.sched_setaffinity(0, self.cpus[0])
        self.clock = HostClock()
        for i in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            seconds = self.setup_once(keep=(i == 0))
            self.samples["setup_s"].append(
                (seconds, self.clock.factor(t0, time.perf_counter())))

    # -- operations

    def _cli_args(self, kind: str, out: Path) -> list[str]:
        traces = ["--traces", *map(str, self.corpus), "--dataset", str(self.dataset)]
        if kind == "gen":
            return self._gen_args(out)
        if kind == "run":
            return ["run", "--policy", "full", *traces, "--out", str(out)]
        if kind == "sweep":
            grid = ",".join(map(str, self.w.lambda_grid))
            return ["sweep", "--lambda-grid", grid, *traces, "--out", str(out)]
        # with no successful run yet, the missing file fails this analyze
        run_dir = self.last_run or self.work / "no-run"
        records = ["--records", str(run_dir / "records.jsonl")]
        return ["analyze", *records, *(traces if self.w.analyze_traces else []),
                "--out", str(out)]

    def cli_op(self, kind: str, spans: Path | None,
               memory: bool = False) -> ChildResult:
        out = self._dir(kind)
        result = run_child(cli_argv(self._cli_args(kind, out), spans, memory),
                           out.with_suffix(".log"))
        self.attempted += 1
        problem = self._check(kind, out, result)
        if problem:
            self.failures.append(f"{kind}: {problem}")
        if kind == "run" and not problem:
            if self.last_run is not None:
                shutil.rmtree(self.last_run, ignore_errors=True)
            self.last_run = out
        else:
            shutil.rmtree(out, ignore_errors=True)
        return result

    def _check(self, kind: str, out: Path, result: ChildResult) -> str:
        """Empty when the command's outputs are right, else what is wrong."""
        if result.code != 0:
            return f"exit {result.code}: {result.stderr}"
        if kind == "gen":
            found = len(list(out.glob("synth_*.jsonl")))
            return "" if found == self.w.count else f"{found} traces written"
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        records = 0
        for path in manifest["outputs"]:
            if path.endswith("records.jsonl"):
                with open(path, encoding="utf-8") as fh:
                    for line in fh:
                        records += 1
                        if not json.loads(line)["complete"]:
                            return f"incomplete record in {path}"
        if kind == "analyze":
            with open(out / "segmentations.csv", encoding="utf-8") as fh:
                rows = sum(1 for _ in fh) - 1
            want = self.w.count * (2 if self.w.analyze_traces else 1)
            return "" if rows == want else f"{rows} segmentations, expected {want}"
        want = self.w.count * (len(self.w.lambda_grid) if kind == "sweep" else 1)
        if records != want:
            return f"{records} records, expected {want}"
        seen = self.digests.setdefault(kind, set())
        seen.add(manifest["record_digest"])
        return "" if len(seen) == 1 else f"record_digest differs across repeats: {seen}"

    def start_feed(self, spans: Path | None, cycle_steps: int) -> None:
        config = {
            "mode": "live" if self.w.live else "replay",
            "traces": [str(p) for p in self.corpus],
            "base_url": self.base_url,
            "top_logprobs": self.w.topk,
            "pacing_cap": self.w.pacing_cap,
            "policies": list(POLICIES),
            "task_kind": "numeric",
            "cycle_steps": cycle_steps,
            "spans_out": None if spans is None else str(spans),
        }
        path = self._dir("feed.json")
        path.write_text(json.dumps(config), encoding="utf-8")
        self.feed = LineProcess([sys.executable, str(HERE / "feed.py"), str(path)],
                                path.with_suffix(".log"))
        self.feed.read()

    def stop_feed(self) -> None:
        self.rss_mb = max(self.rss_mb, self.feed.close())
        self.feed = None

    def op(self, kind: str, spans: Path | None = None) -> tuple[float, float]:
        """Run one operation; returns its wall seconds and host factor."""
        t0 = time.perf_counter()
        if kind == "feed":
            result = self.feed.ask("cycle")
            factor = self.clock.factor(t0, time.perf_counter())
            self.attempted += result["attempted"]
            self.failures.extend(f"feed: {f}" for f in result["failures"])
            self.cycles.append((result, factor))
            return result["wall_s"], factor
        result = self.cli_op(kind, spans)
        factor = self.clock.factor(t0, time.perf_counter())
        if spans is None:
            self.rss_mb = max(self.rss_mb, result.rss_mb)
        return result.wall_s, factor

    # -- the two modes

    def measure(self) -> dict[str, float]:
        """Untraced: rounds of the workload's operations until time is up."""
        self.start_feed(None, self.w.cycle_steps)
        kinds = self.w.ops
        deadline = time.perf_counter() + self.seconds
        done = 0
        while done < len(kinds) or time.perf_counter() < deadline:
            kind = kinds[done % len(kinds)]
            sample = self.op(kind)
            if kind != "feed":
                self.samples[f"{kind}_s"].append(sample)
            done += 1
        self.stop_feed()
        return self.end_to_end()

    def end_to_end(self) -> dict[str, float]:
        m = {k: statistics.median(t * f for t, f in v) for k, v in self.samples.items()}
        m["peak_rss_mb"] = self.rss_mb
        gaps, ends = session_gaps(self.cycles)
        self.gaps = [g * f for g, f in zip(gaps, self.clock.local_factors(ends))]
        m.update(feed_metrics(self.cycles, self.gaps, scaled=True))
        return {name: m[name] for name in END_TO_END}

    def measure_traced(self) -> dict[str, float]:
        """One untraced round for reference, then traced rounds until time
        is up, then one analyze under tracemalloc for segment_phases' memory.

        The reference round runs the same feed cycle as the traced ones.
        """
        kinds = ("gen", *self.w.ops)
        cycle_steps = min(self.w.cycle_steps, TRACED_CYCLE_STEPS)
        deadline = time.perf_counter() + self.seconds
        self.start_feed(None, cycle_steps)
        plain = sum(self.op(kind)[0] for kind in kinds)
        self.stop_feed()

        feed_spans = self.work / "feed-spans.json"
        self.start_feed(feed_spans, cycle_steps)
        stats, feed_stats = LayerStats(), LayerStats()
        stub_cpu = self.stub.ask("cpu")["cpu_s"] if self.stub else 0.0
        self.cycles = []
        traced, rounds = 0.0, 0
        while rounds == 0 or time.perf_counter() < deadline:
            for kind in kinds:
                spans = None if kind == "feed" else self.work / "spans.json"
                traced += self.op(kind, spans)[0]
                if spans is not None and spans.exists():
                    self._fold(spans, stats)
            rounds += 1
        if self.stub:
            stub_cpu = self.stub.ask("cpu")["cpu_s"] - stub_cpu
        steps = sum(cycle["steps"] for cycle, _ in self.cycles)
        # traced self times over the traced mean gap, both as measured: both
        # carry the tracing cost, and a mean over a mean is a share of step time
        gaps = session_gaps(self.cycles)[0]
        gap = _ratio(sum(gaps), len(gaps))
        self.stop_feed()
        self._fold(feed_spans, stats, feed_stats)
        self.layers = stats

        memory, memory_spans = LayerStats(), self.work / "memory-spans.json"
        self.cli_op("analyze", memory_spans, memory=True)
        if memory_spans.exists():
            self._fold(memory_spans, memory)
        extra = {
            "live_steps": steps if self.w.live else 0,
            "stub_cpu_s": stub_cpu,
            "overhead_frac": _ratio(overhead_per_step(feed_stats, steps), gap),
            "trace_overhead": _ratio(traced / rounds, plain),
        }
        return layer_metrics(stats, memory, rounds, extra)

    def _fold(self, path: Path, *targets: LayerStats) -> None:
        spans = json.loads(path.read_text(encoding="utf-8"))
        path.unlink()
        for target in targets:
            problems = target.add(spans)
        self.failures.extend(problems)


# ------------------------------------------------------------ entry points


def stamp(workload: str, seed: int, traced: bool) -> dict:
    versions = {}
    for package in ("numpy", "requests"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "probe_ms": probe_ms(),
        "python": platform.python_version(),
        **versions,
        "unmeasured": ["saliency"],
    }


def run_workload(name: str, workload: Workload, seed: int, seconds: float,
                 traced: bool) -> dict:
    """Set up, measure, check and print; returns the result object."""
    print(json.dumps({"stamp": stamp(name, seed, traced)}))
    work = WORK / f"{name}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(workload, seed, seconds, work)
    try:
        bench.setup()
        values = bench.measure_traced() if traced else bench.measure()
    finally:
        bench.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    report(bench, values, traced)
    units = PER_LAYER if traced else {k: u for k, (u, _) in END_TO_END.items()}
    return {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": min(len(bench.failures), bench.attempted),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def _spread_text(xs: list[float]) -> str:
    q1, q2, q3 = quartiles(xs)
    tail = tail_percentile(xs)
    tail_text = f" p{tail[0]:g} {tail[1]:.6g}" if tail else ""
    return f"median {q2:.6g} q1 {q1:.6g} q3 {q3:.6g}{tail_text} n={len(xs)}"


def report(bench: Bench, values: dict[str, float], traced: bool) -> None:
    """Human-readable lines: each metric with its unit and sample count."""
    if traced:
        for name, value in values.items():
            print(f"# {name:44s} {value:.6g} {PER_LAYER[name]}")
        for command, layers in sorted(bench.layers.by_command.items()):
            calls = layers["calls"]
            parts = " + ".join(
                f"{layer} {1e3 * sec / calls:.1f}" for layer, sec in sorted(layers.items())
                if layer not in ("wall", "calls")
            )
            print(f"# {command} self ms per call: {parts}"
                  f" = traced wall {1e3 * layers['wall'] / calls:.1f}")
    else:
        # each timing at the reference host speed, and its value as measured
        detail = {}
        for name, pairs in bench.samples.items():
            measured = statistics.median(t for t, _ in pairs)
            detail[name] = (f"{_spread_text([t * f for t, f in pairs])};"
                            f" as measured {measured:.6g}")
        detail["peak_rss_mb"] = "max over every client-side process"
        measured = feed_metrics(bench.cycles, session_gaps(bench.cycles)[0], scaled=False)
        steps = sum(cycle["steps"] for cycle, _ in bench.cycles)
        gaps = [1e3 * gap for gap in bench.gaps]
        for name in ("feed_steps_per_s", "client_cpu_ms_per_step"):
            detail[name] = f"pooled over every feed session, n={steps} steps"
        for name in ("step_gap_iqm_ms", "step_gap_p90_ms"):
            detail[name] = _spread_text(gaps)
        for name in measured:
            detail[name] += f"; as measured {measured[name]:.6g}"
        for name, value in values.items():
            unit = END_TO_END[name][0]
            print(f"# {name:24s} {value:.6g} {unit:4s} ({detail[name]})")
    probes = [ms for _, ms in bench.clock.samples]
    print(f"# probe_ms median {statistics.median(probes):.4g} min {min(probes):.4g}"
          f" max {max(probes):.4g} n={len(probes)} (reference {PROBE_REF_MS:g})")
    fail_frac = _ratio(len(bench.failures), bench.attempted)
    print(f"# {'fail_frac':24s} {fail_frac:.6g} frac "
          f"({len(bench.failures)} failed of {bench.attempted} attempted)")
    for kind, digests in sorted(bench.digests.items()):
        print(f"# record_digest {kind} {' '.join(sorted(digests))}")
    for failure in bench.failures[:10]:
        print(f"# FAILED {failure}")


def smoke() -> int:
    """Every workload at a tiny size, both modes; checks the metric names.

    test_smoke.py checks that BENCHMARK.json declares these same tables.
    """
    problems = []
    for name, workload in WORKLOADS.items():
        for traced in (False, True):
            result = run_workload(name, smoke_size(workload), 1, 0.1, traced)
            table = PER_LAYER if traced else {k: u for k, (u, _) in END_TO_END.items()}
            where = f"{name} trace={int(traced)}"
            metrics = result["metrics"]
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: operations failed")
            if set(metrics) != set(table):
                problems.append(f"{where}: metric names differ:"
                                f" {sorted(set(metrics) ^ set(table))}")
            for metric, entry in metrics.items():
                if entry.get("unit") != table.get(metric):
                    problems.append(f"{where}: {metric} has unit {entry.get('unit')!r}")
                if not math.isfinite(entry["value"]):
                    problems.append(f"{where}: {metric} is {entry['value']!r}")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print(json.dumps({"smoke": "ok" if not problems else "failed"}))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size and check the output")
    args = parser.parse_args(argv)
    if not (SRC / "syncthink" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, WORKLOADS[name], args.seed, args.seconds,
                              bool(args.trace))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
