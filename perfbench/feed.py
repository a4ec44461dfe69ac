"""The controller's feed process: sessions one at a time, closed loop.

    python3 perfbench/feed.py CONFIG_JSON

CONFIG_JSON names the mode ("live" sessions over a stub endpoint, or
"replay" of trace files), the traces, the policies to cycle through and,
when traced, where to write the spans.  Commands arrive on stdin, one
per line; each answer is one JSON line on stdout:

    cycle  run every (trace, policy) session once (replay: as many
           times over as it takes to reach "cycle_steps" steps, traced
           or not) and report steps, wall and CPU seconds, the times
           (perf_counter) at which the controller received each
           observation, per session, and any correctness failures
    quit   write the spans (when traced) and exit

Every record is checked against an in-process replay of the same trace
under the same policy, computed before measuring starts.  Live ranks
are compared with replay ranks capped at the served top-K width.
"""

from __future__ import annotations

import gc
import json
import math
import sys
import time
import traceback

from syncthink import controller
from syncthink.client import connect_endpoint
from syncthink.policy import PolicyConfig
from syncthink.trace import TraceReader, read_trace

from tracer import Tracer

WATCHED_TEXT = "</think>"
PROMPT = "solve"
# syncthink's entropy weight: this one stops the synthetic traces in their
# final descent, so session lengths, and the per-step cost that grows with
# them, barely depend on the seed
ENTROPY_WEIGHT = 1.6
# fields a live record must share with the replay of the same trace
SAME_FIELDS = (
    "complete",
    "stop_step",
    "reason",
    "injected",
    "reasoning_tokens",
    "answer_tokens",
    "total_tokens",
    "normalized_answer",
)


class GapProbe:
    """Pass-through source noting when each observation reaches the controller."""

    def __init__(self, source, marks: list[float]):
        self._source = source
        self._marks = marks
        self.watched_token = source.watched_token

    def __iter__(self):
        return self

    def __next__(self):
        obs = next(self._source)
        self._marks.append(time.perf_counter())
        return obs

    def __getattr__(self, name):
        return getattr(self._source, name)


def mismatches(record, expected, width: int | None) -> list[str]:
    """Names of the fields where record differs from its replay."""
    bad = [f for f in SAME_FIELDS if getattr(record, f) != getattr(expected, f)]
    if [h for _, h in record.entropy_trajectory] != [
        h for _, h in expected.entropy_trajectory
    ]:
        bad.append("entropy_trajectory")
    want = [r if width is None else min(r, width) for _, r in expected.rank_trajectory]
    if [r for _, r in record.rank_trajectory] != want:
        bad.append("rank_trajectory")
    return bad


class Feed:
    """Sessions over the configured traces, with their replays to check against."""

    def __init__(self, config: dict):
        self.live = config["mode"] == "live"
        self.policies = config["policies"]
        self.task_kind = config["task_kind"]
        self.pacing_cap = config["pacing_cap"]
        self.repeat = 1
        self.traces = [read_trace(path) for path in config["traces"]]
        self.width = None
        if self.live:
            self.width = config["top_logprobs"]
            self.factory = connect_endpoint(
                config["base_url"], "stub", top_logprobs=self.width
            )
        self.expected = {
            (i, policy): self._run(TraceReader(trace), policy)
            for i, trace in enumerate(self.traces)
            for policy in self.policies
        }
        if self.live:
            # a live client holds no parsed trace; drop it before measuring
            self.traces = [None] * len(self.traces)
            gc.collect()
        else:
            # a replay session takes milliseconds: repeat the sessions, by a
            # count fixed by the inputs alone, so a cycle measures more
            per_pass = sum(len(r.rank_trajectory) for r in self.expected.values())
            self.repeat = max(1, math.ceil(config["cycle_steps"] / per_pass))

    def _run(self, source, policy: str):
        try:
            return controller.run_generation(
                source,
                policy,
                policy_config=PolicyConfig(
                    watched_token=source.watched_token,
                    entropy_weight=ENTROPY_WEIGHT,
                    pacing_cap=self.pacing_cap,
                ),
                sample_id="feed",
                task_kind=self.task_kind,
            )
        finally:
            source.close()

    def _open(self, trace):
        if self.live:
            return self.factory.open_session(
                PROMPT, watched_token=WATCHED_TEXT, pacing_cap=self.pacing_cap
            )
        return TraceReader(trace)

    def cycle(self) -> dict:
        totals = {"steps": 0, "wall_s": 0.0, "cpu_s": 0.0, "marks": []}
        failures = []
        sessions = [(i, trace, policy) for i, trace in enumerate(self.traces)
                    for policy in self.policies] * self.repeat
        for i, trace, policy in sessions:
            marks: list[float] = []
            c0, w0 = time.process_time(), time.perf_counter()
            try:
                record = self._run(GapProbe(self._open(trace), marks), policy)
            except Exception:
                record = None
                failures.append(f"{policy}: {traceback.format_exc(limit=3)}")
            totals["wall_s"] += time.perf_counter() - w0
            totals["cpu_s"] += time.process_time() - c0
            if self.live:
                # a live session is in a reference cycle with its event
                # generator, so only the collector frees it; collect
                # here, untimed, so memory and timings do not depend on
                # when the collector would have run
                gc.collect()
            totals["marks"].append(marks)
            if record is not None:
                totals["steps"] += len(record.rank_trajectory)
                bad = mismatches(record, self.expected[(i, policy)], self.width)
                if bad:
                    failures.append(f"trace {i} {policy}: differs from replay in {bad}")
        return {**totals, "attempted": len(sessions), "failures": failures}


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        config = json.load(fh)
    feed = Feed(config)
    tracer = None
    if config.get("spans_out"):
        tracer = Tracer()
        tracer.install()
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        command = line.strip()
        if command == "cycle":
            print(json.dumps(feed.cycle()), flush=True)
        elif command == "quit":
            break
    if tracer is not None:
        tracer.dump(config["spans_out"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
