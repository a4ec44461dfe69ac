"""Spans around the package's public functions, recorded from outside.

A traced process calls install() before it runs any package code.  Each
wrapped name records one span per call: name, parent span, wall start
and end (perf_counter) and thread CPU start and end (thread_time).
Spans stay in memory until dump() writes them as one JSON file.

Wrapping replaces the name the caller resolves, so a function imported
into several modules is wrapped in each of them.  A span's self time is
its duration minus the durations of its direct children; within one
thread children nest and do not overlap, so the self times of a root
span's tree sum exactly to the root's duration.

install(memory=True) also runs tracemalloc inside every segment_phases
call.  Its allocation hooks slow that call down, so the times of a
memory run are not used.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
import tracemalloc

# (module, attribute path, span name); the attribute path may name a
# class method.  Every span name is "<layer>.<function>".
TARGETS = (
    ("syncthink.cli", "read_trace", "trace.read_trace"),
    ("syncthink.trace", "read_trace", "trace.read_trace"),
    ("syncthink.trace", "TraceFile.validate", "trace.validate"),
    ("syncthink.cli", "write_trace", "trace.write_trace"),
    ("syncthink.cli", "generate_synthetic", "synthetic.generate_synthetic"),
    ("syncthink.jsonl", "dumps", "jsonl.dumps"),
    ("syncthink.cli", "dumps", "jsonl.dumps"),
    ("syncthink.controller", "run_generation", "controller.run_generation"),
    ("syncthink.cli", "record_fingerprint", "controller.record_fingerprint"),
    ("syncthink.cli", "write_records", "controller.write_records"),
    ("syncthink.cli", "read_records", "controller.read_records"),
    ("syncthink.controller", "should_stop", "policy.should_stop"),
    ("syncthink.trace", "compute_rank", "policy.compute_rank"),
    ("syncthink.client", "compute_rank", "policy.compute_rank"),
    ("syncthink.client", "shannon_entropy", "policy.shannon_entropy"),
    ("syncthink.synthetic", "shannon_entropy", "policy.shannon_entropy"),
    ("syncthink.controller", "parse_answer", "evaluation.parse_answer"),
    ("syncthink.evaluation", "parse_answer", "evaluation.parse_answer"),
    ("syncthink.cli", "score", "evaluation.score"),
    ("syncthink.cli", "segment_phases", "phase_analysis.segment_phases"),
    ("syncthink.cli", "aggregate_macro", "phase_analysis.aggregate_macro"),
    ("syncthink.client", "EndpointFactory.open_session", "client.open_session"),
    ("syncthink.client", "LiveSession.__next__", "client.next"),
    ("syncthink.client", "LiveSession.probe_with_time", "client.branch"),
    ("syncthink.client", "LiveSession.answer_after", "client.answer_after"),
)


def _steps_of_trace(args, kwargs, result) -> dict:
    return {"steps": len(result.steps), "bytes": os.path.getsize(args[0])}


def _steps_of_record(args, kwargs, result) -> dict:
    return {"steps": len(result.rank_trajectory)}


def _bytes_of_text(args, kwargs, result) -> dict:
    return {"bytes": len(result.encode("utf-8"))}


def _records_written(args, kwargs, result) -> dict:
    path, records = args[0], args[1]
    return {
        "bytes": os.path.getsize(path),
        "steps": sum(len(r.rank_trajectory) for r in records),
    }


def _injected_flag(args, kwargs, result) -> dict:
    return {"injected": int(bool(args[2]))}


# what each span records beyond its times, computed after the span ends
ATTRS = {
    "trace.read_trace": _steps_of_trace,
    "jsonl.dumps": _bytes_of_text,
    "controller.run_generation": _steps_of_record,
    "controller.write_records": _records_written,
    "client.answer_after": _injected_flag,
}


class Tracer:
    """In-memory span log for one single-threaded process."""

    def __init__(self):
        # each span: [name, parent index, t0, t1, cpu0, cpu1, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, fn, attrs=None, *, trace_memory: bool = False):
        """Return fn wrapped so every call records one span."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            if trace_memory:
                tracemalloc.start()
            record[4] = time.thread_time()
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                record[5] = time.thread_time()
                stack.pop()
                if trace_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    record[6] = {"peak_bytes": peak, "n": len(args[0])}
            if attrs is not None:
                record[6] = attrs(args, kwargs, result)
            return result

        return wrapper

    def install(self, memory: bool = False) -> None:
        """Wrap every target name; call once, before the package runs."""
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            wrapped = self.span(
                name,
                fn,
                ATTRS.get(name),
                trace_memory=memory and name == "phase_analysis.segment_phases",
            )
            setattr(owner, attr, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def self_times(spans: list[list]) -> list[tuple[float, float]]:
    """(self wall, self CPU) per span: its duration minus its children's."""
    child_wall = [0.0] * len(spans)
    child_cpu = [0.0] * len(spans)
    for _, parent, t0, t1, c0, c1, _ in spans:
        if parent >= 0:
            child_wall[parent] += t1 - t0
            child_cpu[parent] += c1 - c0
    return [
        (s[3] - s[2] - child_wall[i], s[5] - s[4] - child_cpu[i])
        for i, s in enumerate(spans)
    ]


def root_of(spans: list[list]) -> list[int]:
    """Index of each span's root ancestor."""
    roots = []
    for i, span in enumerate(spans):
        parent = span[1]
        roots.append(i if parent < 0 else roots[parent])
    return roots
