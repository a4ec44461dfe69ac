"""Seeded single-field mutations of trace, records and dataset lines.

Each case changes one value of one line, at any depth (a header field, a
probe branch, a top-K entry, a trajectory pair), to null, a bool, 1e400,
a list, an object or a string, or deletes one key.  A reader either
accepts the mutated file or raises its documented error naming the file
and line.  Run through the CLI, a file the reader refuses makes the
command exit 1 or 2 with an error line and no traceback.  The dataset
reader reports a bad line instead of raising, and loads only strings and
numbers as a sample's text.
"""

from __future__ import annotations

import json
import math
import random
import re

import pytest

from syncthink.cli import main
from syncthink.controller import read_records, run_generation, write_records
from syncthink.evaluation import TASK_KINDS, load_dataset
from syncthink.errors import MalformedRecordError, MalformedTraceError, TraceIntegrityError
from syncthink.policy import POLICIES, BaselineConfig
from syncthink.synthetic import SyntheticPhaseSpec, generate_synthetic
from syncthink.trace import TraceReader, read_trace, write_trace

CASES = 1500  # per target
CLI_CASES = 12  # per target, a seeded sample of the refused cases
DELETE = object()
# math.inf goes on the wire as the literal 1e400, which json reads as inf
VALUES = (None, True, False, math.inf, [1], {"a": 1}, "x")


def base_trace():
    trace = generate_synthetic(SyntheticPhaseSpec(phase_lengths=(3, 3, 3, 3), seed=1),
                               topk_width=4, probe_every=4)
    trace.validate()
    return trace


def paths(obj, prefix=()):
    """The path of every value inside obj, at any depth: dict keys and list indices."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


def mutants(lines: list[str], seed: int):
    """CASES files, each lines with one value of one line changed, and what changed."""
    rng = random.Random(seed)
    objects = [json.loads(line) for line in lines]
    for _ in range(CASES):
        index = rng.randrange(len(lines))
        path = rng.choice(list(paths(objects[index])))
        obj = json.loads(lines[index])
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        choices = VALUES + ((DELETE,) if isinstance(parent, dict) else ())
        value = rng.choice(choices)
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        text = json.dumps(obj, separators=(",", ":")).replace("Infinity", "1e400")
        change = "deleted" if value is DELETE else "= " + json.dumps(value)
        what = f"line {index + 1} {list(path)} {change.replace('Infinity', '1e400')}"
        yield [*lines[:index], text, *lines[index + 1:]], what


def names_its_place(exc: Exception, path: str) -> bool:
    """The message starts with path:line; the header and whole-trace checks
    of a trace (vocabulary, natural stop, probe keys) name the file alone."""
    message = str(exc)
    if re.match(re.escape(path) + r":\d+: ", message):
        return True
    return (isinstance(exc, TraceIntegrityError) and message.startswith(f"{path}: ")
            and not message.startswith(f"{path}: step "))


def check_reader(lines, seed, tmp_path, read, errors):
    """Every mutant read: accepted or refused with one of errors naming its place.

    Returns the files of CLI_CASES refused mutants.
    """
    faults, refused = [], []
    for i, (mutant, what) in enumerate(mutants(lines, seed)):
        path = str(tmp_path / f"case{i}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(mutant) + "\n")
        try:
            read(path)
        except errors as exc:
            if not names_its_place(exc, path):
                faults.append(f"{what}: message does not name its place: {exc}")
        except Exception as exc:  # noqa: BLE001 - any other class is the fault
            faults.append(f"{what}: {type(exc).__name__}: {exc}")
        else:
            continue
        refused.append(path)
    assert not faults, f"{len(faults)} of {CASES} cases escape, first: {faults[:3]}"
    return random.Random(seed).sample(refused, CLI_CASES)


def assert_cli_fails_cleanly(argv, capsys):
    capsys.readouterr()
    try:
        code = main(argv)
    except Exception as exc:  # noqa: BLE001 - a console run would print a traceback
        pytest.fail(f"{argv}: {type(exc).__name__}: {exc}")
    err = capsys.readouterr().err
    assert code in (1, 2), (argv, code, err)
    assert "Traceback" not in err
    assert "error: " in err


def test_trace_lines(tmp_path, capsys):
    source = tmp_path / "base.jsonl"
    write_trace(base_trace(), str(source))
    lines = source.read_text(encoding="utf-8").splitlines()
    refused = check_reader(lines, 1601, tmp_path, read_trace,
                           (MalformedTraceError, TraceIntegrityError))
    for path in refused:
        out = str(tmp_path / "out")
        assert_cli_fails_cleanly(["run", "--traces", path, "--policy", "full",
                                  "--out", out], capsys)
        assert_cli_fails_cleanly(["analyze", "--traces", path, "--out", out], capsys)


def test_records_lines(tmp_path, capsys):
    trace = base_trace()
    kw = {"baseline_config": BaselineConfig(segment_len=4, convergence_k=2),
          "full_length": len(trace.steps), "task_kind": "numeric"}
    records = [run_generation(TraceReader(trace), policy, sample_id=f"s{i}", **kw)
               for i, policy in enumerate(POLICIES)]
    source = tmp_path / "base.jsonl"
    write_records(str(source), records)
    lines = source.read_text(encoding="utf-8").splitlines()
    assert "Infinity" not in source.read_text(encoding="utf-8")
    refused = check_reader(lines, 1602, tmp_path, read_records, MalformedRecordError)
    for path in refused:
        assert_cli_fails_cleanly(["analyze", "--records", path,
                                  "--out", str(tmp_path / "out")], capsys)


def test_dataset_lines(tmp_path):
    lines = [json.dumps({"id": f"q{i}", "question": "2+2?", "gold": "4",
                         "task_kind": "numeric"}) for i in range(3)]
    faults = []
    for i, (mutant, what) in enumerate(mutants(lines, 1603)):
        path = tmp_path / f"case{i}.jsonl"
        path.write_text("\n".join(mutant) + "\n", encoding="utf-8")
        try:
            samples, errors = load_dataset(str(path))
        except Exception as exc:  # noqa: BLE001 - the reader reports, never raises
            faults.append(f"{what}: {type(exc).__name__}: {exc}")
            continue
        [lineno] = [n for n, (a, b) in enumerate(zip(lines, mutant), 1) if a != b]
        obj = json.loads(mutant[lineno - 1])
        valid = (all(key in obj for key in ("id", "question", "gold"))
                 and all(type(obj[key]) is str for key in ("id", "question", "gold",
                                                           "task_kind") if key in obj)
                 and obj.get("task_kind", "freeform") in TASK_KINDS)
        if [n for n, _ in errors] != ([] if valid else [lineno]):
            faults.append(f"{what}: errors {errors}")
        elif len(samples) != (3 if valid else 2):
            faults.append(f"{what}: loaded {samples}")
    assert not faults, f"{len(faults)} of {CASES} cases fail, first: {faults[:3]}"
