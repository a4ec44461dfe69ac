"""Seeded single-field mutations of trace, records and dataset lines, and
of a live session's stream events and branch completions.

Each case changes one value of one line, at any depth (a header field, a
probe branch, a top-K entry, a trajectory pair), to null, a bool, 1e400,
a list, an object or a string, or deletes one key.  A reader either
accepts the mutated file or raises its documented error naming the file
and line.  Run through the CLI, a file the reader refuses makes the
command exit 1 or 2 with an error line and no traceback.  The dataset
reader reports a bad line instead of raising, and loads only strings and
numbers as a sample's text.  A live session served a mutated event or
completion fails only its own record, with SessionError or
CapabilityError.
"""

from __future__ import annotations

import ast
import json
import math
import random
import re

import pytest

from syncthink.cli import main
from syncthink.client import connect_endpoint
from syncthink.controller import BatchItem, read_records, run_batch, run_generation, write_records
from syncthink.evaluation import TASK_KINDS, load_dataset
from syncthink.errors import MalformedRecordError, MalformedTraceError, TraceIntegrityError
from syncthink.policy import POLICIES, BaselineConfig, PolicyConfig
from syncthink.synthetic import SyntheticPhaseSpec, generate_synthetic
from syncthink.trace import TraceReader, read_trace, write_trace
from test_live_client import WATCHED_TEXT, ScriptedHandler, serving

CASES = 1500  # per target
LIVE_CASES = 400  # each case runs one live session per policy
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


def mutants(lines: list[str], seed: int, cases: int = CASES):
    """`cases` files, each lines with one value of one line changed, and what changed."""
    rng = random.Random(seed)
    objects = [json.loads(line) for line in lines]
    for _ in range(cases):
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


def base_records(tmp_path) -> list[str]:
    """The lines of one record per policy over base_trace."""
    trace = base_trace()
    kw = {"baseline_config": BaselineConfig(segment_len=4, convergence_k=2),
          "full_length": len(trace.steps), "task_kind": "numeric"}
    records = [run_generation(TraceReader(trace), policy, sample_id=f"s{i}", **kw)
               for i, policy in enumerate(POLICIES)]
    source = tmp_path / "base.jsonl"
    write_records(str(source), records)
    assert "Infinity" not in source.read_text(encoding="utf-8")
    return source.read_text(encoding="utf-8").splitlines()


def test_records_lines(tmp_path, capsys):
    lines = base_records(tmp_path)
    refused = check_reader(lines, 1602, tmp_path, read_records, MalformedRecordError)
    for path in refused:
        assert_cli_fails_cleanly(["analyze", "--records", path,
                                  "--out", str(tmp_path / "out")], capsys)


def test_answer_mutants_are_refused(tmp_path):
    # a record's config holds its task_kind, so read_records rebuilds
    # normalized_answer from answer_text and refuses a line that disagrees
    lines = base_records(tmp_path)
    cases = [(mutant, what) for mutant, what in mutants(lines, 1602)
             if re.match(r"line \d+ \['(answer_text|normalized_answer)'\]", what)]
    assert len(cases) >= 20
    accepted = []
    for i, (mutant, what) in enumerate(cases):
        path = tmp_path / f"case{i}.jsonl"
        path.write_text("\n".join(mutant) + "\n", encoding="utf-8")
        try:
            read_records(str(path))
        except MalformedRecordError as exc:
            assert str(exc).startswith(f"{path}:"), (what, exc)
        else:
            accepted.append(what)
    assert not accepted, accepted


def accepted_mutants(cases, tmp_path, read, errors) -> list[str]:
    """What each accepted case changed; a refused one must name its file:line."""
    accepted = []
    for i, (mutant, what) in enumerate(cases):
        path = tmp_path / f"case{i}.jsonl"
        path.write_text("\n".join(mutant) + "\n", encoding="utf-8")
        try:
            read(str(path))
        except errors as exc:
            assert str(exc).startswith(f"{path}:"), (what, exc)
        else:
            accepted.append(what)
    return accepted


def test_config_mutants_are_refused(tmp_path):
    # a record's config is its policy's field table: its keys in order,
    # each of its JSON type and inside PolicyConfig's and BaselineConfig's
    # domains; "x" is a valid watched token and a valid probe suffix
    lines = base_records(tmp_path)
    cases = [(mutant, what) for mutant, what in mutants(lines, 1602)
             if re.match(r"line \d+ \['config'", what)]
    assert len(cases) >= 100
    accepted = accepted_mutants(cases, tmp_path, read_records, MalformedRecordError)
    assert all(re.fullmatch(r"line \d+ \['config', '(watched_token|probe_suffix)'\] = \"x\"",
                            what) for what in accepted), accepted


def retypes_a_scalar(lines: list[str], what: str) -> bool:
    """Whether the mutation `what` sets a value that is not an array or an
    object to a value of another JSON type (an int and a float differ)."""
    change = re.fullmatch(r"line (\d+) (\[.*\]) = (.*)", what)
    if change is None:  # a deleted key
        return False
    old = json.loads(lines[int(change[1]) - 1])
    for key in ast.literal_eval(change[2]):
        old = old[key]
    return not isinstance(old, (list, dict)) and type(json.loads(change[3])) is not type(old)


def test_retyped_trace_scalars_and_tokens_are_refused(tmp_path):
    # each header and step field, top-K token and logprob is read by its
    # JSON type, never coerced; an int token retyped as a float or a bool
    # would count as the id it equals
    source = tmp_path / "base.jsonl"
    write_trace(base_trace(), str(source))
    lines = source.read_text(encoding="utf-8").splitlines()
    cases = [(mutant, what) for mutant, what in mutants(lines, 1601)
             if retypes_a_scalar(lines, what)]
    assert len(cases) >= 500
    accepted = accepted_mutants(cases, tmp_path, read_trace,
                                (MalformedTraceError, TraceIntegrityError))
    # a token is an int or a str, so "x" is a valid token
    token = r"line \d+ (\['topk', \d+, 0\]|\['chosen_token'\]) = \"x\""
    assert all(re.fullmatch(token, what) for what in accepted), accepted


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


def chunk(delta: dict, top=None, finish=None) -> dict:
    """A streamed chunk as StubServer writes it; top, if given, is the
    streamed token's top-K as (token, logprob) pairs."""
    choice = {"index": 0, "delta": delta, "finish_reason": finish}
    if top is not None:
        choice["logprobs"] = {"content": [{
            "token": delta["content"], "logprob": dict(top)[delta["content"]],
            "top_logprobs": [{"token": tok, "logprob": lp} for tok, lp in top],
        }]}
    return {"id": "stub-chunk", "object": "chat.completion.chunk", "choices": [choice]}


def live_lines() -> list[str]:
    """Six stream events, then one branch completion, as JSON lines.

    With pacing cap 1, the watched token's rank 1 at the first step holds
    and its rank 0 at the second fires syncthink, which injects the stop
    and asks for the completion; full reads on to the third step, which
    emits the watched token, and the streamed answer after it.
    """
    events = [
        chunk({"role": "assistant"}),
        chunk({"content": "a"}, [("a", -0.1), (WATCHED_TEXT, -2.5)]),
        chunk({"content": "b"}, [(WATCHED_TEXT, -0.1), ("b", -2.5)]),
        chunk({"content": WATCHED_TEXT}, [(WATCHED_TEXT, -0.1), ("c", -2.5)]),
        chunk({"content": "42"}),
        chunk({}, finish="stop"),
    ]
    completion = {
        "id": "stub-completion", "object": "chat.completion",
        "choices": [{"index": 0, "message": {"role": "assistant", "content": "42"},
                     "finish_reason": "stop"}],
        "usage": {"prompt_tokens": 3, "completion_tokens": 1, "total_tokens": 4},
    }
    return [json.dumps(obj, separators=(",", ":")) for obj in [*events, completion]]


def test_stream_events_and_branch_completions():
    lines = live_lines()
    handler = type("Handler", (ScriptedHandler,), {"events": [], "completion": b""})
    policies = ["full", "syncthink", "answer_convergence"]
    kw = {"policy_config": PolicyConfig(watched_token=WATCHED_TEXT, min_steps=0, pacing_cap=1),
          "baseline_config": BaselineConfig(segment_len=1, convergence_k=2)}

    def serve(case: list[str]) -> list:
        """The records of one session per policy over the case's stream and completion."""
        handler.events = [b"data: " + line.encode() + b"\n\n" for line in case[:-1]]
        handler.completion = case[-1].encode()
        return run_batch([item], policies, **kw)

    faults = []
    with serving(handler) as url:
        factory = connect_endpoint(url, "m", top_logprobs=2, timeout=10.0)
        item = BatchItem("s", lambda: factory.open_session(
            "q", watched_token=WATCHED_TEXT, pacing_cap=1), task_kind="numeric")
        assert all(record.complete for record in serve(lines))
        for mutant, what in mutants(lines, 1604, LIVE_CASES):
            try:
                records = serve(mutant)
            except Exception as exc:  # noqa: BLE001 - a fault ends the whole batch
                faults.append(f"{what}: {type(exc).__name__}: {exc}")
                continue
            faults += [f"{what}: {record.policy}: {record.error}" for record in records
                       if not (record.complete or record.error.startswith(
                           ("SessionError", "CapabilityError")))]
    assert not faults, f"{len(faults)} faults in {LIVE_CASES} cases, first: {faults[:3]}"
