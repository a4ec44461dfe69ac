"""LiveSession against the trace-backed stub endpoint."""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import http.client
import json
import math
import re
import socket
import struct
import threading
import time
import tracemalloc
import weakref
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from syncthink import jsonl
from syncthink.client import connect_endpoint
from syncthink.controller import BatchItem, record_fingerprint, run_batch, run_generation
from syncthink.errors import (
    CapabilityError,
    ConfigurationError,
    PolicyUnavailableError,
    SessionError,
    TraceIntegrityError,
)
from syncthink.policy import (
    BaselineConfig,
    Distribution,
    PolicyConfig,
    StopReason,
    compute_rank,
    shannon_entropy,
)
from syncthink.stub import StubServer
from syncthink.synthetic import SyntheticPhaseSpec, generate_synthetic, token_text
from syncthink.trace import (
    StepObservation,
    TraceFile,
    TraceHeader,
    TraceReader,
    answer_pieces,
    read_trace,
    write_trace,
)
from test_policy import random_top, scalar_entropy, scalar_rank, scalar_sorted_pairs

WATCHED_TEXT = "</think>"
CAP = 64
WIDTH = 80  # strictly above CAP so censored live ranks stay sound


def make_trace(seed=7, width=WIDTH):
    return generate_synthetic(SyntheticPhaseSpec(seed=seed), topk_width=width)


@pytest.fixture(scope="module")
def trace():
    return make_trace()


@pytest.fixture(scope="module")
def stub(trace):
    with StubServer(trace) as server:
        yield server


@pytest.fixture(scope="module")
def factory(stub):
    return connect_endpoint(stub.base_url, "stub-model", top_logprobs=WIDTH)


def open_session(factory):
    return factory.open_session("solve", watched_token=WATCHED_TEXT, pacing_cap=CAP)


def live_config():
    return PolicyConfig(watched_token=WATCHED_TEXT, pacing_cap=CAP)


def offline_config():
    return PolicyConfig(watched_token=3, pacing_cap=CAP)


def run_live(factory, policy, task_kind="numeric", **kw):
    session = open_session(factory)
    try:
        return run_generation(
            session, policy, policy_config=live_config(), task_kind=task_kind, **kw
        )
    finally:
        session.close()


def run_offline(trace, policy, task_kind="numeric", **kw):
    return run_generation(
        TraceReader(trace), policy, policy_config=offline_config(),
        task_kind=task_kind, **kw,
    )


class TestStreamObservations:
    def test_steps_mirror_the_trace(self, factory, trace):
        session = open_session(factory)
        try:
            for obs, recorded in zip(session, trace.steps):
                assert obs.t == recorded.t
                assert obs.chosen_text == recorded.chosen_text
                # bit-equal: the stub ships the recorded doubles and the
                # entropy pipeline is the same one the generator ran
                assert obs.entropy == recorded.entropy
                if recorded.watched_rank < WIDTH:
                    assert obs.watched_rank == recorded.watched_rank
                    assert not obs.censored
                else:
                    assert obs.censored
                    assert obs.watched_rank == WIDTH
        finally:
            session.close()

    def test_rank_consistency_invariant(self, factory):
        session = open_session(factory)
        try:
            for obs in session:
                assert (obs.watched_rank, obs.censored) == compute_rank(
                    obs.topk, WATCHED_TEXT
                )
                lps = obs.topk.logprobs.tolist()
                assert lps == sorted(lps, reverse=True)
        finally:
            session.close()

    def test_terminator_ends_iteration(self, factory, trace):
        session = open_session(factory)
        try:
            seen = list(session)
            assert len(seen) == len(trace.steps)
            assert seen[-1].chosen_token == WATCHED_TEXT
            assert next(iter(session), None) is None
        finally:
            session.close()

    @pytest.mark.parametrize("steps", [5, None])
    def test_closed_session_freed_without_the_collector(self, factory, steps):
        session = open_session(factory)
        for obs in session:
            if steps is not None and obs.t + 1 >= steps:
                break
        session.close()
        alive = weakref.ref(session)
        gc.disable()
        try:
            del session
            assert alive() is None
        finally:
            gc.enable()


@contextlib.contextmanager
def serving(handler):
    """Serve one handler class on a free local port; yields its base URL."""
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    try:
        yield "http://127.0.0.1:%d" % httpd.server_address[1]
    finally:
        httpd.shutdown()
        httpd.server_close()


def sse_event(text, top=None):
    if top is None:
        top = [{"token": text, "logprob": -0.1}, {"token": WATCHED_TEXT, "logprob": -2.5}]
    choice = {
        "delta": {"content": text},
        "logprobs": {"content": [{"token": text, "logprob": -0.1, "top_logprobs": top}]},
    }
    return b"data: " + json.dumps({"choices": [choice]}).encode() + b"\n\n"


class HoldingHandler(BaseHTTPRequestHandler):
    """Streams one token, then holds the next until `release` is set."""

    release: threading.Event
    chunked: bool

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        if self.chunked:
            self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        try:
            self.send(sse_event("a"))
            self.release.wait(5.0)
            self.send(sse_event("b") + b"data: [DONE]\n\n")
            if self.chunked:
                self.wfile.write(b"0\r\n\r\n")
        except OSError:
            pass  # the client has gone

    def send(self, data):
        if self.chunked:
            data = b"%x\r\n%s\r\n" % (len(data), data)
        self.wfile.write(data)
        self.wfile.flush()

    def log_message(self, fmt, *args):
        pass


class ResettingHandler(BaseHTTPRequestHandler):
    """Streams `events`, then resets the connection: RST instead of FIN,
    so the client sees a network failure, not a clean end of body."""

    events: list[bytes]

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.end_headers()
        self.wfile.write(b"".join(self.events))
        self.wfile.flush()
        self.connection.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        self.connection.close()

    def log_message(self, fmt, *args):
        pass


class FiringHoldingHandler(BaseHTTPRequestHandler):
    """Streams up to a token syncthink fires on, then holds the next one
    until `release` is set; answers branch requests at once."""

    release: threading.Event

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.send_response(200)
        if not body.get("stream"):
            payload = json.dumps({
                "choices": [{"message": {"content": "42"}}],
                "usage": {"completion_tokens": 1},
            }).encode()
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
            return
        self.send_header("Content-Type", "text/event-stream")
        self.end_headers()
        # the watched token is ranked 1 on "a" and "b" and 0 on "c"
        fires = [{"token": WATCHED_TEXT, "logprob": -0.1}, {"token": "c", "logprob": -2.5}]
        try:
            self.wfile.write(sse_event("a") + sse_event("b") + sse_event("c", fires))
            self.wfile.flush()
            self.release.wait(5.0)
            self.wfile.write(sse_event("d") + b"data: [DONE]\n\n")
        except OSError:
            pass  # the client has gone

    def log_message(self, fmt, *args):
        pass


class ScriptedHandler(BaseHTTPRequestHandler):
    """Streams `events` and answers branch requests with `completion`,
    JSON-encoded unless it is bytes already."""

    protocol_version = "HTTP/1.0"
    events: list[bytes]
    completion: object

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.send_response(200)
        if body.get("stream"):
            self.send_header("Content-Type", "text/event-stream")
            self.end_headers()
            self.wfile.write(b"".join(self.events) + b"data: [DONE]\n\n")
        else:
            self.send_header("Content-Type", "application/json")
            self.end_headers()
            body = self.completion
            self.wfile.write(body if isinstance(body, bytes) else json.dumps(body).encode())

    def log_message(self, fmt, *args):
        pass


class TestIngestMatchesScalarOracle:
    def test_stream_matches_scalar_pipeline(self):
        # random served lists: ties, shuffled order, watched present or absent
        rng = np.random.default_rng(17)
        tops = []
        for k in (1, 2, 32, 513):
            for _ in range(12):
                top, watched = random_top(rng, k)
                for item in top:
                    if item["token"] == watched:
                        item["token"] = WATCHED_TEXT
                tops.append(top)
        events = [sse_event(f"x{i}", top) for i, top in enumerate(tops)]
        handler = type("Handler", (ScriptedHandler,), {"events": events, "completion": None})
        with serving(handler) as url:
            factory = connect_endpoint(url, "m", top_logprobs=513)
            session = factory.open_session("q", watched_token=WATCHED_TEXT, pacing_cap=0)
            try:
                observations = list(session)
            finally:
                session.close()
        assert len(observations) == len(tops)
        for obs, top in zip(observations, tops):
            pairs = scalar_sorted_pairs(top)
            assert list(zip(obs.topk.tokens, obs.topk.logprobs.tolist())) == pairs
            assert (obs.watched_rank, obs.censored) == scalar_rank(pairs, WATCHED_TEXT)
            assert abs(obs.entropy - scalar_entropy(pairs)) <= 1e-12


class TestTokenLatency:
    @pytest.mark.parametrize(
        "protocol,chunked", [("HTTP/1.0", False), ("HTTP/1.1", True)],
        ids=["close-delimited", "chunked"],
    )
    def test_held_back_token_does_not_delay_the_step(self, protocol, chunked):
        release = threading.Event()
        handler = type("Handler", (HoldingHandler,), {
            "protocol_version": protocol, "chunked": chunked, "release": release,
        })
        with serving(handler) as url:
            factory = connect_endpoint(url, "m", top_logprobs=2)
            try:
                session = factory.open_session("q", watched_token=WATCHED_TEXT, pacing_cap=1)
                start = time.perf_counter()
                obs = next(session)
                elapsed = time.perf_counter() - start
                session.close()
            finally:
                release.set()
        # the server holds the second token for 5 s; the first must not wait for it
        assert elapsed < 2.0, f"first token took {elapsed:.2f} s"
        assert (obs.chosen_text, obs.watched_rank) == ("a", 1)


class TestDecisionLatency:
    def test_stop_is_not_delayed_past_its_token(self):
        release = threading.Event()
        handler = type("Handler", (FiringHoldingHandler,), {"release": release})
        # with pacing cap 1 the bar is 0 after step 0: rank 1 holds, rank 0 fires
        pcfg = PolicyConfig(watched_token=WATCHED_TEXT, min_steps=0, pacing_cap=1)
        with serving(handler) as url:
            factory = connect_endpoint(url, "m", top_logprobs=2)
            try:
                session = factory.open_session("q", watched_token=WATCHED_TEXT, pacing_cap=1)
                try:
                    start = time.perf_counter()
                    record = run_generation(
                        session, "syncthink", policy_config=pcfg, task_kind="numeric"
                    )
                    elapsed = time.perf_counter() - start
                finally:
                    session.close()
            finally:
                release.set()
        # the server holds the token after the trigger for 5 s
        assert elapsed < 2.0, f"stop decision took {elapsed:.2f} s"
        assert record.stop_step == 2
        assert record.injected
        assert record.complete and record.normalized_answer == "42"


def parent_stream_events(trace, logprobs, width, fail_after=None) -> list[bytes]:
    """The main stream's SSE events, each built and encoded from scratch
    as StubServer did on every request before it kept encoded steps; a
    trace with no natural stop streams no answer."""
    watched = trace.header.watched_token

    def sse(delta, lp=None, finish=None):
        choice = {"index": 0, "delta": delta, "finish_reason": finish}
        if lp is not None:
            choice["logprobs"] = lp
        obj = {"id": "stub-chunk", "object": "chat.completion.chunk", "choices": [choice]}
        return b"data: " + json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n\n"

    events = [sse({"role": "assistant"})]
    for i, step in enumerate(trace.steps):
        if fail_after is not None and i >= fail_after:
            return events
        text = step.chosen_text
        lp = None
        if logprobs:
            top = [
                (tok if isinstance(tok, str) else token_text(tok, watched), value)
                for tok, value in zip(step.topk.tokens, step.topk.logprobs.tolist())
            ][: width or None]
            lp = {"content": [{
                "token": text,
                "logprob": dict(top).get(text, 0.0),
                "top_logprobs": [{"token": tok, "logprob": value} for tok, value in top],
            }]}
        events.append(sse({"content": text}, lp))
    if trace.natural_stop is not None:
        answer = trace.probes[max(k for k in trace.probes if k <= len(trace.steps))][1]
        for i, word in enumerate(answer.split()):
            events.append(sse({"content": word if i == 0 else " " + word}))
    return events + [sse({}, finish="stop"), b"data: [DONE]\n\n"]


class _Tee:
    """A handler's wfile that logs each write (bytes) and flush (None)."""

    def __init__(self, raw, log):
        self._raw = raw
        self._log = log

    def write(self, data):
        self._log.append(bytes(data))
        return self._raw.write(data)

    def flush(self):
        self._log.append(None)
        self._raw.flush()

    def __getattr__(self, name):
        return getattr(self._raw, name)


def assert_served_bytes_match(trace, widths=(2, 513), plain_widths=(513,)):
    """Serve each request shape twice (logprobs on at each of widths, off at
    each of plain_widths) and compare every byte written with
    parent_stream_events; the first request of a shape encodes every step,
    the second writes the stored bytes."""
    shapes = [(True, w) for w in widths] + [(False, w) for w in plain_widths]
    shapes *= 2
    with StubServer(trace) as stub:
        logs = []

        class Capturing(stub._httpd.RequestHandlerClass):
            def setup(self):
                super().setup()
                logs.append([])
                self.wfile = _Tee(self.wfile, logs[-1])

        stub._httpd.RequestHandlerClass = Capturing
        host, port = stub._httpd.server_address[:2]
        for logprobs, width in shapes:
            body = json.dumps({
                "messages": [{"role": "user", "content": "q"}], "stream": True,
                "logprobs": logprobs, "top_logprobs": width,
            })
            conn = http.client.HTTPConnection(host, port, timeout=10)
            try:
                conn.request("POST", "/v1/chat/completions", body=body)
                conn.getresponse().read()
            finally:
                conn.close()
    assert len(logs) == len(shapes)
    for (logprobs, width), log in zip(shapes, logs):
        expected = parent_stream_events(trace, logprobs, width)
        assert log[0].endswith(b"\r\n\r\n")  # the status line and headers
        writes = [entry for entry in log[1:] if entry is not None]
        assert writes == expected, (logprobs, width)
        # one write and one flush per event, so no token waits for another
        assert log[1 : 1 + 2 * len(writes)] == [x for w in writes for x in (w, None)]


# (chosen text, top-K pairs): step 1's chosen token is absent from its
# top-K, step 2's sits below a width-2 cut, and in step 4 two tokens go
# on the wire as the chosen text, of which the last one's logprob is served
TEXT_STEPS = [
    ("Hello", [("Hello", -0.2), ("Hi", -2.5), (" Hey", -3.0)]),
    (" world", [(" there", -0.5), (" all", -1.4), ("!", -3.3)]),
    ("!", [(".", -0.4), (",", -1.9), ("!", -2.2)]),
    (" Bye", [(" Bye", -0.1), (" so", -3.1), (" and", -4.0)]),
    ("<w7>", [("<w7>", -0.3), (7, -1.6), ("x", -3.0)]),
]


# (chosen text, top-K pairs): texts that JSON must escape (a quote, a
# backslash, control characters, non-ASCII, an astral emoji, a lone
# surrogate) and logprobs whose shortest reprs are unusual; step 1's
# chosen text sits below a width-2 cut
ESCAPED_STEPS = [
    ('say "hi"', [('say "hi"', -0.0), ("back\\slash", -800.0), ("new\nline", -1e16)]),
    ("caf\u00e9", [("\t\x07\x1f", -1e-05), ("\U0001F600", -12.5), ("caf\u00e9", -1e22)]),
    ("\ud800", [("\ud800", -5e-324), (7, -745.0), ("\x00", -1e300)]),
    ("\U0001F600", [("\u2028", -2.675e-08), ("\U0001F600", -123456789.125), ("\x7f", -7.5e18)]),
]


def text_step_trace(rows):
    """A validated trace of text tokens, whose watched id 0 is in no top-K."""
    steps = []
    for t, (text, pairs) in enumerate(rows):
        topk = Distribution.from_topk_logprobs(pairs)
        steps.append(StepObservation(
            t=t, chosen_token=text, chosen_text=text, topk=topk,
            watched_rank=len(pairs), censored=True, entropy=shannon_entropy(topk),
            step_wall_time=0.01,
        ))
    trace = TraceFile(
        header=TraceHeader(tokenizer="text", vocab_size=50, watched_token=0,
                           source="test", seed=0),
        steps=tuple(steps),
        probes={len(steps): ("Final answer:", "42")},
    )
    trace.validate()
    return trace


class TestStubStreamBytes:
    @pytest.fixture(scope="class")
    def wide_trace(self):
        return generate_synthetic(
            SyntheticPhaseSpec(phase_lengths=(4, 6, 12, 6), seed=5), topk_width=513
        )

    @pytest.fixture(scope="class")
    def text_trace(self):
        """Text tokens, which go on the wire as recorded, and one id."""
        return text_step_trace(TEXT_STEPS)

    # the stub streams every step of the trace: the one case is the whole stream
    @pytest.mark.parametrize("stream", ["whole"])
    def test_served_bytes_match_per_request_encoding(self, wide_trace, stream):
        assert_served_bytes_match(wide_trace)

    @pytest.mark.parametrize("stream", ["whole"])
    def test_text_tokens_served_bytes_match(self, text_trace, stream):
        assert_served_bytes_match(text_trace)

    def test_escaped_texts_and_odd_floats_served_bytes_match(self):
        trace = text_step_trace(ESCAPED_STEPS)
        k = len(ESCAPED_STEPS[0][1])
        widths = (0, 2, k, k + 5)
        assert_served_bytes_match(trace, widths=widths, plain_widths=widths)

    def test_chosen_token_outside_the_served_top_k_has_logprob_zero(self, text_trace):
        with StubServer(text_trace) as stub:
            def chosen_logprob(i, width):
                event = json.loads(stub.step_event(i, True, width).removeprefix(b"data: "))
                return event["choices"][0]["logprobs"]["content"][0]["logprob"]

            assert [chosen_logprob(i, 2) for i in range(5)] == [-0.2, 0.0, 0.0, -0.1, -1.6]
            assert [chosen_logprob(i, 0) for i in range(5)] == [-0.2, 0.0, -2.2, -0.1, -1.6]


def test_stub_construction_holds_no_copy_of_the_top_k():
    # the stub encodes each step from the trace on first request; up front
    # it builds one wire text per distinct token, not a copy of each top-K
    trace = generate_synthetic(
        SyntheticPhaseSpec(phase_lengths=(20, 40, 100, 40), seed=3), topk_width=513
    )
    with StubServer(trace):
        pass  # the first construction pays one-off import and class costs
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stub = StubServer(trace)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    with stub:
        pass
    per_step = held / len(trace.steps)
    assert per_step < 1024, f"{per_step:.0f} B per step"


class TestStubOverAReadTrace:
    """A read trace keeps no top-K; the stub loads its rows from the file."""

    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        trace = generate_synthetic(SyntheticPhaseSpec(phase_lengths=(4, 6, 12, 6), seed=5),
                                   topk_width=513, probe_every=4)
        path = tmp_path_factory.mktemp("read") / "t.jsonl"
        write_trace(trace, str(path))
        return trace, path

    def exchange(self, trace) -> list[tuple[int, bytes]]:
        """Status and payload of every request shape's main stream, of a
        probe after every step, and of an injected stop at every step."""
        texts = [step.chosen_text for step in trace.steps]
        with StubServer(trace) as stub:
            def branch(partial):
                messages = [{"role": "user", "content": "q"},
                            {"role": "assistant", "content": partial}]
                return post(stub, json.dumps({"messages": messages}).encode())

            streams = [post(stub, stream_request(logprobs=lp, top_logprobs=width))
                       for lp, width in ((True, 0), (True, 2), (True, 513), (False, 0))]
            probes = [branch("".join(texts[: t + 1]) + "</think>\nFinal answer:")
                      for t in range(len(texts))]
            stops = [branch("".join(texts[:t]) + "</think>") for t in range(len(texts))]
        return streams + probes + stops

    def test_serves_the_bytes_of_the_written_trace(self, written):
        trace, path = written
        read = read_trace(str(path))
        assert all(step.topk is None for step in read.steps)
        assert self.exchange(read) == self.exchange(trace)

    def test_a_line_changed_after_the_read_is_not_served(self, written, tmp_path):
        _, path = written
        copy = tmp_path / "t.jsonl"
        copy.write_bytes(path.read_bytes())
        read = read_trace(str(copy))
        lines = copy.read_bytes().splitlines(keepends=True)
        # step 5's last logprob, on line 7
        head, sep, _ = lines[6].rpartition(b"]],")
        lines[6] = head[: head.rindex(b",") + 1] + b"-99.5" + sep + lines[6][len(head) + 3:]
        copy.write_bytes(b"".join(lines))
        with pytest.raises(TraceIntegrityError, match="^" + re.escape(f"{copy}:7: step 5: ")):
            write_trace(read, str(tmp_path / "out.jsonl"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.jsonl"]
        with StubServer(read) as stub:
            record = run_live(connect_endpoint(stub.base_url, "m", top_logprobs=513), "full")
        assert not record.complete
        assert record.error.startswith("SessionError: stream ended without completion"), \
            record.error
        assert len(record.rank_trajectory) == 5


def post(stub, body: bytes, length: str | None = None) -> tuple[int, bytes]:
    """Status and payload of one POST to the stub, sent with length as its
    Content-Length (the body's length by default)."""
    host, port = stub._httpd.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.putrequest("POST", "/v1/chat/completions")
        conn.putheader("Content-Length", str(len(body)) if length is None else length)
        conn.endheaders(body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def stream_request(**fields) -> bytes:
    body = {"messages": [{"role": "user", "content": "q"}], "stream": True, "logprobs": True}
    return json.dumps({**body, **fields}).encode("utf-8")


class TestStubRequests:
    def assert_rejected(self, status, payload, field):
        assert status == 400
        assert field in json.loads(payload)["error"]["message"]

    @pytest.mark.parametrize("width", [-3, 2.7, True, False, "abc", [1], {"n": 1}])
    def test_top_logprobs_must_be_a_non_negative_integer(self, stub, width):
        self.assert_rejected(*post(stub, stream_request(top_logprobs=width)), "top_logprobs")

    @pytest.mark.parametrize("body", [b"[]", b'"q"', b"3", b"null"])
    def test_body_must_be_an_object(self, stub, body):
        self.assert_rejected(*post(stub, body), "request body")

    @pytest.mark.parametrize(
        "messages", ["q", "", 0, {"role": "user"}, [1], [{"role": "user"}, "q"]]
    )
    def test_messages_must_be_a_list_of_objects(self, stub, messages):
        self.assert_rejected(*post(stub, stream_request(messages=messages)), "messages")

    def test_assistant_content_must_be_a_string(self, stub):
        messages = [{"role": "user", "content": "q"}, {"role": "assistant", "content": 5}]
        self.assert_rejected(*post(stub, stream_request(messages=messages)), "content")

    @pytest.mark.parametrize("length", ["abc", "-5", "1.5", "1_0", ""])
    def test_content_length_must_be_a_non_negative_integer(self, stub, length):
        self.assert_rejected(*post(stub, b"{}", length), "Content-Length")

    def test_malformed_json_body(self, stub):
        self.assert_rejected(*post(stub, b"{"), "malformed JSON body")

    def test_json_body_nested_too_deep(self, stub):
        # json.loads raises RecursionError, not ValueError, on this body
        self.assert_rejected(*post(stub, b"[" * 5000), "malformed JSON body")

    @pytest.mark.parametrize(
        "fields,served",
        [({}, WIDTH), ({"top_logprobs": None}, WIDTH), ({"top_logprobs": 0}, WIDTH),
         ({"top_logprobs": 2}, 2), ({"top_logprobs": WIDTH + 5}, WIDTH)],
        ids=["missing", "null", "zero", "two", "above-K"],
    )
    def test_width_served(self, stub, fields, served):
        status, payload = post(stub, stream_request(**fields))
        assert status == 200
        step = json.loads(payload.split(b"\n\n")[1].removeprefix(b"data: "))
        assert len(step["choices"][0]["logprobs"]["content"][0]["top_logprobs"]) == served


class TestPolicyParity:
    @pytest.mark.parametrize(
        "policy,kw",
        [
            ("syncthink", {}),
            ("full", {}),
            ("none", {}),
            ("fixed_ratio", {"baseline_config": BaselineConfig(ratio=0.25), "full_length": 300}),
            (
                "answer_convergence",
                {"baseline_config": BaselineConfig(segment_len=16, convergence_k=2)},
            ),
        ],
    )
    def test_live_matches_offline(self, factory, trace, policy, kw):
        live = run_live(factory, policy, **kw)
        offline = run_offline(trace, policy, **kw)
        assert live.complete and offline.complete
        assert live.stop_step == offline.stop_step
        assert live.reason == offline.reason
        assert live.injected == offline.injected
        assert live.normalized_answer == offline.normalized_answer
        assert live.answer_tokens == offline.answer_tokens
        assert live.entropy_trajectory == offline.entropy_trajectory

    def test_replay_takes_only_the_entropy_live_serves(self, factory, trace):
        # live, the client derives each step's entropy from its top-K; the
        # trace with every entropy 0.0 replays to another stop, so the
        # trace check refuses it (test_trace.py checks every boundary)
        live = run_live(factory, "syncthink")
        assert run_offline(trace, "syncthink").stop_step == live.stop_step == 275
        zeroed = dataclasses.replace(trace, steps=tuple(
            dataclasses.replace(step, entropy=0.0) for step in trace.steps))
        assert run_offline(zeroed, "syncthink").stop_step == 270
        with pytest.raises(TraceIntegrityError, match="^step 0: recorded entropy 0.0 disagrees"):
            zeroed.validate()

    def test_repeat_runs_fingerprint_identical(self, factory):
        first = run_live(factory, "syncthink")
        second = run_live(factory, "syncthink")
        assert record_fingerprint(first) == record_fingerprint(second)

    def test_probe_with_time_returns_recorded_branch(self, factory):
        session = open_session(factory)
        try:
            for obs in session:
                if obs.t >= 270:
                    break
            answer, seconds = session.probe_with_time("Final answer:")
            assert answer == "42"
            assert seconds > 0.0
        finally:
            session.close()

    @pytest.mark.parametrize(
        "build,policy,task_kind,kw,expected",
        [
            # a probe at decision step 64 reads key 64, a draft; key 65
            # holds the committed answer, so a fork one key late stopped at 72
            (lambda: generate_synthetic(SyntheticPhaseSpec(phase_lengths=(20, 40, 5, 40),
                                                           seed=7), topk_width=WIDTH),
             "answer_convergence", "numeric",
             {"baseline_config": BaselineConfig(segment_len=8)}, {"stop_step": 80}),
            # no natural stop: the stream runs dry with no answer event
            (lambda: without_natural_stop(make_trace(), 250), "full", "numeric", {},
             {"stop_step": 249, "reason": StopReason.BUDGET_EXHAUSTED, "answer_text": ""}),
            # the natural answer keeps its whitespace and line break
            (lambda: with_final_answer(make_trace(), "Working:  7 * 6\nSo it is 42"),
             "full", "freeform", {},
             {"answer_text": "Working:  7 * 6\nSo it is 42", "answer_tokens": 8,
              "normalized_answer": "so it is 42"}),
            (lambda: with_final_answer(make_trace(), "\t So it is\r\n 42 \n"),
             "full", "freeform", {},
             {"answer_text": "\t So it is\r\n 42 \n", "answer_tokens": 4}),
            # whitespace alone streams as one piece, one token, in both
            (lambda: with_final_answer(make_trace(), " \n "), "full", "freeform", {},
             {"answer_text": " \n ", "answer_tokens": 1, "normalized_answer": ""}),
            # an injected stop's answer of whitespace alone counts the same
            (lambda: dataclasses.replace(make_trace(), probes={0: ("Final answer:", "\t ")}),
             "none", "freeform", {}, {"answer_text": "\t ", "answer_tokens": 1}),
        ],
        ids=["probe-key-is-the-decision-step", "no-natural-stop", "answer-whitespace",
             "answer-edge-whitespace", "answer-only-whitespace", "injected-only-whitespace"],
    )
    def test_live_matches_replay_through_the_trace_rules(
        self, build, policy, task_kind, kw, expected
    ):
        live, replay = served_and_replayed(build(), policy, task_kind, **kw)
        assert {f: getattr(live, f) for f in PARITY_FIELDS} == {
            f: getattr(replay, f) for f in PARITY_FIELDS
        }
        assert live.complete
        assert {f: getattr(live, f) for f in expected} == expected

    def test_unrecorded_probe_step_fails_the_record_as_replay_does(self):
        # branches at every fifth step; answer_convergence probes at 64
        trace = generate_synthetic(SyntheticPhaseSpec(seed=7), topk_width=WIDTH, probe_every=5)
        kw = {"baseline_config": BaselineConfig(segment_len=64)}
        with StubServer(trace) as stub:
            live = run_live(connect_endpoint(stub.base_url, "m", top_logprobs=WIDTH),
                            "answer_convergence", **kw)
        with pytest.raises(PolicyUnavailableError) as replay:
            run_offline(trace, "answer_convergence", **kw)
        assert not live.complete
        assert live.error.startswith("SessionError: endpoint returned HTTP 400: ")
        for error in (live.error, str(replay.value)):
            assert "no probe branch recorded at step 64" in error

    def test_probe_for_another_suffix_fails_the_record_as_replay_does(self, factory, trace):
        # the trace's branches were recorded with "Final answer:"
        kw = {"baseline_config": BaselineConfig(segment_len=16,
                                                probe_suffix="Something else entirely:")}
        live = run_live(factory, "answer_convergence", **kw)
        with pytest.raises(PolicyUnavailableError) as replay:
            run_offline(trace, "answer_convergence", **kw)
        assert not live.complete
        assert live.error.startswith("SessionError: endpoint returned HTTP 400: ")
        for error in (live.error, str(replay.value)):
            assert "'Something else entirely:'" in error
            assert "'Final answer:'" in error


# the record fields a live run over the stub must share with a replay
PARITY_FIELDS = ("complete", "stop_step", "reason", "injected", "reasoning_tokens",
                 "answer_tokens", "total_tokens", "answer_text", "normalized_answer")


def served_and_replayed(trace, policy, task_kind, **kw):
    """Records of one live run over a StubServer of trace and of one replay of it."""
    with StubServer(trace) as stub:
        factory = connect_endpoint(stub.base_url, "m", top_logprobs=WIDTH)
        live = run_live(factory, policy, task_kind, **kw)
    return live, run_offline(trace, policy, task_kind, **kw)


def without_natural_stop(trace, n):
    """The first n steps of trace, none of which emits the terminator."""
    return TraceFile(header=trace.header, steps=trace.steps[:n],
                     probes={k: v for k, v in trace.probes.items() if k <= n})


def with_final_answer(trace, answer):
    final = len(trace.steps)
    return dataclasses.replace(trace, probes={**trace.probes, final: ("Final answer:", answer)})


class TestRequestHeaders:
    @pytest.mark.parametrize("key,sent", [("sk-1", "Bearer sk-1"), ("", None)],
                             ids=["key", "no-key"])
    def test_authorization_only_with_a_key(self, key, sent):
        seen = []

        class Handler(ScriptedHandler):
            events, completion = [sse_event("a")], None

            def do_POST(self):
                seen.append(self.headers.get("Authorization"))
                super().do_POST()

        with serving(Handler) as url:
            factory = connect_endpoint(url, "m", api_key=key, top_logprobs=WIDTH)
            session = open_session(factory)
            try:
                list(session)
            finally:
                session.close()
        assert seen == [sent]


class TestCapabilityGates:
    def test_open_rejects_insufficient_k(self, stub):
        factory = connect_endpoint(stub.base_url, "m", top_logprobs=100)
        with pytest.raises(CapabilityError):
            factory.open_session("q", watched_token=WATCHED_TEXT, pacing_cap=512)

    def test_open_boundary_exactly_cap_plus_one(self, stub):
        factory = connect_endpoint(stub.base_url, "m", top_logprobs=CAP + 1)
        session = factory.open_session("q", watched_token=WATCHED_TEXT, pacing_cap=CAP)
        session.close()
        narrow = connect_endpoint(stub.base_url, "m", top_logprobs=CAP)
        with pytest.raises(CapabilityError):
            narrow.open_session("q", watched_token=WATCHED_TEXT, pacing_cap=CAP)

    def test_missing_logprobs_names_the_field(self):
        # a token streamed with no logprobs field
        plain = b'data: {"choices":[{"index":0,"delta":{"content":"a"},"finish_reason":null}]}\n\n'
        handler = type("Handler", (ScriptedHandler,), {"events": [plain], "completion": None})
        with serving(handler) as url:
            factory = connect_endpoint(url, "m", top_logprobs=WIDTH)
            session = open_session(factory)
            try:
                with pytest.raises(CapabilityError, match="logprobs"):
                    next(iter(session))
            finally:
                session.close()

    def test_served_width_below_cap_is_unsound(self):
        # a 64-wide server cannot prove censored ranks exceed cap 64
        narrow_trace = make_trace(width=CAP)
        with StubServer(narrow_trace) as stub:
            factory = connect_endpoint(stub.base_url, "m", top_logprobs=CAP + 1)
            session = factory.open_session(
                "q", watched_token=WATCHED_TEXT, pacing_cap=CAP
            )
            try:
                with pytest.raises(CapabilityError, match="top-64"):
                    for _ in session:
                        pass
            finally:
                session.close()


class TestFailureHandling:
    def test_midstream_reset_yields_incomplete_record(self):
        events = [sse_event(text) for text in "abcde"]
        handler = type("Handler", (ResettingHandler,), {"events": events})
        with serving(handler) as url:
            factory = connect_endpoint(url, "m", top_logprobs=2)
            session = factory.open_session("q", watched_token=WATCHED_TEXT, pacing_cap=1)
            try:
                record = run_generation(
                    session, "full", task_kind="numeric",
                    policy_config=PolicyConfig(watched_token=WATCHED_TEXT, pacing_cap=1),
                )
            finally:
                session.close()
        assert not record.complete
        assert "SessionError" in record.error
        # buffered chunks may or may not survive the reset
        assert 0 <= len(record.rank_trajectory) <= 5

    @pytest.mark.parametrize(
        "events,completion,policy,error",
        [
            (
                [sse_event("b", [{"token": "b"}])], None, "full",
                "stream failed at step 1: KeyError",
            ),
            ([b"data: [1]\n\n"], None, "full", "stream failed at step 1: AttributeError"),
            (
                [sse_event("b", [{"token": "b", "logprob": None}])], None, "full",
                "stream failed at step 1: MalformedDistributionError",
            ),
            (
                [sse_event("b", [{"token": "b", "logprob": "low"}])], None, "full",
                "stream failed at step 1: MalformedDistributionError",
            ),
            (
                [sse_event(5)], None, "full",
                "stream failed at step 1: TypeError",
            ),
            (
                [], {"choices": [{"message": {"content": "7"}}],
                     "usage": {"completion_tokens": None}},
                "none", "branch completion is malformed: TypeError",
            ),
            (
                [], {"choices": [{"message": {"content": "7"}}],
                     "usage": {"completion_tokens": "many"}},
                "none", "branch completion is malformed: ValueError",
            ),
            (
                [], {"choices": [{"message": {"content": "7"}}],
                     "usage": {"completion_tokens": -3}},
                "none", "branch completion is malformed: ValueError",
            ),
            (
                [], {"choices": [{"message": {"content": 7}}]},
                "none", "branch completion is malformed: TypeError",
            ),
            (
                # json writes 1e400 as Infinity, which the client reads as inf
                [], {"choices": [{"message": {"content": "7"}}],
                     "usage": {"completion_tokens": 1e400}},
                "none", "branch completion is malformed: OverflowError",
            ),
            # nested too deep for json.loads, which raises RecursionError
            ([b"data: " + b"[" * 100_000 + b"\n\n"], None, "full",
             "stream failed at step 1: RecursionError"),
            ([], b"[" * 100_000, "none", "branch completion failed: maximum recursion depth"),
        ],
        ids=[
            "logprob-missing", "event-is-a-list", "logprob-null", "logprob-text",
            "content-not-text", "completion-tokens-null", "completion-tokens-text",
            "completion-tokens-negative", "completion-content-not-text",
            "completion-tokens-1e400", "event-nested-too-deep", "completion-nested-too-deep",
        ],
    )
    def test_malformed_event_fails_only_its_sample(
        self, factory, events, completion, policy, error
    ):
        handler = type("Handler", (ScriptedHandler,), {
            "events": [sse_event("a"), *events, sse_event("c")], "completion": completion,
        })
        with serving(handler) as url:
            scripted = connect_endpoint(url, "m", top_logprobs=2)
            items = [
                BatchItem("bad", lambda: scripted.open_session(
                    "q", watched_token=WATCHED_TEXT, pacing_cap=1)),
                BatchItem("good", lambda: open_session(factory)),
            ]
            bad, good = run_batch(items, [policy], policy_config=live_config())
        assert not bad.complete
        assert "SessionError" in bad.error and error in bad.error, bad.error
        assert good.complete

    @pytest.mark.parametrize(
        "top",
        [[{"token": "d", "logprob": -0.1}, {"token": "d", "logprob": -2.5}],
         [{"token": "d", "logprob": -0.1}, {"token": "e", "logprob": math.nan}]],
        ids=["duplicate-token", "nan-logprob"],
    )
    def test_malformed_top_k_keeps_the_steps_before_it(self, factory, top):
        events = [sse_event("a"), sse_event("b"), sse_event("c"), sse_event("d", top),
                  sse_event("e")]
        handler = type("Handler", (ScriptedHandler,), {"events": events, "completion": None})
        with serving(handler) as url:
            scripted = connect_endpoint(url, "m", top_logprobs=2)
            items = [
                BatchItem("bad", lambda: scripted.open_session(
                    "q", watched_token=WATCHED_TEXT, pacing_cap=1)),
                BatchItem("good", lambda: open_session(factory)),
            ]
            bad, good = run_batch(items, ["full"], policy_config=live_config())
        assert not bad.complete
        assert bad.error.startswith(
            "SessionError: stream failed at step 3: MalformedDistributionError: "), bad.error
        assert [t for t, _ in bad.rank_trajectory] == [0, 1, 2]
        assert good.complete

    def test_http_error_is_session_error(self):
        class Refuse(BaseHTTPRequestHandler):
            def do_POST(self):
                self.send_error(503)

            def log_message(self, fmt, *args):
                pass

        with serving(Refuse) as url:
            factory = connect_endpoint(url, "m", top_logprobs=WIDTH)
            with pytest.raises(SessionError, match="503"):
                factory.open_session("q", watched_token=WATCHED_TEXT, pacing_cap=CAP)

    def test_unreachable_endpoint_is_session_error(self):
        factory = connect_endpoint(
            "http://127.0.0.1:9", "m", top_logprobs=WIDTH, timeout=2.0
        )
        with pytest.raises(SessionError):
            factory.open_session("q", watched_token=WATCHED_TEXT, pacing_cap=CAP)

    def test_repr_hides_the_api_key(self):
        factory = connect_endpoint("http://x", "m", api_key="sk-secret")
        assert "sk-secret" not in repr(factory)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            connect_endpoint("", "m", top_logprobs=10)
        with pytest.raises(ConfigurationError):
            connect_endpoint("http://x", "", top_logprobs=10)
        with pytest.raises(ConfigurationError):
            connect_endpoint("http://x", "m", top_logprobs=0)


# top-K rows that break the rule, each served live and read from a trace:
# (token, logprob) pairs sorted descending, and the chosen token
RULE_ROWS = {
    "mass-2.37": ([(1, 0.0), (2, 0.0), (3, -1.0)], 1),
    "logprob-800": ([(1, 800.0), (2, -1.0)], 1),
    **{f"topk-{name}": ([(1, -1.5), (token, -1.9)], 1)
       for name, token in (("null", None), ("true", True), ("2.5", 2.5), ("list", [1]))},
    **{f"chosen-{name}": ([(1, -1.5), (2, -1.9)], token)
       for name, token in (("null", None), ("true", True), ("2.5", 2.5), ("list", [1]))},
}


def rule_event(pairs, chosen):
    """A streamed step with top-K pairs and a chosen token as the wire sends them."""
    top = [{"token": token, "logprob": lp} for token, lp in pairs]
    choice = {"delta": {"content": "x"},
              "logprobs": {"content": [{"token": chosen, "logprob": -1.5, "top_logprobs": top}]}}
    return b"data: " + json.dumps({"choices": [choice]}).encode() + b"\n\n"


def rule_trace(path, pairs, chosen, rank=None, entropy=0.0):
    """A two-step trace whose step 1 holds pairs and records entropy; the
    watched id is 3."""
    header = {"tokenizer": "toy", "vocab_size": 64, "watched_token": 3, "source": "test",
              "seed": 0, "natural_stop": None, "probes": {}}
    first = {"t": 0, "chosen_token": 1, "chosen_text": "x", "topk": [[1, -0.1], [2, -2.5]],
             "watched_rank": 2, "censored": True,
             "entropy": shannon_entropy(Distribution([1, 2], [-0.1, -2.5])),
             "step_wall_time": 0.01}
    step = {**first, "t": 1, "chosen_token": chosen, "topk": [list(p) for p in pairs],
            "watched_rank": len(pairs) if rank is None else rank, "censored": rank is None,
            "entropy": entropy}
    jsonl.write_lines(str(path), [header, first, step])


class TestOneTopKRule:
    """policy.topk_probs decides a top-K for replay and live alike."""

    @pytest.mark.parametrize("case", sorted(RULE_ROWS))
    def test_replay_and_live_refuse_the_same_row(self, tmp_path, case):
        pairs, chosen = RULE_ROWS[case]
        path = tmp_path / "t.jsonl"
        rule_trace(path, pairs, chosen)
        with pytest.raises(TraceIntegrityError) as replay:
            read_trace(str(path))
        prefix = f"{path}:3: step 1: "
        assert str(replay.value).startswith(prefix), replay.value
        events = [sse_event("a"), rule_event(pairs, chosen)]
        handler = type("Handler", (ScriptedHandler,), {"events": events, "completion": None})
        with serving(handler) as url:
            item = BatchItem(case, lambda: connect_endpoint(url, "m", top_logprobs=2)
                             .open_session("q", watched_token=WATCHED_TEXT, pacing_cap=1))
            [live] = run_batch([item], ["full"], policy_config=live_config())
        assert not live.complete
        assert [t for t, _ in live.rank_trajectory] == [0]
        # one rule, so one message
        assert live.error == ("SessionError: stream failed at step 1: MalformedDistributionError: "
                              + str(replay.value)[len(prefix):])

    def test_replay_and_live_read_the_same_signals_off_a_valid_row(self, tmp_path):
        # the watched token second: id 3 in the trace, its text live
        logprobs = [-0.5, -1.5, -2.0]
        events = [rule_event(list(zip(["a", WATCHED_TEXT, "b"], logprobs)), "a")]
        handler = type("Handler", (ScriptedHandler,), {"events": events, "completion": None})
        with serving(handler) as url:
            session = connect_endpoint(url, "m", top_logprobs=3).open_session(
                "q", watched_token=WATCHED_TEXT, pacing_cap=1)
            with contextlib.closing(session):
                obs = next(session)
        path = tmp_path / "t.jsonl"
        rule_trace(path, list(zip([10, 3, 11], logprobs)), 10, rank=1,
                   entropy=shannon_entropy(Distribution([10, 3, 11], logprobs)))
        topk = list(read_trace(str(path)).iter_topk())[1]
        assert (obs.watched_rank, obs.censored, obs.entropy) == (
            *compute_rank(topk, 3), shannon_entropy(topk))
        assert (obs.watched_rank, obs.censored) == (1, False)


class TestPacingCapSoundness:
    def test_config_cap_above_the_sessions_is_refused_before_any_step(self):
        # a session at cap 64 (K = 80) proves censored ranks sound up to 64;
        # at cap 512 its censored rank 80 clears the bar from step 96 on,
        # while a replay of the trace, which holds the true ranks, stops at 159
        trace = generate_synthetic(SyntheticPhaseSpec(seed=0), topk_width=80)
        config = PolicyConfig(watched_token=WATCHED_TEXT, pacing_cap=512, entropy_weight=0.1)
        with StubServer(trace) as stub:
            factory = connect_endpoint(stub.base_url, "stub", top_logprobs=80)
            session = factory.open_session("q", watched_token=WATCHED_TEXT, pacing_cap=64)
            try:
                assert session.pacing_cap == 64
                with pytest.raises(ConfigurationError, match="pacing cap 512 exceeds the source's 64"):
                    run_generation(session, "syncthink", policy_config=config)
                assert next(session).t == 0  # no step was read
            finally:
                session.close()
        replay = run_generation(TraceReader(trace), "syncthink", policy_config=dataclasses.replace(
            config, watched_token=trace.header.watched_token))
        assert replay.stop_step == 159

    def test_other_policies_do_not_read_the_cap(self, factory):
        session = open_session(factory)
        try:
            record = run_generation(session, "full", policy_config=dataclasses.replace(
                live_config(), pacing_cap=CAP + 1))
        finally:
            session.close()
        assert record.complete


def run_branch(completion):
    """The record of a `none` run whose branch completion is `completion`."""
    handler = type("Handler", (ScriptedHandler,), {
        "events": [sse_event("a"), sse_event("c")], "completion": completion,
    })
    with serving(handler) as url:
        scripted = connect_endpoint(url, "m", top_logprobs=2)
        session = scripted.open_session("q", watched_token=WATCHED_TEXT, pacing_cap=1)
        try:
            return run_generation(session, "none", task_kind="numeric",
                                  policy_config=PolicyConfig(watched_token=WATCHED_TEXT))
        finally:
            session.close()


class TestBranchCompletionTokens:
    @pytest.mark.parametrize("count", ["5", 5.7, True], ids=["text", "float", "bool"])
    def test_completion_tokens_must_be_a_json_integer(self, count):
        record = run_branch({"choices": [{"message": {"content": "7"}}],
                             "usage": {"completion_tokens": count}})
        assert not record.complete
        assert record.error == (
            "SessionError in answer phase: branch completion is malformed: TypeError:"
            f" completion_tokens {count!r} is not a JSON integer"), record.error

    @pytest.mark.parametrize("answer,tokens", [
        (" \n ", 1), ("", 0), ("the answer is 42", 4), ("42\n", 1),
    ])
    def test_without_usage_an_answer_counts_its_pieces(self, answer, tokens):
        record = run_branch({"choices": [{"message": {"content": answer}}]})
        assert record.complete, record.error
        assert record.answer_tokens == tokens == len(answer_pieces(answer))
        assert record.answer_text == answer
