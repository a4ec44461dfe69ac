"""LiveSession against the trace-backed stub endpoint."""

from __future__ import annotations

import contextlib
import gc
import json
import threading
import time
import weakref
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from syncthink.client import connect_endpoint
from syncthink.controller import BatchItem, record_fingerprint, run_batch, run_generation
from syncthink.errors import CapabilityError, ConfigurationError, SessionError
from syncthink.policy import BaselineConfig, PolicyConfig, compute_rank
from syncthink.stub import StubServer
from syncthink.synthetic import SyntheticPhaseSpec, generate_synthetic
from syncthink.trace import TraceReader
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


def run_live(factory, policy, **kw):
    session = open_session(factory)
    try:
        return run_generation(
            session, policy, policy_config=live_config(), task_kind="numeric", **kw
        )
    finally:
        session.close()


def run_offline(trace, policy, **kw):
    return run_generation(
        TraceReader(trace), policy, policy_config=offline_config(),
        task_kind="numeric", **kw,
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
                assert [lp for _, lp in obs.topk] == sorted(
                    (lp for _, lp in obs.topk), reverse=True
                )
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


class ScriptedHandler(BaseHTTPRequestHandler):
    """Streams `events` and answers branch requests with `completion`."""

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
            self.wfile.write(json.dumps(self.completion).encode())

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
            assert obs.topk == tuple(pairs)
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

    def test_missing_logprobs_names_the_field(self, trace):
        with StubServer(trace, serve_logprobs=False) as stub:
            factory = connect_endpoint(stub.base_url, "m", top_logprobs=WIDTH)
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
    def test_midstream_reset_yields_incomplete_record(self, trace):
        with StubServer(trace, fail_after_steps=5) as stub:
            factory = connect_endpoint(stub.base_url, "m", top_logprobs=WIDTH)
            record = run_live(factory, "full")
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
                "stream failed at step 1: TypeError",
            ),
            (
                [sse_event("b", [{"token": "b", "logprob": "low"}])], None, "full",
                "stream failed at step 1: TypeError",
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
        ],
        ids=[
            "logprob-missing", "event-is-a-list", "logprob-null", "logprob-text",
            "content-not-text", "completion-tokens-null", "completion-tokens-text",
            "completion-tokens-negative", "completion-content-not-text",
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

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            connect_endpoint("", "m", top_logprobs=10)
        with pytest.raises(ConfigurationError):
            connect_endpoint("http://x", "", top_logprobs=10)
        with pytest.raises(ConfigurationError):
            connect_endpoint("http://x", "m", top_logprobs=0)
