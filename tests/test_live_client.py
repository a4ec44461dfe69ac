"""LiveSession against the trace-backed stub endpoint."""

from __future__ import annotations

import gc
import weakref

import pytest

from syncthink.client import connect_endpoint
from syncthink.controller import record_fingerprint, run_generation
from syncthink.errors import CapabilityError, ConfigurationError, SessionError
from syncthink.policy import BaselineConfig, PolicyConfig, compute_rank
from syncthink.stub import StubServer
from syncthink.synthetic import SyntheticPhaseSpec, generate_synthetic
from syncthink.trace import TraceReader

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

    def test_http_error_is_session_error(self):
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
        from threading import Thread

        class Refuse(BaseHTTPRequestHandler):
            def do_POST(self):
                self.send_error(503)

            def log_message(self, fmt, *args):
                pass

        httpd = ThreadingHTTPServer(("127.0.0.1", 0), Refuse)
        Thread(target=httpd.serve_forever, daemon=True).start()
        try:
            url = "http://127.0.0.1:%d" % httpd.server_address[1]
            factory = connect_endpoint(url, "m", top_logprobs=WIDTH)
            with pytest.raises(SessionError, match="503"):
                factory.open_session("q", watched_token=WATCHED_TEXT, pacing_cap=CAP)
        finally:
            httpd.shutdown()
            httpd.server_close()

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
