"""Deterministic in-process endpoint stub replaying a recorded trace.

Speaks just enough of the OpenAI-compatible chat completions dialect for
LiveSession: a streamed main generation with per-token top-K logprobs,
and non-streamed branch completions for probes and injected stops.
Branch requests are matched by the longest step-text prefix of the
assistant partial, then answered from the trace's recorded probe
branches (nearest recorded branch at or before the matched step).  A
probe is answered only when it asks for that branch's recorded suffix,
as a replay of the trace would be.

Each step's streamed event is encoded once per request shape (logprobs
on or off, top-K width), when the first request of that shape reaches
the step, and later requests of that shape write the stored bytes.
Building and encoding an event costs about as much CPU as the client
spends decoding it, so re-encoding on every request would make the stub
pace the client it serves.  The event is built straight from the trace's
step; the stub keeps no copy of the top-K, only one wire text per
distinct token.

Test knobs: serve_logprobs=False strips logprobs from the stream;
fail_after_steps resets the connection mid-stream to exercise the
client's failure path.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .synthetic import token_text
from .trace import TraceFile


def _wire_token(token, watched) -> str:
    return token if isinstance(token, str) else token_text(token, watched)


def _sse(obj) -> bytes:
    return b"data: " + json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n\n"


def _chunk(delta: dict, logprobs=None, finish=None) -> dict:
    choice = {"index": 0, "delta": delta, "finish_reason": finish}
    if logprobs is not None:
        choice["logprobs"] = logprobs
    return {
        "id": "stub-chunk",
        "object": "chat.completion.chunk",
        "choices": [choice],
    }


class StubServer:
    """One trace behind an HTTP endpoint; start() before use."""

    def __init__(
        self,
        trace: TraceFile,
        *,
        serve_logprobs: bool = True,
        fail_after_steps: int | None = None,
    ):
        self.trace = trace
        self.serve_logprobs = serve_logprobs
        self.fail_after_steps = fail_after_steps
        watched = trace.header.watched_token
        self.terminator_text = _wire_token(watched, watched)
        # each distinct token's wire text: K + 1 entries for a synthetic trace
        distinct = {tok for step in trace.steps for tok in step.topk.tokens}
        self._wire_texts = {tok: _wire_token(tok, watched) for tok in distinct}
        # (logprobs, width) -> each step's event bytes, None until first served
        self._events: dict[tuple[bool, int], list[bytes | None]] = {}
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), _make_handler(self))
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def base_url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def step_event(self, i: int, logprobs: bool, width: int) -> bytes:
        """SSE bytes of step i for one request shape, encoded on first use.

        Concurrent requests may both encode a step; they store equal bytes.
        """
        steps = self.trace.steps
        events = self._events.setdefault((logprobs, width), [None] * len(steps))
        event = events[i]
        if event is None:
            step = steps[i]
            text = step.chosen_text
            top_logprobs = None
            if logprobs:
                cut = slice(width or None)
                tokens = list(map(self._wire_texts.__getitem__, step.topk.tokens[cut]))
                lps = step.topk.logprobs[cut].tolist()
                # the chosen text's last entry, the one dict(zip(tokens, lps))
                # would keep, found by a scan in C rather than a K-entry dict
                rev = tokens[::-1]
                chosen = lps[~rev.index(text)] if text in rev else 0.0
                top = [{"token": tok, "logprob": lp} for tok, lp in zip(tokens, lps)]
                top_logprobs = {
                    "content": [{"token": text, "logprob": chosen, "top_logprobs": top}]
                }
            event = events[i] = _sse(_chunk({"content": text}, top_logprobs))
        return event

    def match_prefix(self, partial: str) -> tuple[int, str]:
        """Longest run of step texts prefixing the partial, plus the rest."""
        pos = 0
        matched = 0
        for text in (step.chosen_text for step in self.trace.steps):
            if text and partial.startswith(text, pos):
                pos += len(text)
                matched += 1
            else:
                break
        return matched, partial[pos:]

    def start(self) -> "StubServer":
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "StubServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def _make_handler(server: StubServer):
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, fmt, *args):
            pass

        def do_POST(self):
            try:
                self._respond()
            except (BrokenPipeError, ConnectionResetError):
                # the client abandoned the stream (injection); expected
                pass

        def _respond(self):
            if not self.path.endswith("/chat/completions"):
                self._error(404, "unknown path")
                return
            length = int(self.headers.get("Content-Length", 0))
            try:
                body = json.loads(self.rfile.read(length) or b"{}")
            except ValueError:
                self._error(400, "malformed JSON body")
                return
            messages = body.get("messages") or []
            assistant = next(
                (m for m in reversed(messages) if m.get("role") == "assistant"), None
            )
            if assistant is None:
                self._main_stream(body)
            else:
                self._branch(body, assistant.get("content") or "")

        def _error(self, code: int, message: str):
            self._reply(code, {"error": {"message": message}})

        def _reply(self, code: int, obj: dict):
            payload = json.dumps(obj).encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def _send(self, event: bytes):
            self.wfile.write(event)
            self.wfile.flush()

        def _reset_connection(self):
            # RST instead of FIN so the client sees a network failure,
            # not a clean end of body
            self.connection.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            self.connection.close()

        def _main_stream(self, body: dict):
            if not body.get("stream"):
                self._error(400, "stub serves the main generation as a stream")
                return
            want_logprobs = bool(body.get("logprobs")) and server.serve_logprobs
            width = int(body.get("top_logprobs") or 0)
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.end_headers()
            self._send(_sse(_chunk({"role": "assistant"})))
            for i in range(len(server.trace.steps)):
                if server.fail_after_steps is not None and i >= server.fail_after_steps:
                    self._reset_connection()
                    return
                self._send(server.step_event(i, want_logprobs, width))
            answer = server.trace.answer_at(len(server.trace.steps))
            for i, word in enumerate(answer.split()):
                piece = word if i == 0 else " " + word
                self._send(_sse(_chunk({"content": piece})))
            self._send(_sse(_chunk({}, finish="stop")))
            self._send(b"data: [DONE]\n\n")

        def _branch(self, body: dict, partial: str):
            matched, rest = server.match_prefix(partial)
            if not rest.startswith(server.terminator_text):
                self._error(400, "assistant partial does not continue the trace")
                return
            # an injected stop ends at the terminator; a probe sends the
            # terminator, a newline and its suffix, which must be the one
            # recorded at the branch that answers it
            branch = server.trace.branch_at(matched)
            suffix, answer = branch or ("", "")
            probe = rest[len(server.terminator_text):]
            if probe and branch is None:
                self._error(400, f"no probe branch recorded at or before step {matched}")
                return
            if probe and probe != "\n" + suffix:
                sent = probe.removeprefix("\n")
                self._error(400, f"probe suffix {sent!r} differs from the suffix {suffix!r}"
                                 f" recorded at or before step {matched}")
                return
            tokens = len(answer.split())
            self._reply(200, {
                "id": "stub-completion",
                "object": "chat.completion",
                "choices": [{"index": 0, "message": {"role": "assistant", "content": answer},
                             "finish_reason": "stop"}],
                "usage": {"prompt_tokens": matched + 1, "completion_tokens": tokens,
                          "total_tokens": matched + 1 + tokens},
            })

    return Handler
