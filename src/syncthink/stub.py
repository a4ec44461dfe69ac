"""Deterministic in-process endpoint stub replaying a recorded trace.

Speaks just enough of the OpenAI-compatible chat completions dialect for
LiveSession: a streamed main generation with per-token top-K logprobs,
and non-streamed branch completions for probes and injected stops.
Branch requests are matched by the longest step-text prefix of the
assistant partial, then answered from the trace's recorded probe
branches (nearest recorded branch at or before the matched step).

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
        self.step_texts = [step.chosen_text for step in trace.steps]
        self.wire_topk = [
            [(_wire_token(tok, watched), lp) for tok, lp in step.topk]
            for step in trace.steps
        ]
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), _make_handler(self))
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def base_url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def answer_at(self, consumed: int) -> str:
        """Recorded branch answer for a prefix of `consumed` tokens."""
        keys = [k for k in self.trace.probes if k <= consumed]
        if not keys:
            return ""
        return self.trace.probes[max(keys)][1]

    def match_prefix(self, partial: str) -> tuple[int, str]:
        """Longest run of step texts prefixing the partial, plus the rest."""
        pos = 0
        matched = 0
        for text in self.step_texts:
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
            payload = json.dumps({"error": {"message": message}}).encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def _sse(self, obj):
            data = json.dumps(obj, separators=(",", ":")).encode("utf-8")
            self.wfile.write(b"data: " + data + b"\n\n")
            self.wfile.flush()

        def _chunk(self, delta: dict, logprobs=None, finish=None):
            choice = {"index": 0, "delta": delta, "finish_reason": finish}
            if logprobs is not None:
                choice["logprobs"] = logprobs
            return {
                "id": "stub-chunk",
                "object": "chat.completion.chunk",
                "choices": [choice],
            }

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
            self._sse(self._chunk({"role": "assistant"}))
            for i, step in enumerate(server.trace.steps):
                if server.fail_after_steps is not None and i >= server.fail_after_steps:
                    self._reset_connection()
                    return
                text = server.step_texts[i]
                logprobs = None
                if want_logprobs:
                    top = server.wire_topk[i][: width or None]
                    logprobs = {
                        "content": [
                            {
                                "token": text,
                                "logprob": dict(top).get(text, 0.0),
                                "top_logprobs": [
                                    {"token": tok, "logprob": lp} for tok, lp in top
                                ],
                            }
                        ]
                    }
                self._sse(self._chunk({"content": text}, logprobs))
            answer = server.answer_at(len(server.trace.steps))
            for i, word in enumerate(answer.split()):
                piece = word if i == 0 else " " + word
                self._sse(self._chunk({"content": piece}))
            self._sse(self._chunk({}, finish="stop"))
            self.wfile.write(b"data: [DONE]\n\n")
            self.wfile.flush()

        def _branch(self, body: dict, partial: str):
            matched, rest = server.match_prefix(partial)
            if not rest.startswith(server.terminator_text):
                self._error(400, "assistant partial does not continue the trace")
                return
            answer = server.answer_at(matched)
            tokens = len(answer.split())
            payload = json.dumps(
                {
                    "id": "stub-completion",
                    "object": "chat.completion",
                    "choices": [
                        {
                            "index": 0,
                            "message": {"role": "assistant", "content": answer},
                            "finish_reason": "stop",
                        }
                    ],
                    "usage": {
                        "prompt_tokens": matched + 1,
                        "completion_tokens": tokens,
                        "total_tokens": matched + 1 + tokens,
                    },
                }
            ).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

    return Handler
