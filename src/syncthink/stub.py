"""Deterministic in-process endpoint stub replaying a recorded trace.

Speaks just enough of the OpenAI-compatible chat completions dialect for
LiveSession: a streamed main generation with per-token top-K logprobs,
and non-streamed branch completions for probes and injected stops.
Every answer comes from TraceFile.probe_at or answer_at, the rules replay
calls, so a live run over the stub makes the record a replay makes.  A
branch request is matched by the longest run of step texts prefixing its
partial: a probe (after step t, the terminator, a newline and the suffix)
reads probe_at(t, suffix), an injected stop (the terminator in place of
step t) answer_at(t).  The natural answer streams in the pieces
trace.answer_pieces cuts it into, one per event, so it keeps its
whitespace and a replay counts the tokens a live run counts; a trace
with no natural stop streams none.

A read trace holds no top-K, so the stub loads its rows itself: a
loader thread, started when the stub is made, takes every step's top-K
from TraceFile.iter_topk in step order (a trace built in memory hands
over the top-K it holds, so the stub copies none) and builds each
distinct token's entry head (`{"token":...,"logprob":`) as it first
meets the token.  A request that reaches a row not loaded yet waits for
it.  A row whose line changed since the trace was read stops the loader;
a stream that reaches it ends without [DONE], so the session raises
SessionError and the changed row is never served.

Each step's streamed event is encoded once per request shape (logprobs
on or off, top-K width), when the first request of that shape reaches
the step, and later requests of that shape write the stored bytes.  A
logprobs event is spliced as text from the entry heads and
jsonl.float_texts, which trace.write_trace also splices with and which
gives every float's text from one encode of the step's logprobs; the
bytes are those json.dumps writes for the event's dicts (a non-finite
logprob, which a validated trace cannot hold, raises ValueError instead
of going out as NaN or Infinity).  Every chunk the stub streams is
written by _event from one fixed head, its delta, finish reason and
logprobs as JSON text.  A first encode of a K = 513 event costs about
0.8x the client's whole ingest of it (1.15x its json.loads alone), and
most of it is the float reprs, so the stored bytes still keep a
re-encode per request from pacing the client.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from . import jsonl
from .errors import SyncThinkError, UnsupportedProbeError
from .policy import Distribution
from .trace import TraceFile, answer_pieces, token_text

# every chunk's bytes before its delta
_CHUNK_HEAD = ('data: {"id":"stub-chunk","object":"chat.completion.chunk",'
               '"choices":[{"index":0,"delta":')


def _event(delta: str, finish: str = "null", logprobs_text: str = "") -> bytes:
    """One SSE chunk from the JSON texts of its delta, finish reason and,
    unless empty, logprobs: the bytes json.dumps writes, compact, for
    {"id", "object", "choices": [{"index", "delta", "finish_reason",
    "logprobs"}]}."""
    tail = ',"logprobs":' + logprobs_text if logprobs_text else ""
    return (_CHUNK_HEAD + delta + ',"finish_reason":' + finish + tail + "}]}\n\n").encode("ascii")


def _content(text: str) -> str:
    """A delta that streams text, as JSON text."""
    return '{"content":' + json.dumps(text) + "}"


def _entry_head(token_json: str) -> str:
    """A logprobs entry up to its logprob's text, as json.dumps writes it."""
    return '{"token":' + token_json + ',"logprob":'


class StubServer:
    """One trace behind an HTTP endpoint; start() before use."""

    def __init__(self, trace: TraceFile):
        self.trace = trace
        watched = trace.header.watched_token
        self.terminator_text = token_text(watched, watched)
        # each distinct token's top-K entry up to its logprob, as JSON
        # text (K + 1 entries for a synthetic trace), each step's top-K in
        # step order, and the error that stopped the loader, if one did
        self._entries: dict = {}
        self._rows: list[Distribution] = []
        self._load_error: Exception | None = None
        self._loaded = threading.Condition()
        self._loader = threading.Thread(target=self._load_rows, daemon=True)
        self._loader.start()
        # (logprobs, width) -> each step's event bytes, None until first served
        self._events: dict[tuple[bool, int], list[bytes | None]] = {}
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), _make_handler(self))
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def base_url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def _load_rows(self) -> None:
        """Fill _rows and _entries from the trace, one step at a time."""
        watched = self.trace.header.watched_token
        entries = self._entries
        # one object per distinct token across re-read rows, whose tokens
        # json.loads made afresh (28 bytes for each id above 256)
        tokens: dict = {}
        try:
            for step, topk in zip(self.trace.steps, self.trace.iter_topk()):
                if step.topk is None:
                    topk = Distribution(list(map(tokens.setdefault, topk.tokens, topk.tokens)),
                                        topk.logprobs)
                for tok in set(topk.tokens).difference(entries):
                    entries[tok] = _entry_head(json.dumps(token_text(tok, watched)))
                with self._loaded:
                    self._rows.append(topk)
                    self._loaded.notify_all()
        except Exception as exc:  # noqa: BLE001 - handed to every waiting request
            with self._loaded:
                self._load_error = exc
                self._loaded.notify_all()

    def _row(self, i: int) -> Distribution:
        """Step i's top-K once the loader has it; the loader's error if it
        stopped before step i."""
        rows = self._rows
        if i >= len(rows):
            with self._loaded:
                self._loaded.wait_for(lambda: i < len(rows) or self._load_error is not None)
            if i >= len(rows):
                raise self._load_error
        return rows[i]

    def step_event(self, i: int, logprobs: bool, width: int) -> bytes:
        """SSE bytes of step i for one request shape, encoded on first use.

        Concurrent requests may both encode a step; they store equal bytes.
        """
        events = self._events.get((logprobs, width))
        if events is None:  # not setdefault, which would build the list every step
            events = self._events.setdefault((logprobs, width), [None] * len(self.trace.steps))
        event = events[i]
        if event is None:
            text = self.trace.steps[i].chosen_text
            if logprobs:
                event = self._logprobs_event(text, self._row(i), width)
            else:
                event = _event(_content(text))
            events[i] = event
        return event

    def _logprobs_event(self, text: str, topk: Distribution, width: int) -> bytes:
        """The event of a step's text and its top-K cut to width, its logprobs
        spliced from each token's entry head and the text of each logprob."""
        cut = slice(width or None)
        entries = list(map(self._entries.__getitem__, topk.tokens[cut]))
        values = jsonl.float_texts(topk.logprobs[cut].tolist())
        # the chosen text's last entry, the one dict(zip(tokens, lps)) would
        # keep: equal wire texts have equal entry heads
        rev = entries[::-1]
        chosen = _entry_head(json.dumps(text))
        chosen_lp = values[~rev.index(chosen)] if chosen in rev else "0.0"
        top = ",".join([entry + value + "}" for entry, value in zip(entries, values)])
        return _event(_content(text), "null",
                      '{"content":[' + chosen + chosen_lp + ',"top_logprobs":[' + top + "]}]}")

    def match_prefix(self, partial: str) -> tuple[int, str]:
        """Longest run of step texts prefixing the partial, plus the rest."""
        pos = matched = 0
        for step in self.trace.steps:
            if not partial.startswith(step.chosen_text, pos):
                break
            pos += len(step.chosen_text)
            matched += 1
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


def _read_request(raw: bytes) -> tuple[dict, str | None, int]:
    """A chat completions request body, the content of its last assistant
    message (None if it has none) and its top-K width (0 for full).

    Raises ValueError naming the field at fault.
    """
    try:
        body = json.loads(raw or b"{}")
    except (ValueError, RecursionError):
        raise ValueError("malformed JSON body") from None
    if not isinstance(body, dict):
        raise ValueError("request body must be a JSON object")
    messages = body.get("messages")
    if messages is None:
        messages = []
    elif not isinstance(messages, list) or not all(isinstance(m, dict) for m in messages):
        raise ValueError("messages must be a list of objects")
    width = body.get("top_logprobs")
    if width is None:
        width = 0
    elif type(width) is not int or width < 0:
        raise ValueError(f"top_logprobs must be a non-negative integer, got {json.dumps(width)}")
    assistant = next((m for m in reversed(messages) if m.get("role") == "assistant"), None)
    if assistant is None:
        return body, None, width
    partial = assistant.get("content") or ""
    if not isinstance(partial, str):
        raise ValueError("assistant message content must be a string")
    return body, partial, width


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
            length = self.headers.get("Content-Length", "0")
            if not (length.isascii() and length.isdigit()):
                self._error(400, f"Content-Length must be a non-negative integer,"
                                 f" got {length!r}")
                return
            try:
                body, partial, width = _read_request(self.rfile.read(int(length)))
            except ValueError as exc:
                self._error(400, str(exc))
                return
            if partial is None:
                self._main_stream(body, width)
            else:
                self._branch(partial)

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

        def _main_stream(self, body: dict, width: int):
            if not body.get("stream"):
                self._error(400, "stub serves the main generation as a stream")
                return
            want_logprobs = bool(body.get("logprobs"))
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.end_headers()
            self._send(_event('{"role":"assistant"}'))
            try:
                for i in range(len(server.trace.steps)):
                    self._send(server.step_event(i, want_logprobs, width))
            except SyncThinkError:
                return  # a row that cannot be served ends the stream short
            stop = server.trace.natural_stop
            if stop is not None:  # a trace that never stops has no answer
                for piece in answer_pieces(server.trace.answer_at(stop + 1)):
                    self._send(_event(_content(piece)))
            self._send(_event("{}", '"stop"'))
            self._send(b"data: [DONE]\n\n")

        def _branch(self, partial: str):
            matched, rest = server.match_prefix(partial)
            terminator, newline, suffix = rest.partition("\n")
            if terminator != server.terminator_text:
                self._error(400, "assistant partial does not continue the trace")
                return
            # a probe's partial holds its decision step's own token
            try:
                answer = (server.trace.probe_at(matched - 1, suffix) if newline
                          else server.trace.answer_at(matched))
            except UnsupportedProbeError as exc:
                self._error(400, str(exc))
                return
            tokens = len(answer_pieces(answer))
            self._reply(200, {
                "id": "stub-completion",
                "object": "chat.completion",
                "choices": [{"index": 0, "message": {"role": "assistant", "content": answer},
                             "finish_reason": "stop"}],
                "usage": {"prompt_tokens": matched + 1, "completion_tokens": tokens,
                          "total_tokens": matched + 1 + tokens},
            })

    return Handler
