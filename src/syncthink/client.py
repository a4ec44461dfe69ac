"""Live streaming client for OpenAI-compatible chat completion endpoints.

A session is a controller source: it yields one StepObservation per
streamed reasoning token, computing the watched token's rank and the
next-token entropy from the per-token top-K logprobs the server returns.
Requests pin greedy decoding (temperature 0).

Soundness over availability: a session refuses to open when the
configured K cannot cover the pacing cap plus one, and refuses to
continue when the server returns a narrower list than that while the
watched token is outside it.  In both situations a censored rank could
fall at or below the threshold and fire spuriously.

Token identifiers on this path are the token strings off the wire, so
the watched token is configured as text (for example trace.WATCHED_TEXT).

Each streamed token's top-K list is read once into a Distribution,
sorted descending only when one vectorised check finds it is not already
(a stable argsort, so ties keep server order); rank and entropy are
computed from its arrays.  An event of the wrong shape (a missing field,
a payload that is not an object) or a top-K that fails policy.topk_probs,
the rule replay applies too, ends the session with SessionError naming
the step, so the record keeps the steps before it.

HTTP is the standard library's: urllib honours HTTP(S)_PROXY/NO_PROXY and
verifies HTTPS against the system trust store.  The event stream is read
line by line, so each token reaches the controller as soon as its line
ends, on close-delimited and chunked responses alike.  One method reads
it, for the reasoning steps and for a natural stop's answer alike, and
the session holds the response, not a generator over it, so nothing
refers back to the session and it is freed by reference count.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from http.client import HTTPException
from operator import itemgetter

import numpy as np

from .controller import DEFAULT_BUDGET
from .errors import CapabilityError, ConfigurationError, MalformedDistributionError, SessionError
from .policy import Distribution, PolicyConfig, compute_rank, shannon_entropy
from .trace import StepObservation, answer_pieces


@dataclass(frozen=True)
class EndpointFactory:
    """One endpoint's settings, checked when made; opens live sessions and
    is safe to share across threads.  Making one sends no traffic."""

    base_url: str
    model: str
    api_key: str = field(default="", repr=False)  # a credential stays out of logs
    top_logprobs: int = 513
    max_new_tokens: int = DEFAULT_BUDGET
    timeout: float = 120.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "base_url", self.base_url.rstrip("/"))
        if not self.base_url:
            raise ConfigurationError("base_url must be non-empty")
        if not self.model:
            raise ConfigurationError("model must be non-empty")
        if self.top_logprobs < 1:
            raise ConfigurationError(
                f"top_logprobs must be >= 1, got {self.top_logprobs!r}"
            )
        if self.max_new_tokens < 1:
            raise ConfigurationError(
                f"max_new_tokens must be >= 1, got {self.max_new_tokens!r}"
            )
        if self.timeout <= 0:
            raise ConfigurationError(f"timeout must be > 0, got {self.timeout!r}")

    def check_cover(self, pacing_cap: int) -> None:
        """Refuse a pacing cap whose censored ranks top_logprobs cannot prove
        above every reachable threshold: K must cover pacing_cap + 1.
        PolicyConfig owns the cap's range."""
        if self.top_logprobs < pacing_cap + 1:
            raise CapabilityError(
                f"top_logprobs={self.top_logprobs} cannot cover"
                f" pacing cap {pacing_cap} + 1; censored ranks would be unsound"
            )

    def open_session(
        self, prompt: str, *, watched_token: str, pacing_cap: int = PolicyConfig.pacing_cap
    ) -> "LiveSession":
        """Start one streamed generation watching for watched_token, once
        check_cover accepts the pacing cap."""
        self.check_cover(pacing_cap)
        return LiveSession(self, prompt, watched_token, pacing_cap)


# README's entry point: the factory, built from the endpoint's settings
connect_endpoint = EndpointFactory


_TOKEN = itemgetter("token")
_LOGPROB = itemgetter("logprob")
# what a malformed event raises while its fields are read: a missing key
# or index, a value of the wrong type, bytes that are not JSON or nest too
# deep to parse, or a count of 1e400, which json reads as inf
_MALFORMED = (LookupError, TypeError, AttributeError, ValueError, OverflowError,
              RecursionError)


class LiveSession:
    """One streamed generation plus its branch requests.

    Single-consumer: iterate for reasoning observations, then call
    answer_after exactly once.  probe_with_time issues an auxiliary
    completion without disturbing the main stream.  Censored ranks are
    sound up to pacing_cap, the cap a syncthink config may use at most.
    """

    def __init__(self, endpoint: EndpointFactory, prompt: str, watched_token: str,
                 pacing_cap: int):
        self._endpoint = endpoint
        self._prompt = prompt
        self.watched_token = watched_token
        self.pacing_cap = pacing_cap
        self._texts: list[str] = []
        self._t = -1
        self._natural = False
        self._saw_done = False
        self._resp = self._post(self._messages(), stream=True)
        self._mark = time.perf_counter()

    def _messages(self, assistant: str | None = None) -> list[dict]:
        messages = [{"role": "user", "content": self._prompt}]
        if assistant is not None:
            messages.append({"role": "assistant", "content": assistant})
        return messages

    def _post(self, messages: list[dict], *, stream: bool):
        """POST a completion request; only the stream asks for logprobs."""
        endpoint = self._endpoint
        body = {
            "model": endpoint.model,
            "messages": messages,
            "stream": stream,
            "temperature": 0,
            "max_tokens": endpoint.max_new_tokens,
        }
        if stream:
            body["logprobs"] = True
            body["top_logprobs"] = endpoint.top_logprobs
        headers = {"Content-Type": "application/json"}
        if endpoint.api_key:
            headers["Authorization"] = f"Bearer {endpoint.api_key}"
        request = urllib.request.Request(
            f"{endpoint.base_url}/v1/chat/completions",
            data=json.dumps(body).encode("utf-8"),
            headers=headers,
            method="POST",
        )
        try:
            return urllib.request.urlopen(request, timeout=endpoint.timeout)
        except urllib.error.HTTPError as exc:
            with exc:
                detail = exc.read(200).decode("utf-8", "replace")
            raise SessionError(f"endpoint returned HTTP {exc.code}: {detail}") from exc
        except (OSError, HTTPException) as exc:
            raise SessionError(f"request to {endpoint.base_url} failed: {exc}") from exc

    def _next_text(self) -> tuple[str, dict] | None:
        """The next event that streams text, as its text and its choice.

        None at the end of the stream; _saw_done tells whether [DONE]
        ended it, and nothing is read past [DONE].
        """
        if self._saw_done:
            return None
        for line in self._resp:
            if not line.startswith(b"data:"):
                continue
            payload = line[5:].strip()
            if payload == b"[DONE]":
                self._saw_done = True
                return None
            choices = json.loads(payload).get("choices") or []
            if not choices:
                continue
            choice = choices[0]
            content = (choice.get("delta") or {}).get("content")
            if not content:
                continue
            if not isinstance(content, str):
                raise TypeError(f"delta content is {type(content).__name__}, not text")
            return content, choice
        return None

    def __iter__(self):
        return self

    def __next__(self) -> StepObservation:
        if self._natural:
            raise StopIteration
        try:
            event = self._next_text()
            if event is not None:
                return self._step(*event)
        except (OSError, HTTPException, MalformedDistributionError, *_MALFORMED) as exc:
            raise SessionError(
                f"stream failed at step {self._t + 1}: {type(exc).__name__}: {exc}"
            ) from exc
        if not self._saw_done:
            raise SessionError(
                f"stream ended without completion sentinel at step {self._t + 1}"
            )
        raise StopIteration

    def _step(self, content: str, choice: dict) -> StepObservation:
        """The observation of one streamed token from its text and choice."""
        entries = (choice.get("logprobs") or {}).get("content") or []
        if not entries:
            raise CapabilityError(
                "endpoint streams tokens without logprobs.content;"
                " per-token logprobs are required"
            )
        entry = entries[0]
        top = entry.get("top_logprobs") or []
        if not top:
            raise CapabilityError(
                "endpoint omits top_logprobs on streamed tokens;"
                " per-token top-K logprobs are required"
            )
        dist = Distribution(list(map(_TOKEN, top)), list(map(_LOGPROB, top)))
        token = entry.get("token", content)
        now = time.perf_counter()
        wall = now - self._mark
        self._mark = now
        # servers send descending already; a stable sort keeps tie order,
        # and a NaN fails the check, is sorted last and is rejected below
        logprobs = dist.logprobs
        if not (logprobs[:-1] >= logprobs[1:]).all():
            order = np.argsort(-logprobs, kind="stable")
            dist = Distribution(list(map(dist.tokens.__getitem__, order.tolist())),
                                logprobs[order])
        rank, censored = compute_rank(dist, self.watched_token)
        if censored and len(dist.tokens) < self.pacing_cap + 1:
            raise CapabilityError(
                f"server returned top-{len(dist.tokens)} without the watched token;"
                f" ranks censored below pacing cap {self.pacing_cap} + 1 are unsound"
            )
        entropy = shannon_entropy(dist, token)
        self._t += 1
        self._texts.append(content)
        self._natural = token == self.watched_token
        return StepObservation(
            t=self._t,
            chosen_token=token,
            chosen_text=content,
            topk=dist,
            watched_rank=rank,
            censored=censored,
            entropy=entropy,
            step_wall_time=wall,
        )

    def _drain_answer(self) -> tuple[str, int]:
        parts: list[str] = []
        try:
            while (event := self._next_text()) is not None:
                parts.append(event[0])
        except (OSError, HTTPException, *_MALFORMED) as exc:
            raise SessionError(f"answer stream failed: {type(exc).__name__}: {exc}") from exc
        if not self._saw_done:
            raise SessionError("answer stream ended without completion sentinel")
        return "".join(parts), len(parts)

    def _completion(self, assistant: str) -> tuple[str, int]:
        with self._post(self._messages(assistant), stream=False) as resp:
            try:
                data = json.loads(resp.read())
            except (OSError, HTTPException, ValueError, RecursionError) as exc:
                raise SessionError(f"branch completion failed: {exc}") from exc
        try:
            text = data["choices"][0]["message"]["content"] or ""
            if not isinstance(text, str):
                raise TypeError(f"message content is {type(text).__name__}, not text")
            usage = data.get("usage") or {}
            tokens = usage.get("completion_tokens", len(answer_pieces(text)))
            # int() refuses null, "many" and inf; "5", 5.7 and true, which
            # it takes, are not JSON integers
            if int(tokens) < 0:
                raise ValueError(f"completion_tokens {tokens} < 0")
            if type(tokens) is not int:
                raise TypeError(f"completion_tokens {tokens!r} is not a JSON integer")
        except _MALFORMED as exc:
            raise SessionError(
                f"branch completion is malformed: {type(exc).__name__}: {exc}"
            ) from exc
        return text, tokens

    def probe_with_time(self, suffix: str) -> tuple[str, float]:
        """Answer the model would give if forced now; main stream untouched."""
        start = time.perf_counter()
        partial = "".join(self._texts) + self.watched_token + "\n" + suffix
        text, _ = self._completion(partial)
        return text, time.perf_counter() - start

    def answer_after(self, t: int, injected: bool) -> tuple[str, int, float]:
        """Answer text once reasoning ended at step t.

        Natural stops read the rest of the open stream; injected stops
        abandon it and continue from the kept prefix plus the terminator.
        """
        start = time.perf_counter()
        if injected:
            self._resp.close()
            partial = "".join(self._texts[:t]) + self.watched_token
            text, tokens = self._completion(partial)
        else:
            text, tokens = self._drain_answer()
        return text, tokens, time.perf_counter() - start

    def close(self) -> None:
        self._resp.close()
