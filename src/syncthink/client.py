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
the watched token is configured as text (for example "</think>").
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import requests

from .errors import CapabilityError, ConfigurationError, SessionError
from .policy import Distribution, compute_rank, shannon_entropy
from .trace import StepObservation


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    model: str
    api_key: str = ""
    top_logprobs: int = 513
    max_new_tokens: int = 8192
    timeout: float = 120.0

    def __post_init__(self) -> None:
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


def connect_endpoint(
    base_url: str,
    model: str,
    *,
    api_key: str = "",
    top_logprobs: int = 513,
    max_new_tokens: int = 8192,
    timeout: float = 120.0,
) -> "EndpointFactory":
    """Build a session factory for one endpoint; no network traffic yet."""
    return EndpointFactory(
        EndpointConfig(
            base_url=base_url.rstrip("/"),
            model=model,
            api_key=api_key,
            top_logprobs=top_logprobs,
            max_new_tokens=max_new_tokens,
            timeout=timeout,
        )
    )


class EndpointFactory:
    """Opens live sessions; safe to share across threads."""

    def __init__(self, config: EndpointConfig):
        self.config = config

    def open_session(
        self, prompt: str, *, watched_token: str, pacing_cap: int = 512
    ) -> "LiveSession":
        """Start one streamed generation watching for watched_token.

        Refuses to open when the configured top_logprobs cannot prove a
        censored rank is above any reachable threshold.
        """
        if pacing_cap < 0:
            raise ConfigurationError(f"pacing_cap must be >= 0, got {pacing_cap!r}")
        if self.config.top_logprobs < pacing_cap + 1:
            raise CapabilityError(
                f"top_logprobs={self.config.top_logprobs} cannot cover"
                f" pacing cap {pacing_cap} + 1; censored ranks would be unsound"
            )
        return LiveSession(self.config, prompt, watched_token, pacing_cap)


def _sorted_pairs(top: list) -> list[tuple[str, float]]:
    pairs = [(item["token"], float(item["logprob"])) for item in top]
    # servers send descending already; a stable sort keeps tie order
    pairs.sort(key=lambda pair: -pair[1])
    return pairs


class LiveSession:
    """One streamed generation plus its branch requests.

    Single-consumer: iterate for reasoning observations, then call
    answer_after exactly once.  probe_with_time issues an auxiliary
    completion without disturbing the main stream.
    """

    def __init__(self, config: EndpointConfig, prompt: str, watched_token: str, pacing_cap: int):
        self._config = config
        self._prompt = prompt
        self.watched_token = watched_token
        self._pacing_cap = pacing_cap
        self._http = requests.Session()
        if config.api_key:
            self._http.headers["Authorization"] = f"Bearer {config.api_key}"
        self._texts: list[str] = []
        self._t = -1
        self._natural = False
        self._exhausted = False
        self._saw_done = False
        self._resp = self._post(self._messages(), stream=True, logprobs=True)
        self._events = self._event_iter(self._resp)
        self._mark = time.perf_counter()

    def _messages(self, assistant: str | None = None) -> list[dict]:
        messages = [{"role": "user", "content": self._prompt}]
        if assistant is not None:
            messages.append({"role": "assistant", "content": assistant})
        return messages

    def _post(self, messages: list[dict], *, stream: bool, logprobs: bool):
        body = {
            "model": self._config.model,
            "messages": messages,
            "stream": stream,
            "temperature": 0,
            "max_tokens": self._config.max_new_tokens,
        }
        if logprobs:
            body["logprobs"] = True
            body["top_logprobs"] = self._config.top_logprobs
        try:
            resp = self._http.post(
                f"{self._config.base_url}/v1/chat/completions",
                json=body,
                stream=stream,
                timeout=self._config.timeout,
            )
        except requests.RequestException as exc:
            raise SessionError(f"request to {self._config.base_url} failed: {exc}") from exc
        if resp.status_code != 200:
            detail = resp.text[:200]
            resp.close()
            raise SessionError(f"endpoint returned HTTP {resp.status_code}: {detail}")
        return resp

    def _event_iter(self, resp):
        for line in resp.iter_lines(decode_unicode=True):
            if not line or not line.startswith("data:"):
                continue
            payload = line[5:].strip()
            if payload == "[DONE]":
                self._saw_done = True
                return
            yield json.loads(payload)

    def __iter__(self):
        return self

    def __next__(self) -> StepObservation:
        if self._natural or self._exhausted:
            raise StopIteration
        try:
            for event in self._events:
                choices = event.get("choices") or []
                if not choices:
                    continue
                choice = choices[0]
                content = (choice.get("delta") or {}).get("content")
                if not content:
                    continue
                return self._observe(choice, content)
        except (requests.RequestException, ValueError) as exc:
            raise SessionError(f"stream failed at step {self._t + 1}: {exc}") from exc
        if not self._saw_done:
            raise SessionError(f"stream ended without completion sentinel at step {self._t + 1}")
        self._exhausted = True
        raise StopIteration

    def _observe(self, choice: dict, content: str) -> StepObservation:
        now = time.perf_counter()
        wall = now - self._mark
        self._mark = now
        lp_block = choice.get("logprobs") or {}
        entries = lp_block.get("content") or []
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
        pairs = _sorted_pairs(top)
        rank, censored = compute_rank(pairs, self.watched_token)
        if censored and len(pairs) < self._pacing_cap + 1:
            raise CapabilityError(
                f"server returned top-{len(pairs)} without the watched token;"
                f" ranks censored below pacing cap {self._pacing_cap} + 1 are unsound"
            )
        entropy = shannon_entropy(Distribution.from_topk_logprobs(pairs))
        token = entry.get("token", content)
        self._t += 1
        observation = StepObservation(
            t=self._t,
            chosen_token=token,
            chosen_text=content,
            topk=tuple(pairs),
            watched_rank=rank,
            censored=censored,
            entropy=entropy,
            step_wall_time=wall,
        )
        self._texts.append(content)
        if token == self.watched_token:
            self._natural = True
        return observation

    def _drain_answer(self) -> tuple[str, int]:
        parts: list[str] = []
        try:
            for event in self._events:
                choices = event.get("choices") or []
                if not choices:
                    continue
                content = (choices[0].get("delta") or {}).get("content")
                if content:
                    parts.append(content)
        except (requests.RequestException, ValueError) as exc:
            raise SessionError(f"answer stream failed: {exc}") from exc
        if not self._saw_done:
            raise SessionError("answer stream ended without completion sentinel")
        return "".join(parts), len(parts)

    def _completion(self, assistant: str) -> tuple[str, int]:
        resp = self._post(self._messages(assistant), stream=False, logprobs=False)
        try:
            data = resp.json()
        except ValueError as exc:
            raise SessionError(f"branch completion returned malformed JSON: {exc}") from exc
        finally:
            resp.close()
        try:
            text = data["choices"][0]["message"]["content"] or ""
        except (KeyError, IndexError, TypeError) as exc:
            raise SessionError(f"branch completion missing choices content: {exc}") from exc
        usage = data.get("usage") or {}
        tokens = int(usage.get("completion_tokens", len(text.split())))
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
        # the event generator's frame refers back to this session; closing
        # it breaks that cycle so the session is freed by reference count
        self._events.close()
        try:
            self._resp.close()
        finally:
            self._http.close()
