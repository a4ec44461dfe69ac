"""Stopping rules for reasoning-phase decoding.

The main rule watches the rank of a designated terminator token.  A stop
fires at step t when that rank is at or below

    floor(min(t, pacing_cap) * exp(-entropy_weight * entropy))

so the bar rises as reasoning progresses and drops when the model is
uncertain.  should_stop is that rule and returns a bool.  Baselines
share the same decision-point shape: stop after a fixed fraction of a
reference length, or once branch-probed answers stabilize.

The per-step signals are computed over numpy arrays: a Distribution holds
one token list and one float64 logprob array, and nothing derived from
them.  compute_rank counts the entries strictly above the watched one, so
ties go to the watched token whatever the list order; it takes a
Distribution or (token, score) pairs.  topk_probs is the one rule of
what a step's top-K may be, in replay and live alike.  shannon_entropy
applies it and reuses its exp; the live client, the synthetic generator
and any re-derivation from a trace's top-K all call it, so they agree
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Union

import numpy as np

from .errors import ConfigurationError, MalformedDistributionError

TokenId = Union[int, str]

# how far past 1 a top-K's probabilities may sum
MASS_TOLERANCE = 1e-6
# how far, relative, a step's recorded entropy may lie from its top-K's
ENTROPY_TOLERANCE = 1e-9
# the types of a token, in a top-K or chosen: a JSON integer or string
_TOKEN_TYPES = (int, str)

# every policy the controller runs, in canonical report order
POLICIES = ("syncthink", "full", "none", "fixed_ratio", "answer_convergence")


class StopReason(str, Enum):
    THRESHOLD_FIRED = "threshold_fired"
    NATURAL_TERMINATION = "natural_termination"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True)
class PolicyConfig:
    """Parameters of the rank-threshold stopping rule."""

    watched_token: TokenId = 0
    entropy_weight: float = 0.8
    pacing_cap: int = 512
    min_steps: int = 16
    check_interval: int = 1

    def __post_init__(self) -> None:
        if self.watched_token == "":
            raise ConfigurationError("watched_token must be an id or non-empty text")
        if not (self.entropy_weight >= 0.0 and math.isfinite(self.entropy_weight)):
            raise ConfigurationError(
                f"entropy_weight must be finite and >= 0, got {self.entropy_weight!r}"
            )
        if self.pacing_cap < 1:
            raise ConfigurationError(f"pacing_cap must be >= 1, got {self.pacing_cap!r}")
        if self.min_steps < 0:
            raise ConfigurationError(f"min_steps must be >= 0, got {self.min_steps!r}")
        if self.check_interval < 1:
            raise ConfigurationError(
                f"check_interval must be >= 1, got {self.check_interval!r}"
            )


@dataclass(frozen=True)
class BaselineConfig:
    """Parameters shared by the non-threshold policies.

    ratio drives the fixed-fraction policy; segment_len and convergence_k
    drive the answer-stability policy, which probes every segment_len
    steps and stops once the last convergence_k probed answers are
    non-empty and identical.
    """

    ratio: float = 0.5
    segment_len: int = 64
    convergence_k: int = 2
    probe_suffix: str = "Final answer:"

    def __post_init__(self) -> None:
        if not (0.0 < self.ratio <= 1.0):
            raise ConfigurationError(f"ratio must be in (0, 1], got {self.ratio!r}")
        if self.segment_len < 1:
            raise ConfigurationError(f"segment_len must be >= 1, got {self.segment_len!r}")
        if self.convergence_k < 1:
            raise ConfigurationError(
                f"convergence_k must be >= 1, got {self.convergence_k!r}"
            )


@dataclass(frozen=True, eq=False)
class Distribution:
    """A truncated next-token distribution, held as two parallel columns.

    tokens lists the explicitly known tokens and logprobs (float64) their
    log-probabilities, in the order given.  Nothing else is stored: the
    probabilities and the tail (the mass of every token not listed,
    max(0, 1 - sum(exp(logprobs)))) are derived when read.  Logprobs that
    are not numbers (a bool is none) or not one per token, in one
    dimension, raise MalformedDistributionError.
    """

    tokens: Sequence[TokenId]
    logprobs: np.ndarray

    def __post_init__(self) -> None:
        # a list off the wire, before float64 reads true as 1.0 and "-1" as -1.0
        if not isinstance(self.logprobs, np.ndarray):
            _check_types("topk logprob", self.logprobs, (int, float))
        logprobs = np.ascontiguousarray(self.logprobs, np.float64)
        if logprobs.ndim != 1 or len(logprobs) != len(self.tokens):
            raise MalformedDistributionError(
                f"{len(self.tokens)} tokens need one logprob each, got shape {logprobs.shape}"
            )
        object.__setattr__(self, "logprobs", logprobs)

    @property
    def tail_mass(self) -> float:
        return topk_probs(self)[1]

    @classmethod
    def from_topk_logprobs(cls, pairs: Sequence[tuple[TokenId, float]]) -> "Distribution":
        """Build from (token, logprob) pairs; unseen mass becomes the tail."""
        return cls(*_columns(pairs))


Scores = Union[Distribution, Sequence[tuple[TokenId, float]]]


def _columns(scores: Scores) -> tuple[Sequence[TokenId], np.ndarray]:
    """Token labels and float64 values: a Distribution's logprobs, or the
    (token, score) pairs split."""
    if isinstance(scores, Distribution):
        return scores.tokens, scores.logprobs
    if not scores:
        raise MalformedDistributionError("empty score collection")
    tokens, values = zip(*scores)
    return tokens, np.array(values, dtype=np.float64)


def _check_types(what: str, values, allowed: tuple[type, type]) -> None:
    """One C-level type pass; MalformedDistributionError names the others."""
    bad = set(map(type, values)).difference(allowed)
    if bad:
        names = ", ".join(sorted(kind.__name__ for kind in bad))
        first, second = (kind.__name__ for kind in allowed)
        raise MalformedDistributionError(f"{what} must be an {first} or a {second}, not {names}")


def compute_rank(scores: Scores, watched: TokenId) -> tuple[int, bool]:
    """Rank of the watched token: entries scoring strictly above it.

    Ties resolve in the watched token's favor (rank 0 means nothing
    scores higher).  Works on any monotone score scale of the pairs:
    probabilities, logprobs, or raw logits; a Distribution ranks by its
    logprobs.  When the watched token is absent from a truncated score
    list, the rank is censored at the list length and the second element
    of the result is True.
    """
    tokens, values = _columns(scores)
    try:
        i = tokens.index(watched)
    except ValueError:
        return len(tokens), True
    if watched in tokens[i + 1 :]:
        raise MalformedDistributionError(f"duplicate token {watched!r}")
    return int(np.count_nonzero(values > values[i])), False


def topk_probs(dist: Distribution, *chosen: TokenId) -> tuple[np.ndarray, float]:
    """The top-K rule: exp(logprobs) and the tail of a top-K that lists a
    token, whose tokens and each chosen token (the one the step emitted)
    are ints or strs, none listed twice, with no NaN or +inf logprob (-inf
    is a zero probability) and a mass of at most 1 + MASS_TOLERANCE; else
    MalformedDistributionError.  Distribution refuses non-number logprobs.
    """
    tokens, logprobs = dist.tokens, dist.logprobs
    if not len(tokens):
        raise MalformedDistributionError("empty topk")
    # types first: a set takes 1, 1.0 and True for one token
    _check_types("topk token", tokens, _TOKEN_TYPES)
    _check_types("chosen token", chosen, _TOKEN_TYPES)
    if len(set(tokens)) != len(tokens):
        raise MalformedDistributionError("duplicate token in topk")
    # above about 709 exp overflows to inf; a NaN or +inf logprob also
    # makes the mass fail, and is named apart
    with np.errstate(over="ignore"):
        probs = np.exp(logprobs)
    total = float(probs.sum())
    if not total <= 1.0 + MASS_TOLERANCE:
        if not (logprobs < math.inf).all():
            i = int(np.argmin(logprobs < math.inf))
            raise MalformedDistributionError(f"topk logprobs must be finite or -inf; token"
                                             f" {tokens[i]!r} has {float(logprobs[i])!r}")
        raise MalformedDistributionError(
            f"probability mass sums to {total!r}, above 1 + {MASS_TOLERANCE}")
    return probs, max(0.0, 1.0 - total)


def shannon_entropy(dist: Distribution, *chosen: TokenId) -> float:
    """Entropy in nats of a top-K that passes topk_probs, with the chosen
    tokens given; a positive tail counts as one pseudo-token."""
    probs, tail = topk_probs(dist, *chosen)
    p = probs[probs > 0.0]
    entropy = -float((p * np.log(p)).sum())
    if tail > 0.0:
        entropy -= tail * math.log(tail)
    return max(0.0, entropy)


def dynamic_threshold(t: int, entropy: float, config: PolicyConfig) -> int:
    """Rank bar at step t: floor(min(t, cap) * exp(-weight * entropy)).

    Total on t >= 0 and entropy >= 0; grows with t up to the pacing cap
    and shrinks as entropy rises.
    """
    pacing = min(t, config.pacing_cap)
    return math.floor(pacing * math.exp(-config.entropy_weight * entropy))


def should_stop(t: int, observation, config: PolicyConfig) -> bool:
    """The rank-threshold rule at one decision point: True when it fires.

    observation needs watched_rank and entropy attributes.  Steps before
    min_steps and steps off the check_interval grid never fire.  Censored
    ranks participate unchanged: a rank censored at K can still only fire
    if K itself is at or below the threshold.  The rule runs on every
    decoded step, so it builds nothing.
    """
    if t < config.min_steps or t % config.check_interval:
        return False
    return observation.watched_rank <= dynamic_threshold(t, observation.entropy, config)


def fixed_ratio_stop_step(full_length: int, ratio: float) -> int:
    """The step fixed_ratio stops at, ceil(ratio * full_length); one check per run."""
    if not (0.0 < ratio <= 1.0):
        raise ConfigurationError(f"ratio must be in (0, 1], got {ratio!r}")
    if full_length < 1:
        raise ConfigurationError(f"full_length must be >= 1, got {full_length!r}")
    return math.ceil(ratio * full_length)


def answer_convergence_stop(probe_answers: Sequence[str], k: int) -> bool:
    """True once the last k probed answers are non-empty and identical."""
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k!r}")
    if len(probe_answers) < k:
        return False
    tail = probe_answers[-k:]
    return all(a != "" and a == tail[0] for a in tail)
