"""Stopping rules for reasoning-phase decoding.

The main rule watches the rank of a designated terminator token.  A stop
fires at step t when that rank is at or below

    floor(min(t, pacing_cap) * exp(-entropy_weight * entropy))

so the bar rises as reasoning progresses and drops when the model is
uncertain.  Baselines share the same decision-point shape: stop after a
fixed fraction of a reference length, or once branch-probed answers
stabilize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Union

from .errors import ConfigurationError, MalformedDistributionError

TokenId = Union[int, str]

# tolerance on probability mass bookkeeping
MASS_TOLERANCE = 1e-6

# every policy the controller runs, in canonical report order
POLICIES = ("syncthink", "full", "none", "fixed_ratio", "answer_convergence")


class StopReason(str, Enum):
    THRESHOLD_FIRED = "threshold_fired"
    NATURAL_TERMINATION = "natural_termination"
    BUDGET_EXHAUSTED = "budget_exhausted"
    NOT_TRIGGERED = "not_triggered"


@dataclass(frozen=True)
class PolicyConfig:
    """Parameters of the rank-threshold stopping rule."""

    watched_token: TokenId = 0
    entropy_weight: float = 0.8
    pacing_cap: int = 512
    min_steps: int = 16
    check_interval: int = 1

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class Distribution:
    """A next-token probability distribution, possibly truncated.

    probs holds (token, probability) pairs for the explicitly known
    tokens; tail_mass is the total probability of everything else.
    Explicit probabilities plus the tail must account for all the mass.
    """

    probs: tuple[tuple[TokenId, float], ...]
    tail_mass: float = 0.0

    @classmethod
    def from_topk_logprobs(cls, pairs: Sequence[tuple[TokenId, float]]) -> "Distribution":
        """Build from (token, logprob) pairs; unseen mass becomes the tail."""
        probs = tuple((tok, math.exp(lp)) for tok, lp in pairs)
        tail = 1.0 - math.fsum(p for _, p in probs)
        return cls(probs=probs, tail_mass=max(0.0, tail))

    def validate(self) -> None:
        if not self.probs:
            raise MalformedDistributionError("distribution has no explicit tokens")
        seen: set[TokenId] = set()
        for tok, p in self.probs:
            if tok in seen:
                raise MalformedDistributionError(f"duplicate token {tok!r}")
            seen.add(tok)
            if not math.isfinite(p) or p < 0.0:
                raise MalformedDistributionError(
                    f"negative or non-finite probability {p!r} for token {tok!r}"
                )
        if not math.isfinite(self.tail_mass) or self.tail_mass < 0.0:
            raise MalformedDistributionError(
                f"negative or non-finite tail mass {self.tail_mass!r}"
            )
        total = math.fsum(p for _, p in self.probs) + self.tail_mass
        if abs(total - 1.0) > MASS_TOLERANCE:
            raise MalformedDistributionError(
                f"probability mass sums to {total!r}, off by more than {MASS_TOLERANCE}"
            )


@dataclass(frozen=True)
class StopDecision:
    """Outcome of one decision point.

    stop=True with reason THRESHOLD_FIRED guarantees rank <= threshold;
    stop=False always carries reason NOT_TRIGGERED.
    """

    stop: bool
    threshold: int
    rank: int
    entropy: float
    reason: StopReason

    def __post_init__(self) -> None:
        if self.stop and self.reason is StopReason.NOT_TRIGGERED:
            raise ConfigurationError("stop=True requires a firing reason")
        if not self.stop and self.reason is not StopReason.NOT_TRIGGERED:
            raise ConfigurationError("stop=False requires reason=not_triggered")
        if self.stop and self.reason is StopReason.THRESHOLD_FIRED:
            if self.rank > self.threshold:
                raise ConfigurationError(
                    f"threshold_fired with rank {self.rank} > threshold {self.threshold}"
                )


def _as_pairs(
    scores: Union[Distribution, Sequence[float], Sequence[tuple[TokenId, float]]],
) -> tuple[tuple[TokenId, float], ...]:
    if isinstance(scores, Distribution):
        return scores.probs
    seq = list(scores)
    if not seq:
        raise MalformedDistributionError("empty score collection")
    first = seq[0]
    if isinstance(first, (tuple, list)) and len(first) == 2:
        return tuple((tok, float(s)) for tok, s in seq)
    return tuple(enumerate(float(s) for s in seq))


def compute_rank(
    scores: Union[Distribution, Sequence[float], Sequence[tuple[TokenId, float]]],
    watched: TokenId,
) -> tuple[int, bool]:
    """Rank of the watched token: entries scoring strictly above it.

    Ties resolve in the watched token's favor (rank 0 means nothing
    scores higher).  Works on any monotone score scale: probabilities,
    logprobs, or raw logits.  When the watched token is absent from a
    truncated score list, the rank is censored at the list length and
    the second element of the result is True.
    """
    pairs = _as_pairs(scores)
    watched_score = None
    for tok, s in pairs:
        if tok == watched:
            if watched_score is not None:
                raise MalformedDistributionError(f"duplicate token {watched!r}")
            watched_score = s
    if watched_score is None:
        return len(pairs), True
    rank = sum(1 for _, s in pairs if s > watched_score)
    return rank, False


def shannon_entropy(
    dist: Union[Distribution, Sequence[float], Sequence[tuple[TokenId, float]]],
) -> float:
    """Entropy in nats; a positive tail counts as one pseudo-token."""
    if not isinstance(dist, Distribution):
        dist = Distribution(probs=_as_pairs(dist), tail_mass=0.0)
    dist.validate()
    terms = [-p * math.log(p) for _, p in dist.probs if p > 0.0]
    if dist.tail_mass > 0.0:
        terms.append(-dist.tail_mass * math.log(dist.tail_mass))
    return max(0.0, math.fsum(terms))


def dynamic_threshold(t: int, entropy: float, config: PolicyConfig) -> int:
    """Rank bar at step t: floor(min(t, cap) * exp(-weight * entropy)).

    Total on t >= 0 and entropy >= 0; grows with t up to the pacing cap
    and shrinks as entropy rises.
    """
    pacing = min(t, config.pacing_cap)
    return math.floor(pacing * math.exp(-config.entropy_weight * entropy))


def should_stop(t: int, observation, config: PolicyConfig) -> StopDecision:
    """Evaluate the rank-threshold rule at one decision point.

    observation needs watched_rank and entropy attributes.  Steps before
    min_steps and steps off the check_interval grid never fire, but the
    decision still records the rank, entropy, and threshold seen there.
    Censored ranks participate unchanged: a rank censored at K can still
    only fire if K itself is at or below the threshold.
    """
    rank = observation.watched_rank
    entropy = observation.entropy
    threshold = dynamic_threshold(t, entropy, config)
    due = t >= config.min_steps and t % config.check_interval == 0
    fired = due and rank <= threshold
    return StopDecision(
        stop=fired,
        threshold=threshold,
        rank=rank,
        entropy=entropy,
        reason=StopReason.THRESHOLD_FIRED if fired else StopReason.NOT_TRIGGERED,
    )


def fixed_ratio_stop(t: int, full_length: int, ratio: float) -> bool:
    """Stop once t reaches ceil(ratio * full_length) decision points."""
    if not (0.0 < ratio <= 1.0):
        raise ConfigurationError(f"ratio must be in (0, 1], got {ratio!r}")
    if full_length < 1:
        raise ConfigurationError(f"full_length must be >= 1, got {full_length!r}")
    if t < 0:
        raise ConfigurationError(f"t must be >= 0, got {t!r}")
    return t >= math.ceil(ratio * full_length)


def answer_convergence_stop(probe_answers: Sequence[str], k: int) -> bool:
    """True once the last k probed answers are non-empty and identical."""
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k!r}")
    if len(probe_answers) < k:
        return False
    tail = probe_answers[-k:]
    return all(a != "" and a == tail[0] for a in tail)
