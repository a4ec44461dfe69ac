"""Decision-rule tests against independent oracles.

The threshold oracle recomputes floor(min(t,cap)*exp(-w*H)) in 60-digit
arithmetic; the rank oracle sorts; the entropy oracle sums in mpmath.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

from syncthink.errors import ConfigurationError, MalformedDistributionError
from syncthink.policy import (
    BaselineConfig,
    Distribution,
    PolicyConfig,
    answer_convergence_stop,
    compute_rank,
    dynamic_threshold,
    fixed_ratio_stop_step,
    shannon_entropy,
    should_stop,
)


def oracle_threshold(t: int, entropy: float, weight: float, cap: int) -> int:
    """Arbitrary-precision reference for the rank bar."""
    with mpmath.workdps(60):
        value = mpmath.mpf(min(t, cap)) * mpmath.e ** (-mpmath.mpf(weight) * mpmath.mpf(entropy))
        return int(mpmath.floor(value))


def oracle_rank(scores: list[float], watched: int) -> int:
    """Rank by stable descending sort; watched wins ties."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i != watched))
    return order.index(watched)


def oracle_entropy(probs: list[float], tail: float = 0.0) -> float:
    with mpmath.workdps(60):
        total = mpmath.mpf(0)
        for p in probs:
            if p > 0:
                mp = mpmath.mpf(p)
                total -= mp * mpmath.log(mp)
        if tail > 0:
            mt = mpmath.mpf(tail)
            total -= mt * mpmath.log(mt)
        return float(total)


# The scalar ingest the vectorised one replaced, kept as its oracle: one
# Python step per (token, logprob) pair for the sort, the rank scan, the
# exponentials, the checks and an exactly rounded entropy sum.


def scalar_sorted_pairs(top: list[dict]) -> list[tuple[object, float]]:
    """Server top-K entries as pairs, stably sorted by logprob descending."""
    pairs = [(item["token"], float(item["logprob"])) for item in top]
    pairs.sort(key=lambda pair: -pair[1])
    return pairs


def scalar_rank(pairs, watched) -> tuple[int, bool]:
    if not pairs:
        raise MalformedDistributionError("empty score collection")
    watched_score = None
    for tok, s in pairs:
        if tok == watched:
            if watched_score is not None:
                raise MalformedDistributionError(f"duplicate token {watched!r}")
            watched_score = s
    if watched_score is None:
        return len(pairs), True
    return sum(1 for _, s in pairs if s > watched_score), False


def scalar_entropy(pairs) -> float:
    """Entropy of (token, logprob) pairs; the unlisted mass is the tail."""
    probs = [(tok, math.exp(lp)) for tok, lp in pairs]
    tail_mass = max(0.0, 1.0 - math.fsum(p for _, p in probs))
    if not probs:
        raise MalformedDistributionError("distribution has no explicit tokens")
    seen = set()
    for tok, p in probs:
        if tok in seen:
            raise MalformedDistributionError(f"duplicate token {tok!r}")
        seen.add(tok)
        if not math.isfinite(p) or p < 0.0:
            raise MalformedDistributionError(f"negative or non-finite probability {p!r}")
    total = math.fsum(p for _, p in probs) + tail_mass
    if abs(total - 1.0) > 1e-6:
        raise MalformedDistributionError(f"probability mass sums to {total!r}")
    terms = [-p * math.log(p) for _, p in probs if p > 0.0]
    if tail_mass > 0.0:
        terms.append(-tail_mass * math.log(tail_mass))
    return max(0.0, math.fsum(terms))


def random_top(rng, k: int) -> tuple[list[dict], str]:
    """A served top-K list and a watched token, as a server might send them.

    The K entries are drawn from K + extra tokens (extra > 0 leaves a
    positive tail), some logprobs are repeated to make ties, the order is
    shuffled half the time, and the watched token is present or absent.
    """
    extra = int(rng.integers(0, 2 * k + 1))
    logits = rng.standard_normal(k + extra) * 3.0
    lps = np.sort(logits - np.logaddexp.reduce(logits))[::-1][:k].tolist()
    if k >= 2 and rng.random() < 0.7:
        for _ in range(max(1, k // 8)):
            i, j = sorted(int(x) for x in rng.integers(0, k, 2))
            lps[i] = lps[j]  # lowering a logprob keeps the mass under 1
        lps.sort(reverse=True)
    *tokens, absent = [f"t{i}" for i in rng.permutation(k + 1)]
    top = [{"token": tok, "logprob": lp} for tok, lp in zip(tokens, lps)]
    if rng.random() < 0.5:
        top = [top[i] for i in rng.permutation(k)]
    watched = absent if rng.random() < 0.3 else tokens[int(rng.integers(0, k))]
    return top, watched


class TestDynamicThreshold:
    def test_matches_oracle_on_grid(self):
        cfg = PolicyConfig(entropy_weight=0.8, pacing_cap=512)
        rng = np.random.default_rng(7)
        for _ in range(200):
            t = int(rng.integers(0, 3000))
            h = float(rng.uniform(0.0, 8.0))
            assert dynamic_threshold(t, h, cfg) == oracle_threshold(t, h, 0.8, 512)

    def test_zero_entropy_gives_elapsed_steps(self):
        cfg = PolicyConfig(entropy_weight=0.8, pacing_cap=512)
        assert dynamic_threshold(37, 0.0, cfg) == 37
        assert dynamic_threshold(0, 0.0, cfg) == 0

    def test_cap_binds(self):
        cfg = PolicyConfig(entropy_weight=0.0, pacing_cap=128)
        assert dynamic_threshold(10_000, 5.0, cfg) == 128

    def test_monotone_in_time(self):
        cfg = PolicyConfig()
        values = [dynamic_threshold(t, 1.3, cfg) for t in range(0, 700)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_antitone_in_entropy(self):
        cfg = PolicyConfig()
        values = [dynamic_threshold(300, h, cfg) for h in np.linspace(0, 6, 50)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_antitone_in_weight(self):
        prev = None
        for w in (0.0, 0.2, 0.8, 1.6, 3.0):
            v = dynamic_threshold(400, 1.1, PolicyConfig(entropy_weight=w))
            if prev is not None:
                assert v <= prev
            prev = v


def scored(scores) -> Distribution:
    """Scores on any monotone scale as a Distribution, token i scoring scores[i]."""
    return Distribution.from_topk_logprobs(list(enumerate(scores)))


def of_probs(probs) -> Distribution:
    """A Distribution whose token i has probability probs[i]."""
    return scored([math.log(p) if p > 0.0 else -math.inf for p in probs])


class TestComputeRank:
    def test_tie_goes_to_watched(self):
        rank, censored = compute_rank(scored([1.0, 1.0, 0.0]), watched=1)
        assert (rank, censored) == (0, False)

    def test_basic_positions(self):
        dist = scored([0.1, 0.5, 0.4])
        assert compute_rank(dist, watched=0) == (2, False)
        assert compute_rank(dist, watched=1) == (0, False)
        assert compute_rank(dist, watched=2) == (1, False)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(1, 97))
            scores = rng.normal(size=n).tolist()
            # sprinkle ties
            if n > 3 and rng.random() < 0.5:
                scores[1] = scores[0]
                scores[-1] = scores[n // 2]
            watched = int(rng.integers(0, n))
            rank, censored = compute_rank(scored(scores), watched)
            assert not censored
            assert rank == oracle_rank(scores, watched)

    def test_censored_when_absent(self):
        pairs = [(5, -0.1), (9, -1.2), (2, -3.0)]
        rank, censored = compute_rank(pairs, watched=7)
        assert (rank, censored) == (3, True)

    def test_pairs_and_vector_agree(self):
        # the pairs and the Distribution's columns built from them
        pairs = list(enumerate([0.2, 0.9, 0.4, 0.9]))
        dist = Distribution.from_topk_logprobs(pairs)
        for w in range(4):
            assert compute_rank(dist, w) == compute_rank(pairs, w)

    def test_works_on_logprob_scale(self):
        # rank depends only on order, not scale
        probs = [0.5, 0.3, 0.2]
        lps = [math.log(p) for p in probs]
        for w in range(3):
            assert compute_rank(scored(probs), w) == compute_rank(scored(lps), w)

    def test_empty_rejected(self):
        with pytest.raises(MalformedDistributionError):
            compute_rank([], watched=0)

    def test_duplicate_watched_rejected(self):
        with pytest.raises(MalformedDistributionError):
            compute_rank([(1, 0.5), (1, 0.3)], watched=1)


class TestShannonEntropy:
    def test_one_hot_is_zero(self):
        assert shannon_entropy(of_probs([1.0, 0.0, 0.0])) == 0.0

    def test_uniform_is_log_n(self):
        for n in (2, 3, 7, 97):
            h = shannon_entropy(of_probs([1.0 / n] * n))
            assert abs(h - math.log(n)) < 1e-12

    def test_matches_mpmath_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            n = int(rng.integers(2, 80))
            raw = rng.random(n)
            probs = (raw / raw.sum()).tolist()
            assert abs(shannon_entropy(of_probs(probs)) - oracle_entropy(probs)) < 1e-12

    def test_tail_counts_as_pseudo_token(self):
        dist = Distribution((0, 1), np.log([0.5, 0.25]))
        assert dist.tail_mass == 0.25
        expected = oracle_entropy([0.5, 0.25], tail=0.25)
        assert abs(shannon_entropy(dist) - expected) < 1e-15

    def test_zero_tail_ignored(self):
        dist = Distribution((0, 1), np.log([0.5, 0.5]))
        assert dist.tail_mass == 0.0
        assert abs(shannon_entropy(dist) - math.log(2)) < 1e-15

    def test_from_topk_logprobs_round_trip(self):
        lps = [(0, math.log(0.6)), (1, math.log(0.3))]
        dist = Distribution.from_topk_logprobs(lps)
        assert abs(dist.tail_mass - 0.1) < 1e-12
        expected = oracle_entropy([0.6, 0.3], tail=dist.tail_mass)
        assert abs(shannon_entropy(dist) - expected) < 1e-12


class TestDistributionColumns:
    @pytest.mark.parametrize(
        "tokens,logprobs",
        [
            # a trace step holding this failed validate with a bare
            # IndexError, and write_trace wrote 2 of its 3 pairs
            ([1, 2, 0], [-0.1, -0.2]),
            ([1, 2], [-0.1, -0.2, -0.3]),
            ([1], [[-0.1, -0.2]]),
        ],
        ids=["fewer-logprobs", "more-logprobs", "two-dimensional"],
    )
    def test_columns_that_do_not_match_are_refused(self, tokens, logprobs):
        with pytest.raises(MalformedDistributionError, match="one logprob each"):
            Distribution(tokens, np.array(logprobs))


class TestVectorisedMatchesScalarOracle:
    @pytest.mark.parametrize("k", [1, 2, 32, 513])
    def test_rank_and_entropy(self, k):
        rng = np.random.default_rng(1000 + k)
        seen = set()
        for _ in range(200 if k < 513 else 60):
            top, watched = random_top(rng, k)
            served = [(item["token"], item["logprob"]) for item in top]
            pairs = scalar_sorted_pairs(top)
            expected = scalar_rank(pairs, watched)
            seen.add(expected[1])
            tokens = [tok for tok, _ in served]
            dist = Distribution(tokens, np.array([lp for _, lp in served]))
            # rank does not depend on the order of the list
            assert compute_rank(dist, watched) == expected
            assert compute_rank(served, watched) == expected
            assert compute_rank(pairs, watched) == expected
            sorted_dist = Distribution.from_topk_logprobs(pairs)
            assert abs(shannon_entropy(sorted_dist) - scalar_entropy(pairs)) <= 1e-12
            assert abs(shannon_entropy(dist) - scalar_entropy(served)) <= 1e-12
        # both a present and an absent watched token were drawn
        assert seen == {False, True}

    @pytest.mark.parametrize(
        "call",
        [
            lambda: compute_rank([], "a"),
            lambda: compute_rank([("a", -0.1), ("a", -2.0)], "a"),
            lambda: shannon_entropy(Distribution([], np.array([]))),
            lambda: Distribution.from_topk_logprobs([]),
            lambda: shannon_entropy(Distribution(["a", "a"], np.log([0.5, 0.25]))),
            lambda: shannon_entropy(Distribution([["a"], "b"], np.log([0.5, 0.25]))),
            lambda: shannon_entropy(Distribution(["a", "b"], [-0.1, math.nan])),
            lambda: shannon_entropy(Distribution(["a"], [math.nan])),
            lambda: shannon_entropy(Distribution(["a", "b"], [math.inf, -1.0])),
            lambda: shannon_entropy(Distribution(["a"], [800.0])),  # exp overflows
            lambda: shannon_entropy(Distribution(["a", "b"], np.log([0.7, 0.7]))),
        ],
        ids=[
            "empty-rank", "duplicate-watched", "empty-entropy", "empty-pairs",
            "duplicate-token", "unhashable-token", "nan-logprob", "nan-logprob-k1", "inf-logprob",
            "overflowing-logprob", "mass-excess",
        ],
    )
    def test_every_rejection_still_raises(self, call):
        with pytest.raises(MalformedDistributionError):
            call()

    def test_scalar_oracle_rejects_the_same_shapes(self):
        # the oracle itself is live: it refuses what the checks above refuse
        for pairs in [
            [], [("a", -0.7), ("a", -1.4)], [("a", math.nan)],
            [("a", math.log(0.7)), ("b", math.log(0.7))],
        ]:
            with pytest.raises(MalformedDistributionError):
                scalar_entropy(pairs)
        with pytest.raises(MalformedDistributionError):
            scalar_rank([("a", -0.1), ("a", -2.0)], "a")


class _Obs:
    def __init__(self, rank, entropy):
        self.watched_rank = rank
        self.entropy = entropy


class TestShouldStop:
    # how a record explains its stop from its trajectories and config is
    # checked in test_controller.py::TestStopDecision

    def test_fires_when_rank_at_threshold(self):
        cfg = PolicyConfig(watched_token=3, entropy_weight=0.8, min_steps=0)
        t, h = 100, 1.0
        bar = dynamic_threshold(t, h, cfg)
        assert should_stop(t, _Obs(bar, h), cfg) is True

    def test_holds_when_rank_above_threshold(self):
        cfg = PolicyConfig(min_steps=0)
        t, h = 100, 1.0
        bar = dynamic_threshold(t, h, cfg)
        assert should_stop(t, _Obs(bar + 1, h), cfg) is False

    def test_min_steps_gate(self):
        cfg = PolicyConfig(min_steps=16)
        assert should_stop(15, _Obs(0, 0.0), cfg) is False
        assert should_stop(16, _Obs(0, 0.0), cfg) is True

    def test_check_interval_gate(self):
        cfg = PolicyConfig(min_steps=0, check_interval=4)
        assert should_stop(18, _Obs(0, 0.0), cfg) is False
        assert should_stop(20, _Obs(0, 0.0), cfg) is True

    def test_censored_rank_participates_unchanged(self):
        # rank censored at K can only fire once the bar reaches K
        cfg = PolicyConfig(min_steps=0, entropy_weight=0.0, pacing_cap=512)
        assert should_stop(64, _Obs(65, 0.0), cfg) is False
        assert should_stop(65, _Obs(65, 0.0), cfg) is True


class TestConfigValidation:
    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            PolicyConfig(entropy_weight=-0.1)

    def test_bad_cap_rejected(self):
        with pytest.raises(ConfigurationError):
            PolicyConfig(pacing_cap=0)

    def test_bad_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            PolicyConfig(check_interval=0)

    def test_baseline_ratio_domain(self):
        with pytest.raises(ConfigurationError):
            BaselineConfig(ratio=0.0)
        with pytest.raises(ConfigurationError):
            BaselineConfig(ratio=1.2)
        BaselineConfig(ratio=1.0)  # closed on the right

    def test_baseline_counts(self):
        with pytest.raises(ConfigurationError):
            BaselineConfig(segment_len=0)
        with pytest.raises(ConfigurationError):
            BaselineConfig(convergence_k=0)


class TestFixedRatio:
    def test_quarter_of_200_fires_at_50(self):
        assert fixed_ratio_stop_step(200, 0.25) == 50

    def test_full_ratio_never_fires_inside_run(self):
        # decision points run 0..length-1; ratio 1.0 needs t == length
        assert fixed_ratio_stop_step(300, 1.0) == 300

    def test_domain_errors(self):
        with pytest.raises(ConfigurationError, match="ratio must be in"):
            fixed_ratio_stop_step(200, 0.0)
        with pytest.raises(ConfigurationError, match="full_length must be >= 1"):
            fixed_ratio_stop_step(0, 0.5)


class TestAnswerConvergence:
    def test_needs_k_probes(self):
        assert not answer_convergence_stop([], 2)
        assert not answer_convergence_stop(["42"], 2)
        assert answer_convergence_stop(["41", "42", "42"], 2)

    def test_empty_answers_do_not_converge(self):
        assert not answer_convergence_stop(["", ""], 2)
        assert not answer_convergence_stop(["42", ""], 2)

    def test_disagreement_blocks(self):
        assert not answer_convergence_stop(["42", "43"], 2)

    def test_k_one_fires_on_any_nonempty(self):
        assert answer_convergence_stop(["7"], 1)
        assert not answer_convergence_stop([""], 1)

    def test_bad_k(self):
        with pytest.raises(ConfigurationError):
            answer_convergence_stop(["a"], 0)
