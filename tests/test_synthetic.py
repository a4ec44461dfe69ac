"""Planted-trajectory generator: shape, determinism, self-consistency."""

from __future__ import annotations

import math

import numpy as np
import pytest

from syncthink import synthetic
from syncthink.errors import ConfigurationError
from syncthink.policy import Distribution, compute_rank, shannon_entropy
from syncthink.synthetic import SyntheticPhaseSpec, generate_synthetic
from syncthink.trace import read_trace, write_trace


def log_rank(ranks):
    return np.log10(np.asarray(ranks, dtype=float) + 1.0)


class TestShape:
    def test_four_phase_structure(self):
        spec = SyntheticPhaseSpec(seed=5)
        trace = generate_synthetic(spec)
        ranks = [s.watched_rank for s in trace.steps]
        b1, b2, b3 = spec.boundaries
        y = log_rank(ranks)

        # phase 1: monotone climb ending above the floor
        assert all(a <= b for a, b in zip(ranks[:b1], ranks[1:b1]))
        assert y[b1 - 1] > spec.descent_floor

        # phase 2: monotone recovery down to the working level
        assert all(a >= b for a, b in zip(ranks[b1:b2], ranks[b1 + 1 : b2]))
        assert abs(y[b2 - 1] - spec.recovery_level) < 0.05

        # phase 3: stays inside the plateau band (rounding tolerance)
        low, high = spec.plateau_band
        assert all(low - 0.01 <= v <= high + 0.01 for v in y[b2:b3])

        # phase 4: monotone descent ending at exactly rank 0
        assert all(a >= b for a, b in zip(ranks[b3:], ranks[b3 + 1 :]))
        assert ranks[-1] == 0
        assert all(r >= 1 for r in ranks[b3:-1])

    def test_natural_stop_at_final_step(self):
        trace = generate_synthetic(SyntheticPhaseSpec(seed=2))
        assert trace.natural_stop == len(trace.steps) - 1
        final = trace.steps[-1]
        assert final.chosen_token == trace.header.watched_token
        assert final.watched_rank == 0
        # no earlier emission of the terminator
        watched = trace.header.watched_token
        assert all(s.chosen_token != watched for s in trace.steps[:-1])

    def test_total_length(self):
        spec = SyntheticPhaseSpec(phase_lengths=(5, 6, 30, 10), seed=1)
        assert len(generate_synthetic(spec).steps) == 51


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        spec = SyntheticPhaseSpec(seed=11)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace(generate_synthetic(spec), str(p1))
        write_trace(generate_synthetic(spec), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seed_different_plateau(self):
        a = generate_synthetic(SyntheticPhaseSpec(seed=1))
        b = generate_synthetic(SyntheticPhaseSpec(seed=2))
        ra = [s.watched_rank for s in a.steps]
        rb = [s.watched_rank for s in b.steps]
        assert ra != rb

    @pytest.mark.parametrize("width", [1, 32, 513])
    def test_block_size_changes_no_bit(self, width, monkeypatch):
        # blocks of one row, of seven rows (the last one short) and the default
        rng = np.random.default_rng(width)
        targets = rng.uniform(0.02, math.log(width + 1) - 0.01, 101)
        monkeypatch.setattr(synthetic, "_BLOCK_CELLS", 10**9)
        whole = synthetic._softmax_logprobs(targets, width)
        assert whole.shape == (101, width)
        for cells in (1, 7 * (width + 1) + 3, 1 << 16):
            monkeypatch.setattr(synthetic, "_BLOCK_CELLS", cells)
            blocked = synthetic._softmax_logprobs(targets, width)
            assert blocked.tobytes() == whole.tobytes(), cells

    def test_round_trip_through_file(self, tmp_path):
        spec = SyntheticPhaseSpec(seed=7)
        trace = generate_synthetic(spec)
        path = tmp_path / "t.jsonl"
        write_trace(trace, str(path))
        reread = read_trace(str(path))
        assert reread.natural_stop == trace.natural_stop
        assert len(reread.steps) == len(trace.steps)
        assert all(
            a.entropy == b.entropy and a.watched_rank == b.watched_rank
            for a, b in zip(trace.steps, reread.steps)
        )


class TestSelfConsistency:
    def test_entropy_field_matches_topk_derivation(self):
        # replaying the file and re-deriving entropy from the stored
        # logprobs must agree exactly, not just approximately
        trace = generate_synthetic(SyntheticPhaseSpec(seed=3))
        for step in trace.steps:
            derived = shannon_entropy(Distribution.from_topk_logprobs(step.topk))
            assert derived == step.entropy

    @pytest.mark.parametrize("width", [1, 32, 80, 513])
    def test_generated_traces_pass_the_trace_check(self, width):
        # generate_synthetic leaves the check to the boundaries a trace
        # crosses (write_trace, read_trace, validate)
        for seed in (0, 7, 12):
            generate_synthetic(SyntheticPhaseSpec(seed=seed), topk_width=width).validate()

    def test_rank_field_matches_topk_when_visible(self):
        trace = generate_synthetic(SyntheticPhaseSpec(seed=4))
        watched = trace.header.watched_token
        for step in trace.steps:
            rank, censored = compute_rank(step.topk, watched)
            if not censored:
                assert rank == step.watched_rank
            else:
                assert step.watched_rank >= len(step.topk.tokens)

    def test_entropy_tracks_profile_per_phase(self):
        spec = SyntheticPhaseSpec(seed=9)
        trace = generate_synthetic(spec)
        b1, b2, b3 = spec.boundaries
        ent = np.array([s.entropy for s in trace.steps])
        segments = [ent[:b1], ent[b1:b2], ent[b2:b3], ent[b3:]]
        for seg, mean, jitter in zip(segments, spec.entropy_means, spec.entropy_jitter):
            assert abs(float(seg.mean()) - mean) < max(0.2, jitter)

    def test_wide_topk_supports_higher_entropy(self):
        spec = SyntheticPhaseSpec(seed=9, entropy_means=(4.5, 4.0, 3.5, 1.0))
        trace = generate_synthetic(spec, topk_width=128)
        assert max(s.entropy for s in trace.steps) > 4.0
        assert all(s.entropy <= math.log(129) for s in trace.steps)


class TestProbes:
    def test_probe_answers_stabilize_in_final_phase(self):
        spec = SyntheticPhaseSpec(seed=6)
        trace = generate_synthetic(spec, probe_every=1, probe_answer="42")
        commit = spec.boundaries[2]
        for key, (suffix, answer) in trace.probes.items():
            assert suffix == "Final answer:"
            if key >= commit:
                assert answer == "42"
            else:
                assert answer == f"guess {key}"

    def test_probe_spacing(self):
        spec = SyntheticPhaseSpec(phase_lengths=(5, 5, 20, 10), seed=1)
        trace = generate_synthetic(spec, probe_every=8)
        total = spec.total_steps
        assert set(trace.probes) == set(range(0, total + 1, 8)) | {total}

    def test_no_probes_when_disabled(self):
        trace = generate_synthetic(SyntheticPhaseSpec(seed=1), probe_every=0)
        assert trace.probes == {}


class TestValidation:
    def test_bad_phase_lengths(self):
        with pytest.raises(ConfigurationError):
            SyntheticPhaseSpec(phase_lengths=(1, 5, 5, 5))

    def test_negative_seed(self):
        # numpy's default_rng rejects it, and only once a trace is generated
        with pytest.raises(ConfigurationError, match="seed must be >= 0"):
            SyntheticPhaseSpec(seed=-1)

    def test_floor_must_exceed_recovery(self):
        with pytest.raises(ConfigurationError):
            SyntheticPhaseSpec(descent_floor=2.5, recovery_level=3.0)

    def test_bad_band(self):
        with pytest.raises(ConfigurationError):
            SyntheticPhaseSpec(plateau_band=(3.0, 2.0))

    def test_bad_width(self):
        with pytest.raises(ConfigurationError):
            generate_synthetic(SyntheticPhaseSpec(), topk_width=0)


def exact_softmax(target, width):
    """The logprobs of the softmax over energies 0..width whose entropy is
    exactly target, solved in mpmath from closed-form geometric sums."""
    import mpmath as mp

    n = width + 1

    def log_z_and_mean(beta):
        x = mp.exp(-beta)
        log_z = mp.log((1 - x**n) / (1 - x))
        return log_z, x / (1 - x) - n * x**n / (1 - x**n)

    def excess(beta):
        log_z, mean = log_z_and_mean(beta)
        return beta * mean + log_z - target

    with mp.workdps(40):
        target = mp.mpf(target)
        lo, hi = mp.mpf("1e-6"), mp.mpf(80)
        for _ in range(200):  # bisection on log beta: the entropy falls as beta grows
            mid = mp.sqrt(lo * hi)
            lo, hi = (mid, hi) if excess(mid) > 0 else (lo, mid)
        beta = mp.sqrt(lo * hi)
        log_z = log_z_and_mean(beta)[0]
        return [float(-beta * i - log_z) for i in range(width)]


class TestSolve:
    @pytest.mark.parametrize("width", [1, 2, 32, 513])
    def test_matches_the_exact_softmax(self, width):
        rng = np.random.default_rng(100 + width)
        h_max = math.log(width + 1) - 0.01
        # both clip edges of generate_synthetic, then random targets
        targets = np.concatenate([[0.02, h_max], rng.uniform(0.02, h_max, 6)])
        rows = synthetic._softmax_logprobs(targets, width)
        for target, row in zip(targets, rows):
            exact = np.array(exact_softmax(float(target), width))
            err = np.abs(row - exact) / np.maximum(1.0, np.abs(exact))
            assert err.max() <= 1e-13, (target, err.max())
            entropy = shannon_entropy(Distribution(list(range(width)), row))
            assert abs(entropy - target) <= 1e-13, target

    @pytest.mark.parametrize("width", [1, 513])
    def test_at_most_twelve_passes_over_a_row(self, width, monkeypatch):
        rows = 50
        shape = (rows, width + 1)
        passes = []
        exp = np.exp

        def counting_exp(x, *args, **kwargs):
            if np.shape(x) == shape:
                passes.append(1)
            return exp(x, *args, **kwargs)

        targets = np.linspace(0.02, math.log(width + 1) - 0.01, rows)
        monkeypatch.setattr(synthetic.np, "exp", counting_exp)
        synthetic._softmax_logprobs(targets, width)
        assert 0 < len(passes) <= 12


def test_steps_of_one_rank_class_share_one_token_list():
    width = 16
    trace = generate_synthetic(SyntheticPhaseSpec(seed=6), topk_width=width)
    lists = {id(step.topk.tokens) for step in trace.steps}
    classes = {min(step.watched_rank, width) for step in trace.steps}
    assert len(lists) == len(classes)
    assert all(type(step.topk.tokens) is list for step in trace.steps)
