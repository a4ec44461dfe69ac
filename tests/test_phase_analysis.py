"""Segmentation DP against brute force, macro curves, zones, efficiency."""

from __future__ import annotations

import csv
import math
import tracemalloc
from dataclasses import astuple
from types import SimpleNamespace

import numpy as np
import pytest

from syncthink import phase_analysis
from syncthink.errors import (
    ConfigurationError,
    EmptyInputError,
    InsufficientDataError,
    ScoringError,
    UndefinedRateError,
)
from syncthink.phase_analysis import (
    MacroCurve,
    aggregate_macro,
    efficiency_rate,
    macro_curve_to_csv,
    optimal_truncation_zone,
    segment_phases,
    segmentations_to_csv,
    truncation_accuracy_curve,
)


def ols_sse(y):
    if len(y) <= 2:
        return 0.0
    x = np.arange(len(y), dtype=float)
    _, residuals, *_ = np.polyfit(x, y, 1, full=True)
    return float(residuals[0]) if len(residuals) else 0.0


def brute_force_best_sse(y, min_segment):
    """Exhaustive search over all 4-segment splits."""
    n = len(y)
    best = math.inf
    for b1 in range(min_segment, n + 1):
        for b2 in range(b1 + min_segment, n + 1):
            for b3 in range(b2 + min_segment, n + 1):
                if n - b3 < min_segment:
                    continue
                total = sum(
                    ols_sse(y[a:b]) for a, b in ((0, b1), (b1, b2), (b2, b3), (b3, n))
                )
                best = min(best, total)
    return best


def split_sse(y, boundaries):
    b1, b2, b3 = boundaries
    cuts = (0, b1, b2, b3, len(y))
    return sum(ols_sse(y[a:b]) for a, b in zip(cuts, cuts[1:]))


def matrix_best_split(sse, n, min_segment):
    """The whole-matrix DP: (n+1)^2 interval costs, one layer at a time.

    The reference for the blocked DP in phase_analysis._best_split; the
    two must agree bit for bit, tie-breaking included.
    """
    ii, jj = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    valid = jj - ii >= min_segment
    cost = np.full((n + 1, n + 1), np.inf)
    cost[valid] = sse(ii[valid], jj[valid])
    best = np.full((5, n + 1), np.inf)
    best[0, 0] = 0.0
    back = np.zeros((5, n + 1), dtype=int)
    for k in range(1, 5):
        totals = best[k - 1][:, None] + cost
        back[k] = np.argmin(totals, axis=0)
        best[k] = totals[back[k], np.arange(n + 1)]
    if not np.isfinite(best[4, n]):
        raise InsufficientDataError(f"no valid 4-segment split of {n} steps")
    b3 = int(back[4, n])
    b2 = int(back[3, b3])
    b1 = int(back[2, b2])
    return b1, b2, b3, float(best[4, n])


# one block up to n = 255; several from n = 256 on
ORACLE_SIZES = (12, 31, 255, 256, 300, 641)


def oracle_ranks(kind, n):
    rng = np.random.default_rng(n)
    if kind == "random":
        return rng.integers(0, 1000, n).astype(float)
    if kind == "constant":
        return np.full(n, 42.0)
    return rng.integers(0, 2, n).astype(float)  # 0/1: many tied splits


def planted_ranks():
    """Exact piecewise-linear log-rank signal with known boundaries.

    Each segment jumps at its start so no boundary point lies on two
    segment lines at once; the optimal split is unique.
    """
    y = np.concatenate(
        [
            0.0 + 0.3 * np.arange(10),
            3.3 - 0.13 * np.arange(8),
            np.full(20, 2.0),
            1.4 - 0.2 * np.arange(8),
        ]
    )
    return np.maximum(np.power(10.0, y) - 1.0, 0.0), (10, 18, 38)


class TestSegmentPhases:
    def test_matches_brute_force_on_random_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(16, 25))
            ranks = rng.integers(0, 500, n).astype(float)
            seg = segment_phases(ranks, window=1, min_segment=3)
            y = np.log10(ranks + 1.0)
            got = split_sse(y, seg.boundaries)
            want = brute_force_best_sse(y, 3)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_recovers_planted_boundaries_exactly(self):
        ranks, truth = planted_ranks()
        seg = segment_phases(ranks, window=1, min_segment=3)
        assert seg.boundaries == truth
        assert not seg.degenerate

    def test_boundaries_ordered_with_min_spacing(self):
        rng = np.random.default_rng(11)
        ranks = rng.integers(0, 100, 40).astype(float)
        seg = segment_phases(ranks, window=1, min_segment=4)
        b1, b2, b3 = seg.boundaries
        assert 4 <= b1 and b1 + 4 <= b2 and b2 + 4 <= b3 and b3 + 4 <= 40

    def test_template_slopes_on_planted_signal(self):
        ranks, _ = planted_ranks()
        seg = segment_phases(ranks, window=1, min_segment=3)
        s1, s2, s3, s4 = seg.slopes
        assert s1 > 0 and s2 < 0 and abs(s3) < 0.015 and s4 < 0

    def test_monotone_ramp_is_degenerate(self):
        ranks = np.power(10.0, np.linspace(0.0, 3.0, 40)) - 1.0
        seg = segment_phases(ranks, window=1)
        assert seg.degenerate

    def test_flat_signal_zero_confidence(self):
        seg = segment_phases(np.full(30, 50.0), window=1)
        assert seg.confidence == (0.0, 0.0, 0.0)
        assert seg.degenerate

    def test_clean_boundaries_have_high_confidence(self):
        ranks, _ = planted_ranks()
        seg = segment_phases(ranks, window=1, min_segment=3)
        assert all(c > 0.5 for c in seg.confidence)

    def test_confidence_in_unit_interval(self):
        rng = np.random.default_rng(3)
        ranks = rng.integers(0, 1000, 60).astype(float)
        seg = segment_phases(ranks, window=1)
        assert all(0.0 <= c <= 1.0 for c in seg.confidence)

    def test_accepts_record_like_objects(self):
        ranks, truth = planted_ranks()
        record = SimpleNamespace(rank_trajectory=[(t, r) for t, r in enumerate(ranks)])
        assert segment_phases(record, window=1, min_segment=3).boundaries == truth

    def test_too_short_rejected(self):
        with pytest.raises(InsufficientDataError):
            segment_phases(np.arange(11, dtype=float), window=1, min_segment=3)
        with pytest.raises(InsufficientDataError):
            segment_phases(np.arange(8, dtype=float), window=9, min_segment=2)

    def test_bad_parameters_rejected(self):
        ranks = np.arange(40, dtype=float)
        with pytest.raises(ConfigurationError):
            segment_phases(ranks, window=4)
        with pytest.raises(ConfigurationError):
            segment_phases(ranks, min_segment=1)
        with pytest.raises(ConfigurationError):
            segment_phases(np.full(40, -1.0), window=1)
        for bad in (math.nan, math.inf):
            ranks = list(range(40))
            ranks[20] = bad
            with pytest.raises(ConfigurationError, match="finite"):
                segment_phases(ranks)

    @pytest.mark.parametrize("min_segment", [3, 6])
    @pytest.mark.parametrize("window", [1, 9])
    @pytest.mark.parametrize("kind", ["random", "constant", "zero_one"])
    def test_blocked_dp_matches_matrix_oracle(self, kind, window, min_segment, monkeypatch):
        assert (ORACLE_SIZES[-1] + 1) ** 2 > phase_analysis._BLOCK_CELLS  # several blocks
        cases = [
            oracle_ranks(kind, n)
            for n in ORACLE_SIZES
            if n >= max(4 * min_segment, window)
        ]

        def fit_all():
            return [
                astuple(segment_phases(r, window=window, min_segment=min_segment))
                for r in cases
            ]

        got = fit_all()
        monkeypatch.setattr(phase_analysis, "_best_split", matrix_best_split)
        assert got == fit_all()

    def test_default_budget_runs_in_bounded_memory(self):
        # the whole-matrix DP would need about 5.4 GB at this length
        ranks = np.random.default_rng(8192).integers(0, 1000, 8192).astype(float)
        tracemalloc.start()
        try:
            seg = segment_phases(ranks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"
        b1, b2, b3 = seg.boundaries
        assert 3 <= b1 and b1 + 3 <= b2 and b2 + 3 <= b3 and b3 + 3 <= 8192

    def test_smoothing_window_tolerates_noise(self):
        rng = np.random.default_rng(5)
        ranks, truth = planted_ranks()
        noisy = np.maximum(ranks + rng.normal(0.0, 0.1 * (ranks + 1.0)), 0.0)
        seg = segment_phases(noisy, window=9, min_segment=3)
        for got, want in zip(seg.boundaries, truth):
            assert abs(got - want) <= 4


class TestAggregateMacro:
    def test_single_trajectory_exact_values(self):
        curve = aggregate_macro([[0, 9, 99]], grid_size=3)
        assert curve.progress.tolist() == [0.0, 0.5, 1.0]
        assert curve.median_log_rank.tolist() == [0.0, 1.0, 2.0]
        # counts are contributing runs, not steps
        assert curve.counts.tolist() == [1, 1, 1]

    def test_median_across_runs(self):
        curve = aggregate_macro([[9], [99], [999]], grid_size=4)
        assert np.allclose(curve.median_log_rank, 2.0)

    def test_lengths_normalize_onto_grid(self):
        # different lengths, same constant value: medians agree everywhere
        curve = aggregate_macro([[5] * 10, [5] * 97], grid_size=25)
        assert np.allclose(curve.median_log_rank, math.log10(6.0))

    def test_empty_inputs_rejected(self):
        with pytest.raises(EmptyInputError):
            aggregate_macro([])
        with pytest.raises(EmptyInputError):
            aggregate_macro([[1, 2], []])
        with pytest.raises(ConfigurationError):
            aggregate_macro([[1, 2]], grid_size=1)


def rec(sample_id, answer, complete=True):
    return SimpleNamespace(sample_id=sample_id, complete=complete, normalized_answer=answer)


def sample(sample_id, gold, kind="numeric"):
    return SimpleNamespace(sample_id=sample_id, gold=gold, task_kind=kind)


class TestTruncationCurve:
    def samples(self):
        return [sample("s1", "4"), sample("s2", "9"), sample("s3", "no numbers")]

    def test_accuracy_placed_on_grid(self):
        curve = truncation_accuracy_curve(
            {
                0.5: [rec("s1", "4"), rec("s2", "0")],
                1.0: [rec("s1", "4"), rec("s2", "9")],
            },
            self.samples(),
            grid_size=5,
        )
        assert curve.accuracy[2] == pytest.approx(50.0)
        assert curve.accuracy[4] == pytest.approx(100.0)
        assert np.isnan(curve.accuracy[0])
        assert curve.counts.tolist() == [0, 0, 2, 0, 2]

    def test_unparseable_gold_is_excluded(self):
        curve = truncation_accuracy_curve(
            {1.0: [rec("s1", "4"), rec("s3", "anything")]},
            self.samples(),
            grid_size=5,
        )
        assert curve.exclusions == 1
        assert curve.accuracy[4] == pytest.approx(100.0)
        assert curve.counts[4] == 1

    def test_incomplete_record_counts_as_miss(self):
        curve = truncation_accuracy_curve(
            {1.0: [rec("s1", "4"), rec("s2", "9", complete=False)]},
            self.samples(),
            grid_size=5,
        )
        assert curve.accuracy[4] == pytest.approx(50.0)

    def test_unknown_sample_rejected(self):
        with pytest.raises(ScoringError):
            truncation_accuracy_curve({1.0: [rec("ghost", "4")]}, self.samples())

    def test_bad_inputs_rejected(self):
        with pytest.raises(EmptyInputError):
            truncation_accuracy_curve({}, self.samples())
        with pytest.raises(EmptyInputError):
            truncation_accuracy_curve({1.0: []}, self.samples())
        with pytest.raises(ConfigurationError):
            truncation_accuracy_curve({0.0: [rec("s1", "4")]}, self.samples())
        with pytest.raises(ConfigurationError):
            truncation_accuracy_curve({1.5: [rec("s1", "4")]}, self.samples())


def curve_with(accuracy):
    acc = np.asarray(accuracy, dtype=float)
    return MacroCurve(progress=np.linspace(0.0, 1.0, len(acc)), accuracy=acc)


class TestTruncationZone:
    def test_zone_extends_back_while_within_epsilon(self):
        nan = np.nan
        zone = optimal_truncation_zone(
            curve_with([nan, nan, 80.0, 89.5, 90.0]), epsilon=1.0
        )
        assert zone.start == pytest.approx(0.75)
        assert zone.end == 1.0
        assert not zone.degenerate

    def test_walk_stops_at_first_disqualifier(self):
        zone = optimal_truncation_zone(curve_with([90.0, 70.0, 90.0, 90.0]), epsilon=1.0)
        # the early 90 is stranded behind the 70; suffix starts after it
        assert zone.start == pytest.approx(2.0 / 3.0)

    def test_all_points_qualify(self):
        zone = optimal_truncation_zone(curve_with([89.5, 89.2, 90.0]), epsilon=1.0)
        assert zone.start == 0.0
        assert not zone.degenerate

    def test_only_full_length_qualifies(self):
        zone = optimal_truncation_zone(curve_with([10.0, 20.0, 90.0]), epsilon=1.0)
        assert zone.start == 1.0
        assert zone.degenerate

    def test_missing_full_length_rejected(self):
        with pytest.raises(EmptyInputError):
            optimal_truncation_zone(curve_with([90.0, 90.0, np.nan]))
        with pytest.raises(EmptyInputError):
            optimal_truncation_zone(MacroCurve(progress=np.linspace(0, 1, 3)))

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ConfigurationError):
            optimal_truncation_zone(curve_with([90.0, 90.0]), epsilon=-0.1)


class TestEfficiencyRate:
    def test_reference_operating_points(self):
        slow = efficiency_rate(61.22, 2141.0, 58.85, 378.0)
        fast = efficiency_rate(62.00, 671.0, 58.85, 378.0)
        assert round(slow, 2) == 0.13
        assert round(fast, 2) == 1.08

    def test_negative_gain_allowed(self):
        assert efficiency_rate(50.0, 200.0, 60.0, 100.0) == pytest.approx(-10.0)

    def test_no_extra_spend_undefined(self):
        with pytest.raises(UndefinedRateError):
            efficiency_rate(90.0, 100.0, 80.0, 100.0)
        with pytest.raises(UndefinedRateError):
            efficiency_rate(90.0, 90.0, 80.0, 100.0)


class TestCsvEmission:
    def test_segmentations_csv(self, tmp_path):
        ranks, _ = planted_ranks()
        seg = segment_phases(ranks, window=1, min_segment=3)
        path = str(tmp_path / "seg.csv")
        segmentations_to_csv([("s1", seg)], path)
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "sample_id"
        assert rows[1][0] == "s1"
        assert [int(b) for b in rows[1][1:4]] == list(seg.boundaries)
        assert rows[1][11] == "false"

    def test_macro_csv_handles_gaps(self, tmp_path):
        curve = truncation_accuracy_curve(
            {1.0: [rec("s1", "4")]}, [sample("s1", "4")], grid_size=3
        )
        path = str(tmp_path / "curve.csv")
        macro_curve_to_csv(curve, path)
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["progress", "median_log_rank", "count", "accuracy"]
        # unmeasured grid point leaves accuracy blank
        assert rows[1][3] == ""
        assert rows[3][3] == "100.0"

    def test_macro_csv_median_curve(self, tmp_path):
        curve = aggregate_macro([[0, 9, 99]], grid_size=3)
        path = str(tmp_path / "m.csv")
        macro_curve_to_csv(curve, path)
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[2][1] == "1.0"
        assert rows[2][3] == ""
