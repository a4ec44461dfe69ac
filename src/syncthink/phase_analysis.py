"""Trajectory analytics: phase segmentation and cross-run aggregation.

Rank trajectories are analyzed on the y = log10(rank + 1) scale.  A
four-segment piecewise-linear fit is found by dynamic programming with
exact OLS interval costs, run over bounded column blocks in O(n) memory;
boundary confidence is the relative fit loss from removing that boundary
alone.  A template check on the per-segment slopes flags trajectories
that do not follow the expected shape (climb, recovery, plateau, final
descent).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import evaluation, jsonl
from .errors import (
    ConfigurationError,
    EmptyInputError,
    InsufficientDataError,
    ScoringError,
)
from .evaluation import efficiency_rate  # re-exported: analysis callers import it here

# slope template on smoothed log-rank, per segment
SLOPE_CLIMB_MIN = 0.02
SLOPE_DESCENT_MAX = -0.005
SLOPE_PLATEAU_BAND = 0.015

# cells in one column block's cost sub-matrix; bounds the DP's memory
_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class PhaseSegmentation:
    """Fitted phase boundaries (start indices of segments 2..4)."""

    boundaries: tuple[int, int, int]
    confidence: tuple[float, float, float]
    slopes: tuple[float, float, float, float]
    degenerate: bool


@dataclass(eq=False)
class MacroCurve:
    """Aggregates on a normalized-progress grid in [0, 1]."""

    progress: np.ndarray
    median_log_rank: np.ndarray | None = None
    counts: np.ndarray | None = None
    accuracy: np.ndarray | None = None
    exclusions: int = 0


@dataclass(frozen=True)
class TruncationZone:
    start: float
    end: float
    degenerate: bool


def _extract_ranks(item) -> np.ndarray:
    traj = getattr(item, "rank_trajectory", item)
    arr = np.asarray([p[1] if isinstance(p, (tuple, list)) else p for p in traj], dtype=float)
    return arr


def _smooth(y: np.ndarray, window: int) -> np.ndarray:
    if window == 1:
        return y.copy()
    kernel = np.ones(window)
    sums = np.convolve(y, kernel, mode="same")
    counts = np.convolve(np.ones_like(y), kernel, mode="same")
    return sums / counts


def _interval_stats(y: np.ndarray):
    """Prefix sums giving O(1) OLS SSE and slope on any [i, j)."""
    n = len(y)
    x = np.arange(n, dtype=float)
    px = np.concatenate([[0.0], np.cumsum(x)])
    pxx = np.concatenate([[0.0], np.cumsum(x * x)])
    py = np.concatenate([[0.0], np.cumsum(y)])
    pyy = np.concatenate([[0.0], np.cumsum(y * y)])
    pxy = np.concatenate([[0.0], np.cumsum(x * y)])

    def sse(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        cnt = (j - i).astype(float)
        sx = px[j] - px[i]
        sy = py[j] - py[i]
        sxx = pxx[j] - pxx[i]
        syy = pyy[j] - pyy[i]
        sxy = pxy[j] - pxy[i]
        with np.errstate(divide="ignore", invalid="ignore"):
            cxx = sxx - sx * sx / cnt
            cxy = sxy - sx * sy / cnt
            cyy = syy - sy * sy / cnt
            out = cyy - np.where(cxx > 0, cxy * cxy / np.where(cxx > 0, cxx, 1.0), 0.0)
        return np.maximum(np.nan_to_num(out, nan=0.0), 0.0)

    def slope(i: int, j: int) -> float:
        cnt = float(j - i)
        sx = px[j] - px[i]
        sy = py[j] - py[i]
        sxx = pxx[j] - pxx[i]
        sxy = pxy[j] - pxy[i]
        cxx = sxx - sx * sx / cnt
        if cxx <= 0:
            return 0.0
        return float((sxy - sx * sy / cnt) / cxx)

    return sse, slope


def _best_split(sse, n: int, min_segment: int) -> tuple[int, int, int, float]:
    """Optimal four-segment split of [0, n): (b1, b2, b3, total SSE).

    best[k, j] is the least SSE of k segments on [0, j), back[k, j] the
    first split i reaching it.  Column blocks keep the cost sub-matrix to
    _BLOCK_CELLS cells (one column once n + 1 exceeds it); a split lies
    min_segment or more before its column, so layer k - 1 of a block is
    done before layer k reads it.
    """
    best = np.full((5, n + 1), np.inf)
    best[0, 0] = 0.0
    back = np.zeros((5, n + 1), dtype=int)
    width = max(1, _BLOCK_CELLS // (n + 1))
    for start in range(0, n + 1, width):
        j = np.arange(start, min(start + width, n + 1))
        i = np.arange(max(j[-1] - min_segment + 1, 1))[:, None]
        cost = np.where(j - i >= min_segment, sse(i, j), np.inf)
        cols = np.arange(len(j))
        for k in range(1, 5):
            totals = best[k - 1, : len(i), None] + cost
            back[k, j] = totals.argmin(axis=0)
            best[k, j] = totals[back[k, j], cols]
    if not np.isfinite(best[4, n]):
        raise InsufficientDataError(f"no valid 4-segment split of {n} steps")
    b3 = int(back[4, n])
    b2 = int(back[3, b3])
    b1 = int(back[2, b2])
    return b1, b2, b3, float(best[4, n])


def segment_phases(
    trajectory, *, window: int = 9, min_segment: int = 3
) -> PhaseSegmentation:
    """Fit four linear segments to the smoothed log-rank trajectory.

    Boundaries are the optimal split points; confidence of a boundary is
    (SSE_without - SSE_full) / SSE_without, the relative fit degradation
    from merging the two segments it separates (0 on a perfectly flat
    signal).  degenerate=True means the fitted slopes violate the
    climb/recovery/plateau/descent template; boundaries are still
    returned.
    """
    if window < 1 or window % 2 == 0:
        raise ConfigurationError(f"window must be odd and >= 1, got {window!r}")
    if min_segment < 2:
        raise ConfigurationError(f"min_segment must be >= 2, got {min_segment!r}")
    ranks = _extract_ranks(trajectory)
    n = len(ranks)
    if n < max(4 * min_segment, window):
        raise InsufficientDataError(
            f"trajectory of {n} steps is too short for 4 segments"
            f" of {min_segment} under a window of {window}"
        )
    if not np.all(np.isfinite(ranks) & (ranks >= 0)):
        raise ConfigurationError("ranks must be finite and >= 0")
    y = _smooth(np.log10(ranks + 1.0), window)
    sse, slope_of = _interval_stats(y)
    b1, b2, b3, sse4 = _best_split(sse, n, min_segment)
    # prefix-sum SSE on a near-constant signal leaves cancellation noise;
    # anything below this floor is indistinguishable from a perfect fit
    noise_floor = 1e-12 * max(1.0, float(np.dot(y, y)))
    cuts = [0, b1, b2, b3, n]
    confidences = []
    for drop in (1, 2, 3):
        kept = [c for idx, c in enumerate(cuts) if idx != drop]
        merged = float(
            sum(sse(np.array([a]), np.array([b]))[0] for a, b in zip(kept, kept[1:]))
        )
        confidences.append(
            0.0 if merged <= noise_floor else max(0.0, (merged - sse4) / merged)
        )

    slopes = tuple(slope_of(a, b) for a, b in zip(cuts, cuts[1:]))
    degenerate = not (
        slopes[0] >= SLOPE_CLIMB_MIN
        and slopes[1] <= SLOPE_DESCENT_MAX
        and abs(slopes[2]) <= SLOPE_PLATEAU_BAND
        and slopes[3] <= SLOPE_DESCENT_MAX
    )
    return PhaseSegmentation(
        boundaries=(b1, b2, b3),
        confidence=tuple(confidences),
        slopes=slopes,
        degenerate=degenerate,
    )


def aggregate_macro(trajectories: Sequence, grid_size: int = 100) -> MacroCurve:
    """Median log-rank across runs on a normalized-progress grid.

    Each trajectory maps linearly onto [0, 1]; the value at a grid point
    is the median of log10(rank + 1) over all runs at that progress.
    """
    if grid_size < 2:
        raise ConfigurationError(f"grid_size must be >= 2, got {grid_size!r}")
    items = list(trajectories)
    if not items:
        raise EmptyInputError("no trajectories to aggregate")
    grid = np.linspace(0.0, 1.0, grid_size)
    rows = []
    for pos, item in enumerate(items):
        ranks = _extract_ranks(item)
        if len(ranks) == 0:
            raise EmptyInputError(f"trajectory {pos} is empty")
        idx = np.rint(grid * (len(ranks) - 1)).astype(int)
        rows.append(np.log10(ranks[idx] + 1.0))
    stack = np.vstack(rows)
    return MacroCurve(
        progress=grid,
        median_log_rank=np.median(stack, axis=0),
        counts=np.full(grid_size, len(items), dtype=int),
    )


def truncation_accuracy_curve(
    records_by_ratio: Mapping[float, Sequence],
    samples: Sequence,
    grid_size: int = 100,
) -> MacroCurve:
    """Accuracy at each truncation ratio, placed on the progress grid.

    Samples whose gold answer normalizes to nothing are excluded from
    both numerator and denominator; the exclusion count is reported on
    the curve.  Grid points with no measurement hold NaN.
    """
    if grid_size < 2:
        raise ConfigurationError(f"grid_size must be >= 2, got {grid_size!r}")
    if not records_by_ratio:
        raise EmptyInputError("no truncation ratios given")
    index = {}
    for sample in samples:
        index[sample.sample_id] = sample
    grid = np.linspace(0.0, 1.0, grid_size)
    accuracy = np.full(grid_size, np.nan)
    counts = np.zeros(grid_size, dtype=int)
    exclusions = 0
    for ratio, records in sorted(records_by_ratio.items()):
        if not (0.0 < ratio <= 1.0):
            raise ConfigurationError(f"ratio must be in (0, 1], got {ratio!r}")
        records = list(records)
        if not records:
            raise EmptyInputError(f"no records at ratio {ratio}")
        matches = 0
        scored = 0
        for record in records:
            sample = index.get(record.sample_id)
            if sample is None:
                raise ScoringError(f"record references unknown sample {record.sample_id!r}")
            # looked up on the module at each call, so a wrapper installed
            # on evaluation.parse_answer (perfbench/tracer.py) sees it
            gold_norm = evaluation.parse_answer(sample.gold, sample.task_kind)
            if not gold_norm:
                exclusions += 1
                continue
            scored += 1
            if record.complete and record.normalized_answer == gold_norm:
                matches += 1
        at = int(np.rint(ratio * (grid_size - 1)))
        accuracy[at] = 100.0 * matches / scored if scored else np.nan
        counts[at] = scored
    return MacroCurve(progress=grid, accuracy=accuracy, counts=counts, exclusions=exclusions)


def optimal_truncation_zone(curve: MacroCurve, epsilon: float = 1.0) -> TruncationZone:
    """Earliest contiguous suffix of measured points within epsilon of full.

    The reference is the accuracy at progress 1.0; the zone runs from the
    earliest measured point whose accuracy stays within epsilon of the
    reference (walking backwards without a disqualifying measurement) to
    1.0.  degenerate=True means only the full-length point qualifies.
    """
    if epsilon < 0:
        raise ConfigurationError(f"epsilon must be >= 0, got {epsilon!r}")
    if curve.accuracy is None:
        raise EmptyInputError("curve has no accuracy data")
    acc = np.asarray(curve.accuracy, dtype=float)
    measured = np.flatnonzero(~np.isnan(acc))
    if len(measured) == 0 or measured[-1] != len(acc) - 1:
        raise EmptyInputError("no accuracy measured at full length")
    reference = acc[measured[-1]]
    start_idx = measured[-1]
    for idx in reversed(measured[:-1]):
        if acc[idx] >= reference - epsilon:
            start_idx = idx
        else:
            break
    start = float(curve.progress[start_idx])
    return TruncationZone(start=start, end=1.0, degenerate=bool(start_idx == measured[-1]))


def segmentations_to_csv(rows: Sequence[tuple[str, PhaseSegmentation]], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "sample_id",
                "boundary_1",
                "boundary_2",
                "boundary_3",
                "confidence_1",
                "confidence_2",
                "confidence_3",
                "slope_1",
                "slope_2",
                "slope_3",
                "slope_4",
                "degenerate",
            ]
        )
        for sample_id, seg in rows:
            writer.writerow(
                [sample_id]
                + [str(b) for b in seg.boundaries]
                + [jsonl.format_float(c) for c in seg.confidence]
                + [jsonl.format_float(s) for s in seg.slopes]
                + [str(seg.degenerate).lower()]
            )


def macro_curve_to_csv(curve: MacroCurve, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["progress", "median_log_rank", "count", "accuracy"])
        for i, p in enumerate(curve.progress):
            median = (
                ""
                if curve.median_log_rank is None
                else jsonl.format_float(float(curve.median_log_rank[i]))
            )
            count = "" if curve.counts is None else str(int(curve.counts[i]))
            if curve.accuracy is None or np.isnan(curve.accuracy[i]):
                acc = ""
            else:
                acc = jsonl.format_float(float(curve.accuracy[i]))
            writer.writerow([jsonl.format_float(float(p)), median, count, acc])
