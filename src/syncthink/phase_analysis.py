"""Trajectory analytics: phase segmentation and cross-run aggregation.

Rank trajectories are analyzed on the y = log10(rank + 1) scale.  A
four-segment piecewise-linear fit is found by dynamic programming with
exact OLS interval costs, run over blocks of end columns in O(n)
memory.  The DP works in one scratch, allocated once per segment_phases
call and sized from n (_block_cells): sse writes a block's interval
costs into it and returns a view of it, which the next call overwrites,
so each caller consumes the costs before it calls again.  A block holds
as many columns as fit in the scratch beside the splits they reach.
Only the two middle layers sweep a block: the first segment's layer is
the cost from split 0 and the last is the costs into column n.  The
interval cost is exact only on the cells the DP keeps (two or more
points); the DP sets every other cell to inf.  Boundary confidence is
the relative fit loss from removing that boundary alone.  A template
check on the per-segment slopes flags trajectories that do not follow
the expected shape (climb, recovery, plateau, final descent).
"""

from __future__ import annotations

import math
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
from .policy import BaselineConfig

# slope template on smoothed log-rank, per segment
SLOPE_CLIMB_MIN = 0.02
SLOPE_DESCENT_MAX = -0.005
SLOPE_PLATEAU_BAND = 0.015

# cost cells in the DP scratch of a trajectory of up to _BLOCK_ROWS
# steps; a longer one gets _BLOCK_CELLS // _BLOCK_ROWS cells a step, so a
# block as tall as the trajectory keeps that many columns
_BLOCK_CELLS = 1 << 14
_BLOCK_ROWS = 1 << 11

# points of the normalized-progress grid the macro and truncation curves use
DEFAULT_GRID_SIZE = 100
# accuracy points a truncation may lose and stay in the safe zone
DEFAULT_EPSILON = 0.05


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


def _extract_ranks(trajectory) -> np.ndarray:
    """A trajectory, one rank per step, as a float array."""
    ranks = np.asarray(trajectory, dtype=float)
    if ranks.ndim != 1:
        raise ConfigurationError(f"a trajectory holds one rank per step, not {ranks.shape}")
    return ranks


def _progress_grid(grid_size: int) -> np.ndarray:
    if grid_size < 2:
        raise ConfigurationError(f"grid_size must be >= 2, got {grid_size!r}")
    return np.linspace(0.0, 1.0, grid_size)


def _smooth(y: np.ndarray, window: int) -> np.ndarray:
    if window == 1:
        return y.copy()
    kernel = np.ones(window)
    sums = np.convolve(y, kernel, mode="same")
    counts = np.convolve(np.ones_like(y), kernel, mode="same")
    return sums / counts


def _block_cells(n: int) -> int:
    """Cost cells in the DP scratch of an n-step trajectory: at least one
    column of n + 1 split points."""
    return max(_BLOCK_CELLS, (n + 1) * max(1, _BLOCK_CELLS // _BLOCK_ROWS))


def _interval_stats(y: np.ndarray):
    """Prefix sums giving O(1) OLS SSE and slope on any [i, j)."""
    n = len(y)
    x = np.arange(n, dtype=float)
    px = np.concatenate([[0.0], np.cumsum(x)])
    pxx = np.concatenate([[0.0], np.cumsum(x * x)])
    py = np.concatenate([[0.0], np.cumsum(y)])
    pyy = np.concatenate([[0.0], np.cumsum(y * y)])
    pxy = np.concatenate([[0.0], np.cumsum(x * y)])
    cells = _block_cells(n)
    scratch = np.empty((5, cells))

    def sse(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """SSE of every [i, j) of the broadcast i and j.

        When the broadcast shape fits the scratch, the result is a view
        into it that the next call overwrites; a larger shape gets fresh
        arrays.  Exact only where j - i >= 2.  The x sums are integers,
        exact in float64 far past any length this O(n^2) DP can run, so
        there cxx > 0 and every value is finite: no guard is needed, and
        the caller masks every other cell.  Same arithmetic as the plain
        formula, operation for operation, on five buffers.
        """
        shape = np.broadcast_shapes(np.shape(i), np.shape(j))
        size = math.prod(shape)
        if size <= cells:
            cnt, sx, sy, tmp, cxx = (buf[:size].reshape(shape) for buf in scratch)
        else:
            cnt, sx, sy, tmp, cxx = np.empty((5, *shape))
        np.subtract(j, i, out=cnt, dtype=float)
        np.subtract(px[j], px[i], out=sx)
        np.subtract(py[j], py[i], out=sy)
        np.multiply(sx, sx, out=tmp)
        tmp /= cnt
        np.subtract(pxx[j], pxx[i], out=cxx)
        cxx -= tmp  # sxx - sx * sx / cnt
        np.multiply(sx, sy, out=tmp)
        tmp /= cnt
        cxy = np.subtract(pxy[j], pxy[i], out=sx)
        cxy -= tmp  # sxy - sx * sy / cnt
        np.multiply(sy, sy, out=tmp)
        tmp /= cnt
        out = np.subtract(pyy[j], pyy[i], out=sy)
        out -= tmp  # cyy = syy - sy * sy / cnt
        np.multiply(cxy, cxy, out=tmp)
        tmp /= cxx
        out -= tmp  # cyy - cxy * cxy / cxx
        return np.maximum(out, 0.0, out=out)

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


def _block_width(start: int, cells: int, min_segment: int) -> int:
    """Columns in the block from column start: the most whose costs fit in
    cells, one row per column over the max(start + width - min_segment, 1)
    splits the last column can use; at least one."""
    a = start - min_segment
    # the positive root of width * (width + a) = cells, rounded down; a
    # block of one split row holds at most cells columns
    width = (math.isqrt(a * a + 4 * cells) - a) // 2
    return max(1, min(width, cells))


def _best_split(sse, n: int, min_segment: int) -> tuple[int, int, int, float]:
    """Optimal four-segment split of [0, n): (b1, b2, b3, total SSE).

    best[k, j] is the least SSE of k segments on [0, j), back[k, j] the
    first split i reaching it.  A block covers end columns start..stop - 1
    and cost[r, i] is the SSE of [i, start + r), for the splits i that the
    last column can use (_block_width sizes it to the scratch); each row
    is contiguous, so argmin over the splits copies nothing.  A split lies
    min_segment or more before its column, so layer k - 1 of a block is
    done before layer k reads it.  Only layers 2 and 3 go over a block:
    best[0] is finite only at 0, so layer 1 is the block's split 0 (every
    back[1] is 0), and layer 4 is read only at column n, the last block's
    last row.  sse is called on whole blocks but is exact only where
    j - i >= 2; every cell below min_segment is set to inf.  Both layers'
    totals go to one buffer allocated once per call.
    """
    cells = _block_cells(n)
    best = np.full((4, n + 1), np.inf)
    best[0, 0] = 0.0
    back = np.zeros((4, n + 1), dtype=int)
    totals_room = np.empty(cells)
    start = 0
    while start <= n:
        stop = min(start + _block_width(start, cells, min_segment), n + 1)
        i = np.arange(max(stop - min_segment, 1))
        with np.errstate(divide="ignore", invalid="ignore"):
            cost = sse(i, np.arange(start, stop)[:, None])
        for row, j in enumerate(range(start, stop)):
            cost[row, max(j - min_segment + 1, 0):] = np.inf
        best[1, start:stop] = cost[:, 0]
        totals = totals_room[: cost.size].reshape(cost.shape)
        rows = np.arange(stop - start)
        for k in (2, 3):
            np.add(best[k - 1, : len(i)], cost, out=totals)
            back[k, start:stop] = totals.argmin(axis=1)
            best[k, start:stop] = totals[rows, back[k, start:stop]]
        start = stop
    totals = best[3, : len(i)] + cost[-1]
    b3 = int(totals.argmin())
    if not np.isfinite(totals[b3]):
        raise InsufficientDataError(f"no valid 4-segment split of {n} steps")
    b2 = int(back[3, b3])
    b1 = int(back[2, b2])
    return b1, b2, b3, float(totals[b3])


def segment_phases(
    trajectory, *, window: int = 9, min_segment: int = 3
) -> PhaseSegmentation:
    """Fit four linear segments to the smoothed log-rank trajectory, one
    rank per step.

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


def aggregate_macro(trajectories: Sequence, grid_size: int = DEFAULT_GRID_SIZE) -> MacroCurve:
    """Median log-rank across runs on a normalized-progress grid.

    Each trajectory, one rank per step, maps linearly onto [0, 1]; the
    value at a grid point is the median of log10(rank + 1) over all runs
    at that progress.
    """
    grid = _progress_grid(grid_size)
    items = list(trajectories)
    if not items:
        raise EmptyInputError("no trajectories to aggregate")
    rows = []
    for pos, item in enumerate(items):
        ranks = _extract_ranks(item)
        if len(ranks) == 0:
            raise EmptyInputError(f"trajectory {pos} is empty")
        idx = np.rint(grid * (len(ranks) - 1)).astype(int)
        rows.append(np.log10(ranks[idx] + 1.0))
    # np.median(stack, axis=0) bit for bit, without the numpy.ma import
    # its first call makes: the middle row, or the mean of the two middle
    # rows, and NaN in a column holding one (a NaN sorts last)
    stack = np.sort(np.vstack(rows), axis=0)
    mid = len(rows) // 2
    median = stack[mid].copy() if len(rows) % 2 else (stack[mid - 1] + stack[mid]) / 2.0
    np.copyto(median, stack[-1], where=np.isnan(stack[-1]))
    return MacroCurve(
        progress=grid,
        median_log_rank=median,
        counts=np.full(grid_size, len(items), dtype=int),
    )


def grid_index(ratio: float, grid_size: int = DEFAULT_GRID_SIZE) -> int:
    """The progress-grid point at which truncation_accuracy_curve places a ratio."""
    return int(np.rint(ratio * (grid_size - 1)))


def truncation_accuracy_curve(
    records_by_ratio: Mapping[float, Sequence],
    samples: Sequence,
    grid_size: int = DEFAULT_GRID_SIZE,
) -> MacroCurve:
    """Accuracy at each truncation ratio, placed on the progress grid.

    Samples whose gold answer normalizes to nothing are excluded from
    both numerator and denominator; the exclusion count is reported on
    the curve.  Grid points with no measurement hold NaN.
    """
    grid = _progress_grid(grid_size)
    if not records_by_ratio:
        raise EmptyInputError("no truncation ratios given")
    index = {}
    for sample in samples:
        index[sample.sample_id] = sample
    accuracy = np.full(grid_size, np.nan)
    counts = np.zeros(grid_size, dtype=int)
    exclusions = 0
    for ratio, records in sorted(records_by_ratio.items()):
        BaselineConfig(ratio=ratio)  # the ratio's range is BaselineConfig's
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
        at = grid_index(ratio, grid_size)
        accuracy[at] = 100.0 * matches / scored if scored else np.nan
        counts[at] = scored
    return MacroCurve(progress=grid, accuracy=accuracy, counts=counts, exclusions=exclusions)


def optimal_truncation_zone(curve: MacroCurve, epsilon: float = DEFAULT_EPSILON) -> TruncationZone:
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
    columns = ["sample_id", "boundary_1", "boundary_2", "boundary_3", "confidence_1",
               "confidence_2", "confidence_3", "slope_1", "slope_2", "slope_3", "slope_4",
               "degenerate"]
    jsonl.write_csv(path, columns, (
        [sample_id, *seg.boundaries, *seg.confidence, *seg.slopes, seg.degenerate]
        for sample_id, seg in rows
    ))


def macro_curve_to_csv(curve: MacroCurve, path: str) -> None:
    """One row per grid point; a column the curve lacks, and an unmeasured
    (NaN) accuracy, as an empty cell."""
    absent = [None] * len(curve.progress)
    median, counts, accuracy = (absent if a is None else a.tolist()
                                for a in (curve.median_log_rank, curve.counts, curve.accuracy))
    accuracy = [None if a is None or math.isnan(a) else a for a in accuracy]
    jsonl.write_csv(path, ["progress", "median_log_rank", "count", "accuracy"],
                    zip(curve.progress.tolist(), median, counts, accuracy))
