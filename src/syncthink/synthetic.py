"""Synthetic decoding traces with a planted four-phase rank trajectory.

On the y = log10(rank + 1) scale the watched terminator's rank follows:

  1. a monotone climb from low rank up past a high floor (exploration),
  2. a monotone recovery back down to a working level,
  3. a bounded random walk inside a plateau band, with occasional dips,
  4. a linear final descent ending at exactly rank 0, where the source
     emits the terminator on its own.

Entropy follows a per-phase profile.  Each step's top-k logprobs are
built from a softmax whose temperature is solved so the entropy computed
from the stored logprobs (k explicit tokens plus a tail pseudo-token)
hits the profile target; the recorded entropy field is then re-derived
from those exact logprobs, so replaying the file and re-deriving entropy
from the served top-k agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .policy import BaselineConfig, Distribution, shannon_entropy
from .trace import StepObservation, TraceFile, TraceHeader, token_text

DEFAULT_WATCHED_TOKEN = 3
DEFAULT_TOPK_WIDTH = 64
DEFAULT_PROBE_EVERY = 1

# cells of one (steps x outcomes) matrix block in the temperature solve
_BLOCK_CELLS = 1 << 16
# sharpness values of the shared starting table, which also bracket the
# root, and the Newton steps after it: from this table 5 steps already
# meet the 1e-13 oracle of tests/test_synthetic.py, the sixth is margin
_GRID_BETAS = np.geomspace(1e-9, 80.0, 64)
_NEWTON_STEPS = 6


@dataclass(frozen=True)
class SyntheticPhaseSpec:
    """Shape parameters for one planted trajectory.

    phase_lengths gives the step count of each phase; boundaries fall at
    the cumulative sums.  Levels are on the log10(rank + 1) scale.
    """

    phase_lengths: tuple[int, int, int, int] = (20, 40, 200, 40)
    descent_floor: float = 4.0
    recovery_level: float = 2.5
    plateau_band: tuple[float, float] = (2.0, 3.0)
    entropy_means: tuple[float, float, float, float] = (3.0, 2.5, 2.0, 0.8)
    entropy_jitter: tuple[float, float, float, float] = (0.3, 0.3, 0.5, 0.2)
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.phase_lengths) != 4 or any(n < 2 for n in self.phase_lengths):
            raise ConfigurationError(
                f"phase_lengths needs four entries >= 2, got {self.phase_lengths!r}"
            )
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed!r}")
        low, high = self.plateau_band
        if not (0.0 < low <= high):
            raise ConfigurationError(f"bad plateau band {self.plateau_band!r}")
        if self.recovery_level < low:
            raise ConfigurationError("recovery level below the plateau band")
        if self.descent_floor <= self.recovery_level:
            raise ConfigurationError("descent floor must sit above the recovery level")
        if any(m <= 0 for m in self.entropy_means) or any(
            j < 0 for j in self.entropy_jitter
        ):
            raise ConfigurationError("entropy profile must be positive")

    @property
    def boundaries(self) -> tuple[int, int, int]:
        """Planted starts of phases 2, 3 and 4."""
        l1, l2, l3, _ = self.phase_lengths
        return (l1, l1 + l2, l1 + l2 + l3)

    @property
    def total_steps(self) -> int:
        return sum(self.phase_lengths)


def _monotone_ramp(rng: np.random.Generator, n: int, start: float, end: float) -> np.ndarray:
    """n strictly monotone values from just past start to exactly end."""
    inc = rng.uniform(0.5, 1.5, n)
    return start + np.cumsum(inc) / inc.sum() * (end - start)


def _plateau_walk(
    rng: np.random.Generator, n: int, start: float, low: float, high: float
) -> np.ndarray:
    """Mean-reverting noise inside the band, with occasional sharp dips.

    The walk reverts toward its entry level, so a recovery phase landing
    on that level produces a clean slope break at the boundary.  Dips
    hold off for the first stretch and the walk settles back to its
    center near the end, keeping both adjacent boundaries crisp.
    """
    center = min(max(start, low), high)
    steps = rng.normal(0.0, 0.13, n)
    dip_mask = rng.random(n) < 0.04
    dip_size = rng.uniform(0.3, 0.6, n)
    settle = max(0, n - 6)
    out = np.empty(n)
    x = center
    for i in range(n):
        if i >= settle:
            pull, noise_scale = 1.0, 0.25
        else:
            pull, noise_scale = 0.35, 1.0
        x += pull * (center - x) + noise_scale * steps[i]
        if dip_mask[i] and 12 <= i < settle:
            x -= dip_size[i]
        # reflect back into the band
        while x > high or x < low:
            if x > high:
                x = 2 * high - x
            if x < low:
                x = 2 * low - x
        out[i] = x
    return out


def _softmax_logprobs(targets: np.ndarray, width: int) -> np.ndarray:
    """Per-step top-width logprobs of a softmax whose entropy hits each target.

    Outcomes are width explicit tokens plus one tail lump with energies
    u = 0..width, so a row with sharpness beta has entropy
    H(beta) = beta * E[u] + log Z, strictly decreasing with
    H'(beta) = -beta * Var(u).  Each row starts from one shared table of
    H over _GRID_BETAS, interpolated in log beta, which also brackets the
    root; then _NEWTON_STEPS safeguarded Newton steps, each one pass over
    the row (a step that leaves the bracket bisects it instead), and one
    last pass writes the logprobs.  Against an exact (mpmath) softmax
    every logprob is within 1e-13 relative and |H - target| <= 1e-13 at
    widths 1 to 513.

    Rows are solved over blocks of about _BLOCK_CELLS matrix cells (at
    least one row), so nothing but the result grows with the step count.
    Every operation is elementwise or a reduction along one row, so the
    block size changes no bit of the result.
    """
    u = np.arange(width + 1, dtype=float)

    def entropy_and_slope(beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w = np.exp(-beta[:, None] * u)
        z = w.sum(axis=1)
        wu = w * u
        mean_u = wu.sum(axis=1) / z
        var_u = (wu * u).sum(axis=1) / z - mean_u * mean_u
        return beta * mean_u + np.log(z), -beta * var_u

    grid_h = entropy_and_slope(_GRID_BETAS)[0]  # decreasing
    log_grid = np.log(_GRID_BETAS)
    logprobs = np.empty((len(targets), width))
    rows = max(1, _BLOCK_CELLS // (width + 1))
    for start in range(0, len(targets), rows):
        block = targets[start : start + rows]
        j = np.clip(np.searchsorted(-grid_h, -block), 1, len(_GRID_BETAS) - 1)
        lo, hi = _GRID_BETAS[j - 1], _GRID_BETAS[j]
        frac = (grid_h[j - 1] - block) / (grid_h[j - 1] - grid_h[j])
        beta = np.exp(log_grid[j - 1] + frac * (log_grid[j] - log_grid[j - 1]))
        for _ in range(_NEWTON_STEPS):
            h, slope = entropy_and_slope(beta)
            too_flat = h > block
            lo = np.where(too_flat, beta, lo)
            hi = np.where(too_flat, hi, beta)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = beta - (h - block) / slope
            beta = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
        log_z = np.log(np.exp(-beta[:, None] * u).sum(axis=1))
        logprobs[start : start + rows] = -beta[:, None] * u[:width] - log_z[:, None]
    return logprobs


def generate_synthetic(
    spec: SyntheticPhaseSpec,
    *,
    topk_width: int = DEFAULT_TOPK_WIDTH,
    probe_every: int = DEFAULT_PROBE_EVERY,
    probe_answer: str = "42",
    probe_suffix: str = BaselineConfig.probe_suffix,
    watched_token: int = DEFAULT_WATCHED_TOKEN,
) -> TraceFile:
    """Build a trace with the planted phase structure; write_trace checks it.

    probe_every > 0 records branch answers at every multiple of that
    step count (plus the final state): unstable drafts before the final
    descent begins, a fixed answer from there on.  probe_every = 0
    records no branches.
    """
    if topk_width < 1:
        raise ConfigurationError(f"topk_width must be >= 1, got {topk_width!r}")
    if probe_every < 0:
        raise ConfigurationError(f"probe_every must be >= 0, got {probe_every!r}")
    if watched_token < 0:
        raise ConfigurationError(f"watched_token must be >= 0, got {watched_token!r}")

    rng = np.random.default_rng(spec.seed)
    l1, l2, l3, l4 = spec.phase_lengths
    low, high = spec.plateau_band
    peak = spec.descent_floor + 0.25

    y1 = _monotone_ramp(rng, l1, 1.0, peak)
    y2 = _monotone_ramp(rng, l2, peak, spec.recovery_level)
    y3 = _plateau_walk(rng, l3, spec.recovery_level, low, high)
    exit_level = float(y3[-1])
    y4 = exit_level * (1.0 - np.arange(1, l4 + 1) / l4)
    y = np.concatenate([y1, y2, y3, y4])
    total = spec.total_steps

    ranks = np.rint(np.power(10.0, y) - 1.0).astype(np.int64)
    ranks = np.maximum(ranks, 0)
    # keep the terminator out of greedy reach until the very last step
    commit_start = l1 + l2 + l3
    ranks[commit_start : total - 1] = np.maximum(ranks[commit_start : total - 1], 1)
    ranks[total - 1] = 0

    h_max = math.log(topk_width + 1) - 0.01
    targets = np.empty(total)
    offset = 0
    for n, mean, jitter in zip(spec.phase_lengths, spec.entropy_means, spec.entropy_jitter):
        targets[offset : offset + n] = mean + jitter * rng.uniform(-1.0, 1.0, n)
        offset += n
    targets = np.clip(targets, 0.02, h_max)

    wall_times = rng.uniform(0.008, 0.02, total)

    logprobs = _softmax_logprobs(targets, topk_width)

    filler_pool = [i for i in range(topk_width + 1) if i != watched_token][:topk_width]
    max_rank = int(ranks.max())
    vocab_size = max(max_rank + 2, topk_width + 2, watched_token + 2)

    # a step's ids depend only on min(rank, topk_width): one list per class
    ids_by_rank: dict[int, list[int]] = {}
    steps: list[StepObservation] = []
    for t in range(total):
        rank = int(ranks[t])
        ids = ids_by_rank.get(min(rank, topk_width))
        if ids is None:
            if rank < topk_width:
                ids = filler_pool[:rank] + [watched_token] + filler_pool[rank : topk_width - 1]
            else:
                ids = filler_pool[:topk_width]
            ids_by_rank[min(rank, topk_width)] = ids
        topk = Distribution(ids, logprobs[t])
        entropy = shannon_entropy(topk)
        chosen = ids[0]
        steps.append(
            StepObservation(
                t=t,
                chosen_token=chosen,
                chosen_text=token_text(chosen, watched_token),
                topk=topk,
                watched_rank=rank,
                censored=False,
                entropy=entropy,
                step_wall_time=float(wall_times[t]),
            )
        )

    probes: dict[int, tuple[str, str]] = {}
    if probe_every > 0:
        keys = set(range(0, total + 1, probe_every))
        keys.add(total)
        for key in sorted(keys):
            answer = probe_answer if key >= commit_start else f"guess {key}"
            probes[key] = (probe_suffix, answer)

    return TraceFile(
        header=TraceHeader(
            tokenizer="synthetic-v1",
            vocab_size=vocab_size,
            watched_token=watched_token,
            source="synthetic",
            seed=spec.seed,
        ),
        steps=tuple(steps),
        probes=probes,
        natural_stop=total - 1,
    )
