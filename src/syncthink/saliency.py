"""Attention saliency over dumped tensors for the three information paths.

Works on externally produced attention activations and their loss
gradients; nothing here runs a model.  A path score is the masked
Frobenius inner product alpha * sum(A * G * M).  There is no absolute
value anywhere: the score is bilinear in A and G, so path scores over
disjoint masks add exactly.  Each path's mask is one rectangle of the
(query, key) plane, all three listed once in _regions: build_masks
paints them for saliency_score, and saliency_report sums each block of
A * G per head without forming a mask or the full product.  Inputs are
32-bit on disk and upcast to 64-bit before any multiplication.

Container layout, in order and without padding: magic "STNS", one
version byte, unsigned 32-bit rank, rank unsigned 64-bit dims, then the
payload as little-endian 32-bit reals in row-major order.  save_tensor
writes an array; load_tensor reads the payload once, into the float32
array of those dims it returns, which every scorer takes as it is.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import jsonl
from .errors import ConfigurationError, TensorFormatError

MAGIC = b"STNS"
VERSION = 1
MAX_RANK = 8
DEFAULT_ALPHA = 1.0  # the path scores' scale, unless told otherwise

PATHS = ("reasoning_to_answer", "reasoning_to_terminator", "terminator_to_answer")


def _first_non_finite(data: np.ndarray) -> int | None:
    """The flat index of data's first non-finite value, else None.  A float64
    sum of float32 values is non-finite only when a value is, so a finite
    array costs one pass and no allocation."""
    with np.errstate(invalid="ignore"):  # +inf plus -inf
        if np.isfinite(data.sum(dtype=np.float64)):
            return None
    return int(np.argmin(np.isfinite(data.reshape(-1))))


def save_tensor(tensor, path: str) -> None:
    """Write an array in the container format, as float32.  A rank outside
    1..MAX_RANK, a zero dim or a non-finite value raises TensorFormatError
    and writes nothing."""
    arr = np.ascontiguousarray(tensor, dtype="<f4")
    if not 1 <= arr.ndim <= MAX_RANK:
        raise TensorFormatError(f"rank must be 1..{MAX_RANK}, got {arr.ndim}")
    if 0 in arr.shape:
        raise TensorFormatError(f"dims must be positive, got {arr.shape}")
    if (bad := _first_non_finite(arr)) is not None:
        raise TensorFormatError(f"non-finite value at element {bad}")
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack(f"<BI{arr.ndim}Q", VERSION, arr.ndim, *arr.shape))
        fh.write(arr.tobytes())


def load_tensor(path: str) -> np.ndarray:
    """Read and check a container file: its float32 array, shaped by its
    dims.  Errors carry the byte offset."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        raw = fh.read(9 + 8 * MAX_RANK)  # the longest header
    if raw[:4] != MAGIC:
        raise TensorFormatError(
            f"{path}: bad magic {raw[:4]!r} at offset 0, expected {MAGIC!r}"
        )
    if len(raw) < 9:
        raise TensorFormatError(f"{path}: header truncated at offset {len(raw)}")
    version = raw[4]
    if version != VERSION:
        raise TensorFormatError(
            f"{path}: unsupported version {version} at offset 4"
        )
    (rank,) = struct.unpack_from("<I", raw, 5)
    if not 1 <= rank <= MAX_RANK:
        raise TensorFormatError(f"{path}: rank {rank} out of range at offset 5")
    dims_end = 9 + 8 * rank
    if len(raw) < dims_end:
        raise TensorFormatError(f"{path}: dims truncated at offset {len(raw)}")
    dims = struct.unpack_from(f"<{rank}Q", raw, 9)
    if 0 in dims:
        raise TensorFormatError(f"{path}: zero dim at offset {9 + 8 * dims.index(0)}")
    count = math.prod(dims)
    expected = count * 4
    actual = size - dims_end
    if actual != expected:
        raise TensorFormatError(
            f"{path}: payload of {actual} bytes at offset {dims_end},"
            f" expected {expected}"
        )
    data = np.fromfile(path, dtype="<f4", count=count, offset=dims_end)
    if data.size != count:  # the file shrank after fstat
        raise TensorFormatError(f"{path}: payload truncated at offset {dims_end + 4 * data.size}")
    if (bad := _first_non_finite(data)) is not None:
        raise TensorFormatError(
            f"{path}: non-finite value at offset {dims_end + 4 * bad}"
        )
    return data.reshape(dims)


@dataclass(frozen=True, eq=False)
class RegionMask:
    """Binary (query, key) mask selecting one information path."""

    name: str
    boundaries: tuple[int, int, int, int]
    matrix: np.ndarray

    def validate(self) -> None:
        if self.name not in PATHS:
            raise ConfigurationError(f"unknown path {self.name!r}")
        if np.triu(self.matrix, k=1).any():
            raise ConfigurationError(f"mask {self.name} breaks causality")


def _regions(boundaries) -> tuple[tuple[slice, slice], ...]:
    """Each path's (query rows, key columns) block, in PATHS order.

    boundaries = (reasoning start p, terminator position r, answer start
    s, sequence end); the terminator is the single position between the
    reasoning span and the answer span.
    """
    p, r, s, end = boundaries
    if not (0 <= p < r < s <= end):
        raise ConfigurationError(
            "boundaries must satisfy 0 <= reasoning start < terminator"
            f" < answer start <= sequence end, got {tuple(boundaries)}"
        )
    return (
        (slice(s, end), slice(p, r)),  # reasoning_to_answer
        (slice(r, r + 1), slice(p, r)),  # reasoning_to_terminator
        (slice(s, end), slice(r, r + 1)),  # terminator_to_answer
    )


def build_masks(
    boundaries: tuple[int, int, int, int], length: int | None = None
) -> tuple[RegionMask, RegionMask, RegionMask]:
    """Masks for the three paths between reasoning, terminator, and answer
    (see _regions); they are (length, length), length defaulting to the
    sequence end."""
    regions = _regions(boundaries)
    end = boundaries[3]
    n = end if length is None else length
    if n < end:
        raise ConfigurationError(f"mask length {n} cannot hold sequence end {end}")
    out = tuple(RegionMask(name, boundaries, np.zeros((n, n), dtype=np.uint8)) for name in PATHS)
    for mask, block in zip(out, regions):
        mask.matrix[block] = 1
        mask.validate()
    return out


def _as_matrix(value, what: str) -> np.ndarray:
    arr = np.asarray(value)
    if arr.ndim != 2:
        raise TensorFormatError(f"{what} must be 2-D, got rank {arr.ndim}")
    return arr


def saliency_score(attention, gradient, mask, *, alpha: float = DEFAULT_ALPHA) -> float:
    """alpha * sum over the masked region of attention * gradient.

    Signed by design: no absolute value, so the score is bilinear and
    adds across disjoint masks.
    """
    a = _as_matrix(attention, "attention")
    g = _as_matrix(gradient, "gradient")
    m = mask.matrix if isinstance(mask, RegionMask) else np.asarray(mask)
    if not (a.shape == g.shape == m.shape):
        raise TensorFormatError(
            f"shape mismatch: attention {a.shape}, gradient {g.shape}, mask {m.shape}"
        )
    # upcast first; products of float32 pairs lose bits before the sum
    prod = a.astype(np.float64) * g.astype(np.float64) * m.astype(np.float64)
    return alpha * float(prod.sum())


@dataclass(frozen=True, eq=False)
class SaliencyReport:
    """Per-layer and per-head path scores with the scoring convention."""

    boundaries: tuple[int, int, int, int]
    alpha: float
    paths: tuple[str, ...]
    head_scores: np.ndarray = field(repr=False)  # (layers, heads, paths)
    layer_scores: np.ndarray = field(repr=False)  # (layers, paths)


def saliency_report(attention, gradient, boundaries, *,
                    alpha: float = DEFAULT_ALPHA) -> SaliencyReport:
    """Score every (layer, head) slice along the three paths.

    attention and gradient are (layers, heads, query, key) with a square
    attention plane whose side equals the sequence end.
    """
    a, g = np.asarray(attention), np.asarray(gradient)
    if a.ndim != 4 or g.ndim != 4:
        raise TensorFormatError(
            f"expected (layers, heads, query, key), got ranks {a.ndim} and {g.ndim}"
        )
    if a.shape != g.shape:
        raise TensorFormatError(
            f"attention {a.shape} and gradient {g.shape} differ"
        )
    layers, heads, q_len, k_len = a.shape
    if q_len != k_len:
        raise TensorFormatError(f"attention plane must be square, got {q_len}x{k_len}")
    end = boundaries[3]
    if end != q_len:
        raise ConfigurationError(
            f"sequence end {end} does not match attention length {q_len}"
        )
    head_scores = np.empty((layers, heads, len(PATHS)))
    for idx, (rows, cols) in enumerate(_regions(boundaries)):
        # one path's block in float64; float32 * float64 upcasts exactly
        block = a[..., rows, cols].astype(np.float64)
        block *= g[..., rows, cols]
        head_scores[:, :, idx] = alpha * block.sum(axis=(2, 3))
    return SaliencyReport(
        boundaries=tuple(boundaries),
        alpha=alpha,
        paths=PATHS,
        head_scores=head_scores,
        layer_scores=head_scores.sum(axis=1),
    )


def report_to_obj(report: SaliencyReport) -> dict:
    layers, heads, _ = report.head_scores.shape
    return {
        "boundaries": list(report.boundaries),
        "alpha": report.alpha,
        "paths": list(report.paths),
        "layers": layers,
        "heads": heads,
        "layer_scores": [dict(zip(report.paths, row)) for row in report.layer_scores],
        "head_scores": [
            [dict(zip(report.paths, row)) for row in layer] for layer in report.head_scores
        ],
    }


def report_curves_to_csv(report: SaliencyReport, path: str) -> None:
    """Per-layer path curves; head column empty on the head-summed rows."""
    rows = ([layer, head, name, score]
            for layer, (summed, by_head) in enumerate(zip(report.layer_scores, report.head_scores))
            for head, scores in [(None, summed), *enumerate(by_head)]
            for name, score in zip(report.paths, scores.tolist()))
    jsonl.write_csv(path, ["layer", "head", "path", "score"], rows)
