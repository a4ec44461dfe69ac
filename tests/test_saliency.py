"""Container format gates, mask geometry, and score equivalence."""

from __future__ import annotations

import csv
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from syncthink.errors import ConfigurationError, TensorFormatError
from syncthink.saliency import (
    PATHS,
    build_masks,
    load_tensor,
    report_curves_to_csv,
    report_to_obj,
    saliency_report,
    saliency_score,
    save_tensor,
)


def loop_score(a, g, m, alpha=1.0):
    """Pure-Python accumulation in doubles; the independent oracle."""
    total = 0.0
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            if m[i, j]:
                total += float(a[i, j]) * float(g[i, j])
    return alpha * total


class TestContainer:
    def good_path(self, tmp_path, arr=None):
        if arr is None:
            arr = np.arange(10, dtype=np.float32).reshape(2, 5)
        path = str(tmp_path / "t.stns")
        save_tensor(arr, path)
        return path

    def test_round_trip(self, tmp_path):
        arr = np.random.default_rng(0).normal(size=(3, 4, 5)).astype(np.float32)
        path = self.good_path(tmp_path, arr)
        loaded = load_tensor(path)
        assert loaded.dtype == np.float32 and loaded.shape == (3, 4, 5)
        assert (loaded == arr).all()

    def test_rank_one_round_trip(self, tmp_path):
        path = self.good_path(tmp_path, np.float32([1.5, -2.5]))
        assert load_tensor(path).shape == (2,)

    def test_layout_is_exactly_as_documented(self, tmp_path):
        path = self.good_path(tmp_path)
        raw = Path(path).read_bytes()
        assert raw[:4] == b"STNS"
        assert raw[4] == 1
        assert struct.unpack_from("<I", raw, 5) == (2,)
        assert struct.unpack_from("<2Q", raw, 9) == (2, 5)
        assert len(raw) == 9 + 16 + 40

    def corrupt(self, tmp_path, mutate):
        path = self.good_path(tmp_path)
        raw = bytearray(Path(path).read_bytes())
        raw = mutate(raw)
        bad = str(tmp_path / "bad.stns")
        Path(bad).write_bytes(bytes(raw))
        return bad

    def test_bad_magic(self, tmp_path):
        bad = self.corrupt(tmp_path, lambda raw: b"XTNS" + raw[4:])
        with pytest.raises(TensorFormatError, match="offset 0"):
            load_tensor(bad)

    def test_empty_file(self, tmp_path):
        path = str(tmp_path / "empty.stns")
        open(path, "wb").close()
        with pytest.raises(TensorFormatError, match="offset 0"):
            load_tensor(path)

    def test_bad_version(self, tmp_path):
        def mutate(raw):
            raw[4] = 2
            return raw

        with pytest.raises(TensorFormatError, match="offset 4"):
            load_tensor(self.corrupt(tmp_path, mutate))

    def test_truncated_header(self, tmp_path):
        bad = self.corrupt(tmp_path, lambda raw: raw[:7])
        with pytest.raises(TensorFormatError, match="truncated"):
            load_tensor(bad)

    def test_rank_out_of_range(self, tmp_path):
        for rank in (0, 9):
            def mutate(raw, rank=rank):
                raw[5:9] = struct.pack("<I", rank)
                return raw

            with pytest.raises(TensorFormatError, match="offset 5"):
                load_tensor(self.corrupt(tmp_path, mutate))

    def test_zero_dim(self, tmp_path):
        def mutate(raw):
            raw[17:25] = struct.pack("<Q", 0)
            return raw

        with pytest.raises(TensorFormatError, match="offset 17"):
            load_tensor(self.corrupt(tmp_path, mutate))

    def test_truncated_payload(self, tmp_path):
        bad = self.corrupt(tmp_path, lambda raw: raw[:-4])
        with pytest.raises(TensorFormatError, match="expected 40"):
            load_tensor(bad)

    def test_trailing_bytes_rejected(self, tmp_path):
        bad = self.corrupt(tmp_path, lambda raw: raw + b"\x00" * 3)
        with pytest.raises(TensorFormatError, match="payload"):
            load_tensor(bad)

    def test_non_finite_payload_offset(self, tmp_path):
        def mutate(raw):
            # element 3 of the 2x5 payload, which starts at offset 25
            raw[25 + 12 : 25 + 16] = struct.pack("<f", float("nan"))
            return raw

        with pytest.raises(TensorFormatError, match=f"offset {25 + 12}"):
            load_tensor(self.corrupt(tmp_path, mutate))

    def test_first_of_opposite_infinities_is_named(self, tmp_path):
        # +inf at element 3 and -inf at element 7: their float64 sum is NaN
        def mutate(raw):
            raw[25 + 12 : 25 + 16] = struct.pack("<f", float("inf"))
            raw[25 + 28 : 25 + 32] = struct.pack("<f", float("-inf"))
            return raw

        with pytest.raises(TensorFormatError, match=f"offset {25 + 12}$"):
            load_tensor(self.corrupt(tmp_path, mutate))
        data = np.float32([1, 2, 3, np.inf, 5, 6, 7, -np.inf]).reshape(2, 4)
        with pytest.raises(TensorFormatError, match="element 3$"):
            save_tensor(data, str(tmp_path / "x.stns"))

    def test_float32_max_everywhere_is_finite(self, tmp_path):
        arr = np.full((64, 64), np.finfo(np.float32).max, dtype=np.float32)
        arr[::2] *= -1
        assert (load_tensor(self.good_path(tmp_path, arr)) == arr).all()
        assert (load_tensor(self.good_path(tmp_path, np.abs(arr))) == np.abs(arr)).all()

    def test_load_peaks_at_its_payload(self, tmp_path):
        arr = np.random.default_rng(7).normal(size=(2, 4, 512, 512)).astype(np.float32)
        path = self.good_path(tmp_path, arr)
        del arr
        tracemalloc.start()
        try:
            loaded = load_tensor(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * loaded.nbytes, f"{peak / 2**20:.1f} MiB"

    def test_save_rejects_non_finite(self, tmp_path):
        with pytest.raises(TensorFormatError):
            save_tensor(np.float32([1.0, np.inf]), str(tmp_path / "x.stns"))

    def test_save_gates(self, tmp_path):
        path = tmp_path / "x.stns"
        with pytest.raises(TensorFormatError, match="^rank must be 1..8, got 9$"):
            save_tensor(np.zeros((1,) * 9, dtype=np.float32), str(path))
        with pytest.raises(TensorFormatError, match=r"^dims must be positive, got \(2, 0\)$"):
            save_tensor(np.zeros((2, 0), dtype=np.float32), str(path))
        assert not path.exists()
        # float64 input is written as float32
        save_tensor(np.zeros(2, dtype=np.float64), str(path))
        assert load_tensor(str(path)).dtype == np.float32


class TestBuildMasks:
    def test_documented_counting_example(self):
        r2a, r2t, t2a = build_masks((0, 5, 6, 10))
        assert int(t2a.matrix.sum()) == 4
        assert (np.flatnonzero(t2a.matrix[:, 5]) == [6, 7, 8, 9]).all()
        assert int(r2t.matrix.sum()) == 5
        assert int(r2a.matrix.sum()) == 4 * 5

    def test_empty_answer_span(self):
        r2a, r2t, t2a = build_masks((0, 3, 8, 8))
        assert int(r2a.matrix.sum()) == 0
        assert int(t2a.matrix.sum()) == 0
        assert int(r2t.matrix.sum()) == 3

    def test_causality_and_disjointness_random(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            end = int(rng.integers(4, 40))
            p, r, s = sorted(rng.choice(np.arange(end), size=3, replace=False).tolist())
            if not (p < r < s):
                continue
            masks = build_masks((p, r, s, end))
            for mask in masks:
                assert not np.triu(mask.matrix, k=1).any()
            pairwise = (
                masks[0].matrix & masks[1].matrix
                | masks[0].matrix & masks[2].matrix
                | masks[1].matrix & masks[2].matrix
            )
            assert not pairwise.any()

    def test_ordering_violations_rejected(self):
        for bad in [(3, 3, 5, 10), (0, 5, 5, 10), (0, 5, 6, 5), (-1, 2, 3, 10)]:
            with pytest.raises(ConfigurationError):
                build_masks(bad)

    def test_explicit_length(self):
        r2a, _, _ = build_masks((0, 2, 3, 5), length=8)
        assert r2a.matrix.shape == (8, 8)
        with pytest.raises(ConfigurationError):
            build_masks((0, 2, 3, 5), length=4)

    def test_names(self):
        assert tuple(m.name for m in build_masks((0, 1, 2, 3))) == PATHS


class TestSaliencyScore:
    def test_documented_fixture(self):
        a = np.float32([[1, 2], [3, 4]])
        g = np.float32([[0.5, 0], [0, 1]])
        assert saliency_score(a, g, np.ones((2, 2))) == 4.5

    def test_zero_mask_and_zero_gradient(self):
        a = np.float32([[1, 2], [3, 4]])
        assert saliency_score(a, a, np.zeros((2, 2))) == 0.0
        assert saliency_score(a, np.zeros_like(a), np.ones((2, 2))) == 0.0

    def test_accepts_arrays_and_region_masks(self):
        a = np.eye(3, dtype=np.float32)
        g = np.full((3, 3), 2.0, dtype=np.float32)
        mask = build_masks((0, 1, 2, 3))[1]  # terminator row 1, key 0
        assert saliency_score(a, g, mask) == 0.0  # eye has no (1, 0) mass

    def test_alpha_scales(self):
        a = np.float32([[1, 2], [3, 4]])
        g = np.ones((2, 2), dtype=np.float32)
        assert saliency_score(a, g, np.ones((2, 2)), alpha=0.5) == 5.0

    def test_shape_mismatch_rejected(self):
        a = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(TensorFormatError):
            saliency_score(a, np.zeros((2, 3), dtype=np.float32), np.ones((2, 2)))
        with pytest.raises(TensorFormatError):
            saliency_score(a, a, np.ones((3, 3)))
        with pytest.raises(TensorFormatError):
            saliency_score(np.zeros(4, dtype=np.float32), a, np.ones((2, 2)))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 33))
            a = rng.normal(scale=3.0, size=(n, n)).astype(np.float32)
            g = rng.normal(scale=3.0, size=(n, n)).astype(np.float32)
            m = (rng.random((n, n)) < 0.4).astype(np.uint8)
            got = saliency_score(a, g, m)
            want = loop_score(a, g, m)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_bilinear_in_both_arguments(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 17))
            a1, a2, g = (rng.normal(size=(n, n)).astype(np.float32) for _ in range(3))
            m = np.tril(np.ones((n, n), dtype=np.uint8))
            lhs = saliency_score(
                (2.0 * a1.astype(np.float64) + 3.0 * a2.astype(np.float64)), g, m
            )
            rhs = 2.0 * saliency_score(a1, g, m) + 3.0 * saliency_score(a2, g, m)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-9)
            lhs_g = saliency_score(
                g, (2.0 * a1.astype(np.float64) + 3.0 * a2.astype(np.float64)), m
            )
            rhs_g = 2.0 * saliency_score(g, a1, m) + 3.0 * saliency_score(g, a2, m)
            assert lhs_g == pytest.approx(rhs_g, rel=1e-10, abs=1e-9)

    def test_disjoint_masks_add(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            end = int(rng.integers(4, 33))
            p, r, s = sorted(rng.choice(np.arange(end), size=3, replace=False).tolist())
            if not (p < r < s):
                continue
            masks = build_masks((p, r, s, end))
            a = rng.normal(size=(end, end)).astype(np.float32)
            g = rng.normal(size=(end, end)).astype(np.float32)
            union = masks[0].matrix | masks[1].matrix | masks[2].matrix
            total = saliency_score(a, g, union)
            parts = sum(saliency_score(a, g, m) for m in masks)
            assert total == pytest.approx(parts, rel=1e-10, abs=1e-9)


class TestSaliencyReport:
    def hand_fixture(self):
        # boundaries (0, 1, 2, 4): reasoning key 0, terminator 1, answer rows 2..3
        a0 = np.float32([[1, 0, 0, 0], [2, 0, 0, 0], [3, 4, 0, 0], [5, 6, 7, 0]])
        a = np.stack([a0, 2.0 * a0])[:, None, :, :]  # 2 layers, 1 head
        g = np.stack(
            [np.ones((4, 4), dtype=np.float32), np.full((4, 4), 0.5, dtype=np.float32)]
        )[:, None, :, :]
        return a, g

    def test_matches_hand_computation(self):
        a, g = self.hand_fixture()
        report = saliency_report(a, g, (0, 1, 2, 4))
        # layer 0: r2a = 3 + 5, r2t = 2, t2a = 4 + 6
        assert report.layer_scores[0].tolist() == [8.0, 2.0, 10.0]
        # layer 1 doubles A and halves G, so the same numbers
        assert report.layer_scores[1].tolist() == [8.0, 2.0, 10.0]
        assert report.head_scores.shape == (2, 1, 3)

    def test_zero_gradient_layer_is_locally_zero(self):
        a, g = self.hand_fixture()
        g = g.copy()
        g[1] = 0.0
        report = saliency_report(a, g, (0, 1, 2, 4))
        assert report.layer_scores[1].tolist() == [0.0, 0.0, 0.0]
        assert report.layer_scores[0].tolist() == [8.0, 2.0, 10.0]

    def test_all_zero_gradient_all_zero_report(self):
        a, g = self.hand_fixture()
        report = saliency_report(a, np.zeros_like(g), (0, 1, 2, 4))
        assert not report.layer_scores.any()
        assert not report.head_scores.any()

    def test_doubling_gradient_doubles_scores(self):
        a, g = self.hand_fixture()
        one = saliency_report(a, g, (0, 1, 2, 4))
        two = saliency_report(a, 2.0 * g, (0, 1, 2, 4))
        assert np.allclose(two.head_scores, 2.0 * one.head_scores, rtol=1e-12)

    def test_head_sum_equals_layer_score(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 2, 12, 12)).astype(np.float32)
        g = rng.normal(size=(4, 2, 12, 12)).astype(np.float32)
        report = saliency_report(a, g, (0, 5, 7, 12))
        assert np.allclose(report.layer_scores, report.head_scores.sum(axis=1))

    def test_report_matches_slice_scores(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(3, 2, 16, 16)).astype(np.float32)
        g = rng.normal(size=(3, 2, 16, 16)).astype(np.float32)
        boundaries = (1, 6, 9, 16)
        report = saliency_report(a, g, boundaries)
        masks = build_masks(boundaries)
        for layer in range(3):
            for head in range(2):
                for i, mask in enumerate(masks):
                    direct = saliency_score(a[layer, head], g[layer, head], mask)
                    assert report.head_scores[layer, head, i] == pytest.approx(
                        direct, rel=1e-12, abs=1e-12
                    )

    def test_shape_gates(self):
        a, g = self.hand_fixture()
        with pytest.raises(TensorFormatError):
            saliency_report(a, g[:1], (0, 1, 2, 4))
        with pytest.raises(TensorFormatError):
            saliency_report(a[0], g[0], (0, 1, 2, 4))
        with pytest.raises(ConfigurationError):
            saliency_report(a, g, (0, 1, 2, 5))
        rect = np.zeros((1, 1, 3, 4), dtype=np.float32)
        with pytest.raises(TensorFormatError):
            saliency_report(rect, rect, (0, 1, 2, 4))

    def test_obj_and_csv_emission(self, tmp_path):
        a, g = self.hand_fixture()
        report = saliency_report(a, g, (0, 1, 2, 4))
        obj = report_to_obj(report)
        assert obj["alpha"] == 1.0
        assert obj["boundaries"] == [0, 1, 2, 4]
        assert obj["layer_scores"][0]["terminator_to_answer"] == 10.0
        assert obj["head_scores"][1][0]["reasoning_to_answer"] == 8.0

        path = str(tmp_path / "report.csv")
        report_curves_to_csv(report, path)
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["layer", "head", "path", "score"]
        # 2 layers x (3 summed + 1 head x 3)
        assert len(rows) == 1 + 2 * 6
        summed = [r for r in rows[1:] if r[1] == ""]
        assert [r[3] for r in summed[:3]] == ["8.0", "2.0", "10.0"]

    def test_peak_stays_below_the_inputs(self):
        rng = np.random.default_rng(8)
        a = rng.random((2, 4, 512, 512), dtype=np.float32)
        g = rng.standard_normal((2, 4, 512, 512), dtype=np.float32)
        tracemalloc.start()
        try:
            saliency_report(a, g, (0, 255, 257, 512))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < a.nbytes + g.nbytes, f"{peak / 2**20:.1f} MiB"


class TestPlantedBottleneck:
    """Answer rows put share q on the terminator and 1 - q on the reasoning
    span; with unit gradients the report must give those shares back."""

    @pytest.mark.parametrize("share", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("seed", range(3))
    def test_report_recovers_planted_shares(self, seed, share):
        rng = np.random.default_rng(seed)
        layers, heads = 2, 3
        end = int(rng.integers(16, 48))
        p, r, s = sorted(rng.choice(np.arange(end - 1), size=3, replace=False).tolist())
        # every row a causal softmax, then the answer rows replanted
        logits = rng.normal(size=(layers, heads, end, end))
        logits[..., ~np.tri(end, dtype=bool)] = -np.inf
        a = np.exp(logits - logits.max(axis=-1, keepdims=True))
        a /= a.sum(axis=-1, keepdims=True)
        q = np.clip(share + rng.uniform(-0.04, 0.04, size=(layers, heads)), 0.0, 1.0)
        spread = rng.dirichlet(np.ones(r - p), size=(layers, heads, end - s))
        a[..., s:end, :] = 0.0
        a[..., s:end, r] = q[..., None]
        a[..., s:end, p:r] = (1.0 - q)[..., None, None] * spread
        report = saliency_report(a, np.ones_like(a), (p, r, s, end))
        scores = dict(zip(report.paths, np.moveaxis(report.head_scores, -1, 0)))
        np.testing.assert_allclose(scores["terminator_to_answer"], (end - s) * q, rtol=1e-12)
        np.testing.assert_allclose(scores["reasoning_to_answer"], (end - s) * (1.0 - q), rtol=1e-12)
        np.testing.assert_allclose(
            scores["reasoning_to_terminator"], a[..., r, p:r].sum(axis=-1), rtol=1e-12
        )
