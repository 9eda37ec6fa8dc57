"""Gamma enhancement, row envelopes, bilinear upsampling, layer fusion."""

import numpy as np
import pytest
from scipy.ndimage import map_coordinates

from mflscan.enhance import (
    _bilinear_taps,
    _maxima_mask,
    envelope,
    fuse,
    gamma_enhance,
    peak_normalize,
    upsample_bilinear,
)


def naive_maxima_mask(enhanced):
    """Run-length reference for `_maxima_mask`: every row is cut into maximal
    runs of equal values; a run [s, e] that touches neither row end and whose
    two neighbours are strictly lower is marked at (s + e) // 2."""
    h, w = enhanced.shape
    mask = np.zeros(h * w, dtype=bool)
    if w < 3:
        return mask.reshape(h, w)
    flat = enhanced.ravel()
    differs = enhanced[:, 1:] != enhanced[:, :-1]
    edge = np.ones((h, 1), dtype=bool)
    # runs break at every row boundary, so flat indices never mix rows
    starts = np.flatnonzero(np.hstack([edge, differs]))
    ends = np.flatnonzero(np.hstack([differs, edge]))
    interior = (starts % w > 0) & (ends % w < w - 1)
    starts, ends = starts[interior], ends[interior]
    peak = (flat[starts - 1] < flat[starts]) & (flat[ends + 1] < flat[ends])
    mask[(starts[peak] + ends[peak]) // 2] = True
    return mask.reshape(h, w)


def _row_maxima(row):
    """Indices of interior local maxima; a plateau counts once at its center."""
    return np.flatnonzero(_maxima_mask(np.asarray(row)[None, :])).tolist()


def mixed_rows(rng, shape):
    """One image whose rows differ in kind: uniform floats, small integers
    (plateaus everywhere), and a float row holding one plateau of 1-6 equal
    values at a random place, column 0 and column W - 1 included."""
    h, w = shape
    e = rng.uniform(0, 1, size=shape)
    for r in range(h):
        kind = rng.integers(0, 3)
        if kind == 1:
            e[r] = rng.integers(0, 4, size=w)
        elif kind == 2:
            length = int(rng.integers(1, min(w, 6) + 1))
            start = int(rng.choice([0, w - length, rng.integers(0, w - length + 1)]))
            e[r, start : start + length] = rng.choice([0.0, 0.5, 2.0])  # low, middle, peak
    return e


def naive_envelope(enhanced):
    """Row-by-row reference for `envelope`: a plateau-scanning loop finds each
    row's interior maxima, then one np.interp per row bridges them."""
    out = enhanced.copy()
    n = enhanced.shape[1]
    cols = np.arange(n)
    for r, row in enumerate(enhanced):
        maxima = []
        i = 1
        while i < n - 1:
            j = i
            while j + 1 < n and row[j + 1] == row[i]:
                j += 1
            # plateau [i, j]; maximal run of equal values
            if j < n - 1 and row[i - 1] < row[i] and row[j + 1] < row[j]:
                maxima.append((i + j) // 2)
            i = j + 1
        if maxima:
            out[r] = np.maximum(np.interp(cols, maxima, row[maxima]), row)
    return out


def naive_upsample_bilinear(src, shape):
    """Reference for `upsample_bilinear`: map_coordinates (order 1, nearest
    edges) on the full grid of area-aligned, clamped sample centers."""
    ht, wt = shape
    hs, ws = src.shape
    rows = np.clip((np.arange(ht) + 0.5) * (hs / ht) - 0.5, 0, hs - 1)
    cols = np.clip((np.arange(wt) + 0.5) * (ws / wt) - 0.5, 0, ws - 1)
    grid = np.meshgrid(rows, cols, indexing="ij")
    return map_coordinates(src, grid, order=1, mode="nearest")


def naive_recursive_fuse(f1, f2, f3, w1, w2):
    """Reference recursive blend: G2 = w2*F2 + (1-w2)*up(F3), G1 = w1*F1 + (1-w1)*up(G2)."""
    g2 = w2 * f2 + (1.0 - w2) * naive_upsample_bilinear(f3, f2.shape)
    return w1 * f1 + (1.0 - w1) * naive_upsample_bilinear(g2, f1.shape)


def naive_flat_fuse(f1, f2, f3, w1, w2, w3):
    """Reference flat blend with three upsamples: w1*F1 + w2*up(F2) + w3*up(up(F3))."""
    return (
        w1 * f1
        + w2 * naive_upsample_bilinear(f2, f1.shape)
        + w3 * naive_upsample_bilinear(naive_upsample_bilinear(f3, f2.shape), f1.shape)
    )


class TestPeakNormalize:
    def test_divides_by_peak(self):
        image = np.array([[0.5, 2.0], [-1.0, 1.0]])
        assert np.array_equal(peak_normalize(image), image / 2.0)

    def test_non_positive_peak_gives_zeros(self):
        for image in (np.zeros((3, 4)), np.full((2, 2), -0.5)):
            out = peak_normalize(image)
            assert out.shape == image.shape and not out.any()


class TestGammaEnhance:
    def test_unit_exponent_is_max_normalization(self):
        rng = np.random.default_rng(0)
        c = rng.uniform(0, 5, size=(10, 10))
        assert np.allclose(gamma_enhance(c, 1.0), c / c.max())

    def test_square_law_fixture(self):
        c = np.array([[1.0, 0.5]])
        out = gamma_enhance(c, 2.0)
        assert out[0, 1] == pytest.approx(0.25)

    def test_all_zero_passthrough(self):
        assert np.allclose(gamma_enhance(np.zeros((4, 4)), 2.0), 0.0)

    def test_range_stays_unit(self):
        rng = np.random.default_rng(1)
        c = rng.uniform(0, 3, size=(20, 20))
        for g in (0.5, 1.5, 2.0, 3.0):
            out = gamma_enhance(c, g)
            assert out.min() >= 0.0
            assert out.max() == pytest.approx(1.0)


class TestEnvelope:
    def test_monotone_row_unchanged(self):
        row = np.linspace(0, 1, 8)[None, :]
        assert np.allclose(envelope(row), row)

    def test_two_peaks_bridge_to_ones(self):
        row = np.array([[0.0, 1.0, 0.0, 0.0, 1.0, 0.0]])
        assert np.allclose(envelope(row), 1.0)

    def test_single_triangle_held_both_ways(self):
        row = np.array([[0.0, 0.5, 1.0, 0.5, 0.0]])
        assert np.allclose(envelope(row), 1.0)

    def test_upper_envelope_property(self):
        rng = np.random.default_rng(3)
        e = rng.uniform(0, 1, size=(20, 40))
        out = envelope(e)
        assert np.all(out >= e - 1e-12)

    def test_plateau_counts_once(self):
        # flat-topped peak: envelope bridges from its center, stays at 0.8
        row = np.array([[0.1, 0.8, 0.8, 0.8, 0.1, 0.9, 0.1]])
        out = envelope(row)
        assert out[0, 0] == pytest.approx(0.8)
        assert np.all(out >= row)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        fixed = [
            np.full((3, 9), 0.4),  # constant rows
            np.tile(np.linspace(0, 1, 9), (2, 1)),  # monotone rows
            np.tile(np.linspace(1, 0, 9), (2, 1)),
            np.array([[0.0, 0.2, 0.9, 0.2, 0.1, 0.1]]),  # exactly one maximum
            np.array([[0.3, 0.5, 0.5, 0.5, 0.2]]),  # one plateau maximum
        ]
        for e in fixed:
            assert np.array_equal(envelope(e), naive_envelope(e))
            assert np.array_equal(_maxima_mask(e), naive_maxima_mask(e))
        for trial in range(300):
            shape = (int(rng.integers(1, 61)), int(rng.integers(1, 41)))
            if trial < 30:
                shape = (shape[0], trial % 3 + 1)  # widths 1-3
            if trial % 2:
                e = rng.integers(0, 4, size=shape).astype(float)  # plateaus
            else:
                e = rng.uniform(0, 1, size=shape)
            assert np.array_equal(envelope(e), naive_envelope(e))
            assert np.array_equal(_maxima_mask(e), naive_maxima_mask(e))
        for trial in range(300):
            # integer-plateau rows beside float rows in one image
            shape = (int(rng.integers(1, 41)), int(rng.integers(1, 31)))
            if trial < 30:
                shape = (shape[0], trial % 3 + 1)  # widths 1-3
            e = mixed_rows(rng, shape)
            assert np.array_equal(_maxima_mask(e), naive_maxima_mask(e))
            assert np.array_equal(envelope(e), naive_envelope(e))

    def test_plateau_maxima_marked_at_center(self):
        # odd and even plateau lengths, at the ends of the row and inside it
        cases = {
            (0.0, 1.0, 1.0, 1.0, 0.0): [2],
            (0.0, 1.0, 1.0, 1.0, 1.0, 0.0): [2],
            (0.0, 1.0, 1.0, 0.0, 2.0, 2.0, 2.0, 2.0, 2.0, 0.0): [1, 6],
            (1.0, 1.0, 0.0, 3.0, 0.0): [3],  # plateau touching column 0
            (0.0, 3.0, 0.0, 1.0, 1.0): [1],  # plateau touching column W - 1
            (2.0, 2.0, 2.0): [],
            (0.0, 2.0, 2.0, 3.0, 0.0): [3],  # a shoulder is no maximum
        }
        for row, expected in cases.items():
            e = np.array([row])
            assert np.flatnonzero(_maxima_mask(e)).tolist() == expected
            assert np.array_equal(envelope(e), naive_envelope(e))

    def test_rows_processed_independently(self):
        e = np.zeros((2, 6))
        e[0] = [0.0, 1.0, 0.0, 0.0, 1.0, 0.0]
        e[1] = np.linspace(0, 0.5, 6)
        out = envelope(e)
        assert np.allclose(out[0], 1.0)
        assert np.allclose(out[1], e[1])


class TestUpsampleBilinear:
    def test_constant_preserved(self):
        out = upsample_bilinear(np.full((5, 5), 0.7), (10, 10))
        assert np.allclose(out, 0.7)

    def test_exact_target_shape(self):
        out = upsample_bilinear(np.zeros((50, 50)), (200, 200))
        assert out.shape == (200, 200)

    def test_range_bounded_by_source(self):
        rng = np.random.default_rng(4)
        src = rng.uniform(0, 1, size=(8, 8))
        out = upsample_bilinear(src, (16, 16))
        assert out.min() >= src.min() - 1e-12
        assert out.max() <= src.max() + 1e-12

    def test_matches_map_coordinates_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            src_shape = tuple(int(n) for n in rng.integers(1, 30, size=2))
            if rng.uniform() < 0.5:  # the pyramid's case: undo a halving, odd sizes too
                shape = tuple(2 * n + int(rng.integers(0, 2)) for n in src_shape)
            else:  # any resize, shrinking included
                shape = tuple(int(n) for n in rng.integers(1, 70, size=2))
            src = rng.normal(size=src_shape)
            np.testing.assert_allclose(
                upsample_bilinear(src, shape), naive_upsample_bilinear(src, shape),
                rtol=0, atol=1e-12,
            )

    def test_taps_are_read_only(self):
        for axis, (n, target) in enumerate(((3, 6), (4, 8))):
            for tap in _bilinear_taps(n, target, axis):
                with pytest.raises(ValueError, match="read-only"):
                    tap[0] = 0

    def test_outputs_independent(self):
        src = np.random.default_rng(2).uniform(0, 1, size=(5, 7))
        first = upsample_bilinear(src, (10, 14))
        want = first.copy()
        first[:] = -1.0
        assert np.array_equal(upsample_bilinear(src, (10, 14)), want)


class TestFuse:
    def _layers(self, seed=0, shape=(40, 40)):
        rng = np.random.default_rng(seed)
        f1 = rng.uniform(0, 1, size=shape)
        f2 = rng.uniform(0, 1, size=(shape[0] // 2, shape[1] // 2))
        f3 = rng.uniform(0, 1, size=(shape[0] // 4, shape[1] // 4))
        return f1, f2, f3

    def test_full_weight_on_fine_layer(self):
        f1, f2, f3 = self._layers()
        out = fuse((f1, f2, f3), (1.0, 0.0, 0.0))
        assert np.allclose(out, f1)

    def test_full_weight_on_coarse_layer(self):
        f1, f2, f3 = self._layers()
        out = fuse((f1, f2, f3), (0.0, 0.0, 1.0))
        expected = upsample_bilinear(upsample_bilinear(f3, f2.shape), f1.shape)
        assert np.allclose(out, expected)

    def test_constant_layers_fixture(self):
        f1 = np.full((8, 8), 0.4)
        f2 = np.full((4, 4), 0.4)
        f3 = np.full((2, 2), 0.4)
        for weights in ((0.25, 0.5, 0.25), (0.6, 0.3, 0.1)):
            out = fuse((f1, f2, f3), weights)
            assert np.allclose(out, 0.4)

    def test_matches_naive_oracles(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            shape = (int(rng.integers(4, 41)), int(rng.integers(4, 41)))  # odd sizes too
            f1 = rng.uniform(0, 1, size=shape)
            f2 = rng.uniform(0, 1, size=(shape[0] // 2, shape[1] // 2))
            f3 = rng.uniform(0, 1, size=(shape[0] // 4, shape[1] // 4))
            w1, w2, w3 = rng.dirichlet((1.0, 1.0, 1.0))
            flat = fuse((f1, f2, f3), (w1, w2, w3))
            assert np.allclose(flat, naive_flat_fuse(f1, f2, f3, w1, w2, w3),
                               rtol=0, atol=1e-12)
            effective = (w1, (1 - w1) * w2, (1 - w1) * (1 - w2))
            recursive = fuse((f1, f2, f3), effective)
            assert np.allclose(recursive, naive_recursive_fuse(f1, f2, f3, w1, w2),
                               rtol=0, atol=1e-12)

    def test_fewer_layers(self):
        f1, f2, f3 = self._layers(seed=8)
        assert np.array_equal(fuse((f1,), (1.0, 0.0, 0.0)), f1)
        two = fuse((f1, f2), (0.7, 0.3, 0.0))
        assert np.allclose(two, naive_flat_fuse(f1, f2, f3, 0.7, 0.3, 0.0),
                           rtol=0, atol=1e-12)

    def test_flaw_value_nondecreasing_in_fine_weight(self):
        f1, f2, f3 = self._layers(seed=6)
        f1[20, 20] = 1.0  # bright flaw pixel only in the fine layer
        f2[:] = 0.0
        f3[:] = 0.0
        values = []
        for w1 in (0.2, 0.5, 0.8, 1.0):
            out = fuse((f1, f2, f3), (w1, (1 - w1) / 2, (1 - w1) / 2))
            values.append(out[20, 20])
        assert np.all(np.diff(values) >= -1e-12)

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_inputs_untouched_and_outputs_independent(self, n_layers):
        layers = self._layers(seed=9)[:n_layers]
        weights = (0.5, 0.3, 0.2)[:n_layers] + (0.0,) * (3 - n_layers)
        before = [f.tobytes() for f in layers]
        for f in layers:
            upsample_bilinear(f, (2 * f.shape[0] + 1, 2 * f.shape[1]))
        first = fuse(layers, weights)
        assert [f.tobytes() for f in layers] == before
        want = first.copy()
        first[:] = -1.0
        assert np.array_equal(fuse(layers, weights), want)
        assert [f.tobytes() for f in layers] == before

    def test_result_type(self):
        out = fuse(self._layers(), (0.5, 0.3, 0.2))
        assert isinstance(out, np.ndarray)
        assert out.shape == (40, 40)
