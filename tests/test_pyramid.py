"""Image pyramid construction and flaw-template matching."""

import numpy as np
import pytest

from mflscan.errors import ConfigInvalid
from mflscan.pipeline import RunConfig, method_plan
from mflscan.pyramid import build_pyramid, build_template, match
from mflscan.ssr import AdaptiveConfig, build_context

# mu = 1/3 (250 Hz at 0.5 m/s): K_a = 9, every layer used
CFG = AdaptiveConfig()
CONTEXT = build_context(250.0, 0.5, CFG)


def naive_match(layer, kernel):
    """Quadruple-loop reference: circular rows, clamped columns, |response|.

    Deliberately avoids filter routines so it can act as an independent
    oracle for `match`.
    """
    h, w = layer.shape
    k = kernel.shape[0]
    before = (k - 1) // 2
    out = np.zeros((h, w))
    for r in range(h):
        for c in range(w):
            acc = 0.0
            for a in range(k):
                for b in range(k):
                    rr = (r + a - before) % h  # radial axis wraps
                    cc = min(max(c + b - before, 0), w - 1)  # axial clamps
                    acc += layer[rr, cc] * kernel[a, b]
            out[r, c] = abs(acc)
    return out


def square(template):
    """The K x K flaw template whose every row is the axial step row `template`."""
    return np.tile(template, (template.size, 1))


class TestBuildPyramid:
    def test_standard_dimensions(self):
        pyr = build_pyramid(np.zeros((200, 200)))
        assert pyr[0].shape == (200, 200)
        assert pyr[1].shape == (100, 100)
        assert pyr[2].shape == (50, 50)

    def test_constant_image_stays_constant(self):
        pyr = build_pyramid(np.full((40, 40), 0.6))
        for layer in pyr:
            assert np.allclose(layer, 0.6)

    def test_checkerboard_averages_to_zero(self):
        board = np.indices((4, 4)).sum(axis=0) % 2 * 2.0 - 1.0
        pyr = build_pyramid(board)
        assert np.allclose(pyr[1], 0.0)

    def test_layer_one_is_input(self):
        rng = np.random.default_rng(0)
        pixels = rng.normal(size=(16, 16))
        pyr = build_pyramid(pixels)
        assert np.array_equal(pyr[0], pixels)

    def test_pooled_pixel_within_source_block(self):
        rng = np.random.default_rng(1)
        pixels = rng.normal(size=(20, 20))
        pyr = build_pyramid(pixels)
        l2 = pyr[1]
        for r in range(10):
            for c in range(10):
                block = pixels[2 * r : 2 * r + 2, 2 * c : 2 * c + 2]
                assert block.min() - 1e-12 <= l2[r, c] <= block.max() + 1e-12

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_depth_gives_the_first_layers(self, depth):
        pixels = np.random.default_rng(2).normal(size=(200, 200))
        layers = build_pyramid(pixels, depth)
        assert isinstance(layers, tuple) and len(layers) == depth
        for layer, full in zip(layers, build_pyramid(pixels)):
            assert np.array_equal(layer, full)

    def test_odd_trailing_dropped(self):
        pyr = build_pyramid(np.zeros((9, 7)))
        assert pyr[1].shape == (4, 3)
        assert pyr[2].shape == (2, 1)

    def test_too_small_rejected(self):
        # the segment shape is checked once, in the run's plan
        with pytest.raises(ConfigInvalid, match="image_height x segment_length = 3 x 10 is below"):
            method_plan(CONTEXT, CFG, (3, 10), RunConfig(method="single_scale"))


class TestBuildTemplate:
    def test_smallest_pair(self):
        assert np.array_equal(square(build_template(2)), [[-1, 1], [-1, 1]])

    def test_odd_size_zero_center_column(self):
        assert np.array_equal(build_template(5), [-1.0, -1.0, 0.0, 1.0, 1.0])

    def test_zero_dc_for_all_sizes(self):
        for k in range(2, 12):
            assert build_template(k).size == k
            assert build_template(k).sum() == 0.0

    def test_rejects_size_one(self):
        # every kernel is at least kernel_base, which AdaptiveConfig keeps >= 2
        with pytest.raises(ConfigInvalid, match="kernel_base"):
            AdaptiveConfig(kernel_base=1)


class TestMatch:
    def test_axial_step_fixture(self):
        # columns 0-2 = -1, columns 3-5 = +1; 2x2 template at the step sums
        # (-1)(-1)+(1)(1) per row = 4 over two rows
        layer = np.ones((6, 6))
        layer[:, :3] = -1.0
        out = match(layer, build_template(2))
        assert out[3, 2] == pytest.approx(4.0)
        assert out[3, 0] == pytest.approx(0.0)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(42)
        for k in range(2, 11):
            tmpl = build_template(k)
            for shape in ((k, k), (k + 7, k), (k, k + 9)):
                layer = rng.normal(size=shape)
                assert np.allclose(match(layer, tmpl), naive_match(layer, square(tmpl)),
                                   atol=1e-12)

    def test_same_size_output(self):
        out = match(np.zeros((11, 17)), build_template(4))
        assert out.shape == (11, 17)

    def test_scaling_linearity(self):
        rng = np.random.default_rng(6)
        layer = rng.normal(size=(12, 12))
        tmpl = build_template(3)
        assert np.allclose(match(-2.5 * layer, tmpl), 2.5 * match(layer, tmpl))

    def test_translation_covariance_interior(self):
        layer = np.zeros((16, 32))
        layer[6:10, 10] = -1.0
        layer[6:10, 12] = 1.0
        shifted = np.roll(layer, 1, axis=1)
        tmpl = build_template(3)
        a = match(layer, tmpl)
        b = match(shifted, tmpl)
        assert np.allclose(b[:, 6:26], np.roll(a, 1, axis=1)[:, 6:26])

    def test_orientation_selectivity(self):
        axial_step = np.ones((12, 12))
        axial_step[:, :6] = -1.0
        radial_step = axial_step.T.copy()
        tmpl = build_template(4)
        assert match(axial_step, tmpl).max() > match(radial_step, tmpl).max()

    def test_layer_smaller_than_kernel_rejected(self):
        # L1 of a 4 x 10 segment is smaller than kernel_base = 5
        with pytest.raises(ConfigInvalid, match=r"kernel size 5 \(from kernel_base and alpha\) exceeds layer L1"):
            method_plan(CONTEXT, CFG, (4, 10), RunConfig(method="single_scale"))
