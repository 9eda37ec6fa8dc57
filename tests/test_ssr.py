"""SSR arithmetic: sampling resolution, normalization, kernel size, weights."""

import math

import numpy as np
import pytest

from mflscan.errors import ConfigInvalid
from mflscan.ssr import (
    AdaptiveConfig,
    adaptive_kernel_size,
    build_context,
    compute_ssr,
    layer_weights,
    normalize_ssr,
)
from mflscan.synth import scenario_presets


class TestComputeSsr:
    def test_extreme_reference(self):
        assert compute_ssr(250.0, 1.5) == pytest.approx(166.6667, abs=1e-3)

    def test_ratio_identity(self):
        for f in (1.0, 33.0, 999.0):
            assert compute_ssr(f, f) == pytest.approx(1.0)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError, match="their ratio"):
            compute_ssr(0.0, 1.0)
        with pytest.raises(ValueError, match="their ratio"):
            compute_ssr(250.0, -1.0)
        for fs, v in ((1e-300, 1e300), (1e300, 1e-300)):  # the ratio under/overflows
            with pytest.raises(ValueError, match="their ratio"):
                compute_ssr(fs, v)

    def test_inverts_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            fs = rng.uniform(1, 1000)
            v = rng.uniform(0.01, 3)
            assert compute_ssr(fs, v) * v == pytest.approx(fs, rel=1e-12)


class TestNormalizeSsr:
    def test_dense_scan(self):
        assert normalize_ssr(500.0) == pytest.approx(1.0 / 3.0, abs=1e-4)

    def test_sparser_than_extreme_clamps_to_one(self):
        assert normalize_ssr(100.0) == 1.0

    def test_rejects_non_positive(self):
        # f_spatial <= 0 is refused where it is computed, for the public
        # build_context; the extreme reference where it is configured
        with pytest.raises(ValueError, match="their ratio"):
            build_context(0.0, 1.0)
        with pytest.raises(ConfigInvalid, match="f_spatial_extreme"):
            AdaptiveConfig(f_spatial_extreme=0.0)


class TestAdaptiveKernelSize:
    def test_identity_at_mu_one(self):
        assert adaptive_kernel_size(1.0) == 5

    def test_limit_near_zero(self):
        assert adaptive_kernel_size(1e-12) == 10

    def test_range_bound(self):
        cfg = AdaptiveConfig()
        rng = np.random.default_rng(2)
        for mu in rng.uniform(1e-9, 1.0, size=500):
            k = adaptive_kernel_size(float(mu), cfg)
            assert cfg.kernel_base <= k <= cfg.kernel_base + math.ceil(cfg.alpha)

    def test_equal_ssr_gives_one_kernel(self):
        # each pair is f_s / v = 166.67, the extreme reference, but half of
        # them give mu = 0.9999999999999998; the presets keep their kernels
        for fs, v in ((250, 1.5), (500, 3.0), (150, 0.9), (100, 0.6), (200, 1.2), (50, 0.3)):
            assert build_context(fs, v).kernel_size == 5, (fs, v)
        presets = [scenario_presets()[name] for name in ("low_ssr", "optimal_ssr", "high_ssr")]
        assert [build_context(p.sampling_rate_hz, p.inspection_speed_mps).kernel_size
                for p in presets] == [6, 9, 10]

    def test_rejects_out_of_range_mu(self):
        # mu lies in (0, 1] by construction: the reference is refused at 0 or
        # inf, the record's f_spatial likewise, and normalize_ssr clamps
        with pytest.raises(ConfigInvalid, match="f_spatial_extreme"):
            AdaptiveConfig(f_spatial_extreme=0.0)
        with pytest.raises(ValueError, match="their ratio"):
            build_context(1e300, 1e-300)
        for fs, v in ((1e-6, 1e6), (250.0, 0.5), (1e6, 1e-6)):
            assert 0 < build_context(fs, v).mu <= 1


class TestLayerWeights:
    def test_mu_one_all_high_resolution(self):
        assert layer_weights(1.0) == (1.0, 0.0, 0.0)

    def test_simplex_sum(self):
        rng = np.random.default_rng(4)
        for mu in rng.uniform(1e-9, 1.0, size=1000):
            w = layer_weights(float(mu))
            assert sum(w) == pytest.approx(1.0, abs=1e-12)
            assert all(wi >= 0 for wi in w)

    def test_weight_monotonicity(self):
        mus = np.linspace(0.01, 1.0, 50)
        w1 = [layer_weights(m)[0] for m in mus]
        w3 = [layer_weights(m)[2] for m in mus]
        assert np.all(np.diff(w1) > 0)
        assert np.all(np.diff(w3) < 0)


class TestBuildContext:
    def test_speed_monotonicity(self):
        cfg = AdaptiveConfig()
        speeds = np.linspace(0.1, 3.0, 30)
        contexts = [build_context(250.0, v, cfg) for v in speeds]
        f_spatials = [c.f_spatial for c in contexts]
        mus = [c.mu for c in contexts]
        kernels = [c.kernel_size for c in contexts]
        assert np.all(np.diff(f_spatials) < 0)
        assert np.all(np.diff(mus) >= 0)
        assert np.all(np.diff(kernels) <= 0)

    def test_context_fields_consistent(self):
        ctx = build_context(250.0, 0.5)
        assert ctx.f_spatial == pytest.approx(500.0)
        assert ctx.mu == pytest.approx(1.0 / 3.0, abs=1e-4)
        assert ctx.kernel_size == 9
        assert sum(ctx.weights) == pytest.approx(1.0, abs=1e-12)

    def test_config_validation(self):
        for gamma in (0.0, -1.0):
            with pytest.raises(ConfigInvalid, match="gamma"):
                AdaptiveConfig(gamma=gamma)

    @pytest.mark.parametrize("name", ["f_spatial_extreme", "alpha", "gamma"])
    def test_non_finite_values_rejected(self, name):
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match=name):
                AdaptiveConfig(**{name: value})
