"""Spatial sampling resolution (SSR) arithmetic.

SSR is the sample density along the rope axis, f_s / v. Everything adaptive in
the pipeline (kernel size, pyramid layer weights) derives from its normalized
value mu against a fixed extreme reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigInvalid


@dataclass(frozen=True)
class AdaptiveConfig:
    f_spatial_extreme: float = 250.0 / 1.5  # samples per metre: 250 Hz at 1.5 m/s
    kernel_base: int = 5
    alpha: float = 5.0
    gamma: float = 2.0

    def __post_init__(self):
        for name in ("f_spatial_extreme", "alpha", "gamma"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigInvalid(f"{name} must be finite and > 0, not {value}")
        # beyond 2**53 the float sum K_base + alpha * (1 - mu) is no longer
        # exact, and past the float range it overflows
        if not 2 <= self.kernel_base <= 2**53:
            raise ConfigInvalid("kernel_base must lie in [2, 2**53]")


@dataclass(frozen=True)
class SsrContext:
    """Per-record adaptive quantities derived from sampling rate and speed."""

    f_spatial: float
    mu: float
    kernel_size: int
    weights: tuple[float, float, float]


def compute_ssr(fs_hz: float, v_mps: float) -> float:
    """Samples per meter of rope: f_s / v."""
    if not (fs_hz > 0 and v_mps > 0 and 0 < fs_hz / v_mps < math.inf):
        raise ValueError("sampling rate, speed and their ratio must be finite and > 0")
    return fs_hz / v_mps


def normalize_ssr(f_spatial: float, cfg: AdaptiveConfig = AdaptiveConfig()) -> float:
    """Normalize SSR against the extreme reference, clamped to (0, 1].

    Values above 1 mean the rope was scanned sparser than the extreme
    reference; those use the base kernel and full high-resolution weighting.
    """
    return min(cfg.f_spatial_extreme / f_spatial, 1.0)


def adaptive_kernel_size(mu: float, cfg: AdaptiveConfig = AdaptiveConfig()) -> int:
    """Kernel side after adaptive adjustment: ceil(K_base + alpha * (1 - mu)).

    The sum is rounded to 12 decimals before `ceil`, so records at one SSR get
    one kernel: 250 Hz at 1.5 m/s gives mu = 1.0, but 100 Hz at 0.6 m/s gives
    0.9999999999999998, whose float noise would otherwise lift K_a by one.
    """
    return math.ceil(round(cfg.kernel_base + cfg.alpha * (1.0 - mu), 12))


def layer_weights(mu: float) -> tuple[float, float, float]:
    """Pyramid layer weights (high, medium, low resolution) from normalized SSR.

    (mu^2, 2*mu*(1-mu), (1-mu)^2) -- a point on the 2-simplex by construction.
    """
    return (mu * mu, 2.0 * mu * (1.0 - mu), (1.0 - mu) * (1.0 - mu))


def build_context(
    fs_hz: float, v_mps: float, cfg: AdaptiveConfig = AdaptiveConfig()
) -> SsrContext:
    """Derive all adaptive quantities for one record."""
    f_spatial = compute_ssr(fs_hz, v_mps)
    mu = normalize_ssr(f_spatial, cfg)
    return SsrContext(
        f_spatial=f_spatial,
        mu=mu,
        kernel_size=adaptive_kernel_size(mu, cfg),
        weights=layer_weights(mu),
    )
