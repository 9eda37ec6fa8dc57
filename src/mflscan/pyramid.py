"""Three-layer image pyramid and flaw-template cross-correlation.

A flaw shows up as a valley-then-peak pair along the rope axis, i.e. a dark
area immediately followed by a bright area in image coordinates. The template
encodes exactly that: -1 columns on the left, +1 columns on the right.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import correlate1d

from .ingest import MflImage


@dataclass(frozen=True)
class ImagePyramid:
    """Layer 1 is the original image; layers 2 and 3 are repeated 2x2 poolings."""

    layers: tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class FlawTemplate:
    kernel: np.ndarray
    size: int


def _pool2(img: np.ndarray) -> np.ndarray:
    """2x2 non-overlapping average pooling; odd trailing row/column dropped."""
    h, w = img.shape
    h2, w2 = h // 2, w // 2
    trimmed = img[: 2 * h2, : 2 * w2]
    return trimmed.reshape(h2, 2, w2, 2).mean(axis=(1, 3))


def build_pyramid(img: MflImage) -> ImagePyramid:
    pixels = np.asarray(img.pixels, dtype=float)
    layer2 = _pool2(pixels)
    layer3 = _pool2(layer2)
    return ImagePyramid(layers=(pixels, layer2, layer3))


def build_template(size: int) -> FlawTemplate:
    """Axially antisymmetric K x K template: left half -1, right half +1.

    Odd sizes get a zero center column so the entries always sum to zero,
    giving zero response on constant regions.
    """
    kernel = np.zeros((size, size))
    half = size // 2
    kernel[:, :half] = -1.0
    kernel[:, size - half :] = 1.0
    return FlawTemplate(kernel=kernel, size=size)


def match(layer: np.ndarray, template: FlawTemplate) -> np.ndarray:
    """Cross-correlate a pyramid layer with the flaw template, same-size output.

    Axial (left/right) edges are padded by replicating the nearest interior
    column; radial (top/bottom) edges wrap circularly, matching the ring
    sensor geometry. The returned response is the elementwise absolute value.

    The template is rank 1: every row is the same axial step row, i.e. a
    radial box of K ones times that row. So the correlation runs as two 1-D
    passes, a K-wide box sum down each column (wrapping) and then the step
    row along each row (clamped). The template is anchored at row and column
    (K - 1) // 2; for even K that is one less than ndimage's default K // 2,
    hence origin -1.
    """
    layer = np.asarray(layer, dtype=float)
    k = template.size
    origin = -1 if k % 2 == 0 else 0
    radial = correlate1d(layer, np.ones(k), axis=0, mode="wrap", origin=origin)
    response = correlate1d(
        radial, template.kernel[0], axis=1, mode="nearest", origin=origin
    )
    return np.abs(response)
