"""Three-layer image pyramid and flaw-template cross-correlation.

A flaw shows up as a valley-then-peak pair along the rope axis, i.e. a dark
area immediately followed by a bright area in image coordinates. The template
encodes exactly that: -1 columns on the left, +1 columns on the right.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import correlate1d


def _pool2(img: np.ndarray) -> np.ndarray:
    """2x2 non-overlapping average pooling; odd trailing row/column dropped."""
    h, w = img.shape
    h2, w2 = h // 2, w // 2
    trimmed = img[: 2 * h2, : 2 * w2]
    return trimmed.reshape(h2, 2, w2, 2).mean(axis=(1, 3))


def build_pyramid(pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer 1 is the image itself; layers 2 and 3 are repeated 2x2 poolings."""
    layer1 = np.asarray(pixels, dtype=float)
    layer2 = _pool2(layer1)
    return layer1, layer2, _pool2(layer2)


def build_template(size: int) -> np.ndarray:
    """The axial step row of the K x K flaw template: left half -1, right half +1.

    Every row of the template is this row. Odd sizes get a zero center entry
    so the entries always sum to zero, giving zero response on constant
    regions.
    """
    row = np.zeros(size)
    half = size // 2
    row[:half] = -1.0
    row[size - half :] = 1.0
    return row


def match(layer: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Cross-correlate a pyramid layer with the K x K flaw template, same-size output.

    Axial (left/right) edges are padded by replicating the nearest interior
    column; radial (top/bottom) edges wrap circularly, matching the ring
    sensor geometry. The returned response is the elementwise absolute value.

    `template` is the template's axial step row. The template is rank 1, a
    radial box of K ones times that row, so the correlation runs as two 1-D
    passes: a K-wide box sum down each column (wrapping) and then the step
    row along each row (clamped). The template is anchored at row and column
    (K - 1) // 2; for even K that is one less than ndimage's default K // 2,
    hence origin -1.
    """
    layer = np.asarray(layer, dtype=float)
    k = template.size
    origin = -1 if k % 2 == 0 else 0
    radial = correlate1d(layer, np.ones(k), axis=0, mode="wrap", origin=origin)
    return np.abs(correlate1d(radial, template, axis=1, mode="nearest", origin=origin))
