"""Three-layer image pyramid and flaw-template cross-correlation.

A flaw shows up as a valley-then-peak pair along the rope axis, i.e. a dark
area immediately followed by a bright area in image coordinates. The template
encodes exactly that: -1 columns on the left, +1 columns on the right.
"""

from __future__ import annotations

import numpy as np


def _pool2(img: np.ndarray) -> np.ndarray:
    """2x2 non-overlapping average pooling; odd trailing row/column dropped.

    Each output pixel is ((a + b) + (c + d)) / 4, where a, b are the top
    pair of its block and c, d the bottom pair. On every layer at least 4
    wide, the only ones `method_plan` lets the chain pool, that is the order
    of adds of `reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))`, so the two
    agree bit for bit.
    """
    h, w = img.shape
    top, bottom = img[0 : h - 1 : 2], img[1:h:2]
    out = top[:, 0 : w - 1 : 2] + top[:, 1:w:2]
    out += bottom[:, 0 : w - 1 : 2] + bottom[:, 1:w:2]
    out /= 4
    return out


def build_pyramid(pixels: np.ndarray, depth: int = 3) -> tuple[np.ndarray, ...]:
    """Layers 1 to `depth`: the image itself, then repeated 2x2 poolings."""
    layers = [np.asarray(pixels, dtype=float)]
    while len(layers) < depth:
        layers.append(_pool2(layers[-1]))
    return tuple(layers)


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
    (K - 1) // 2.

    Each pass pads its axis once and adds K shifted slices of the flattened
    pad in place (`_correlate`), in the order of adds of
    scipy.ndimage.correlate1d, so the response equals that of the two
    correlate1d passes bit for bit. The axial pass runs over the whole
    flattened pad at once; its K - 1 sums per row that straddle two rows
    land in the pad columns and are dropped.
    """
    h, w = layer.shape
    k = template.size
    before = (k - 1) // 2
    rows = (np.arange(h + k - 1) - before) % h
    cols = np.minimum(np.maximum(np.arange(w + k - 1) - before, 0), w - 1)
    padded = layer.take(rows, axis=0)
    radial = np.empty((h, w))
    _correlate(padded.ravel(), np.ones(k), w, radial.ravel())
    del padded  # free each pad before the next buffer is made
    padded = radial.take(cols, axis=1)
    del radial
    sums = np.empty((h, w + k - 1))
    _correlate(padded.ravel(), template, 1, sums.ravel())
    del padded
    return np.abs(sums[:, :w])


def _correlate(flat: np.ndarray, weights: np.ndarray, step: int, out: np.ndarray) -> None:
    """Write sum over taps t of weights[t] * flat[t * step :][:n] to out[:n].

    n is flat.size - (K - 1) * step. Every weight is -1, 0 or +1, so every
    product is exact and only the order of the adds matters. It is
    correlate1d's: for even K, the last tap first, then taps 0 .. K - 2; for
    odd K, the centre tap, then the mirrored pairs (tap j, tap K - 1 - j)
    from the outside in, each pair summed (symmetric weights) or differenced
    (antisymmetric weights) before it is added. A zero weight would add a
    signed zero only, so it is skipped.
    """
    weights = weights.tolist()
    k = len(weights)
    n = flat.size - (k - 1) * step
    out = out[:n]

    def tap(t):
        return flat[t * step : t * step + n]

    if k % 2 == 0:
        np.multiply(tap(k - 1), weights[k - 1], out=out)
        terms = ((weights[t], tap(t)) for t in range(k - 1))
    else:
        centre = k // 2
        np.multiply(tap(centre), weights[centre], out=out)
        pair = np.add if weights[0] == weights[-1] else np.subtract
        scratch = np.empty(n)
        terms = ((weights[j], pair(tap(j), tap(k - 1 - j), out=scratch)) for j in range(centre))
    for weight, term in terms:
        if weight > 0:
            out += term
        elif weight < 0:
            out -= term
