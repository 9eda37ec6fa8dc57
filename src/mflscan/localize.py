"""Adaptive thresholding, binarization, and connected-component localization.

scipy (`scipy.ndimage`'s `label` and `find_objects`) loads on the first
labelled segment, not on import, so commands that label nothing never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)


@dataclass(frozen=True)
class Detection:
    """One localized flaw region.

    box is (axial_start_px, axial_end_px, radial_start_px, radial_end_px),
    inclusive, in segment-local pixel coordinates. axial_start_m/axial_end_m
    are the box edges mapped to rope meters, and axial_position_m their
    midpoint.
    """

    box: tuple[int, int, int, int]
    axial_position_m: float
    score: float
    segment_index: int
    axial_start_m: float
    axial_end_m: float


@dataclass(frozen=True)
class ThresholdScan:
    """The region-count curve the scan labelled, and the threshold it chose.

    `thresholds` is the top slice of the grid {step, 2*step, ...} < 1 that the
    scan labelled, ascending, and `region_counts[i]` is the number of white
    regions at `thresholds[i]`. The slice holds at least the chosen plateau;
    both are empty for an all-zero image.
    """

    thresholds: tuple[float, ...]
    region_counts: tuple[int, ...]
    chosen_threshold: float


def adaptive_threshold(norm: np.ndarray, step: float) -> ThresholdScan:
    """Pick the binarization threshold with the most stable region count.

    The grid is every threshold in {step, 2*step, ...} < 1, applied to the
    peak-normalized fused image `norm`; each pass counts the 8-connected
    white regions, at least 1, since the peak pixel passes every threshold.
    The chosen threshold is the midpoint of the longest contiguous plateau of
    constant region count; ties break toward the higher plateau. An all-zero
    image or an empty grid yields an empty scan with sentinel 1.0.

    The scan runs from the top threshold down, so the passes over the small
    windows of high thresholds come first. It keeps the longest closed
    plateau, of length L, and replaces it only with a strictly longer one:
    every later run is lower, and a tie goes to the higher plateau. It stops
    once the open run of equal counts, whose highest threshold has grid
    index `run_top` (0 is the lowest), has `run_top + 1 <= L`. That is
    exact: every unscanned threshold lies below the open run, which can grow
    to at most `run_top + 1` thresholds, and any run wholly below it is
    shorter still, so neither can beat L. The choice is therefore that of
    the full sweep. A step s makes at most ceil(1/s) - 1 label passes.
    """
    # rounding can lift the last multiple of the step to 1.0, which is not < 1
    grid = [t for i in range(math.ceil(1.0 / step) - 1) if (t := round((i + 1) * step, 12)) < 1]
    if not (grid and norm.any()):
        return ThresholdScan(thresholds=(), region_counts=(), chosen_threshold=1.0)
    # imported here, not at module level, so that commands which never label start without scipy
    from scipy.ndimage import label
    count = len(grid)
    # every pixel >= t lies in the window from the first to the last row and
    # column whose peak reaches t, so labeling the window alone counts the
    # same regions as labeling the whole image
    levels = np.array(grid)[:, None]
    r0, r1 = _hit_span(norm.max(axis=1) >= levels)
    c0, c1 = _hit_span(norm.max(axis=0) >= levels)
    counts = []  # from the top threshold down
    best = (0, 0, 0)  # (length, first, last) grid indices of the longest closed plateau
    run_top = count - 1  # the open run of equal counts spans run_top down to i
    for i in range(count - 1, -1, -1):
        _, n_regions = label(norm[r0[i]:r1[i], c0[i]:c1[i]] >= grid[i], structure=EIGHT_CONNECTED)
        if counts and n_regions != counts[-1]:
            if run_top - i > best[0]:
                best = (run_top - i, i + 1, run_top)
            run_top = i
        counts.append(n_regions)
        if run_top + 1 <= best[0]:
            break
    else:  # never stopped: the last run reaches the bottom and beats L
        best = (run_top + 1, 0, run_top)
    return ThresholdScan(
        thresholds=tuple(grid[i:]),
        region_counts=tuple(reversed(counts)),
        chosen_threshold=(grid[best[1]] + grid[best[2]]) / 2.0,
    )


def _hit_span(hits: np.ndarray) -> tuple[list[int], list[int]]:
    """Per row of a boolean matrix, the first hit and one past the last; every row has a hit."""
    first = hits.argmax(axis=1)
    end = hits.shape[1] - hits[:, ::-1].argmax(axis=1)
    return first.tolist(), end.tolist()


def binarize(norm: np.ndarray, threshold: float) -> np.ndarray:
    """White (1) wherever the peak-normalized fused value reaches the threshold."""
    return (norm >= threshold).astype(np.uint8)


def _wrap_merge(labeled: np.ndarray, n_regions: int) -> np.ndarray:
    """Union labels that touch across the top/bottom seam (circular radial axis).

    A top-row pixel at column c touches the bottom-row pixels at c - 1, c and
    c + 1. The (top, bottom) label pairs are taken in that order, column by
    column, and only the first occurrence of each pair is united: a repeated
    pair is already one set, so the roots, and with them the label ids, are
    those of uniting every touching pair in turn.
    """
    parent = list(range(n_regions + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    top = np.repeat(labeled[0], 3)
    bottom = np.concatenate(([0], labeled[-1], [0]))  # background beyond either end
    below = np.stack((bottom[:-2], bottom[1:-1], bottom[2:]), axis=1).ravel()
    touch = (top != 0) & (below != 0)
    for a, b in dict.fromkeys(zip(top[touch].tolist(), below[touch].tolist())):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    lut = np.array([find(i) for i in range(n_regions + 1)])
    return lut[labeled]


def extract_components(
    binary: np.ndarray,
    intensity: np.ndarray,
    min_area_px: int,
    *,
    segment_index: int,
    origin_sample: int,
    f_spatial: float,
) -> list[Detection]:
    """8-connected component labeling with a minimum-area filter.

    Components touching across the top/bottom edge are merged, because the
    radial axis is circular on a ring sensor array. Each surviving component
    becomes a Detection with a tight bounding box, the mean intensity over
    the component's pixels as score, and the box mapped to rope meters
    through origin_sample and f_spatial (samples per meter).

    Only the bounding box (window) of the white pixels is labeled; raster
    order within it is the whole image's, so labels, areas and score sums
    are the same. The seam merge runs only when the window spans every row,
    since only then are its first and last rows the image's.
    """
    rows = np.flatnonzero(binary.any(axis=1))
    if rows.size == 0:
        return []
    from scipy.ndimage import find_objects, label  # see adaptive_threshold
    cols = np.flatnonzero(binary.any(axis=0))
    top, left = int(rows[0]), int(cols[0])  # Python ints keep the boxes JSON-writable
    window = np.s_[top:rows[-1] + 1, left:cols[-1] + 1]
    labeled, n_regions = label(binary[window], structure=EIGHT_CONNECTED)
    if n_regions > 1 and labeled.shape[0] == binary.shape[0]:
        labeled = _wrap_merge(labeled, n_regions)
    areas = np.bincount(labeled.ravel(), minlength=n_regions + 1)
    sums = np.bincount(labeled.ravel(), weights=intensity[window].ravel(),
                       minlength=n_regions + 1)
    detections = []
    # labels merged away across the seam have no box (None)
    for idx, box in enumerate(find_objects(labeled), start=1):
        if box is None or areas[idx] < min_area_px:
            continue
        r0, r1 = top + box[0].start, top + box[0].stop - 1
        a0, a1 = left + box[1].start, left + box[1].stop - 1
        score = float(sums[idx] / areas[idx])
        start_m = (origin_sample + a0) / f_spatial
        end_m = (origin_sample + a1 + 1) / f_spatial
        detections.append(
            Detection(
                box=(a0, a1, r0, r1),
                axial_position_m=(start_m + end_m) / 2.0,
                score=score,
                segment_index=segment_index,
                axial_start_m=start_m,
                axial_end_m=end_m,
            )
        )
    detections.sort(key=lambda d: d.box[0])
    return detections
