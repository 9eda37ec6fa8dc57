"""End-to-end record processing: preprocessing through localized detections."""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
import sys
import threading
from dataclasses import dataclass, field

from .enhance import enhance_layer, fuse, peak_normalize
from .errors import ConfigInvalid
from .ingest import MflImage, MflRecord, PreprocessConfig, preprocess
from .localize import Detection, adaptive_threshold, binarize, extract_components
from .pyramid import build_pyramid, build_template, match
from .ssr import AdaptiveConfig, SsrContext, build_context


_MALLOPT = getattr(ctypes.CDLL(None), "mallopt", None) if sys.platform == "linux" else None


def _keep_freed_heap():
    """Keep the memory each segment frees in the heap for the next segment.

    A segment allocates and frees a working set of about 2.4 MB. glibc's
    malloc hands freed memory at the top of its heap back to the OS above a
    threshold that grows with the largest block freed so far, so a process
    that streams short records, and so never frees a large block, faults the
    working set back in on every segment (2200-2800 minor page faults per
    4-segment record). Pin the thresholds at the ceiling glibc's own rule
    reaches: blocks up to 32 MiB come from the heap, and up to 64 MiB of it
    is kept when free. The setting holds for the rest of the process.
    """
    if _MALLOPT is not None:
        _MALLOPT(-3, 32 << 20)  # M_MMAP_THRESHOLD
        _MALLOPT(-1, 64 << 20)  # M_TRIM_THRESHOLD


# Each detection method as data: (kernel size, flat fusion weights (L1, L2, L3))
# from the base kernel K_base, the SSR-adaptive kernel K_a and the SSR weights.
METHOD_PLANS = {
    "single_scale": lambda k_base, k_a, ssr_weights: (k_base, (1.0, 0.0, 0.0)),
    "unweighted_multiscale": lambda k_base, k_a, ssr_weights: (k_a, (1 / 3, 1 / 3, 1 / 3)),
    "adaptive": lambda k_base, k_a, ssr_weights: (k_a, ssr_weights),
}
METHODS = tuple(METHOD_PLANS)


@dataclass(frozen=True)
class RunConfig:
    """The run keys: the method, the area filter and the threshold step.

    A threshold step makes at most ceil(1 / step) - 1 label passes per
    segment; 0.001 keeps that at 999.
    """

    method: str = "adaptive"
    min_area_px: int = 4
    threshold_step: float = 0.05

    def __post_init__(self):
        if self.method not in METHOD_PLANS:
            raise ConfigInvalid(f"unknown method {self.method!r}; "
                                f"choose from {', '.join(METHODS)}")
        if self.min_area_px < 1:
            raise ConfigInvalid(f"min_area_px {self.min_area_px} must be >= 1")
        if not 0.001 <= self.threshold_step < 1:
            raise ConfigInvalid(f"threshold_step {self.threshold_step} must lie in [0.001, 1)")


def method_plan(
    context: SsrContext,
    adaptive_cfg: AdaptiveConfig,
    shape: tuple[int, int],
    run: RunConfig,
) -> tuple[int, tuple[float, float, float]]:
    """Kernel size and flat fusion weights (L1, L2, L3) of the run's method on a record.

    The one place that checks that segments of `shape` (image_height,
    segment_length) pool into a 3-layer pyramid whose smallest used layer
    fits the kernel.
    """
    height, length = shape
    if height < 4 or length < 4:
        raise ConfigInvalid(f"image_height x segment_length = {height} x {length} is below "
                            "the 4 x 4 minimum of a 3-layer pyramid")
    # The adaptive method's recursive blend G2 = w2*F2 + (1-w2)*up(F3),
    # G1 = w1*F1 + (1-w1)*up(G2) is a flat blend because bilinear upsampling
    # is linear; it never reads w3.
    w1, w2, _ = context.weights
    ssr_weights = (w1, (1.0 - w1) * w2, (1.0 - w1) * (1.0 - w2))
    kernel_size, weights = METHOD_PLANS[run.method](
        adaptive_cfg.kernel_base, context.kernel_size, ssr_weights
    )
    pools = max(j for j, w in enumerate(weights) if w)  # 2x2 poolings to the last used layer
    layer = (height >> pools, length >> pools)
    if min(layer) < kernel_size:
        raise ConfigInvalid(
            f"kernel size {kernel_size:.6g} (from kernel_base and alpha) exceeds layer "
            f"L{pools + 1} {layer} of image_height x segment_length = {height} x {length}"
        )
    return kernel_size, weights


@dataclass
class PipelineResult:
    detections: list[Detection]
    context: SsrContext
    kernel_size: int
    fusion_weights: tuple[float, float, float]
    chosen_thresholds: list[float] = field(default_factory=list)


def segment_stages(
    image: MflImage,
    context: SsrContext,
    adaptive_cfg: AdaptiveConfig,
    run: RunConfig = RunConfig(),
) -> dict:
    """Each stage image of one segment, by name; a pure function of its inputs.

    Each layer j from L1 down to the coarsest one with a nonzero weight gives
    `L{j}_raw` (pooled), `L{j}_resp` (gamma-enhanced match) and `L{j}_env`;
    `fused` blends the envelopes. `method_plan` checks the settings against the shape.
    """
    kernel_size, weights = method_plan(context, adaptive_cfg, image.pixels.shape, run)
    used = max(j for j, w in enumerate(weights, start=1) if w)
    template = build_template(kernel_size)
    stages = {}
    for j, layer in enumerate(build_pyramid(image.pixels, used), start=1):
        gamma_image, env = enhance_layer(match(layer, template), adaptive_cfg.gamma)
        stages.update({f"L{j}_raw": layer, f"L{j}_resp": gamma_image, f"L{j}_env": env})
    stages["fused"] = fuse(tuple(stages[f"L{j}_env"] for j in range(1, used + 1)), weights)
    return stages


def process_segment(
    image: MflImage,
    context: SsrContext,
    adaptive_cfg: AdaptiveConfig,
    run: RunConfig = RunConfig(),
) -> tuple[list[Detection], float]:
    """The detections and the chosen threshold of one segment; a pure function of its inputs."""
    norm = peak_normalize(segment_stages(image, context, adaptive_cfg, run)["fused"])
    scan = adaptive_threshold(norm, run.threshold_step)
    detections = extract_components(
        binarize(norm, scan.chosen_threshold),
        norm,
        run.min_area_px,
        segment_index=image.segment_index,
        origin_sample=image.origin_sample,
        f_spatial=context.f_spatial,
    )
    return detections, scan.chosen_threshold


# Fewest segments in a range. A fork and its wait cost about 5 ms in a 200 MB
# process; on 2 cores two ranges of 2 segments were slower than one of 4, and
# two of 3 only 1.1-1.3x faster than one of 6, so 4 leaves a margin
MIN_RANGE = 4


def segment_ranges(count: int) -> list[range]:
    """Contiguous ranges of a record's `count` segments, one per usable core.

    Each range holds at least MIN_RANGE segments. There is one range, so no
    fork, without `os.fork` or `os.sched_getaffinity`, and in a process that
    runs other Python threads, since a fork copies only the calling thread.
    """
    parts = 1
    if (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and threading.active_count() == 1):
        parts = max(1, min(len(os.sched_getaffinity(0)), count // MIN_RANGE))
    return [range(count * r // parts, count * (r + 1) // parts) for r in range(parts)]


def _fork_range(segment, segments: range):
    """A child that pickles `[segment(i) for i in segments]` into a pipe: (pid, read end).

    The child sends that list or nothing: on any failure it exits with 1. It
    leaves by `os._exit`, so it never returns into the caller's stack. Raises
    OSError, with no descriptor left open, when no pipe or no child can be made.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, open(read_fd, "rb")
    code = 1
    try:
        os.close(read_fd)
        results = [segment(i) for i in segments]
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(results, pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        os._exit(code)


def _run_ranges(segment, ranges: list[range]) -> list:
    """`segment(i)` over every range, in segment order.

    Each range after the first runs in a forked child, which shares the
    record copy-on-write and sends back the list of its results, or nothing.
    This process runs the first range, then reads each child's list in order.
    A range whose child sends nothing (it could not start, raised or was
    killed) runs here, so an error is the one a serial run raises, at the
    same segment. Every child still unreaped is killed and reaped before any
    error propagates, so no process outlives the call.
    """
    children = [None] * len(ranges)  # (pid, read end) of each unreaped child
    try:
        for k in range(1, len(ranges)):
            try:
                children[k] = _fork_range(segment, ranges[k])
            except OSError:  # no pipe or no fork: the range runs here
                pass
        results = []
        for k, segments in enumerate(ranges):
            sent = None
            if children[k]:
                pid, pipe = children[k]
                with pipe:
                    payload = pipe.read()
                _, status = os.waitpid(pid, 0)
                children[k] = None
                if os.waitstatus_to_exitcode(status) == 0:
                    sent = pickle.loads(payload)
            results.extend([segment(i) for i in segments] if sent is None else sent)
        return results
    finally:
        for pid, pipe in filter(None, children):
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def process_record(
    record: MflRecord,
    preprocess_cfg: PreprocessConfig = PreprocessConfig(),
    adaptive_cfg: AdaptiveConfig = AdaptiveConfig(),
    run: RunConfig = RunConfig(),
) -> PipelineResult:
    """Detect flaws in one record; deterministic for identical inputs.

    The segments run in `segment_ranges`, one forked child per range after
    the first; the result's bytes do not depend on the number of ranges.
    """
    _keep_freed_heap()
    context = build_context(record.sampling_rate_hz, record.inspection_speed_mps, adaptive_cfg)
    shape = (preprocess_cfg.image_height, preprocess_cfg.segment_length)
    kernel_size, weights = method_plan(context, adaptive_cfg, shape, run)
    images = preprocess(record, preprocess_cfg)
    result = PipelineResult([], context, kernel_size, weights)

    def segment(i):
        return process_segment(images[i], context, adaptive_cfg, run)

    for detections, threshold in _run_ranges(segment, segment_ranges(len(images))):
        result.detections.extend(detections)
        result.chosen_thresholds.append(threshold)
    return result
