"""End-to-end record processing: preprocessing through localized detections."""

from __future__ import annotations

import atexit
import contextlib
import ctypes
import os
import pickle
import signal
import sys
import threading
from dataclasses import dataclass
from typing import NamedTuple

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
    chosen_thresholds: list[float]


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


def segment_ranges(count: int) -> list[range]:
    """Contiguous ranges of a record's `count` segments, one per usable core.

    There are at most `count` ranges. There is one range, so no helper,
    without `os.fork` or `os.sched_getaffinity`, and in a process that runs
    other Python threads, since a fork copies only the calling thread.
    """
    parts = 1
    if (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and threading.active_count() == 1):
        parts = max(1, min(len(os.sched_getaffinity(0)), count))
    return [range(count * r // parts, count * (r + 1) // parts) for r in range(parts)]


class _Helper(NamedTuple):
    """A forked process that runs ranges of segments, and this process's ends of its pipes."""

    pid: int
    requests: int  # write end of the pipe it reads ranges from
    replies: int  # read end of the pipe it sends results down


# This process's helpers. The first record with more than one range forks one
# per extra range, and later records reuse them: a fork write-protects the
# caller's whole heap, which cost a short record more than its second core
# saved, so the cost is paid once per helper rather than once per record.
# A helper runs the code it was forked with: a `pipeline` global patched or
# wrapped after the fork is not seen in its ranges, so code that patches one
# around whole records pins one core or calls `close_helpers()` first.
_helpers: list[_Helper] = []


def _run_range(images, context, adaptive_cfg, run) -> list:
    """`process_segment` over a range's `images`: what the caller and every helper run."""
    return [process_segment(image, context, adaptive_cfg, run) for image in images]


def _serve(requests: int, replies: int):
    """A helper's loop until EOF on `requests`: run each range it is sent, send back its list.

    A request is `_run_range`'s arguments, pickled; a reply is the list,
    pickled. Any failure propagates, and the helper then exits having sent
    nothing for that range, or a pickle cut short.
    """
    with open(requests, "rb") as inbox, open(replies, "wb") as outbox:
        while True:
            try:
                job = pickle.load(inbox)
            except EOFError:
                return
            results = _run_range(*job)
            del job  # so the next range is not read in beside this one
            pickle.dump(results, outbox, pickle.HIGHEST_PROTOCOL)
            outbox.flush()


def _start_helper():
    """Fork one more helper into `_helpers`.

    Raises OSError, with no descriptor left open, when no pipe or no process
    can be made. The helper leaves by `os._exit`, so it never returns into
    the caller's stack.
    """
    import scipy.ndimage  # noqa: F401 (loaded once here, not in each helper's first segment)

    fds = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except BaseException:
        for fd in fds:
            os.close(fd)
        raise
    request_read, request_write, reply_read, reply_write = fds
    if pid == 0:
        code = 1
        try:
            os.close(request_write)
            os.close(reply_read)
            _serve(request_read, reply_write)
            code = 0
        finally:
            os._exit(code)
    os.close(request_read)
    os.close(reply_write)
    _helpers.append(_Helper(pid, request_write, reply_read))


def _helpers_for(count: int) -> list[_Helper]:
    """The first `count` helpers, forked as needed; fewer if no more can start."""
    while len(_helpers) < count:
        try:
            _start_helper()
        except OSError:
            break
    return _helpers[:count]


def _send(helper: _Helper, job: tuple):
    """Pickle `job` down `helper`'s request pipe; its range's rows stream, uncopied."""
    with open(helper.requests, "wb", closefd=False) as pipe:
        pickle.dump(job, pipe, pickle.HIGHEST_PROTOCOL)


def _receive(helper: _Helper) -> list | None:
    """The list `helper` sends back for its range, or None if it sends nothing or a cut pickle."""
    with open(helper.replies, "rb", closefd=False) as pipe:
        try:
            return pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            return None


def _forget(helper: _Helper):
    """Close this process's ends of `helper`'s pipes and drop it from `_helpers`."""
    _helpers.remove(helper)
    os.close(helper.requests)
    os.close(helper.replies)


def _drop(helper: _Helper):
    """Kill, reap and forget `helper`."""
    _forget(helper)
    os.kill(helper.pid, signal.SIGKILL)
    os.waitpid(helper.pid, 0)


def close_helpers():
    """Kill, reap and forget each of this process's helpers.

    Runs at interpreter exit. A later record forks new helpers.
    """
    while _helpers:
        _drop(_helpers[-1])


def _forget_helpers():
    """In a forked child, forget the parent's helpers and close their pipe ends.

    A new helper that held them would keep its siblings from seeing EOF, and
    a caller's own child starts helpers of its own.
    """
    while _helpers:
        _forget(_helpers[-1])


atexit.register(close_helpers)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


def process_record(
    record: MflRecord,
    preprocess_cfg: PreprocessConfig = PreprocessConfig(),
    adaptive_cfg: AdaptiveConfig = AdaptiveConfig(),
    run: RunConfig = RunConfig(),
) -> PipelineResult:
    """Detect flaws in one record; deterministic for identical inputs.

    The segments run in `segment_ranges`: this process runs the first range,
    and one helper per range after it is sent that range's rows and halo
    (`images[range]`), runs it and sends back the list of its results, or
    nothing. This process then reads each list in segment order, and runs
    each range whose helper sent nothing (it could not start, raised or was
    killed) itself, so the bytes do not depend on the number of ranges, and
    an error is the one a serial run raises, at the same segment. Every
    helper that has not sent its list is killed and reaped before any error
    propagates.
    """
    _keep_freed_heap()
    context = build_context(record.sampling_rate_hz, record.inspection_speed_mps, adaptive_cfg)
    shape = (preprocess_cfg.image_height, preprocess_cfg.segment_length)
    kernel_size, weights = method_plan(context, adaptive_cfg, shape, run)
    images = preprocess(record, preprocess_cfg)
    settings = (context, adaptive_cfg, run)
    first, *rest = segment_ranges(len(images))
    busy = [None] * len(rest)  # the helper running each range after the first
    try:
        for k, helper in enumerate(_helpers_for(len(rest))):
            busy[k] = helper
            with contextlib.suppress(BrokenPipeError):  # it died: it sends nothing
                _send(helper, (images[rest[k]], *settings))
        results = _run_range(images[first], *settings)
        for k, segments in enumerate(rest):
            sent = busy[k] and _receive(busy[k])
            if sent is None:
                sent = _run_range(images[segments], *settings)
            else:
                busy[k] = None  # idle again, for the next record
            results += sent
    finally:
        for helper in filter(None, busy):
            _drop(helper)
    return PipelineResult([d for detections, _ in results for d in detections], context,
                          kernel_size, weights, [threshold for _, threshold in results])
