"""A fixed reference computation that measures the host's current speed.

On a shared host the same request can run 1.7 times slower in CPU time for
seconds or minutes at a stretch while other tenants load the machine (see
README.md). `probe_ms` times a fixed piece of numpy/scipy and interpreter
work that calls no mflscan code, so a change to the detector cannot change
it. The worker times it between requests and divides each request's time by
the host factor, probe time / REFERENCE_MS, so timings read as they would at
the reference speed and do not move with the host's load.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import ndimage, signal

# probe_ms in the host's fast mode on the 2-core Xeon KVM guest (Python
# 3.11, numpy 2.4, scipy 1.17) this benchmark was defined on
REFERENCE_MS = 8.0

_rng = np.random.default_rng(0)
_IMAGE = _rng.standard_normal((64, 400))
_KERNEL = _rng.standard_normal((9, 9))
_MASK = _rng.random((64, 400)) > 0.7


def probe_ms() -> float:
    """Time one round of the reference work, in ms: the same mix of FFT and
    direct 2-D convolution, labelling, filtering and Python loops the
    detector spends its time in."""
    t0 = time.perf_counter()
    for _ in range(2):
        signal.fftconvolve(_IMAGE, _KERNEL, mode="same")
        signal.convolve2d(_IMAGE, _KERNEL[:5, :5], mode="same")
        ndimage.label(_MASK)
        np.sort(_IMAGE, axis=1)
        ndimage.gaussian_filter(_IMAGE, 2.0)
        total = 0
        for i in range(3000):
            total += i * i
    return 1000.0 * (time.perf_counter() - t0)


probe_ms()  # the first round pays for lazy imports and caches; keep it out of every timing
