"""Host-speed calibration for the benchmark's gated times.

The benchmark runs on shared hosts whose CPUs switch, within seconds,
between full speed and about 1.75 times slower, for library code and any
other code alike. ``kernel`` is a fixed piece of work, written here and
calling no library code, made of two kinds of work the library does:
SHA-256 over short messages in an interpreted loop (the key derivation's
PRF stream) and vector math (softmax and sampling). Every untraced
library process of the benchmark times it right before and right after
its work, on the same CPU; the work's time divided by the kernel's time
stays put while both change speed, and ``NOMINAL_S`` turns that ratio
back into seconds. The kernel's arrays take a few hundred KB, far below
any library process's peak, so it leaves ``peak_rss_mb`` alone.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

# Kernel time on the host the bounds were tuned on (2-vCPU Xeon, Sapphire
# Rapids, KVM guest; Python 3.11, numpy 2.4, one BLAS thread), a round
# figure between its fast and slow speeds.
NOMINAL_S = 0.020

_HASH_MESSAGES = 16000
_VECTOR_D = 8192
_VECTOR_ROUNDS = 48


def kernel() -> None:
    """One unit of fixed work."""
    sha = hashlib.sha256
    digest = b"perfbench-calibration"
    for c in range(_HASH_MESSAGES):
        digest = sha(digest + c.to_bytes(8, "big")).digest()

    x = np.linspace(-8.0, 0.0, _VECTOR_D)
    for _ in range(_VECTOR_ROUNDS):
        p = np.exp(x - x.max())
        p /= p.sum()
        np.searchsorted(np.cumsum(p), 0.5)
        x = np.log(p + 1e-300) * 0.999


def measure() -> float:
    """Wall time of one kernel run, seconds."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
