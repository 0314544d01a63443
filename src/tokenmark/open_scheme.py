"""Open (publicly detectable) watermark: keyed Gaussian logit perturbations.

Each step adds ``delta = G + direction * epsilon * mu`` to the logits
before the softmax, where ``G`` is an i.i.d. N(0, epsilon^2) vector, ``mu``
is the unit vector spread uniformly over a secret k-token support, and
``direction`` is a keyed sign. Anyone holding the per-step Gaussians can
check for the watermark; the support and direction stay sampler-side, and
under the null the detector statistic is exactly Gaussian, which gives
closed-form p-values.
"""

from __future__ import annotations

import numpy as np

from . import keystream
from .core import as_logits, sample_rows, softmax, softmax_rows
from .keystream import WatermarkKey


def _perturbations(gaussians: np.ndarray, supports: np.ndarray,
                   directions: np.ndarray, epsilon: float) -> np.ndarray:
    """Rows ``gaussian + direction * epsilon * mu``, shape (n, d): a copy of
    the Gaussians plus ``direction * epsilon * k**-0.5`` at each row's k
    distinct entries of the (n, k) supports; no dense ``mu`` is built."""
    n, k = supports.shape
    # float(): int8 directions times a large integer epsilon would overflow.
    shifts = (directions * float(epsilon)) * (1 / np.sqrt(k))
    deltas = np.array(gaussians, dtype=np.float64)
    deltas[np.arange(n)[:, None], supports] += shifts[:, None]
    return deltas


def watermarked_softmax(logits, delta) -> np.ndarray:
    """Distribution the watermarked sampler draws from: softmax of the
    perturbed logits."""
    logits = as_logits(logits)
    return softmax(logits + as_logits(delta, logits.size))


def open_step(key: WatermarkKey, step: int, logits, rng: np.random.Generator) -> int:
    """Sample one watermarked token from softmax(logits + delta), as a batch
    of one."""
    logits = as_logits(logits, key.d)
    sk = keystream.derive_open_step(key, step)
    # The perturbed logits are summed into the perturbations' own copy, and
    # no name outlives its use, so each d-sized array is freed once read.
    delta = _perturbations(sk.gaussian[None], sk.support[None],
                           np.array([sk.direction]), key.epsilon)
    del sk
    delta += logits
    probs = softmax_rows(delta)
    del delta
    return int(sample_rows(probs, rng)[0])


def perturbations_for(key: WatermarkKey, count: int, start: int = 0) -> np.ndarray:
    """Logit perturbations for ``count`` consecutive steps, shape (count, d)."""
    batch = keystream.derive_open_steps(key, count, start)
    return _perturbations(batch.gaussians, batch.supports, batch.directions, key.epsilon)

