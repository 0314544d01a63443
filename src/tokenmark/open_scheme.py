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
from .errors import InvalidInputError
from .keystream import WatermarkKey


def _mean_vectors(supports: np.ndarray, d: int) -> np.ndarray:
    """Unit vectors with mass ``k**-0.5`` on each row's k support tokens,
    shape (n, d) from (n, k) supports."""
    n, k = supports.shape
    mu = np.zeros((n, d))
    mu[np.arange(n)[:, None], supports] = 1.0 / np.sqrt(k)
    return mu


def _perturbations(gaussians: np.ndarray, mean_vectors: np.ndarray,
                   directions: np.ndarray, epsilon: float) -> np.ndarray:
    """Rows ``gaussian + direction * epsilon * mean_vector``, shape (n, d)."""
    return gaussians + directions[:, None] * epsilon * mean_vectors


def mean_vector(support, d: int) -> np.ndarray:
    """Unit vector with mass ``k**-0.5`` on each of the k support tokens."""
    support = np.asarray(support, dtype=np.int64)
    if support.ndim != 1 or support.size == 0:
        raise InvalidInputError("support must be a non-empty 1-d index array")
    if support.min() < 0 or support.max() >= d or np.unique(support).size != support.size:
        raise InvalidInputError(f"support must be distinct indices in [0, {d})")
    return _mean_vectors(support[None], d)[0]


def build_perturbation(gaussian, mean_vec, direction: int, epsilon: float) -> np.ndarray:
    """The step's logit perturbation ``gaussian + direction * epsilon * mean_vec``.

    ``gaussian`` is already scaled to N(0, epsilon^2) per entry; ``epsilon``
    here sets the length of the directional component."""
    if direction not in (1, -1):
        raise InvalidInputError("direction must be +1 or -1")
    if epsilon <= 0:
        raise InvalidInputError("epsilon must be positive")
    gaussian = np.asarray(gaussian, dtype=np.float64)
    mean_vec = np.asarray(mean_vec, dtype=np.float64)
    if gaussian.shape != mean_vec.shape:
        raise InvalidInputError("gaussian and mean vector must have the same shape")
    return _perturbations(gaussian[None], mean_vec[None], np.array([direction]), epsilon)[0]


def watermarked_softmax(logits, delta) -> np.ndarray:
    """Distribution the watermarked sampler draws from: softmax of the
    perturbed logits."""
    logits = as_logits(logits)
    delta = np.asarray(delta, dtype=np.float64)
    if delta.shape != logits.shape:
        raise InvalidInputError("perturbation shape does not match logits")
    return softmax(logits + delta)


def open_step(key: WatermarkKey, step: int, logits, rng: np.random.Generator) -> int:
    """Sample one watermarked token from softmax(logits + delta), as a batch
    of one."""
    logits = as_logits(logits, key.d)
    sk = keystream.derive_open_step(key, step)
    delta = _perturbations(sk.gaussian[None], _mean_vectors(sk.support[None], key.d),
                           np.array([sk.direction]), key.epsilon)
    return int(sample_rows(softmax_rows(logits + delta), rng)[0])


def perturbations_for(key: WatermarkKey, count: int, start: int = 0) -> np.ndarray:
    """Logit perturbations for ``count`` consecutive steps, shape (count, d)."""
    batch = keystream.derive_open_steps(key, count, start)
    return _perturbations(batch.gaussians, _mean_vectors(batch.supports, key.d),
                          batch.directions, key.epsilon)

