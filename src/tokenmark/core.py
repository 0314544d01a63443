"""Dictionary-indexed numeric primitives shared by every module.

Tokens are plain integers in ``[0, d)`` (0-based everywhere in code;
1-based only in human-readable output). Probability vectors and logits are
1-d float64 numpy arrays. Vectors that fail validation are rejected, never
renormalized: silent renormalization hides upstream bugs.
"""

from __future__ import annotations

import numpy as np

from .errors import CorruptTextError, InvalidInputError

# Tolerance on |sum(p) - 1|. Vectors outside it are rejected.
PROB_SUM_TOL = 1e-12

# All stream randomness (text sampling, Monte Carlo) flows through numpy
# Generators. Key material never does; see keystream.
RandomStream = np.random.Generator


def as_probs(p, d: int | None = None) -> np.ndarray:
    """Validate and return a probability vector as a float64 array.

    Requires at least two entries, all entries >= 0 and finite, and a total
    within ``PROB_SUM_TOL`` of 1. Raises InvalidInputError otherwise.
    """
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidInputError(f"probability vector must be 1-d, got shape {arr.shape}")
    if arr.size < 2:
        raise InvalidInputError("dictionary size must be at least 2")
    if d is not None and arr.size != d:
        raise InvalidInputError(f"expected dictionary size {d}, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("probability vector has non-finite entries")
    if np.any(arr < 0):
        raise InvalidInputError("probability vector has negative entries")
    total = float(arr.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise InvalidInputError(f"probabilities sum to {total!r}, not 1 within {PROB_SUM_TOL}")
    return arr


def as_logits(values, d: int | None = None) -> np.ndarray:
    """Validate and return a logit vector as a float64 array (all finite)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidInputError(f"logits must be 1-d, got shape {arr.shape}")
    if arr.size < 2:
        raise InvalidInputError("dictionary size must be at least 2")
    if d is not None and arr.size != d:
        raise InvalidInputError(f"expected dictionary size {d}, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("logits must be finite")
    return arr


def softmax(logits) -> np.ndarray:
    """Exponentiate and normalize logits into a probability vector.

    Stabilized by subtracting the max logit before exponentiation, so large
    perturbed logits cannot overflow.
    """
    arr = as_logits(logits)
    shifted = np.exp(arr - arr.max())
    return shifted / shifted.sum()


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax for a 2-d array of logits (no per-row validation)."""
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    return shifted / shifted.sum(axis=1, keepdims=True)


def sample_categorical(p, rng: RandomStream) -> int:
    """Draw one token from ``p`` by inverse-CDF sampling.

    Deterministic given the stream state. Tokens with zero probability are
    never returned.
    """
    arr = as_probs(p)
    cdf = np.cumsum(arr)
    u = rng.random()
    i = int(np.searchsorted(cdf, u, side="right"))
    if i >= arr.size:
        # u landed beyond the accumulated total (possible when sum(p) is a
        # hair below 1); clamp to the last positive-probability token.
        i = arr.size - 1
    while i > 0 and arr[i] == 0.0:
        i -= 1
    return i


def sample_rows(probs: np.ndarray, rng: RandomStream) -> np.ndarray:
    """Draw one token per row of a (n, d) probability matrix.

    Internal batch helper: rows are trusted to be valid distributions.
    Zero-probability tokens are never returned.
    """
    cdf = np.cumsum(probs, axis=1)
    u = rng.random(probs.shape[0])
    tokens = (cdf > u[:, None]).argmax(axis=1)
    # Rows where u >= cdf[-1] (sum a hair below 1) yield argmax 0 on an
    # all-False mask; resolve those to the last positive-probability token.
    overshoot = np.nonzero(cdf[:, -1] <= u)[0]
    for row in overshoot:
        i = probs.shape[1] - 1
        while i > 0 and probs[row, i] == 0.0:
            i -= 1
        tokens[row] = i
    # Guard against zero-probability picks from exact cdf ties.
    picked = probs[np.arange(probs.shape[0]), tokens]
    for row in np.nonzero(picked == 0.0)[0]:
        i = int(tokens[row])
        while i > 0 and probs[row, i] == 0.0:
            i -= 1
        tokens[row] = i
    return tokens.astype(np.int64)


def validate_tokens(tokens, d: int) -> np.ndarray:
    """Validate a token sequence against dictionary size ``d``."""
    arr = np.asarray(tokens)
    if arr.ndim != 1 or arr.size < 1:
        raise CorruptTextError("token sequence must be a non-empty 1-d list")
    return _token_entries(arr, d)


def validate_token_matrix(tokens, d: int) -> np.ndarray:
    """Validate an (m, n) matrix of token sequences against dictionary size
    ``d``."""
    arr = np.asarray(tokens)
    if arr.ndim != 2 or arr.size < 1:
        raise CorruptTextError("token matrix must be a non-empty 2-d array")
    return _token_entries(arr, d)


def _token_entries(arr: np.ndarray, d: int) -> np.ndarray:
    """``arr`` as int64 after checking every entry is an integer in [0, d)."""
    if not np.issubdtype(arr.dtype, np.integer):
        as_int = arr.astype(np.int64)
        if np.any(as_int != arr):
            raise CorruptTextError("token sequence has non-integer entries")
        arr = as_int
    if arr.min() < 0 or arr.max() >= d:
        raise CorruptTextError(f"token out of range for dictionary size {d}")
    return arr.astype(np.int64, copy=False)
