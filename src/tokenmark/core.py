"""Dictionary-indexed numeric primitives shared by every module, and the
one reader, field checker and writer for the files the package touches.

Tokens are plain integers in ``[0, d)`` (0-based everywhere in code;
1-based only in human-readable output). Probability vectors and logits are
1-d float64 numpy arrays. Vectors that fail validation are rejected, never
renormalized: silent renormalization hides upstream bugs.

Every token draw in the package goes through ``sample_tokens``, with one
uniform ``u`` in [0, 1) per token: the token is the first index whose
running sum of probabilities exceeds ``u``, and when ``u`` lies past the
whole sum (a total a hair below 1), the last token with positive
probability. A zero entry leaves the running sum unchanged, so it is never
the first to exceed ``u``. Few uniforms from one law find that index by a
binary search each; many (``_BUCKET_MIN_DRAWS`` plus d/2 or more) find the
same index through a bucket table over the running sum's distinct levels,
which narrows each search to a few candidates.
"""

from __future__ import annotations

import json
import math
import numbers
from pathlib import Path

import numpy as np

from .errors import CorruptTextError, InvalidInputError

# Tolerance on |sum(p) - 1|. Vectors outside it are rejected.
PROB_SUM_TOL = 1e-12

# sample_tokens searches one law's CDF through a bucket table once the
# uniforms number at least this many plus half the law's size d. Below
# that, building the table costs more than a binary search per uniform
# saves. Crossovers measured on one CPU of a two-vCPU KVM guest: about
# 4096-8192 uniforms at d = 8, 1024 at d = 1024, 2048 at d = 8192, 16384
# at d = 32768 and 65536 at d = 2^18.
_BUCKET_MIN_DRAWS = 4096
# Uniforms per block of that search.
_SEARCH_BLOCK = 1 << 15


def _vector(values, d: int | None, what: str) -> np.ndarray:
    """``values`` as a float64 array after checking it is 1-d with at least
    two entries (``d`` of them when given), all finite."""
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{what} must hold numbers: {exc}") from exc
    if arr.ndim != 1 or arr.size < 2 or (d is not None and arr.size != d):
        size = "at least 2" if d is None else d
        raise InvalidInputError(f"{what} must be 1-d with {size} entries, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{what} has non-finite entries")
    return arr


def as_probs(p, d: int | None = None) -> np.ndarray:
    """Validate and return a probability vector as a float64 array.

    Requires at least two entries, all entries >= 0 and finite, and a total
    within ``PROB_SUM_TOL`` of 1. Raises InvalidInputError otherwise.
    """
    arr = _vector(p, d, "probability vector")
    if np.any(arr < 0):
        raise InvalidInputError("probability vector has negative entries")
    total = float(arr.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise InvalidInputError(f"probabilities sum to {total!r}, not 1 within {PROB_SUM_TOL}")
    return arr


def as_logits(values, d: int | None = None) -> np.ndarray:
    """Validate and return a logit vector as a float64 array (all finite)."""
    return _vector(values, d, "logit vector")


def softmax(logits) -> np.ndarray:
    """Exponentiate and normalize logits into a probability vector.

    Stabilized by subtracting the max logit before exponentiation, so large
    perturbed logits cannot overflow.
    """
    return softmax_rows(as_logits(logits))


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Softmax along the last axis of a (d,) or (n, d) array of logits (no
    per-row validation)."""
    shifted = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def sample_tokens(probs: np.ndarray, u) -> np.ndarray:
    """Tokens drawn from caller-drawn uniforms ``u`` by the module's rule.

    ``probs`` is one (d,) distribution shared by every uniform in ``u``, or
    an (n, d) matrix with one uniform per row. Rows are trusted to be
    distributions.
    """
    cdf = probs.cumsum(-1)
    if cdf.ndim > 1:
        tokens = np.count_nonzero(cdf <= np.asarray(u)[:, None], axis=1)
    elif np.size(u) < _BUCKET_MIN_DRAWS + cdf.size // 2:
        tokens = cdf.searchsorted(u, side="right")
    else:
        return _bucket_tokens(cdf, _last_positive(probs), np.asarray(u, dtype=np.float64))
    past = tokens >= cdf.shape[-1]
    # A scalar's any() would cost as much as the search.
    if past.any() if past.shape else past:
        tokens = np.where(past, _last_positive(probs), tokens)
    return tokens


def _last_positive(probs: np.ndarray):
    """Index of the last positive entry of each law."""
    return probs.shape[-1] - 1 - (probs[..., ::-1] > 0).argmax(axis=-1)


def _bucket_tokens(cdf: np.ndarray, last, u: np.ndarray) -> np.ndarray:
    """``sample_tokens`` of the 1-d law with running sum ``cdf`` for many
    uniforms ``u``, without a full binary search per uniform.

    The CDF is compressed to its distinct levels (a zero entry repeats one),
    and a table splits [0, 1] into K buckets, K a power of two at least four
    times the level count, so that ``u * K`` is exact. Bucket b holds the
    levels in (b/K, (b+1)/K], and a uniform in it has as many levels at or
    below it as the levels at or below b/K plus a count inside its bucket,
    found in as many vectorized halving rounds as the widest bucket's bit
    length. The first and last buckets are open to the ends, so a ``u``
    outside [0, 1) gets searchsorted's count too. Uniforms go in blocks of
    ``_SEARCH_BLOCK``, which bounds the temporaries."""
    rise = np.append(cdf[1:] != cdf[:-1], True)     # last entry of each level
    levels = cdf[rise]
    # The token for j levels at or below u: the first entry of level j, or
    # ``last`` when u lies past every level.
    tokens_at = np.concatenate(([0], np.flatnonzero(rise)[:-1] + 1, [last]))
    buckets = 1 << (4 * levels.size - 1).bit_length()
    # starts[b] counts the levels at or below b/K: those whose
    # ceil(level * K) <= b. A level past 1 counts in no bucket's start.
    index = np.minimum(np.ceil(levels * buckets), buckets + 1).astype(np.intp)
    starts = np.bincount(index, minlength=buckets + 2).cumsum()[:buckets + 1]
    starts[0], starts[buckets] = 0, levels.size
    rounds = int(np.diff(starts).max()).bit_length()
    # A search may probe past the last level; NaN there is never <= u.
    padded = np.concatenate((levels, np.full(1 << rounds, np.nan)))
    tokens = np.empty(u.shape, dtype=np.intp)
    flat_u, flat_tokens = u.reshape(-1), tokens.reshape(-1)
    for lo in range(0, flat_u.size, _SEARCH_BLOCK):
        # One copy of a strided block (a step's column of many texts)
        # spares each round a strided read.
        v = np.ascontiguousarray(flat_u[lo:lo + _SEARCH_BLOCK])
        below = starts.take(np.clip(v * buckets, 0, buckets - 1).astype(np.intp))
        for r in reversed(range(rounds)):
            below += (padded[(1 << r) - 1:].take(below) <= v) << r
        tokens_at.take(below, out=flat_tokens[lo:lo + v.size])
    return tokens


def sample_categorical(p, rng: np.random.Generator) -> int:
    """Draw one token from a validated ``p``; deterministic given the stream
    state."""
    return int(sample_tokens(as_probs(p), rng.random()))


def sample_rows(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw one token per row of a trusted (n, d) probability matrix."""
    return sample_tokens(probs, rng.random(probs.shape[0]))


def is_int(value) -> bool:
    """Whether a parsed file field is an integer; a boolean is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    """Whether a parsed file field is a finite real number; a boolean is not."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def field(obj: dict, name: str, check, default=...):
    """``obj[name]`` after ``check`` accepts it; ``default`` when ``obj`` has
    no ``name`` and a default is given. Values are never converted."""
    if name not in obj:
        if default is ...:
            raise InvalidInputError(f"{name} is missing")
        return default
    value = obj[name]
    if not check(value):
        raise InvalidInputError(f"{name} has the wrong type: {value!r}")
    return value


def array_field(obj: dict, name: str, check, dtype) -> np.ndarray:
    """``obj[name]``, a (nested) list, as an array after ``check`` accepts
    every entry; booleans and strings are never silently converted."""
    entries = np.asarray(field(obj, name, lambda value: True), dtype=object)
    if not all(map(check, entries.flat)):
        raise InvalidInputError(f"{name} has an entry of the wrong type or range")
    return entries.astype(dtype)


def validate_tokens(tokens, d: int) -> np.ndarray:
    """Validate a token sequence against dictionary size ``d``."""
    return _token_entries(tokens, d, 1, "token sequence must be a non-empty 1-d list")


def validate_token_matrix(tokens, d: int) -> np.ndarray:
    """Validate an (m, n) matrix of token sequences against dictionary size
    ``d``."""
    return _token_entries(tokens, d, 2, "token matrix must be a non-empty 2-d array")


def _token_entries(tokens, d: int, ndim: int, shape_error: str) -> np.ndarray:
    """``tokens`` as an int64 array of ``ndim`` dimensions after checking
    every entry is an integer in [0, d). Other entries are checked as
    float64 before any cast, so no bad token ends in a bare error or warning."""
    try:
        arr = np.asarray(tokens)
    except (TypeError, ValueError) as exc:  # ragged lists
        raise CorruptTextError(f"{shape_error}: {exc}") from exc
    if arr.ndim != ndim or arr.size < 1:
        raise CorruptTextError(shape_error)
    if arr.dtype.kind not in "iu":
        # An object array holds None or an integer past int64.
        numeric = arr.dtype.kind in "bf" or (
            arr.dtype.kind == "O" and all(isinstance(v, numbers.Real) for v in arr.flat))
        try:
            values = arr.astype(np.float64) if numeric else None
        except OverflowError as exc:
            raise CorruptTextError(f"token out of range for dictionary size {d}") from exc
        if values is None or not np.all(values == np.floor(values)):
            raise CorruptTextError("token sequence has non-integer entries")
        arr = values
    if arr.min() < 0 or arr.max() >= d:
        raise CorruptTextError(f"token out of range for dictionary size {d}")
    return arr.astype(np.int64, copy=False)


# --------------------------------------------------------------------------
# Files: one that cannot be read, decoded as UTF-8 or parsed raises the
# caller's error class, never a bare OSError or ValueError.


def read_text(path, what: str, error=InvalidInputError) -> str:
    """The UTF-8 text of the file at ``path``, described as ``what``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def parse_json(text: str, what: str, error=InvalidInputError) -> dict:
    """The JSON object in ``text``, the contents of ``what``."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"cannot parse {what}: {exc}") from exc
    if not isinstance(obj, dict):
        raise error(f"{what} must hold a JSON object")
    return obj


def read_json(path, what: str, error=InvalidInputError) -> dict:
    """The JSON object in the file at ``path``, described as ``what``."""
    return parse_json(read_text(path, what, error), f"{what} {path}", error)


def json_text(obj) -> str:
    """``obj`` as indent-2, sorted-keys JSON text with one final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
