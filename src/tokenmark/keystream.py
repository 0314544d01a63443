"""Deterministic per-step key material derived from a master seed.

The sampler and the detector never share state; both re-derive the same
per-step secrets from a 32-byte master seed. The derivation below is part
of the key-file format contract of version 3, the one version ``keygen``
writes and the only one read. It is frozen: a version 3 key gives the same
bits for as long as the version can be read. Versions 1 and 2 are retired
(``WatermarkKey``).

PRF stream
----------
Block ``c`` of lane ``L`` at step ``j`` hashes the 49 bytes::

    master_seed (32 bytes) || L (1 byte)
        || j (8 bytes, big-endian) || c (8 bytes, big-endian)

with SHAKE-256 squeezed to 1024 bytes (128 words) per block.

Blocks are concatenated and split into big-endian unsigned 64-bit words;
word ``t`` of a lane is bytes ``[8t, 8t+8)`` of that stream. Lanes: 0
coloring, 1 flip, 2 gaussian, 3 support, 4 direction.

Derived quantities
------------------
* Bounded integers: word ``w`` reduced to ``w mod n``. The modulo bias is
  below ``n / 2**64`` (< 2**-40 for any realistic dictionary) and is
  accepted by this format.
* Coloring (closed scheme), by selection: the step's first ``d`` words
  ``w_0 .. w_{d-1}``, one per token. Token ``t`` is ``+1`` iff its rank
  ``#{i : w_i < w_t} + #{i < t : w_i = w_t}`` is below ``d/2``: the d/2
  smallest words, ties broken by token index. If the words are
  independent and uniform, every order of distinct words is equally
  likely, so the set of the d/2 smallest is a uniform balanced coloring.
  Two words tie with probability below ``d**2 / 2**65``, the same order as
  the modulo bias above.
* Flip / direction: a single word; its lowest bit maps 1 -> +1, 0 -> -1.
* Gaussian vector (open scheme): words ``2m`` and ``2m+1`` feed one
  Box-Muller pair, ``u1 = ((w >> 11) + 1) * 2**-53`` in (0, 1] and
  ``u2 = (w' >> 11) * 2**-53`` in [0, 1); entry ``2m`` is
  ``sqrt(-2 ln u1) * cos(2 pi u2) * epsilon`` and entry ``2m+1`` the same
  with sine. For odd ``d`` the final sine entry is dropped. The integer
  lanes above are bit-portable; this lane is deterministic within one
  environment but may drift by an ulp across math libraries (log/cos/sin
  kernels differ), which moves detector statistics by under 1e-15.
* Support (open scheme): Floyd's k-subset sampler over ``[0, d)``: for
  ``t = 0 .. k-1``, let ``j = d-k+t`` and ``pos = word_t mod (j+1)``; add
  ``pos`` to the subset unless already present, in which case add ``j``.
  With ``support_mode = "fixed-per-key"`` every step reuses the step-0
  subset; with ``"fresh-per-step"`` each step draws its own.

Reading one entry per step
--------------------------
Detection scores one token per step, so it reads single entries of the
lanes above rather than whole vectors. These are readings of the same
definitions, not another format, and give bit-identical values.

* Gaussian entry ``t``: it needs only words ``2 floor(t/2)`` and
  ``2 floor(t/2) + 1``, bytes ``[16 floor(t/2), 16 floor(t/2) + 16)`` of the
  lane: one block per token, ``floor(t/128)``. SHAKE-256 output is a prefix
  of any longer squeeze, so it squeezes only up to the pair's last byte.
* Coloring entry ``t``: hash the step's ``d`` words and count the rank of
  ``w_t`` as defined above, one comparison pass over the words, with no
  sort: ``d / 128`` blocks per token.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import os
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import field, is_int, is_number, json_text, read_json, validate_tokens
from .errors import InvalidInputError, InvalidKeyError, SchemeMismatchError

KEY_FILE_VERSION = 3
SEED_BYTES = 32

LANE_COLORING = 0
LANE_FLIP = 1
LANE_GAUSSIAN = 2
LANE_SUPPORT = 3
LANE_DIRECTION = 4

CLOSED = "closed"
OPEN = "open"
FIXED_SUPPORT = "fixed-per-key"
FRESH_SUPPORT = "fresh-per-step"

# Largest tolerated epsilon before the quality/detectability trade-off
# leaves the regime the guarantees were designed around.
EPSILON_SOFT_CAP = 0.5

# Every epsilon is below this: then epsilon * 2**64 is finite, so each
# Gaussian entry (Box-Muller radius at most 8.6) plus its support shift,
# times epsilon, is finite, and so is the open statistic's sum over any
# n <= 2**53 scored steps.
EPSILON_LIMIT = 2.0 ** 960


@dataclass(frozen=True)
class WatermarkKey:
    """Master secret plus scheme parameters; all per-step keys derive from it.

    ``padded`` records that the dictionary had odd size and a zero-probability
    spurious token was appended to make ``d`` even; the spurious token is
    never sampled because its shift magnitude is always zero. ``version``
    must be ``KEY_FILE_VERSION``: keys of the retired versions 1 and 2 are
    refused, and texts watermarked under them can no longer be detected.
    """

    master_seed: bytes
    d: int
    scheme: str
    epsilon: float | None = None
    k: int | None = None
    support_mode: str | None = None
    padded: bool = False
    version: int = KEY_FILE_VERSION

    def __post_init__(self):
        if not is_int(self.version) or self.version != KEY_FILE_VERSION:
            if is_int(self.version) and 1 <= self.version < KEY_FILE_VERSION:
                raise InvalidKeyError(
                    f"key file version {self.version} is retired and can no longer be read; "
                    f"`tokenmark keygen` writes a supported key (version {KEY_FILE_VERSION})")
            raise InvalidKeyError(f"unsupported key file version {self.version!r}")
        if not isinstance(self.master_seed, bytes) or len(self.master_seed) != SEED_BYTES:
            raise InvalidKeyError(f"master seed must be {SEED_BYTES} bytes")
        if not isinstance(self.padded, bool):
            raise InvalidKeyError(f"padded must be a boolean, got {self.padded!r}")
        if not is_int(self.d) or self.d < 2:
            raise InvalidKeyError(f"dictionary size must be an integer >= 2, got {self.d!r}")
        object.__setattr__(self, "d", int(self.d))
        if self.scheme == CLOSED:
            if self.d % 2 != 0:
                raise InvalidKeyError("closed scheme needs even d; pad the dictionary first")
            if self.padded and self.d < 4:
                raise InvalidKeyError(f"a padded key needs d >= 4 (a dictionary of at least "
                                      f"3 tokens), got d={self.d}")
            if self.epsilon is not None or self.k is not None or self.support_mode is not None:
                raise InvalidKeyError("epsilon/k/support_mode only apply to the open scheme")
        elif self.scheme == OPEN:
            if not is_number(self.epsilon) or not 0 < float(self.epsilon) < EPSILON_LIMIT:
                raise InvalidKeyError(f"open scheme requires an epsilon in (0, 2**960), "
                                      f"got {self.epsilon!r}")
            if not is_int(self.k) or not 1 <= self.k <= self.d:
                raise InvalidKeyError(f"open scheme requires an integer 1 <= k <= d, "
                                      f"got {self.k!r}")
            object.__setattr__(self, "k", int(self.k))
            object.__setattr__(self, "epsilon", float(self.epsilon))
            mode = self.support_mode if self.support_mode is not None else FIXED_SUPPORT
            if mode not in (FIXED_SUPPORT, FRESH_SUPPORT):
                raise InvalidKeyError(f"unknown support mode {mode!r}")
            object.__setattr__(self, "support_mode", mode)
            if self.padded:
                raise InvalidKeyError("padding applies to the closed scheme only")
            if self.epsilon > EPSILON_SOFT_CAP:
                warnings.warn(
                    f"epsilon={self.epsilon} exceeds {EPSILON_SOFT_CAP}; detection still works "
                    "but the distortion guarantees assume a smaller noise scale",
                    stacklevel=3,
                )
        else:
            raise InvalidKeyError(f"unknown scheme {self.scheme!r}")

    @property
    def dictionary_size(self) -> int:
        """The dictionary's size: ``d``, less the padding token of a padded key."""
        return self.d - self.padded

    def pad_law(self, law: np.ndarray) -> np.ndarray:
        """``law`` with a padded key's never-drawn padding token appended."""
        return np.append(law, 0.0) if self.padded else law


def check_key_d(d: int, key: WatermarkKey) -> None:
    """Raise SchemeMismatchError unless ``key`` is for a d-token dictionary."""
    if key.dictionary_size != d:
        raise SchemeMismatchError(f"key is for d={key.dictionary_size}, not d={d}")


@dataclass(frozen=True, eq=False)
class ClosedStepKey:
    """One step's secret for the closed scheme: a balanced coloring and a flip."""

    coloring: np.ndarray  # (d,) int8, entries +-1, exactly d/2 of each
    flip: int             # +1 or -1


@dataclass(frozen=True, eq=False)
class OpenStepKey:
    """One step's secret for the open scheme.

    The detector only ever uses ``gaussian``; ``support`` and ``direction``
    are sampler-side material.
    """

    gaussian: np.ndarray     # (d,) float64, i.i.d. N(0, epsilon^2) entries
    support: np.ndarray      # (k,) int64, sorted ascending
    direction: int           # +1 or -1


@dataclass(frozen=True, eq=False)
class ClosedStepBatch:
    """Closed-scheme key material for steps ``start .. start+n-1``."""

    colorings: np.ndarray  # (n, d) int8
    flips: np.ndarray      # (n,) int8


@dataclass(frozen=True, eq=False)
class OpenStepBatch:
    """Open-scheme sampler material for steps ``start .. start+n-1``."""

    gaussians: np.ndarray   # (n, d) float64
    supports: np.ndarray    # (n, k) int64
    directions: np.ndarray  # (n,) int8


# --------------------------------------------------------------------------
# PRF stream plumbing

# Step indices must stay below this: the step field is 8 bytes.
_STEP_LIMIT = 2 ** 64


# Bytes per SHAKE-256 block. A block's first ``nbytes`` bytes are a prefix
# of the whole block, so a lane squeezes no more of its last block than its
# words need.
_BLOCK_BYTES = 1024


def _check_words(key: WatermarkKey, count: int, nwords: int) -> None:
    """Refuse ``count`` steps of ``nwords`` words or entries each that, at
    8 bytes an entry, exceed the largest array numpy allows (a closed key's
    coloring at d = 2**62, say). Every derivation of (count, d) material
    calls this before it allocates or hashes anything."""
    if 8 * count * nwords > sys.maxsize:  # numpy's limit on an array's bytes
        raise InvalidKeyError(f"d={key.d} is too large to derive: {count} x {nwords} words "
                              "exceed the largest array")


def _word_matrix(key: WatermarkKey, lane: int, start: int, count: int,
                 nwords: int) -> np.ndarray:
    """The first ``nwords`` big-endian words of each of ``count``
    consecutive steps, shape (count, nwords), one row per step.

    The output is allocated before the one counter per block is listed, so
    a request that memory cannot hold fails at once."""
    _check_words(key, count, nwords)
    out = np.empty((count, nwords), dtype=np.uint64)
    nblocks = -(-8 * nwords // _BLOCK_BYTES)
    nbytes = min(_BLOCK_BYTES, 8 * nwords)  # a one-block lane squeezes only its words
    lane_prefix = key.master_seed + bytes([lane])
    counters = [c.to_bytes(8, "big") for c in range(nblocks)]
    shake = hashlib.shake_256
    for step, row in zip(range(start, start + count), out):
        prefix = lane_prefix + step.to_bytes(8, "big")
        data = b"".join([shake(prefix + c).digest(nbytes) for c in counters])
        row[:] = np.frombuffer(data, dtype=">u8", count=nwords)
    return out


def _sign_words(key: WatermarkKey, lane: int, start: int, count: int) -> np.ndarray:
    words = _word_matrix(key, lane, start, count, 1)[:, 0]
    return (2 * (words & np.uint64(1)).astype(np.int8) - 1).astype(np.int8)


# --------------------------------------------------------------------------
# The coloring rule (module docstring), read two ways: the colorings of a
# block of steps from their words, one (d,) row of uint64 words per step,
# and one token's colour at one step.


def _select_rows(words: np.ndarray) -> np.ndarray:
    """The colorings of steps from their words, one (d,) row of uint64
    words per step: +1 for the d/2 smallest words of a row, ties
    broken by token index. A partition finds each row's (d/2)-th smallest
    word; where words equal to it would make the +1 class too large, only
    the lowest indices among them keep +1."""
    half = words.shape[1] // 2
    kth = np.partition(words, half - 1, axis=1)[:, half - 1:half]
    plus = words <= kth
    for row in np.flatnonzero(np.count_nonzero(plus, axis=1) > half):
        ties = np.flatnonzero(words[row] == kth[row])
        plus[row, ties[half - np.count_nonzero(words[row] < kth[row]):]] = False
    return plus.view(np.int8) * np.int8(2) - np.int8(1)


def _select_color(key: WatermarkKey, step: int, t: int) -> int:
    """Token ``t``'s colour from the rank of its word."""
    words = _word_matrix(key, LANE_COLORING, step, 1, key.d)[0]
    word = words[t]
    rank = np.count_nonzero(words < word) + np.count_nonzero(words[:t] == word)
    return 1 if rank < key.d // 2 else -1


# Batches colour, or Box-Muller transform, blocks of steps holding about
# this many words (128 KiB) as they are hashed, so their work arrays do not
# grow with the number of steps.
_BLOCK_WORDS = 1 << 14


def _coloring_matrix(key: WatermarkKey, start: int, count: int) -> np.ndarray:
    """Balanced colorings for consecutive steps, shape (count, d), a block
    of steps at a time."""
    d = key.d
    _check_words(key, count, d)
    out = np.empty((count, d), dtype=np.int8)
    rows = max(1, _BLOCK_WORDS // d)
    for lo in range(0, count, rows):
        hi = min(lo + rows, count)
        out[lo:hi] = _select_rows(_word_matrix(key, LANE_COLORING, start + lo, hi - lo, d))
    return out


def _box_muller(first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit Box-Muller pairs (cosine entries, sine entries) from the two
    words of each pair. The full lane and the per-token reader both call
    this, so the same ufuncs produce the same bits."""
    scale = 2.0 ** -53
    radius = (first >> np.uint64(11)).astype(np.float64)
    radius += 1.0
    radius *= scale                 # u1 in (0, 1]
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = (second >> np.uint64(11)).astype(np.float64)
    angle *= scale                  # u2 in [0, 1)
    angle *= 2.0 * np.pi
    cos = np.cos(angle)
    sin = np.sin(angle, out=angle)
    cos *= radius
    sin *= radius
    return cos, sin


def _gaussian_matrix(key: WatermarkKey, start: int, count: int) -> np.ndarray:
    """Gaussian vectors for consecutive steps, shape (count, d), hashed and
    transformed a block of about ``_BLOCK_WORDS`` words at a time, each
    block scaled by epsilon into the output."""
    d = key.d
    nwords = 2 * ((d + 1) // 2)
    _check_words(key, count, nwords)
    out = np.empty((count, d))
    rows = max(1, _BLOCK_WORDS // nwords)
    for lo in range(0, count, rows):
        hi = min(lo + rows, count)
        words = _word_matrix(key, LANE_GAUSSIAN, start + lo, hi - lo, nwords)
        cos, sin = _box_muller(words[:, 0::2], words[:, 1::2])
        np.multiply(key.epsilon, cos, out=out[lo:hi, 0::2])
        np.multiply(key.epsilon, sin[:, :d // 2], out=out[lo:hi, 1::2])
    return out


def _support_matrix(key: WatermarkKey, start: int, count: int) -> np.ndarray:
    """Floyd's algorithm per step, vectorized over steps."""
    d, k = key.d, key.k
    _check_words(key, count, d)  # the (count, d) membership table
    words = _word_matrix(key, LANE_SUPPORT, start, count, k)
    member = np.zeros((count, d), dtype=bool)
    rows = np.arange(count)
    for t in range(k):
        j = d - k + t
        pos = (words[:, t] % np.uint64(j + 1)).astype(np.intp)
        taken = member[rows, pos]
        chosen = np.where(taken, j, pos)
        member[rows, chosen] = True
    return np.nonzero(member)[1].reshape(count, k).astype(np.int64)


def _require_scheme(key: WatermarkKey, scheme: str) -> None:
    if key.scheme != scheme:
        raise SchemeMismatchError(f"operation needs a {scheme} key, got {key.scheme}")


def _check_step(start: int, count: int = 1) -> tuple[int, int]:
    """``start`` and ``count`` as Python ints; reject a step range
    ``start .. start+count-1`` that is not given by integers (booleans are
    not) or that the 8-byte step field cannot encode."""
    if not (is_int(start) and is_int(count)):
        raise InvalidInputError(
            f"step index and count must be integers, got {start!r} and {count!r}")
    if count < 0:
        raise InvalidInputError("step count must be non-negative")
    start, count = int(start), int(count)
    if start < 0:
        raise InvalidInputError("step index must be non-negative")
    if start + max(count, 1) > _STEP_LIMIT:
        raise InvalidInputError("step indices must be below 2**64")
    return start, count


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


# --------------------------------------------------------------------------
# Public derivation API


def _closed_steps(key: WatermarkKey, count: int, start: int) -> ClosedStepBatch:
    """Closed key material for ``count`` steps from ``start``, uncached."""
    _require_scheme(key, CLOSED)
    start, count = _check_step(start, count)
    return ClosedStepBatch(colorings=_freeze(_coloring_matrix(key, start, count)),
                           flips=_freeze(_sign_words(key, LANE_FLIP, start, count)))


def derive_closed_step(key: WatermarkKey, step: int) -> ClosedStepKey:
    """Re-derive the balanced coloring and flip for one step, row 0 of an
    uncached batch of one. Pure and bit-identical on repeated calls."""
    batch = _closed_steps(key, 1, step)
    return ClosedStepKey(coloring=batch.colorings[0], flip=int(batch.flips[0]))


# Batch derivations cache one batch, the one in use: sweeps score texts
# against the batch just derived, and no caller re-reads an older one.
@functools.lru_cache(maxsize=1, typed=True)
def derive_closed_steps(key: WatermarkKey, count: int, start: int = 0) -> ClosedStepBatch:
    """Closed key material for ``count`` steps from ``start`` (cached).
    Detection reads one entry per token instead (``closed_token_colors``)."""
    return _closed_steps(key, count, start)


@functools.lru_cache(maxsize=8)
def _fixed_support(key: WatermarkKey) -> np.ndarray:
    """The step-0 support every step of a fixed-per-key open key reuses,
    shape (k,), derived once per key."""
    return _freeze(_support_matrix(key, 0, 1)[0])


def _open_steps(key: WatermarkKey, count: int, start: int) -> OpenStepBatch:
    """Open sampler material for ``count`` steps from ``start``, uncached."""
    _require_scheme(key, OPEN)
    start, count = _check_step(start, count)
    gaussians = _freeze(_gaussian_matrix(key, start, count))
    if key.support_mode == FIXED_SUPPORT:
        supports = np.broadcast_to(_fixed_support(key), (count, key.k))
    else:
        supports = _freeze(_support_matrix(key, start, count))
    directions = _freeze(_sign_words(key, LANE_DIRECTION, start, count))
    return OpenStepBatch(gaussians=gaussians, supports=supports, directions=directions)


def derive_open_step(key: WatermarkKey, step: int) -> OpenStepKey:
    """Re-derive one step's Gaussian vector, support, and direction, row 0
    of an uncached batch of one."""
    batch = _open_steps(key, 1, step)
    return OpenStepKey(batch.gaussians[0], batch.supports[0], int(batch.directions[0]))


@functools.lru_cache(maxsize=1, typed=True)
def derive_open_steps(key: WatermarkKey, count: int, start: int = 0) -> OpenStepBatch:
    """Open sampler material for ``count`` steps from ``start`` (cached)."""
    return _open_steps(key, count, start)


@functools.lru_cache(maxsize=1, typed=True)
def derive_open_gaussians(key: WatermarkKey, count: int, start: int = 0) -> np.ndarray:
    """Detector-side material: only the Gaussian vectors, shape (count, d)."""
    _require_scheme(key, OPEN)
    start, count = _check_step(start, count)
    return _freeze(_gaussian_matrix(key, start, count))


def open_gaussian_entries(key: WatermarkKey, tokens, start: int = 0) -> np.ndarray:
    """Gaussian entry ``G[start + j, tokens[j]]`` of each step, shape (n,).

    Bit-identical to the same entries of ``derive_open_gaussians`` but
    hashes one block per token and keeps 16 bytes of it, so neither cost
    nor memory grows with d.
    """
    _require_scheme(key, OPEN)
    tokens = validate_tokens(tokens, key.d)
    start, _ = _check_step(start, tokens.size)
    prefix = key.master_seed + bytes([LANE_GAUSSIAN])
    pairs = []
    for step, t in zip(range(start, start + tokens.size), tokens.tolist()):
        block, off = divmod(16 * (t // 2), _BLOCK_BYTES)
        data = prefix + step.to_bytes(8, "big") + block.to_bytes(8, "big")
        pairs.append(hashlib.shake_256(data).digest(off + 16)[off:off + 16])
    words = np.frombuffer(b"".join(pairs), dtype=">u8").astype(np.uint64).reshape(-1, 2)
    cos, sin = _box_muller(words[:, 0], words[:, 1])
    return key.epsilon * np.where(tokens % 2 == 0, cos, sin)


def closed_token_colors(key: WatermarkKey, tokens, start: int = 0) -> np.ndarray:
    """Scored entry ``flip[start + j] * coloring[start + j, tokens[j]]`` of
    each step, shape (n,) int8.

    Bit-identical to the same entries of ``derive_closed_steps``. Each
    colour is read by the one-entry reading of the coloring rule (module
    docstring), which holds O(d) memory for one step at a time.
    """
    _require_scheme(key, CLOSED)
    tokens = validate_tokens(tokens, key.d)
    start, _ = _check_step(start, tokens.size)
    colors = np.array([_select_color(key, start + j, t) for j, t in enumerate(tokens.tolist())],
                      dtype=np.int8)
    return colors * _sign_words(key, LANE_FLIP, start, tokens.size)


# --------------------------------------------------------------------------
# Key files


def new_master_seed() -> bytes:
    """Fresh cryptographically random master seed (the only OS-entropy use)."""
    return os.urandom(SEED_BYTES)


def key_to_dict(key: WatermarkKey) -> dict:
    out = {
        "version": key.version,
        "scheme": key.scheme,
        "d": key.d,
        "k": key.k,
        "epsilon": key.epsilon,
        "support_mode": key.support_mode,
        "master_seed_base64": base64.b64encode(key.master_seed).decode("ascii"),
    }
    if key.padded:
        out["padded"] = True
    return out


def key_from_dict(obj: dict) -> WatermarkKey:
    """Parse a key file object: ``version`` (``KEY_FILE_VERSION``), ``d`` and ``k``
    integers, ``epsilon`` a finite number, ``padded`` a boolean, and the seed
    strict base64. Booleans, strings and fractions are never converted."""
    try:
        return WatermarkKey(
            master_seed=base64.b64decode(obj["master_seed_base64"], validate=True),
            d=field(obj, "d", is_int),
            scheme=obj["scheme"],
            epsilon=field(obj, "epsilon", lambda v: v is None or is_number(v), None),
            k=field(obj, "k", lambda v: v is None or is_int(v), None),
            support_mode=obj.get("support_mode"),
            padded=field(obj, "padded", lambda v: isinstance(v, bool), False),
            version=field(obj, "version", is_int),
        )
    except (InvalidInputError, KeyError, TypeError, ValueError) as exc:
        raise InvalidKeyError(f"malformed key file: {exc}") from exc


def save_key(key: WatermarkKey, path) -> None:
    Path(path).write_text(json_text(key_to_dict(key)))


def load_key(path) -> WatermarkKey:
    return key_from_dict(read_json(path, "key file", InvalidKeyError))
