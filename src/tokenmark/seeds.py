"""Deterministic seed trees for experiments and Monte-Carlo checks.

Every piece of non-key randomness (text sampling, null calibration, power
trials) flows from a named path under a root seed, so a manifest that
records the root pins the whole run. This is deliberately separate from
the keystream PRF: key material has its own derivation contract, and
mixing the two would let an experiment config influence key bits.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .core import is_int
from .errors import InvalidInputError


def check_seed(seed, name: str = "seed"):
    """``seed`` after checking it is an integer that ``derive_seed`` encodes
    exactly: a boolean, float or string is refused, not hashed as text."""
    if not is_int(seed):
        raise InvalidInputError(f"{name} must be an integer, got {seed!r}")
    if not -2 ** 127 <= int(seed) < 2 ** 127:
        raise InvalidInputError(f"{name} must lie in [-2**127, 2**127), got {seed}")
    return seed


def derive_seed(root, *labels) -> int:
    """A 64-bit seed for the path ``root/label1/label2/...``.

    ``root`` and labels may be ints, strings, or bytes; each component is
    length-prefixed before hashing so distinct paths never collide by
    concatenation."""
    h = hashlib.sha256()
    for part in (root, *labels):
        if isinstance(part, bytes):
            enc = part
        elif isinstance(part, (int, np.integer)):
            enc = b"i" + int(part).to_bytes(16, "big", signed=True)
        else:
            enc = str(part).encode("utf-8")
        h.update(len(enc).to_bytes(4, "big"))
        h.update(enc)
    return int.from_bytes(h.digest()[:8], "big")


def rng_for(root, *labels) -> np.random.Generator:
    """A fresh generator seeded from the given path."""
    return np.random.default_rng(derive_seed(root, *labels))


def derive_master_seed(root, *labels) -> bytes:
    """A 32-byte key master seed for the path; lets experiment configs pin
    their watermark keys without touching OS entropy."""
    h = hashlib.sha256(b"tokenmark-key-seed")
    h.update(derive_seed(root, *labels).to_bytes(8, "big"))
    return h.digest()
