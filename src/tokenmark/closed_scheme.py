"""Closed (model-holder) watermark: keyed probability shifts with zero bias.

Each step splits the dictionary into two equal-size color classes, pairs
opposite-colored tokens by probability rank, and moves mass within every
pair. The shift magnitude of a pair is the smaller of its two
probabilities, so the boosted token absorbs exactly what the suppressed
token can give up and the result is always a valid distribution. Averaged
over the coloring and the sign flip the shifts cancel, so a single
watermarked sample is distributed exactly like an unwatermarked one.
"""

from __future__ import annotations

import numpy as np

from . import keystream
from .core import as_probs, is_int, sample_rows
from .errors import InvalidInputError
from .keystream import WatermarkKey


def _check_coloring(coloring, d: int) -> np.ndarray:
    coloring = np.asarray(coloring)
    if coloring.shape != (d,):
        raise InvalidInputError(f"coloring must have shape ({d},)")
    plus = coloring == 1
    if not (plus | (coloring == -1)).all() or int(plus.sum()) * 2 != d:
        raise InvalidInputError("coloring must be +-1 with equally many of each sign")
    return coloring


# Below this many signs in a call, one stable argsort of the ranked signs
# splits them into the two classes faster than two nonzero scans; above
# it, the scans win. Measured on one CPU of a two-vCPU KVM guest: the
# argsort takes about 0.5 / 3.3 / 93 us at 8 / 1024 / 32768 signs, the
# two scans about 1.4 / 3.4 / 50 us.
_SPLIT_SCAN_MIN = 2048


def _rank_shift(probs: np.ndarray, order: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """The pairing kernel: the signed shift ``flip * epsilon * coloring`` of
    every token, in token order, shaped like ``signs``.

    ``signs``, ``order`` and ``probs`` are as in ``watermark_ranked``. In
    rank order, the i-th +1 and the i-th -1 entry of a row form a pair (the
    flip only swaps the names of the two classes); the later of the two
    ranks holds the pair's smaller probability, its shift magnitude, which
    the +1 token gains and the -1 token loses.
    """
    d = signs.shape[-1]
    # at[r] is the flat index, into signs and the shift, of flat rank r: a
    # row's ranks read through its order, offset by the row's start.
    at = order.ravel()
    if signs.size > d:
        at = (order + np.arange(0, signs.size, d)[:, None]).ravel()
    ranked = signs.take(at)
    # Each row holds d/2 of each sign, so the i-th entries of the two
    # ascending lists below are the same pair of the same row.
    if ranked.size < _SPLIT_SCAN_MIN:
        # A stable sort lists every -1 rank and then every +1 rank.
        by_sign = ranked.argsort(kind="stable")
        half = by_sign.size // 2
        minus, plus = by_sign[:half], by_sign[half:]
    else:
        boosted = ranked > 0
        plus, minus = boosted.nonzero()[0], (~boosted).nonzero()[0]
    # A shared (d,) law is read at flat index mod d.
    pairmin = probs.take(at[np.maximum(plus, minus)], mode="wrap")
    shift = np.empty(signs.shape)
    flat = shift.reshape(-1)
    flat[at[plus]] = pairmin
    flat[at[minus]] = np.negative(pairmin, out=pairmin)
    return shift


def rank_order(probs: np.ndarray) -> np.ndarray:
    """Token indices by descending probability along the last axis, ties by
    ascending index: the rank order the pairing uses.

    Equal to ``np.argsort(-probs, axis=-1, kind="stable")`` for every
    input. A float64 law is ordered by one sort of packed 64-bit keys:
    each token's float bits without their low ``b = (d - 1).bit_length()``
    bits, complemented so that larger values sort first, above its index
    in the low b bits. Equal values then list their tokens by ascending
    index. Truncation can merge two distinct values, and negative values,
    -0.0 and NaN do not order by their bits, so the result is checked:
    every ranked value must be at least the next one, and the first one
    must not have its sign bit set (those entries sort ahead of every
    other). If the check fails, ``_argsort_order`` orders the law instead.
    """
    d = probs.shape[-1]
    if probs.dtype != np.float64 or d < 2:
        return _argsort_order(probs)
    low = np.uint64((1 << (d - 1).bit_length()) - 1)
    keys = probs.view(np.uint64) | low
    np.invert(keys, out=keys)
    keys |= np.arange(d, dtype=np.uint64)
    keys.sort(axis=-1)
    keys &= low
    order = keys.view(np.int64)
    ranked = np.take_along_axis(probs, order, axis=-1)
    if np.signbit(ranked[..., 0]).any() or not (ranked[..., :-1] >= ranked[..., 1:]).all():
        return _argsort_order(probs)
    return order


def _argsort_order(probs: np.ndarray) -> np.ndarray:
    """``rank_order`` by numpy's unstable argsort, which may list equal
    values in any order. So where the sorted values have a run of equal
    values (NaNs count as equal, as in a stable sort), the order is sorted
    again by the unique integer key ``run * d + index``: runs keep their
    place and each run lists its tokens by ascending index."""
    order = np.argsort(-probs, axis=-1)
    ranked = np.take_along_axis(probs, order, axis=-1)
    before, after = ranked[..., :-1], ranked[..., 1:]
    same = (before == after) | (np.isnan(before) & np.isnan(after))
    if not same.any():
        return order
    d = probs.shape[-1]
    runs = np.zeros(order.shape, dtype=np.intp)
    np.cumsum(~same, axis=-1, out=runs[..., 1:])
    runs *= d
    runs += order
    runs.sort(axis=-1)
    return runs % d


def watermark_ranked(probs: np.ndarray, order: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """``probs`` shifted by the pairing kernel, in token order.

    ``signs`` is ``flip * coloring`` in token order, (d,) or (n, d), and
    ``order`` is ``rank_order(probs)``: of one (d,) distribution shared by
    every row, or of one distribution per row.
    """
    q = _rank_shift(probs, order, signs)
    q += probs
    return q


def watermark_distribution(p, coloring, flip: int) -> np.ndarray:
    """The step's watermarked distribution ``q = p + flip * epsilon * coloring``.

    Every entry stays non-negative (the shift never exceeds the smaller
    probability of a pair) and the paired shifts cancel in the total, so no
    renormalization happens.
    """
    if not is_int(flip) or flip not in (1, -1):
        raise InvalidInputError("flip must be the integer +1 or -1")
    p = as_probs(p)
    return watermark_ranked(p, rank_order(p), flip * _check_coloring(coloring, p.size))


def closed_step(key: WatermarkKey, step: int, p, rng: np.random.Generator) -> int:
    """Sample one watermarked token: derive the step's coloring and flip,
    shift ``p``, and draw from the result, as a batch of one. ``p`` is the
    dictionary's law: for a padded key, ``key.d - 1`` entries, to which the
    padding token's zero is appended, so it is never drawn."""
    p = key.pad_law(as_probs(p, key.dictionary_size))
    sk = keystream.derive_closed_step(key, step)
    return int(sample_rows(watermark_distributions(p, sk.coloring[None], [sk.flip]), rng)[0])


# --------------------------------------------------------------------------
# Batch paths over many steps at once. These trust their coloring input
# (it comes from the keystream) and skip the per-row balance check. The
# flips are checked: any flip but +-1 makes rows that are not laws.


def watermark_distributions(probs, colorings, flips) -> np.ndarray:
    """Watermarked distributions for ``n`` steps, shape (n, d).

    ``probs`` is (n, d) or a single (d,) distribution shared by all steps;
    ``colorings`` is (n, d) and ``flips`` (n,), each the integer +1 or -1.
    """
    colorings = np.asarray(colorings)
    if colorings.ndim != 2:
        raise InvalidInputError("colorings must be 2-d")
    try:
        probs = np.asarray(probs, dtype=np.float64)
        flips = np.asarray(flips)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"probs and flips must be numeric arrays: {exc}") from exc
    if probs.shape not in (colorings.shape, colorings.shape[1:]):
        raise InvalidInputError("probs shape does not match colorings")
    if (flips.shape != colorings.shape[:1] or flips.dtype.kind not in "iu"
            or not ((flips == 1) | (flips == -1)).all()):
        raise InvalidInputError("flips must be one integer +1 or -1 per coloring row")
    signs = colorings * flips.astype(colorings.dtype).reshape(-1, 1)
    return watermark_ranked(probs, rank_order(probs), signs)

