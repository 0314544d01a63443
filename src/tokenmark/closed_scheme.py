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

from dataclasses import dataclass

import numpy as np

from . import keystream
from .core import as_probs, sample_categorical, sample_rows
from .errors import InvalidInputError
from .keystream import WatermarkKey


@dataclass(frozen=True, eq=False)
class PairedRanking:
    """Rank-matched pairing of the two color classes for one step.

    ``pos[i]`` and ``neg[i]`` are the i-th most probable +1 and -1 tokens
    (probability ties broken by ascending token index), and ``epsilon`` maps
    every token to its pair's shift magnitude ``min(p[pos[i]], p[neg[i]])``.
    """

    pos: np.ndarray
    neg: np.ndarray
    epsilon: np.ndarray


def _check_coloring(coloring: np.ndarray, d: int) -> np.ndarray:
    coloring = np.asarray(coloring)
    if coloring.shape != (d,):
        raise InvalidInputError(f"coloring must have shape ({d},)")
    plus = coloring == 1
    if not (plus | (coloring == -1)).all() or int(plus.sum()) * 2 != d:
        raise InvalidInputError("coloring must be +-1 with equally many of each sign")
    return coloring


def rank_match(p, coloring) -> PairedRanking:
    """Pair opposite-colored tokens by descending probability and compute
    per-token shift magnitudes."""
    p = as_probs(p)
    coloring = _check_coloring(coloring, p.size)
    order = np.argsort(-p, kind="stable")
    pos = order[coloring[order] == 1]
    neg = order[coloring[order] == -1]
    epsilon = np.empty_like(p)
    pairmin = np.minimum(p[pos], p[neg])
    epsilon[pos] = pairmin
    epsilon[neg] = pairmin
    return PairedRanking(pos=pos, neg=neg, epsilon=epsilon)


def watermark_distribution(p, coloring, flip: int) -> np.ndarray:
    """The step's watermarked distribution ``q = p + flip * epsilon * coloring``.

    Every entry stays non-negative (the shift never exceeds the smaller
    probability of a pair) and the paired shifts cancel in the total, so no
    renormalization happens.
    """
    if flip not in (1, -1):
        raise InvalidInputError("flip must be +1 or -1")
    ranking = rank_match(p, coloring)
    return np.asarray(p, dtype=np.float64) + flip * ranking.epsilon * coloring


def closed_step(key: WatermarkKey, step: int, p, rng: np.random.Generator) -> int:
    """Sample one watermarked token: derive the step's coloring and flip,
    shift ``p``, and draw from the result."""
    p = as_probs(p, key.d)
    sk = keystream.derive_closed_step(key, step)
    q = watermark_distribution(p, sk.coloring, sk.flip)
    return sample_categorical(q, rng)


# --------------------------------------------------------------------------
# Batch paths over many steps at once. These trust their coloring input
# (it comes from the keystream) and skip the per-row balance check.


def epsilons_for(probs: np.ndarray, colorings: np.ndarray) -> np.ndarray:
    """Shift magnitudes for ``n`` steps at once.

    ``probs`` is (n, d) or a single (d,) distribution shared by all steps;
    ``colorings`` is (n, d). Returns the (n, d) epsilon matrix.
    """
    colorings = np.asarray(colorings)
    if colorings.ndim != 2:
        raise InvalidInputError("colorings must be 2-d")
    n, d = colorings.shape
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim == 1:
        probs = np.broadcast_to(probs, (n, d))
    if probs.shape != (n, d):
        raise InvalidInputError("probs shape does not match colorings")

    order = np.argsort(-probs, axis=-1, kind="stable")
    colors_sorted = np.take_along_axis(colorings, order, axis=-1)
    probs_sorted = np.take_along_axis(probs, order, axis=-1)
    # Per row, the sorted positions of each color class in rank order; the
    # later position of a pair holds its smaller probability.
    pos_cols = np.nonzero(colors_sorted == 1)[1].reshape(n, d // 2)
    neg_cols = np.nonzero(colors_sorted == -1)[1].reshape(n, d // 2)
    later = np.maximum(pos_cols, neg_cols)
    rows = np.arange(n)[:, None]
    pairmin = probs_sorted[rows, later]
    eps_sorted = np.empty((n, d))
    eps_sorted[rows, pos_cols] = pairmin
    eps_sorted[rows, neg_cols] = pairmin
    eps = np.empty((n, d))
    np.put_along_axis(eps, order, eps_sorted, axis=-1)
    return eps


def watermark_distributions(probs, colorings, flips) -> np.ndarray:
    """Watermarked distributions for ``n`` steps, shape (n, d)."""
    colorings = np.asarray(colorings)
    probs_in = np.asarray(probs, dtype=np.float64)
    eps = epsilons_for(probs_in, colorings)
    flips = np.asarray(flips, dtype=np.float64).reshape(-1, 1)
    return probs_in + flips * eps * colorings


def sample_closed_batch(key: WatermarkKey, probs, rng: np.random.Generator,
                        count: int, start: int = 0) -> np.ndarray:
    """Watermarked tokens for ``count`` consecutive steps with per-step
    distributions ``probs`` ((count, d) or shared (d,))."""
    batch = keystream.derive_closed_steps(key, count, start)
    q = watermark_distributions(probs, batch.colorings, batch.flips)
    return sample_rows(q, rng)
