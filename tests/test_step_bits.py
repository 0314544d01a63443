"""Bit-exactness of the single-step kernels at realistic dictionary sizes.

The closed and open steps are built from fast kernels: the selection
coloring, the pairing kernel behind ``watermark_ranked``, the Box-Muller
transform and ``softmax_rows``. Each is checked here against a reference
that shares no code with it: a stable argsort for the coloring, the
rank-order formulation of the pairing (the shift built in rank order and
scattered back to tokens), and the plain out-of-place formulas for the
transcendental steps. Floats are compared as their uint64 bit patterns, so
even a change in the sign of a zero shows.
"""

import numpy as np
import pytest

from tokenmark import closed_scheme, keystream, open_scheme
from tokenmark.closed_scheme import closed_step, watermark_distributions, watermark_ranked
from tokenmark.core import softmax_rows
from tokenmark.keystream import CLOSED, OPEN, WatermarkKey
from tokenmark.open_scheme import open_step

SEED = bytes(range(32))


def assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


# --------------------------------------------------------------------------
# References


def select_reference(words):
    """+1 for the d/2 smallest words of each row, ties by token index."""
    out = np.full(words.shape, -1, dtype=np.int8)
    smallest = np.argsort(words, axis=1, kind="stable")[:, : words.shape[1] // 2]
    np.put_along_axis(out, smallest, np.int8(1), axis=1)
    return out


def rank_order_shift(ps, signs):
    """The pairing in rank order: ``signs`` and ``ps`` are ranked, and the
    i-th -1 and i-th +1 entry of a row share the later rank's probability."""
    by_sign = signs.reshape(-1).argsort(kind="stable")
    half = by_sign.size // 2
    minus, plus = by_sign[:half], by_sign[half:]
    later = np.maximum(plus, minus)
    if ps.ndim < signs.ndim:
        later %= ps.size
    pairmin = ps.take(later)
    shift = np.empty(signs.shape)
    flat = shift.reshape(-1)
    flat[plus] = pairmin
    flat[minus] = -pairmin
    return shift


def ranked_reference(probs, signs):
    """``watermark_ranked`` by the rank-order formulation: the shift is
    built in rank order and scattered back through the stable order."""
    order = np.argsort(-probs, axis=-1, kind="stable")
    q = np.empty(signs.shape)
    if order.ndim == 1:
        q.T[order] = rank_order_shift(probs[order], signs.take(order, axis=-1)).T
    else:
        np.put_along_axis(q, order, rank_order_shift(np.take_along_axis(probs, order, axis=-1),
                                                     np.take_along_axis(signs, order, axis=-1)),
                          axis=-1)
    q += probs
    return q


def softmax_reference(logits):
    shifted = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def box_muller_reference(first, second):
    scale = 2.0 ** -53
    u1 = ((first >> np.uint64(11)).astype(np.float64) + 1.0) * scale
    u2 = (second >> np.uint64(11)).astype(np.float64) * scale
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    return radius * np.cos(angle), radius * np.sin(angle)


# --------------------------------------------------------------------------
# Inputs


def balanced_signs(rng, rows, d):
    signs = np.tile(np.repeat(np.array([1, -1], dtype=np.int8), d // 2), (rows, 1))
    return rng.permuted(signs, axis=1)


def laws(d):
    """Laws with the cases the pairing must order exactly: distinct values,
    ties (zeros among them), a padded law's trailing zero, and negative
    zeros tied with zeros."""
    rng = np.random.default_rng(d)
    distinct = rng.dirichlet(np.full(d, 0.3))
    tied = rng.choice([0.0, 1.0, 2.0, 4.0], size=d)
    tied /= tied.sum()
    padded = np.append(rng.dirichlet(np.full(d - 1, 0.5)), 0.0)
    signed_zeros = tied.copy()
    signed_zeros[rng.choice(np.flatnonzero(tied == 0.0), max(1, d // 16))] = -0.0
    return {"distinct": distinct, "tied": tied, "padded": padded, "signed-zeros": signed_zeros}


def words_with_ties(rng, rows, d):
    """Random words in which many entries equal each row's median word, so
    the d/2-th smallest is tied across the class boundary."""
    words = rng.integers(0, 2**64, size=(rows, d), dtype=np.uint64)
    for row in words:
        median = np.sort(row)[d // 2 - 1]
        row[rng.choice(d, d // 64, replace=False)] = median
        row[rng.choice(d, 4, replace=False)] = row[0]
    return words


# --------------------------------------------------------------------------
# Tests


class TestSelection:
    @pytest.mark.parametrize("d, rows", [(32768, 3), (2**18, 2)])
    def test_matches_stable_argsort(self, d, rows):
        words = words_with_ties(np.random.default_rng(d), rows, d)
        np.testing.assert_array_equal(keystream._select_rows(words), select_reference(words))

    def test_keystream_words(self):
        key = WatermarkKey(master_seed=SEED, d=32768, scheme=CLOSED)
        words = keystream._word_matrix(key, keystream.LANE_COLORING, 2**40 + 3, 2, key.d)
        np.testing.assert_array_equal(keystream._select_rows(words), select_reference(words))


class TestPairing:
    @pytest.mark.parametrize("d", [8, 1024, 32768])
    @pytest.mark.parametrize("law", ["distinct", "tied", "padded", "signed-zeros"])
    def test_shared_law(self, d, law):
        p = laws(d)[law]
        rng = np.random.default_rng(d + 1)
        colorings = balanced_signs(rng, 3, d)
        for flips in ([1, -1, 1], [-1, 1, -1]):
            signs = colorings * np.array(flips, dtype=np.int8)[:, None]
            assert_same_bits(watermark_distributions(p, colorings, flips),
                             ranked_reference(p, signs))
            # One row and one (d,) sign vector, as single steps and the
            # generation loop pass them.
            assert_same_bits(watermark_ranked(p, closed_scheme.rank_order(p), signs[0]),
                             ranked_reference(p, signs[0]))
            assert_same_bits(watermark_distributions(p, colorings[:1], flips[:1]),
                             ranked_reference(p, signs[:1]))

    @pytest.mark.parametrize("d", [8, 1024, 32768])
    def test_per_row_laws(self, d):
        rows = np.vstack(list(laws(d).values()))
        rng = np.random.default_rng(d + 2)
        colorings = balanced_signs(rng, rows.shape[0], d)
        for flips in ([1, -1, 1, -1], [-1, 1, -1, 1]):
            signs = colorings * np.array(flips, dtype=np.int8)[:, None]
            assert_same_bits(watermark_distributions(rows, colorings, flips),
                             ranked_reference(rows, signs))
            assert_same_bits(watermark_distributions(rows[2:3], colorings[2:3], flips[2:3]),
                             ranked_reference(rows[2:3], signs[2:3]))

    @pytest.mark.parametrize("d", [8, 32768])
    def test_both_sides_of_the_split_switch(self, d, monkeypatch):
        # The signs are split by a stable argsort below _SPLIT_SCAN_MIN and
        # by two nonzero scans above it. Either side alone gives the same
        # bits on the same inputs, so neither can drift.
        rng = np.random.default_rng(d + 3)
        cases = [(p, balanced_signs(rng, 2, d)) for p in laws(d).values()]
        results = {}
        for switch in (0, 2**62):
            monkeypatch.setattr(closed_scheme, "_SPLIT_SCAN_MIN", switch)
            results[switch] = [(watermark_distributions(p, c, [1, -1]),
                                watermark_ranked(p, closed_scheme.rank_order(p), -c[0]))
                               for p, c in cases]
        for (p, c), scan, argsort in zip(cases, results[0], results[2**62]):
            expected = ranked_reference(p, c * np.array([[1], [-1]], dtype=np.int8))
            assert_same_bits(scan[0], expected)
            assert_same_bits(argsort[0], expected)
            assert_same_bits(scan[1], ranked_reference(p, -c[0]))
            assert_same_bits(argsort[1], ranked_reference(p, -c[0]))


def stable_order(probs):
    return np.argsort(-probs, axis=-1, kind="stable")


def near_ties(rng, d):
    """A law in which each even token and the next one differ only in the
    lowest of the low ``(d - 1).bit_length()`` bits the packed keys drop,
    the later token being the larger: index order ranks each pair wrong."""
    low = np.uint64((1 << (d - 1).bit_length()) - 1)
    bits = rng.dirichlet(np.full(d, 0.5)).view(np.uint64) & ~low
    bits[1::2] = bits[0::2][: d // 2] | np.uint64(1)
    return bits.view(np.float64)


def rank_inputs(d):
    """Laws whose float bits order them wrongly or not at all, and laws
    with exact ties, which the packed keys order right."""
    rng = np.random.default_rng(d + 4)
    base = rng.dirichlet(np.full(d, 0.5))
    tied = rng.choice([0.0, 1.0, 2.0], size=d)
    tied[0] = 0.0
    tied /= max(tied.sum(), 1.0)
    signed_zeros = tied.copy()
    signed_zeros[rng.integers(0, d, max(1, d // 8))] = -0.0
    with_nan = base.copy()
    with_nan[rng.integers(0, d, max(1, d // 64))] = np.nan
    negative_nan = base.copy()
    negative_nan[-1] = -np.nan
    subnormal = base.copy()
    subnormal[rng.integers(0, d, max(2, d // 4))] = rng.integers(0, 4, max(2, d // 4)) * 5e-324
    negative = base - np.median(base)
    return {"near-ties": near_ties(rng, d), "tied": tied, "signed-zeros": signed_zeros,
            "zero-then-minus-zero": np.where(np.arange(d) % 2, -0.0, 0.0),
            "nan": with_nan, "all-nan": np.full(d, np.nan), "negative-nan": negative_nan,
            "subnormal": subnormal, "negative": negative, "all-negative": -base,
            "infinite": np.where(np.arange(d) % 3, base, np.inf),
            "uniform": np.full(d, 1.0 / d), "padded": np.append(base[1:] / base[1:].sum(), 0.0)}


class TestRankOrder:
    """``rank_order`` sorts packed 64-bit keys and checks the result, and
    falls back to an argsort where the check fails; either way its order
    is the stable argsort's."""

    @pytest.mark.parametrize("d", [2, 3, 8, 1000, 32768, 2**18])
    def test_matches_stable_argsort(self, d):
        for name, p in rank_inputs(d).items():
            np.testing.assert_array_equal(closed_scheme.rank_order(p), stable_order(p),
                                          err_msg=name)

    @pytest.mark.parametrize("d", [2, 8, 1000, 32768])
    def test_batches_with_one_bad_row(self, d):
        rng = np.random.default_rng(d + 5)
        good = np.vstack([rng.dirichlet(np.full(d, 0.5)) for _ in range(3)])
        np.testing.assert_array_equal(closed_scheme.rank_order(good), stable_order(good))
        for name, bad in rank_inputs(d).items():
            rows = good.copy()
            rows[1] = bad
            np.testing.assert_array_equal(closed_scheme.rank_order(rows), stable_order(rows),
                                          err_msg=name)

    def test_fast_path_and_fallback(self, monkeypatch):
        d = 32768
        calls = []
        fallback = closed_scheme._argsort_order

        def spy(probs):
            calls.append(probs.shape)
            return fallback(probs)

        monkeypatch.setattr(closed_scheme, "_argsort_order", spy)
        power = np.arange(1, d + 1) ** -0.7
        power = power[np.random.default_rng(6).permutation(d)] / power.sum()
        inputs = rank_inputs(d)
        for p in (power, inputs["uniform"], inputs["padded"], inputs["tied"]):
            np.testing.assert_array_equal(closed_scheme.rank_order(p), stable_order(p))
        assert calls == []
        for name in ("near-ties", "signed-zeros", "nan", "negative"):
            p = inputs[name]
            np.testing.assert_array_equal(closed_scheme.rank_order(p), stable_order(p))
            assert calls.pop() == (d,), name


class TestOpenStep:
    D = 32768

    def test_softmax_rows(self):
        rng = np.random.default_rng(40)
        logits = -0.7 * np.log(np.arange(1, self.D + 1))[rng.permutation(self.D)]
        rows = logits + rng.standard_normal((3, self.D))
        assert_same_bits(softmax_rows(logits), softmax_reference(logits))
        assert_same_bits(softmax_rows(rows), softmax_reference(rows))

    def test_gaussian_lane(self):
        key = WatermarkKey(master_seed=SEED, d=self.D, scheme=OPEN, epsilon=0.3, k=16)
        words = keystream._word_matrix(key, keystream.LANE_GAUSSIAN, 4097, 2, self.D)
        cos, sin = box_muller_reference(words[:, 0::2], words[:, 1::2])
        expected = np.empty((2, self.D))
        expected[:, 0::2], expected[:, 1::2] = key.epsilon * cos, key.epsilon * sin
        assert_same_bits(keystream._gaussian_matrix(key, 4097, 2), expected)

    def test_open_step_law(self, monkeypatch):
        # The law open_step samples from, captured at the sampler, against
        # softmax of logits plus the step's perturbation, out of place.
        key = WatermarkKey(master_seed=SEED, d=self.D, scheme=OPEN, epsilon=0.3, k=16)
        logits = -0.7 * np.log(np.arange(1, self.D + 1))
        logits = logits[np.random.default_rng(41).permutation(self.D)]
        seen = []

        def capture(probs, rng):
            seen.append(probs.copy())
            return np.zeros(1, dtype=np.int64)

        monkeypatch.setattr(open_scheme, "sample_rows", capture)
        for step in (0, 4097, 2**40 + 3):
            open_step(key, step, logits, np.random.default_rng(step))
            batch = keystream.derive_open_step(key, step)
            delta = batch.gaussian.copy()
            delta[batch.support] += (batch.direction * key.epsilon) * (1 / np.sqrt(key.k))
            assert_same_bits(seen.pop(), softmax_reference(logits + delta[None]))


def test_closed_step_law(monkeypatch):
    """The law closed_step samples from at d = 32768 against the rank-order
    reference on the step's keystream coloring and flip."""
    d = 32768
    key = WatermarkKey(master_seed=SEED, d=d, scheme=CLOSED)
    p = laws(d)["tied"]
    seen = []

    def capture(probs, rng):
        seen.append(probs.copy())
        return np.zeros(1, dtype=np.int64)

    monkeypatch.setattr(closed_scheme, "sample_rows", capture)
    for step in (0, 1, 2**40 + 3):
        closed_step(key, step, p, np.random.default_rng(step))
        sk = keystream.derive_closed_step(key, step)
        assert_same_bits(seen.pop(), ranked_reference(p, (sk.flip * sk.coloring)[None]))
