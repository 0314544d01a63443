"""Closed scheme: rank pairing, shift magnitudes, validity, zero bias."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenmark.closed_scheme import (
    _rank_shift,
    closed_step,
    rank_order,
    watermark_distribution,
    watermark_distributions,
)
from tokenmark.errors import InvalidInputError
from tokenmark.keystream import CLOSED, WatermarkKey, derive_closed_steps
from tokenmark.textgen import generate, iid_source

P4 = np.array([0.4, 0.3, 0.2, 0.1])
COLORING4 = np.array([1, -1, 1, -1])


def random_balanced_coloring(rng, d):
    coloring = np.array([1] * (d // 2) + [-1] * (d // 2), dtype=np.int8)
    rng.shuffle(coloring)
    return coloring


def random_probs(rng, d):
    return rng.dirichlet(np.full(d, 0.5))


def reference_pairs(p, coloring):
    """The pairing in plain Python: tokens by descending probability, ties
    by ascending index, the i-th +1 token paired with the i-th -1 token."""
    order = np.lexsort((np.arange(len(p)), -np.asarray(p))).tolist()
    pos = [t for t in order if coloring[t] == 1]
    neg = [t for t in order if coloring[t] == -1]
    return list(zip(pos, neg))


def reference_epsilon(p, coloring):
    """Each token's shift magnitude: its pair's smaller probability."""
    eps = np.empty(len(p))
    for a, b in reference_pairs(p, coloring):
        eps[a] = eps[b] = min(p[a], p[b])
    return eps


def reference_distribution(p, coloring, flip):
    return p + flip * reference_epsilon(p, coloring) * coloring


def kernel_shift(p, coloring, flip):
    """``_rank_shift`` of one step, in token order."""
    return _rank_shift(p, rank_order(p), flip * coloring)


class TestRankMatch:
    """The shipped rank matching, ``_rank_shift`` behind
    ``watermark_distribution``, against ``reference_pairs``."""

    def test_worked_example(self):
        # Ranks: token 0 (0.4, +) pairs with token 1 (0.3, -), token 2
        # (0.2, +) with token 3 (0.1, -). Shift magnitudes are the pair
        # minima.
        assert reference_pairs(P4, COLORING4) == [(0, 1), (2, 3)]
        np.testing.assert_array_equal(reference_epsilon(P4, COLORING4), [0.3, 0.3, 0.1, 0.1])
        for flip in (1, -1):
            np.testing.assert_array_equal(kernel_shift(P4, COLORING4, flip),
                                          flip * np.array([0.3, -0.3, 0.1, -0.1]))
            np.testing.assert_array_equal(watermark_distribution(P4, COLORING4, flip),
                                          reference_distribution(P4, COLORING4, flip))

    def test_ties_break_by_ascending_index(self):
        # Tokens 0 and 1 tie at 0.3 on the + side. By index, token 0 pairs
        # with token 2 (0.3) and token 1 with token 3 (0.1); the other tie
        # order would swap the two boosts.
        p = np.array([0.3, 0.3, 0.3, 0.1])
        coloring = np.array([1, 1, -1, -1])
        assert reference_pairs(p, coloring) == [(0, 2), (1, 3)]
        q = watermark_distribution(p, coloring, 1)
        np.testing.assert_array_equal(q, [0.6, 0.4, 0.0, 0.0])
        np.testing.assert_array_equal(q, reference_distribution(p, coloring, 1))

    def test_stable_argsort_matches_index_tiebreak(self):
        # Ties, zeros included, go by ascending token index: the rank order
        # and the distributions equal the lexsort reference's.
        rng = np.random.default_rng(7)
        p = np.array([0.0, 0.2, 0.1, 0.0, 0.2, 0.1, 0.4, 0.0])
        lex = np.lexsort((np.arange(p.size), -p))
        np.testing.assert_array_equal(np.argsort(-p, kind="stable"), lex)
        np.testing.assert_array_equal(rank_order(p), lex)
        for _ in range(20):
            coloring = random_balanced_coloring(rng, p.size)
            for flip in (1, -1):
                np.testing.assert_array_equal(watermark_distribution(p, coloring, flip),
                                              reference_distribution(p, coloring, flip))

    def test_pairing_is_a_perfect_matching(self):
        # With distinct probabilities every pair has its own magnitude, so
        # the kernel's pairs can be read off its shift: the two tokens of
        # each |shift| value, one boosted and one suppressed.
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = int(rng.choice([4, 8, 12, 20]))
            p = random_probs(rng, d)
            coloring = random_balanced_coloring(rng, d)
            flip = int(rng.choice([-1, 1]))
            shift = kernel_shift(p, coloring, flip)
            pairs = {}
            for t in range(d):
                pairs.setdefault(abs(shift[t]), []).append(t)
            assert sorted(map(sorted, pairs.values())) == sorted(
                sorted(pair) for pair in reference_pairs(p, coloring))
            for a, b in pairs.values():
                assert shift[a] == -shift[b] and coloring[a] == -coloring[b]
                assert np.sign(shift[a]) == flip * coloring[a]
            # Pairs are rank-aligned: the i-th + token with the i-th - token.
            pos, neg = zip(*reference_pairs(p, coloring))
            assert np.all(np.diff(p[list(pos)]) <= 0)
            assert np.all(np.diff(p[list(neg)]) <= 0)

    def test_epsilon_is_pair_minimum(self):
        rng = np.random.default_rng(1)
        p = random_probs(rng, 8)
        coloring = random_balanced_coloring(rng, 8)
        shift = kernel_shift(p, coloring, 1)
        for a, b in reference_pairs(p, coloring):
            expected = min(p[a], p[b])
            assert shift[a] * coloring[a] == expected
            assert shift[b] * coloring[b] == expected

    def test_rejects_unbalanced_coloring(self):
        with pytest.raises(InvalidInputError):
            watermark_distribution(P4, np.array([1, 1, 1, -1]), 1)

    def test_rejects_non_sign_values(self):
        with pytest.raises(InvalidInputError):
            watermark_distribution(P4, np.array([1, 0, -1, 0]), 1)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            watermark_distribution(P4, np.array([1, -1]), 1)


class TestWatermarkDistribution:
    def test_worked_example_both_flips(self):
        plus = watermark_distribution(P4, COLORING4, 1)
        minus = watermark_distribution(P4, COLORING4, -1)
        np.testing.assert_allclose(plus, [0.7, 0.0, 0.3, 0.0], atol=0)
        np.testing.assert_allclose(minus, [0.1, 0.6, 0.1, 0.2], atol=0)

    def test_two_flips_average_back_to_p(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = random_probs(rng, 6)
            coloring = random_balanced_coloring(rng, 6)
            plus = watermark_distribution(p, coloring, 1)
            minus = watermark_distribution(p, coloring, -1)
            np.testing.assert_allclose((plus + minus) / 2, p, atol=1e-15)

    def test_validity_is_floating_point_exact(self):
        # q >= 0 holds exactly, not just within tolerance: each entry is
        # either p + eps or fl(p - eps) with eps <= p.
        rng = np.random.default_rng(3)
        for _ in range(300):
            d = int(rng.choice([2, 4, 8, 16, 32]))
            p = random_probs(rng, d)
            coloring = random_balanced_coloring(rng, d)
            flip = int(rng.choice([-1, 1]))
            q = watermark_distribution(p, coloring, flip)
            assert q.min() >= 0.0
            assert abs(q.sum() - 1.0) <= 1e-12

    def test_uniform_p_moves_everything(self):
        # Uniform probabilities pair equal masses: boosted tokens double,
        # suppressed tokens empty out.
        d = 8
        q = watermark_distribution(np.full(d, 1 / d), np.array([1, -1] * 4), 1)
        boosted = q[0::2]
        np.testing.assert_allclose(boosted, 2 / d, atol=0)
        np.testing.assert_allclose(q[1::2], 0.0, atol=0)

    def test_point_mass_is_inert(self):
        p = np.array([1.0, 0.0, 0.0, 0.0])
        for flip in (1, -1):
            q = watermark_distribution(p, COLORING4, flip)
            np.testing.assert_array_equal(q, p)

    def test_rejects_bad_flip(self):
        # True and 1.0 once passed as +1, since both compare equal to 1.
        for flip in (0, 2, True, False, 1.0, -1.0, np.float64(1.0), "1", None):
            with pytest.raises(InvalidInputError):
                watermark_distribution(P4, COLORING4, flip)

    def test_accepts_numpy_integer_flip(self):
        np.testing.assert_array_equal(watermark_distribution(P4, COLORING4, np.int8(-1)),
                                      watermark_distribution(P4, COLORING4, -1))

    @given(st.integers(0, 2**32 - 1), st.sampled_from([4, 6, 10]))
    @settings(max_examples=150, deadline=None)
    def test_mass_conservation_property(self, seed, d):
        rng = np.random.default_rng(seed)
        p = random_probs(rng, d)
        coloring = random_balanced_coloring(rng, d)
        q = watermark_distribution(p, coloring, int(rng.choice([-1, 1])))
        assert q.min() >= 0.0
        assert abs(q.sum() - p.sum()) <= 1e-14


class TestBatchPaths:
    def test_epsilons_match_single_step(self):
        # Batch rows shift each token by the single-row kernel's shift, and
        # by the reference's pair minima, bit for bit.
        rng = np.random.default_rng(4)
        for d in (4, 8, 18, 32):
            n = 40
            probs = np.vstack([random_probs(rng, d) for _ in range(n)])
            colorings = np.vstack([random_balanced_coloring(rng, d) for _ in range(n)])
            flips = rng.choice([-1, 1], size=n)
            batch = watermark_distributions(probs, colorings, flips)
            for i in range(n):
                shift = kernel_shift(probs[i], colorings[i], flips[i])
                np.testing.assert_array_equal(batch[i], probs[i] + shift)
                np.testing.assert_array_equal(
                    batch[i], reference_distribution(probs[i], colorings[i], flips[i]))

    def test_batch_ties_and_zeros_order_by_index(self):
        # Rows full of ties and zeros: the batch stable argsort equals a
        # lexsort keyed on the index, and so do the pairs it builds.
        rng = np.random.default_rng(8)
        n, d = 60, 12
        probs = rng.choice([0.0, 0.05, 0.1, 0.2], size=(n, d))
        probs[0] = 0.0
        probs[0, 3] = 1.0
        probs[1] = 1 / d
        probs /= probs.sum(axis=1, keepdims=True)
        colorings = np.vstack([random_balanced_coloring(rng, d) for _ in range(n)])
        flips = rng.choice([-1, 1], size=n)
        lex = np.lexsort((np.broadcast_to(np.arange(d), (n, d)), -probs), axis=-1)
        np.testing.assert_array_equal(np.argsort(-probs, axis=-1, kind="stable"), lex)
        batch = watermark_distributions(probs, colorings, flips)
        for i in range(n):
            order, c, p = lex[i], colorings[i], probs[i]
            pos, neg = order[c[order] == 1], order[c[order] == -1]
            expected = np.empty(d)
            expected[pos] = expected[neg] = np.minimum(p[pos], p[neg])
            np.testing.assert_array_equal(batch[i], p + flips[i] * expected * c)

    def test_shared_distribution_broadcast(self):
        rng = np.random.default_rng(5)
        p = random_probs(rng, 8)
        colorings = np.vstack([random_balanced_coloring(rng, 8) for _ in range(10)])
        flips = rng.choice([-1, 1], size=10)
        batch = watermark_distributions(p, colorings, flips)
        loop = watermark_distributions(np.tile(p, (10, 1)), colorings, flips)
        np.testing.assert_array_equal(batch, loop)

    def test_distributions_match_single_step(self):
        rng = np.random.default_rng(6)
        p = random_probs(rng, 8)
        colorings = np.vstack([random_balanced_coloring(rng, 8) for _ in range(12)])
        flips = rng.choice([-1, 1], size=12)
        batch = watermark_distributions(p, colorings, flips)
        for i in range(12):
            single = watermark_distribution(p, colorings[i], int(flips[i]))
            np.testing.assert_array_equal(batch[i], single)

    def test_rejects_bad_shapes(self):
        with pytest.raises(InvalidInputError):
            watermark_distributions(P4, COLORING4, [1])  # colorings must be 2-d
        with pytest.raises(InvalidInputError):
            watermark_distributions(np.ones((3, 4)) / 4, np.tile(COLORING4, (2, 1)), [1, 1])

    # Two rows at d = 8 split 16 signs by the stable argsort, and two at
    # d = 4096 split 8192 by the nonzero scans (_SPLIT_SCAN_MIN = 2048).
    @pytest.mark.parametrize("d", [8, 4096])
    @pytest.mark.parametrize("flips", [
        [0, 0], [2, -1], [1, 0], [True, False], [1.0, -1.0], np.array([1, 255], dtype=np.uint8),
        [1], [1, -1, 1], [[1], [-1]], ["1", "-1"], np.array([1, -1], dtype=object), [1, [1]],
    ], ids=["zeros", "two", "one-zero", "bools", "floats", "uint8-255", "short", "long",
            "column", "strings", "objects", "ragged"])
    def test_rejects_invalid_flips(self, d, flips):
        # Each flip must be the integer +1 or -1, one per coloring row.
        # [0, 0] gave rows summing to 0 and 2, [2, -1] negative entries, and
        # at d = 4096 [1, 0] and booleans a bare numpy broadcast error.
        rng = np.random.default_rng(d)
        colorings = np.vstack([random_balanced_coloring(rng, d) for _ in range(2)])
        for probs in (random_probs(rng, d), np.vstack([random_probs(rng, d)] * 2)):
            with pytest.raises(InvalidInputError, match="flips"):
                watermark_distributions(probs, colorings, flips)
            valid = watermark_distributions(probs, colorings, np.array([1, -1], dtype=np.int8))
            np.testing.assert_array_equal(watermark_distributions(probs, colorings, [1, -1]),
                                          valid)
            assert (valid >= 0).all()
            np.testing.assert_allclose(valid.sum(axis=1), 1.0)

    @pytest.mark.parametrize("probs", ["abc", [[0.5] * 4, [0.5] * 3], [0.25, "x", 0.25, 0.5],
                                       {"p": 1}], ids=["string", "ragged", "mixed", "dict"])
    def test_rejects_probs_numpy_cannot_convert(self, probs):
        with pytest.raises(InvalidInputError):
            watermark_distributions(probs, np.tile(COLORING4, (2, 1)), [1, -1])


class TestLargeDictionary:
    """The batch rows equal single-step watermark_distribution and a lexsort
    reference bit for bit at d = 32768, on keystream colorings."""

    D = 32768

    def check(self, probs):
        key = WatermarkKey(master_seed=bytes(range(32)), d=self.D, scheme=CLOSED)
        batch = derive_closed_steps(key, 3, 2**40 + 3)
        q = watermark_distributions(probs, batch.colorings, batch.flips)
        for i in range(3):
            p = probs if probs.ndim == 1 else probs[i]
            single = watermark_distribution(p, batch.colorings[i], int(batch.flips[i]))
            np.testing.assert_array_equal(q[i], single)
            np.testing.assert_array_equal(
                single, reference_distribution(p, batch.colorings[i], int(batch.flips[i])))

    def test_shared_distribution(self):
        self.check(np.random.default_rng(30).dirichlet(np.full(self.D, 0.3)))

    def test_per_row_distributions(self):
        self.check(np.random.default_rng(31).dirichlet(np.full(self.D, 0.3), size=3))

    def test_padded_trailing_zero(self):
        p = np.append(np.random.default_rng(32).dirichlet(np.full(self.D - 1, 0.3)), 0.0)
        self.check(p)

    def test_tied_probabilities(self):
        p = np.random.default_rng(33).choice([0.0, 1.0, 2.0, 4.0], size=self.D)
        self.check(p / p.sum())


def stable_order(probs):
    return np.argsort(-probs, axis=-1, kind="stable")


class TestRankOrder:
    """``rank_order`` sorts with numpy's unstable argsort and re-sorts runs
    of equal values by token index; it must equal the stable argsort on
    every input, and ties are where the two sorts can differ."""

    SIZES = (2, 7, 1024, 32768, 2**18)

    def assert_stable(self, probs):
        order = rank_order(probs)
        assert order.dtype == np.intp
        np.testing.assert_array_equal(order, stable_order(probs))

    def test_uniform_law(self):
        for d in self.SIZES:
            self.assert_stable(np.full(d, 1 / d))

    def test_rounded_power_law(self):
        for d in self.SIZES:
            p = np.round(np.arange(1, d + 1) ** -1.1, 3)
            p = p[np.random.default_rng(d).permutation(d)]
            self.assert_stable(p / p.sum())

    def test_long_zero_tail(self):
        for d in self.SIZES:
            p = np.zeros(d)
            head = max(1, d // 64)
            p[np.random.default_rng(d).choice(d, head, replace=False)] = 1 / head
            self.assert_stable(p)

    def test_padded_law(self):
        for d in self.SIZES:
            p = np.random.default_rng(d).dirichlet(np.full(d - 1, 0.5))
            self.assert_stable(np.append(p, 0.0))

    def test_integer_valued_rows(self):
        rng = np.random.default_rng(3)
        for d in (8, 1024, 32768):
            rows = rng.integers(0, 5, size=(6, d))
            rows[0] = 2
            self.assert_stable(rows)
            self.assert_stable(rows.astype(np.float64))

    def test_signed_zeros_and_nans(self):
        self.assert_stable(np.array([0.0, -0.0, 0.5, np.nan, 0.0, np.nan, -0.0, 0.5]))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 12), st.booleans(), st.data())
    def test_property_small_d(self, n, d, one_row, data):
        values = st.sampled_from([0.0, -0.0, 0.125, 0.25, 0.5, 1.0, 3.0])
        rows = data.draw(st.lists(st.lists(values, min_size=d, max_size=d),
                                  min_size=n, max_size=n))
        self.assert_stable(np.array(rows[0] if one_row else rows))


class TestKeyedSampling:
    KEY = WatermarkKey(master_seed=bytes(32), d=4, scheme=CLOSED)

    def test_deterministic_given_stream(self):
        a = [closed_step(self.KEY, j, P4, np.random.default_rng(9)) for j in range(6)]
        b = [closed_step(self.KEY, j, P4, np.random.default_rng(9)) for j in range(6)]
        assert a == b

    def test_suppressed_tokens_never_sampled(self):
        # Under a uniform source every step empties half the dictionary, so
        # each sampled token must have positive watermarked probability.
        key = WatermarkKey(master_seed=bytes(32), d=8, scheme=CLOSED)
        p = np.full(8, 1 / 8)
        rng = np.random.default_rng(10)
        n = 600
        tokens = generate(iid_source(p), n, key, rng).tokens
        batch = derive_closed_steps(key, n)
        q = watermark_distributions(p, batch.colorings, batch.flips)
        assert np.all(q[np.arange(n), tokens] > 0)

    def test_batch_agrees_with_stepwise_distributions(self):
        key = WatermarkKey(master_seed=bytes(32), d=6, scheme=CLOSED)
        p = np.array([0.3, 0.25, 0.2, 0.15, 0.07, 0.03])
        n = 4000
        tokens = generate(iid_source(p), n, key, np.random.default_rng(11)).tokens
        batch = derive_closed_steps(key, n)
        q = watermark_distributions(p, batch.colorings, batch.flips)
        # Pooled frequencies should match the average watermarked law.
        freq = np.bincount(tokens, minlength=6) / n
        np.testing.assert_allclose(freq, q.mean(axis=0), atol=0.03)

    def test_single_step_bias_cancels_over_key_material(self):
        # Averaging the watermarked law over many steps' secret pairs
        # recovers p: the sample-level undetectability seen from outside.
        key = WatermarkKey(master_seed=bytes(32), d=6, scheme=CLOSED)
        p = np.array([0.35, 0.2, 0.18, 0.12, 0.1, 0.05])
        batch = derive_closed_steps(key, 4000)
        q = watermark_distributions(p, batch.colorings, batch.flips)
        np.testing.assert_allclose(q.mean(axis=0), p, atol=0.02)

    def test_wrong_dictionary_size_rejected(self):
        with pytest.raises(InvalidInputError):
            closed_step(self.KEY, 0, np.full(6, 1 / 6), np.random.default_rng(0))
