"""Open scheme: perturbation assembly, softmax sampling, null behavior."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from tokenmark.core import softmax
from tokenmark.errors import InvalidInputError
from tokenmark.keystream import (
    FIXED_SUPPORT,
    FRESH_SUPPORT,
    OPEN,
    WatermarkKey,
    derive_open_gaussians,
    derive_open_steps,
)
from tokenmark.open_scheme import (
    _perturbations,
    open_step,
    perturbations_for,
    watermarked_softmax,
)
from tokenmark.textgen import generate, iid_source, uniform_source

SEED = bytes(range(32))


def make_key(d=8, epsilon=0.5, k=2, mode=None):
    return WatermarkKey(master_seed=SEED, d=d, scheme=OPEN, epsilon=epsilon, k=k, support_mode=mode)


def dense_perturbation(gaussian, support, direction, epsilon):
    """The step's perturbation with a dense unit mean vector ``mu``, summed
    in the association ``_perturbations`` uses."""
    mu = np.zeros(len(gaussian))
    mu[support] = 1 / np.sqrt(len(support))
    return gaussian + (direction * epsilon) * mu


class TestMeanVector:
    """The unit mean vector ``_perturbations`` adds: zero Gaussians, a +1
    direction and epsilon 1 leave exactly it."""

    def test_spreads_unit_mass(self):
        mu = _perturbations(np.zeros((1, 4)), np.array([[1, 3]]), np.array([1]), 1.0)[0]
        np.testing.assert_allclose(mu, [0, 1 / math.sqrt(2), 0, 1 / math.sqrt(2)], atol=0)
        assert abs(np.dot(mu, mu) - 1.0) < 1e-15

    def test_full_support(self):
        mu = _perturbations(np.zeros((1, 5)), np.arange(5)[None], np.array([1]), 1.0)[0]
        np.testing.assert_allclose(mu, np.full(5, 5**-0.5), atol=1e-16)


class TestBuildPerturbation:
    def test_composition(self):
        g = np.array([0.1, -0.2, 0.0, 0.3])
        delta = _perturbations(g[None], np.array([[0, 2]]), np.array([-1], dtype=np.int8), 0.5)[0]
        np.testing.assert_allclose(delta, g - 0.5 * np.array([1, 0, 1, 0]) / math.sqrt(2), atol=0)
        np.testing.assert_array_equal(delta, dense_perturbation(g, [0, 2], -1, 0.5))

    def test_zero_gaussian_leaves_directional_part(self):
        delta = _perturbations(np.zeros((1, 3)), np.array([[1]]), np.array([1]), 0.25)[0]
        np.testing.assert_allclose(delta, [0, 0.25, 0], atol=0)


class TestWatermarkedSoftmax:
    def test_known_two_token_tilt(self):
        # Flat logits tilted by (ln 2, 0) put exactly twice the odds on
        # token 0: q = (2/3, 1/3).
        q = watermarked_softmax([0.0, 0.0], [math.log(2), 0.0])
        np.testing.assert_allclose(q, [2 / 3, 1 / 3], atol=1e-15)

    def test_zero_perturbation_is_softmax(self):
        logits = np.array([1.0, -0.5, 0.3])
        np.testing.assert_array_equal(watermarked_softmax(logits, np.zeros(3)), softmax(logits))

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            watermarked_softmax([0.0, 0.0], [0.1, 0.2, 0.3])

    def test_perturbation_checked_as_logits(self):
        # A non-numeric entry ended in numpy's bare ValueError.
        with pytest.raises(InvalidInputError, match="must hold numbers"):
            watermarked_softmax([0.0, 0.0], [0.1, "x"])
        with pytest.raises(InvalidInputError, match="non-finite"):
            watermarked_softmax([0.0, 0.0], [0.1, math.nan])

    @given(
        st.lists(st.floats(-30, 30), min_size=2, max_size=12),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_always_valid_distribution(self, logits, seed):
        rng = np.random.default_rng(seed)
        delta = rng.normal(scale=2.0, size=len(logits))
        q = watermarked_softmax(logits, delta)
        assert q.min() >= 0.0
        assert abs(q.sum() - 1.0) <= 1e-12


class TestPerturbationsFor:
    def test_matches_stepwise_assembly(self):
        # The sparse shift gives the dense reference's bits exactly.
        for d, k, epsilon, count, start in [(10, 3, 0.4, 6, 0), (32768, 64, 0.25, 5, 1000)]:
            for mode in (FIXED_SUPPORT, FRESH_SUPPORT):
                key = make_key(d=d, epsilon=epsilon, k=k, mode=mode)
                batch = perturbations_for(key, count, start)
                steps = derive_open_steps(key, count, start)
                for j in range(count):
                    expected = dense_perturbation(steps.gaussians[j], steps.supports[j],
                                                  int(steps.directions[j]), key.epsilon)
                    np.testing.assert_array_equal(batch[j], expected)

    def test_cached_chunk_memory_d4096(self):
        """On a chunk already in the derivation cache, the perturbations
        cost one 8 B copy of the Gaussians per (step, token) entry; a dense
        (count, d) mean-vector matrix and its scaled copy would pass 12 B."""
        key = make_key(d=4096, epsilon=0.5, k=64, mode=FRESH_SUPPORT)
        count = 64
        derive_open_steps(key, count, 0)  # the cache entry perturbations_for reads
        tracemalloc.start()
        try:
            perturbations_for(key, count, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_entry = peak / (count * key.d)
        assert per_entry < 12, f"perturbations_for peaked at {per_entry:.1f} B per entry"

    def test_small_epsilon_limit(self):
        # As epsilon shrinks the watermarked law collapses onto the model's.
        logits = np.array([0.5, -0.2, 0.1, -0.4, 0.8, 0.0, -0.6, 0.2])
        key = make_key(epsilon=1e-6)
        q = watermarked_softmax(logits, perturbations_for(key, 1)[0])
        np.testing.assert_allclose(q, softmax(logits), atol=1e-5)


class TestKeyedSampling:
    def test_deterministic_given_stream(self):
        key = make_key()
        logits = np.zeros(8)
        a = [open_step(key, j, logits, np.random.default_rng(3)) for j in range(5)]
        b = [open_step(key, j, logits, np.random.default_rng(3)) for j in range(5)]
        assert a == b

    def test_two_token_tilt_frequencies(self):
        # A fixed perturbation (ln 2, 0) on flat logits yields q = (2/3, 1/3);
        # empirical frequencies over 10^6 draws stay within 0.005.
        rng = np.random.default_rng(8)
        q = watermarked_softmax([0.0, 0.0], [math.log(2), 0.0])
        draws = rng.random(1_000_000) >= q[0]
        freq1 = draws.mean()
        assert abs((1 - freq1) - 2 / 3) < 0.005
        assert abs(freq1 - 1 / 3) < 0.005

    def test_batch_matches_marginal_law(self):
        key = make_key(d=4, epsilon=0.3, k=2)
        logits = np.array([0.2, -0.1, 0.4, -0.5])
        n = 4000
        tokens = generate(iid_source(softmax(logits)), n, key, np.random.default_rng(12)).tokens
        q = np.vstack([watermarked_softmax(logits, delta) for delta in perturbations_for(key, n)])
        freq = np.bincount(tokens, minlength=4) / n
        np.testing.assert_allclose(freq, q.mean(axis=0), atol=0.03)

    def test_watermarked_tokens_lean_into_gaussian(self):
        # The watermark's signature: scored against its own Gaussians, the
        # mean score over watermarked draws is positive.
        key = make_key(d=16, epsilon=0.5, k=4, mode=FRESH_SUPPORT)
        n = 20_000
        tokens = generate(uniform_source(16), n, key, np.random.default_rng(13)).tokens
        g = derive_open_gaussians(key, n)
        scores = g[np.arange(n), tokens]
        assert scores.mean() > 5 * scores.std() / math.sqrt(n)

    def test_null_scores_exactly_gaussian(self):
        # Tokens drawn independently of the key make G(x) literally a
        # N(0, eps^2) sample, per-coordinate independence included.
        key = make_key(d=32, epsilon=0.5, k=4)
        n = 100_000
        g = derive_open_gaussians(key, n)
        tokens = np.random.default_rng(14).integers(0, 32, size=n)
        scores = g[np.arange(n), tokens]
        assert stats.kstest(scores, "norm", args=(0.0, 0.5)).pvalue > 1e-3

    def test_wrong_dictionary_size_rejected(self):
        with pytest.raises(InvalidInputError):
            open_step(make_key(d=8), 0, np.zeros(9), np.random.default_rng(0))
