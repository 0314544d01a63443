"""Shared primitives: validation, softmax, categorical sampling, and the
file reader, field checker and JSON writer."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenmark import core
from tokenmark.closed_scheme import watermark_distribution
from tokenmark.core import (
    PROB_SUM_TOL,
    as_logits,
    as_probs,
    field,
    json_text,
    read_json,
    sample_categorical,
    sample_rows,
    sample_tokens,
    softmax,
    softmax_rows,
    validate_tokens,
)
from tokenmark.errors import CorruptTextError, InvalidInputError, InvalidKeyError


class TestAsProbs:
    def test_accepts_valid_vector(self):
        p = as_probs([0.4, 0.3, 0.2, 0.1])
        assert p.dtype == np.float64
        assert p.shape == (4,)

    def test_accepts_python_list_and_tuple(self):
        np.testing.assert_array_equal(as_probs((0.5, 0.5)), [0.5, 0.5])

    def test_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            as_probs([0.6, 0.5, -0.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidInputError):
            as_probs([0.5, 0.6])

    def test_rejects_sum_just_outside_tolerance(self):
        with pytest.raises(InvalidInputError):
            as_probs([0.5, 0.5 + 4e-12])

    def test_accepts_sum_within_tolerance(self):
        as_probs([0.5, 0.5 + 0.5e-12])

    def test_never_renormalizes(self):
        # A vector summing to 1 within tolerance is returned as-is, not scaled.
        p = [0.5, 0.5 + 0.5e-12]
        out = as_probs(p)
        np.testing.assert_array_equal(out, np.asarray(p, dtype=np.float64))

    def test_rejects_scalar_and_matrix(self):
        with pytest.raises(InvalidInputError):
            as_probs(1.0)
        with pytest.raises(InvalidInputError):
            as_probs([[0.5, 0.5]])

    def test_rejects_singleton_dictionary(self):
        with pytest.raises(InvalidInputError):
            as_probs([1.0])

    def test_rejects_nan_and_inf(self):
        with pytest.raises(InvalidInputError):
            as_probs([math.nan, 1.0])
        with pytest.raises(InvalidInputError):
            as_probs([math.inf, 0.5])

    def test_dictionary_size_check(self):
        with pytest.raises(InvalidInputError):
            as_probs([0.5, 0.5], d=4)
        as_probs([0.5, 0.5], d=2)

    def test_tolerance_constant(self):
        assert PROB_SUM_TOL == 1e-12


class TestAsLogits:
    def test_any_finite_values(self):
        out = as_logits([-1000.0, 0.0, 1000.0])
        assert out.shape == (3,)

    def test_rejects_inf(self):
        with pytest.raises(InvalidInputError):
            as_logits([0.0, math.inf])

    def test_rejects_wrong_size(self):
        with pytest.raises(InvalidInputError):
            as_logits([0.0, 1.0, 2.0], d=2)


class TestSoftmax:
    def test_known_ratios(self):
        # exp of (ln4, ln3, ln2, 0) normalizes to 4:3:2:1.
        q = softmax([math.log(4), math.log(3), math.log(2), 0.0])
        np.testing.assert_allclose(q, [0.4, 0.3, 0.2, 0.1], atol=1e-15)

    def test_shift_invariance(self):
        base = np.array([0.3, -1.2, 2.0, 0.0])
        np.testing.assert_allclose(softmax(base), softmax(base + 1000.0), atol=1e-15)

    def test_large_logits_do_not_overflow(self):
        q = softmax([800.0, 799.0])
        assert np.all(np.isfinite(q))
        np.testing.assert_allclose(q.sum(), 1.0, atol=1e-15)

    @given(
        st.lists(
            st.floats(min_value=-300, max_value=300, allow_nan=False),
            min_size=2,
            max_size=16,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_always_a_distribution(self, logits):
        q = softmax(logits)
        assert q.min() >= 0.0
        assert abs(q.sum() - 1.0) <= 1e-12

    def test_rows_matches_single(self):
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(5, 8))
        batched = softmax_rows(rows)
        for i in range(5):
            np.testing.assert_allclose(batched[i], softmax(rows[i]), atol=1e-15)


class TestSampleCategorical:
    def test_deterministic_given_state(self):
        p = [0.2, 0.5, 0.3]
        a = [sample_categorical(p, np.random.default_rng(11)) for _ in range(5)]
        b = [sample_categorical(p, np.random.default_rng(11)) for _ in range(5)]
        assert a == b

    def test_zero_probability_never_sampled(self):
        p = [0.5, 0.0, 0.5, 0.0]
        rng = np.random.default_rng(3)
        draws = {sample_categorical(p, rng) for _ in range(500)}
        assert draws <= {0, 2}

    def test_point_mass(self):
        rng = np.random.default_rng(0)
        assert all(sample_categorical([0.0, 1.0, 0.0], rng) == 1 for _ in range(50))

    def test_frequencies(self):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        rng = np.random.default_rng(42)
        n = 40_000
        counts = np.bincount([sample_categorical(p, rng) for _ in range(n)], minlength=4)
        # 4-sigma band per cell for a fixed seed.
        se = np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(counts / n - p) < 4 * se)


class TestSampleRows:
    def test_matches_marginals(self):
        rng = np.random.default_rng(5)
        p = np.array([0.25, 0.25, 0.5])
        probs = np.tile(p, (30_000, 1))
        tokens = sample_rows(probs, rng)
        freq = np.bincount(tokens, minlength=3) / len(tokens)
        assert np.all(np.abs(freq - p) < 0.012)

    def test_zero_columns_never_sampled(self):
        rng = np.random.default_rng(9)
        probs = np.tile([0.0, 0.7, 0.0, 0.3], (2000, 1))
        tokens = sample_rows(np.asarray(probs), rng)
        assert set(np.unique(tokens)) <= {1, 3}

    def test_trailing_zero_rows(self):
        # Sum a hair under 1 with trailing zeros: overshoot must fall back to
        # the last positive token, never an impossible one.
        row = np.array([1.0 - 1e-13, 1e-13, 0.0, 0.0])
        probs = np.tile(row, (1000, 1))
        tokens = sample_rows(probs, np.random.default_rng(1))
        assert set(np.unique(tokens)) <= {0, 1}

    def test_dtype(self):
        tokens = sample_rows(np.array([[0.5, 0.5]]), np.random.default_rng(0))
        assert tokens.dtype == np.int64


class TestSampleTokens:
    """The one uniform-to-token rule, at the boundaries where rules differ."""

    P = np.array([0.0, 0.25, 0.25, 0.0, 0.5, 0.0])

    def test_first_running_sum_above_u(self):
        # Running sums 0, .25, .5, .5, 1, 1: u equal to a sum moves on to
        # the next token with mass, and u = 0 skips a leading zero.
        u = np.array([0.0, 0.1, 0.25, 0.3, 0.5, 0.99])
        np.testing.assert_array_equal(sample_tokens(self.P, u), [1, 1, 2, 2, 4, 4])
        np.testing.assert_array_equal(sample_tokens(np.tile(self.P, (6, 1)), u),
                                      [1, 1, 2, 2, 4, 4])
        assert sample_tokens(self.P, 0.25) == 2

    def test_past_the_sum_takes_last_positive(self):
        short = np.array([0.25, 0.25, 0.0, 0.0])  # sums to 0.5
        assert sample_tokens(short, 0.75) == 1
        rows = np.vstack([short, self.P[:4] * 2])
        np.testing.assert_array_equal(sample_tokens(rows, np.array([0.75, 0.99])), [1, 2])

    def test_rows_match_shared_row(self):
        u = np.random.default_rng(4).random(500)
        np.testing.assert_array_equal(sample_tokens(np.tile(self.P, (500, 1)), u),
                                      sample_tokens(self.P, u))


def searchsorted_tokens(probs, u):
    """The module's rule by one full binary search per uniform: the
    reference the bucket search must equal."""
    tokens = np.searchsorted(probs.cumsum(), u, side="right")
    last = probs.size - 1 - (probs[::-1] > 0).argmax()
    return np.where(tokens >= probs.size, last, tokens)


def _balanced_coloring(d, rng):
    return rng.permutation(np.repeat(np.array([1, -1], dtype=np.int8), d // 2))


def _laws():
    rng = np.random.default_rng(2024)
    power = np.arange(1, 8193) ** -1.1
    padded = np.append(np.full(15, 1 / 15), 0.0)
    laws = {f"uniform-{d}": np.full(d, 1 / d) for d in (2, 512, 1024)}
    laws.update({
        "dirichlet-0.1": rng.dirichlet(np.full(1000, 0.1)),
        "dirichlet-1": rng.dirichlet(np.ones(1000)),
        "powerlaw-8192": power / power.sum(),
        # Half the entries are 0, so the CDF has runs of equal levels.
        "closed-uniform-1024": watermark_distribution(
            np.full(1024, 1 / 1024), _balanced_coloring(1024, rng), 1),
        "padded-closed-16": watermark_distribution(padded, _balanced_coloring(16, rng), -1),
        "point-mass": np.eye(50)[7],
        "sum-below-one": np.full(10, 0.1 * (1 - 1e-13)),
        "sum-above-one": np.full(10, 0.1 * (1 + 1e-13)),
    })
    return laws


LAWS = _laws()


class TestBucketSearch:
    """Many uniforms from one law are searched through a bucket table; every
    token must equal the one full binary search per uniform gives."""

    @staticmethod
    def special_uniforms(probs):
        """Each CDF level and the float just below it, both ends of [0, 1),
        past the sum, and u outside [0, 1) that no caller draws."""
        cdf = probs.cumsum()
        ends = [0.0, 1 - 2.0 ** -53, 1.0, 1.5, 2.0, 1e300, np.inf,
                -0.0, -1e-300, -0.5, -np.inf, np.nextafter(cdf[-1], 2.0)]
        return np.concatenate([cdf, np.nextafter(cdf, -np.inf), ends])

    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_matches_searchsorted(self, name, monkeypatch):
        probs = LAWS[name]
        calls = []
        bucket_tokens = core._bucket_tokens
        monkeypatch.setattr(core, "_bucket_tokens",
                            lambda *args: calls.append(1) or bucket_tokens(*args))
        rule = core._BUCKET_MIN_DRAWS + probs.size // 2
        special = self.special_uniforms(probs)
        many = special.size + rule + core._SEARCH_BLOCK  # several blocks, the last partial
        fill = np.random.default_rng(7).random(2 * many)
        # Every special value is drawn below the size rule, at it and far above it, in
        # the layouts callers pass: contiguous, reversed, a strided column and (texts, n).
        for size in (rule - 1, rule, many):
            for lo in range(0, special.size, size):
                u = np.concatenate([special[lo:lo + size], fill])[:2 * size]
                for draws in (u[:size], u[:size][::-1], u.reshape(size, 2)[:, 0],
                              u.reshape(2, size)):
                    before = len(calls)
                    tokens = sample_tokens(probs, draws)
                    assert len(calls) - before == (draws.size >= rule)
                    np.testing.assert_array_equal(tokens, searchsorted_tokens(probs, draws))

    def test_texts_by_steps(self):
        # generate_many's unkeyed draw: one (texts, n) matrix from one law.
        probs = LAWS["closed-uniform-1024"]
        u = np.random.default_rng(3).random((300, 40))
        tokens = sample_tokens(probs, u)
        assert tokens.shape == u.shape and tokens.dtype == np.intp
        np.testing.assert_array_equal(tokens, searchsorted_tokens(probs, u))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(weights=st.lists(st.one_of(st.just(0.0), st.floats(1e-9, 1.0)),
                            min_size=2, max_size=80),
           extra=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20),
           seed=st.integers(0, 2**32 - 1))
    def test_property_matches_searchsorted(self, weights, extra, seed):
        weights = np.array(weights)
        if not weights.any():
            weights[-1] = 1.0
        probs = weights / weights.sum()
        rng = np.random.default_rng(seed)
        u = np.concatenate([extra, self.special_uniforms(probs),
                            rng.random(core._BUCKET_MIN_DRAWS + probs.size)])
        np.testing.assert_array_equal(sample_tokens(probs, u), searchsorted_tokens(probs, u))

    def test_blocked_memory(self):
        """The search runs in blocks: 2^21 draws from a d = 512 law peak
        under their int64 output plus 4 MiB (searching all at once would
        hold several arrays of the draws' size)."""
        probs = np.full(512, 1 / 512)
        u = np.random.default_rng(0).random(1 << 21)
        tracemalloc.start()
        try:
            sample_tokens(probs, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < u.size * 8 + (4 << 20), f"peaked at {peak / 2**20:.1f} MiB"


class TestValidateTokens:
    def test_roundtrip(self):
        out = validate_tokens([0, 3, 2, 1], d=4)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, [0, 3, 2, 1])

    def test_float_integers_accepted(self):
        np.testing.assert_array_equal(validate_tokens([0.0, 2.0], d=3), [0, 2])

    def test_fractional_rejected(self):
        with pytest.raises(CorruptTextError):
            validate_tokens([0.5, 1.0], d=2)

    def test_out_of_range_rejected(self):
        with pytest.raises(CorruptTextError):
            validate_tokens([0, 4], d=4)
        with pytest.raises(CorruptTextError):
            validate_tokens([-1, 0], d=4)

    def test_empty_rejected(self):
        with pytest.raises(CorruptTextError):
            validate_tokens([], d=4)


class TestFiles:
    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}", b"{not json", b"[1, 2]", b"[" * 100_000, b"",
    ], ids=["not-utf8", "not-json", "not-object", "too-deep", "empty"])
    def test_unreadable_json_raises_callers_error(self, tmp_path, content):
        path = tmp_path / "f.json"
        path.write_bytes(content)
        with pytest.raises(InvalidKeyError, match="key file"):
            read_json(path, "key file", InvalidKeyError)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidInputError, match="cannot read model file"):
            read_json(tmp_path / "none.json", "model file")

    def test_reads_object(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json_text({"b": [1, 2.5], "a": None}))
        assert read_json(path, "config") == {"a": None, "b": [1, 2.5]}

    def test_json_text_layout(self):
        assert json_text({"b": 1, "a": [True]}) == '{\n  "a": [\n    true\n  ],\n  "b": 1\n}\n'

    def test_field(self):
        obj = {"d": 8, "flag": True, "x": None}
        assert field(obj, "d", lambda v: isinstance(v, int)) == 8
        assert field(obj, "missing", bool, 1.5) == 1.5
        with pytest.raises(InvalidInputError, match="missing"):
            field(obj, "missing", bool)
        with pytest.raises(InvalidInputError, match="flag has the wrong type"):
            field(obj, "flag", lambda v: isinstance(v, str))
        with pytest.raises(InvalidInputError, match="x has the wrong type"):
            field(obj, "x", lambda v: v is not None, 0)
