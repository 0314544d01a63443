"""Detection statistics, thresholds, p-values, and verdict semantics."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from tokenmark import detector, keystream
from tokenmark.core import json_text, validate_tokens
from tokenmark.detector import (
    DetectionReport,
    closed_p_value,
    closed_statistics,
    closed_threshold,
    detect,
    open_p_value,
    open_statistics,
    open_threshold,
    threshold,
)
from tokenmark.errors import CorruptTextError, InvalidInputError
from tokenmark.keystream import (
    CLOSED,
    OPEN,
    WatermarkKey,
    derive_closed_steps,
    derive_open_gaussians,
)
from tokenmark.textgen import generate, generate_many, uniform_source

SEED = bytes(range(32))
CLOSED_KEY = WatermarkKey(master_seed=SEED, d=8, scheme=CLOSED)
OPEN_KEY = WatermarkKey(master_seed=SEED, d=8, scheme=OPEN, epsilon=0.5, k=2)


class TestThresholds:
    def test_closed_reference_value(self):
        # sqrt(2 ln 20 / 1000)
        assert closed_threshold(1000, 0.05) == pytest.approx(0.07740455120409899, abs=1e-15)

    def test_open_reference_value(self):
        assert open_threshold(1000, 0.05, 0.5) == pytest.approx(0.038702275602049495, abs=1e-15)

    def test_open_scales_linearly_in_epsilon(self):
        assert open_threshold(500, 0.1, 0.25) == 0.25 * closed_threshold(500, 0.1)

    def test_monotone_in_n(self):
        values = [closed_threshold(n, 0.05) for n in (10, 100, 1000, 10_000)]
        assert values == sorted(values, reverse=True)

    def test_monotone_in_delta(self):
        values = [closed_threshold(100, d) for d in (0.001, 0.01, 0.1, 0.5)]
        assert values == sorted(values, reverse=True)

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidInputError):
            closed_threshold(0, 0.05)
        with pytest.raises(InvalidInputError):
            closed_threshold(100, 0.0)
        with pytest.raises(InvalidInputError):
            closed_threshold(100, 1.0)
        with pytest.raises(InvalidInputError):
            open_threshold(100, 0.05, 0.0)

    def test_key_threshold_is_its_schemes(self):
        for n, delta in ((1, 0.5), (100, 0.05), (5000, 0.01)):
            assert threshold(CLOSED_KEY, n, delta) == closed_threshold(n, delta)
            assert threshold(OPEN_KEY, n, delta) == open_threshold(n, delta, OPEN_KEY.epsilon)
        with pytest.raises(InvalidInputError):
            threshold(OPEN_KEY, 0, 0.05)
        with pytest.raises(InvalidInputError):
            threshold(CLOSED_KEY, 100, 1.0)


class TestArgumentTypes:
    """A fractional or boolean n once gave a threshold or a p-value, and a
    non-finite epsilon or z gave NaN."""

    @pytest.mark.parametrize("n", [10.5, 10.0, True, np.float64(10), "10", None])
    def test_non_integer_n_rejected(self, n):
        for call in (lambda: closed_threshold(n, 0.05), lambda: open_threshold(n, 0.05, 0.5),
                     lambda: closed_p_value(0.1, n), lambda: open_p_value(0.1, n, 0.5)):
            with pytest.raises(InvalidInputError):
                call()

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, True, "0.5"])
    def test_non_finite_epsilon_rejected(self, epsilon):
        with pytest.raises(InvalidInputError):
            open_threshold(10, 0.05, epsilon)
        with pytest.raises(InvalidInputError):
            open_p_value(0.1, 10, epsilon)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, True, "0.1"])
    def test_non_finite_z_rejected(self, z):
        with pytest.raises(InvalidInputError):
            closed_p_value(z, 10)
        with pytest.raises(InvalidInputError):
            open_p_value(z, 10, 0.5)

    @pytest.mark.parametrize("delta", ["0.1", None, True, math.nan, math.inf, -math.inf])
    def test_non_number_delta_rejected(self, delta):
        # A string or None delta ended in a bare TypeError.
        for call in (lambda: detect(CLOSED_KEY, [0, 1], delta=delta),
                     lambda: detect(OPEN_KEY, [0, 1], delta=delta),
                     lambda: closed_threshold(10, delta),
                     lambda: open_threshold(10, delta, 0.5)):
            with pytest.raises(InvalidInputError, match="delta"):
                call()

    @pytest.mark.parametrize("delta", [1e-320, 5e-324, 2.0**-1024])
    def test_delta_with_infinite_reciprocal_rejected(self, delta):
        # 1/delta overflowed, so detect reported an infinite threshold,
        # which is not JSON and which DetectionReport.from_dict refuses.
        for call in (lambda: detect(CLOSED_KEY, [0, 1], delta=delta),
                     lambda: detect(OPEN_KEY, [0, 1], delta=delta),
                     lambda: closed_threshold(10, delta),
                     lambda: open_threshold(10, delta, 0.5)):
            with pytest.raises(InvalidInputError, match="delta"):
                call()

    @pytest.mark.parametrize("delta", [2.3e-308, float(np.nextafter(2.0**-1024, 1.0))])
    def test_smallest_deltas_accepted(self, delta):
        assert closed_threshold(10, delta) == math.sqrt(2.0 * math.log(1.0 / delta) / 10)
        for key in (CLOSED_KEY, OPEN_KEY):
            report = detect(key, [0, 1, 2], delta=delta)
            assert math.isfinite(report.threshold)
            assert DetectionReport.from_dict(json.loads(json_text(report.to_dict()))) == report

    def test_numpy_scalars_accepted(self):
        assert closed_threshold(np.int64(100), 0.05) == closed_threshold(100, 0.05)
        assert closed_threshold(100, np.float64(0.05)) == closed_threshold(100, 0.05)
        assert open_p_value(np.float64(0.1), np.int32(100), 0.5) == open_p_value(0.1, 100, 0.5)


class TestPValues:
    def test_closed_at_threshold_equals_delta(self):
        # The sub-Gaussian bound is tight at its own threshold by design.
        for n, delta in ((100, 0.05), (5000, 0.01)):
            z = closed_threshold(n, delta)
            assert closed_p_value(z, n) == pytest.approx(delta, rel=1e-12)

    def test_open_at_threshold(self):
        # Exact Gaussian tail at z = eps * sqrt(2 ln(1/delta) / n).
        n, delta, eps = 400, 0.05, 0.5
        z = open_threshold(n, delta, eps)
        expected = 0.5 * math.erfc(math.sqrt(math.log(1 / delta)))
        assert open_p_value(z, n, eps) == pytest.approx(expected, rel=1e-12)
        # The exact tail is smaller than the bound it certifies.
        assert open_p_value(z, n, eps) < delta

    def test_negative_scores_clamp_to_one_half_or_one(self):
        assert closed_p_value(-0.3, 100) == 1.0
        assert open_p_value(-0.3, 100, 0.5) == 0.5

    def test_closed_limit_where_the_square_overflows(self):
        # z**2 overflowed: closed_p_value(1e155, 2) raised a bare OverflowError.
        for z in (1e155, 1e200, 1.7e308):
            assert closed_p_value(z, 2) == 0.0
        assert closed_p_value(1e154, 2) == 0.0

    def test_closed_unit_range_unchanged(self):
        zs = np.linspace(-1.0, 1.0, 2001).tolist() + [5e-324, 1e-300, 1e-8]
        for n in (1, 7, 100, 10**6):
            for z in zs:
                assert closed_p_value(z, n) == math.exp(-n * max(z, 0.0) ** 2 / 2.0)

    def test_monotone_decreasing_in_z(self):
        zs = [0.0, 0.05, 0.1, 0.5, 1.0]
        closed = [closed_p_value(z, 200) for z in zs]
        opened = [open_p_value(z, 200, 0.5) for z in zs]
        assert closed == sorted(closed, reverse=True)
        assert opened == sorted(opened, reverse=True)


class TestStatistics:
    def test_all_zero_gaussians_score_zero(self):
        # All-zero Gaussian material scores exactly 0.0, the null center,
        # where the open detector must never fire.
        assert 0.0 < open_threshold(50, 0.05, 0.5)
        assert open_p_value(0.0, 50, 0.5) == 0.5


class TestEndToEnd:
    def test_maximal_statistic(self):
        # Pick, at every step, a token whose coloring sign equals the flip:
        # each score is +1 and Z is exactly 1.
        batch = derive_closed_steps(CLOSED_KEY, 200)
        tokens = np.array(
            [int(np.nonzero(batch.colorings[j] == batch.flips[j])[0][0]) for j in range(200)]
        )
        report = detect(CLOSED_KEY, tokens)
        assert report.statistic == 1.0
        assert report.verdict is True
        assert report.p_value == pytest.approx(math.exp(-100), rel=1e-12)

    def test_verdict_at_exact_threshold_boundary(self):
        # n=2, delta=1/e makes the threshold exactly 1.0; a perfect text
        # sits exactly on it and the >= rule must fire.
        batch = derive_closed_steps(CLOSED_KEY, 2)
        tokens = np.array(
            [int(np.nonzero(batch.colorings[j] == batch.flips[j])[0][0]) for j in range(2)]
        )
        report = detect(CLOSED_KEY, tokens, delta=1 / math.e)
        assert report.threshold == 1.0
        assert report.statistic == 1.0
        assert report.verdict is True

    def test_watermarked_uniform_text_scores_one(self):
        # Under a uniform source the closed scheme doubles exactly the
        # tokens whose color matches the flip, so every sampled token
        # scores +1.
        key = WatermarkKey(master_seed=SEED, d=64, scheme=CLOSED)
        record = generate(uniform_source(64), 300, key, np.random.default_rng(0))
        report = detect(key, record.tokens)
        assert report.statistic == 1.0
        assert report.verdict is True

    def test_unwatermarked_text_not_flagged(self):
        rng = np.random.default_rng(1)
        tokens = rng.integers(0, 8, size=2000)
        closed_report = detect(CLOSED_KEY, tokens)
        open_report = detect(OPEN_KEY, tokens)
        assert closed_report.verdict is False
        assert open_report.verdict is False
        assert closed_report.p_value > 0.05
        assert open_report.p_value > 0.05

    def test_dispatch_follows_scheme(self):
        tokens = [0, 1, 2, 3]
        assert detect(CLOSED_KEY, tokens).scheme == "closed"
        assert detect(OPEN_KEY, tokens).scheme == "open"

    def test_start_offset_realigns(self):
        # A text cut from step 100 onward scores perfectly when detection is
        # told the offset, and like noise when assumed to start at 0.
        key = WatermarkKey(master_seed=SEED, d=64, scheme=CLOSED)
        record = generate(uniform_source(64), 600, key, np.random.default_rng(2))
        tail = record.tokens[100:]
        aligned = detect(key, tail, start=100)
        assert aligned.statistic == 1.0
        misaligned = detect(key, tail)
        assert misaligned.statistic < aligned.statistic

    def test_corrupt_tokens_rejected(self):
        with pytest.raises(CorruptTextError):
            detect(CLOSED_KEY, [0, 99])
        with pytest.raises(CorruptTextError):
            detect(OPEN_KEY, [])

    def test_delta_validated(self):
        with pytest.raises(InvalidInputError):
            detect(CLOSED_KEY, [0, 1], delta=1.5)

    def test_padding_token_rejected(self):
        # Sampling never emits a padded key's last token, so a text holding
        # it was not generated for the key's d - 1 token dictionary; it was
        # scored and got a verdict.
        key = WatermarkKey(master_seed=SEED, d=8, scheme=CLOSED, padded=True)
        with pytest.raises(CorruptTextError, match="dictionary size 7"):
            detect(key, [7] * 5)
        with pytest.raises(CorruptTextError, match="dictionary size 7"):
            closed_statistics(key, np.array([[0, 1, 2], [6, 7, 0]]))
        assert detect(key, [6] * 5).n_tokens == 5
        assert closed_statistics(key, np.array([[0, 6, 2]])).shape == (1,)


# Token lists numpy cannot turn into integers: a string, None, a ragged list
# and a float past int64 each ended in a bare error or a cast warning.
MALFORMED_TOKENS = {"string": ["a", "b"], "none": [None, 1], "ragged": [[1, 2], [3]],
                    "past-int64": [1e30, 2.0], "booleans": [True, False, True],
                    "boolean-among-integers": [1, True, 2],
                    "numpy-boolean": [1, np.True_, 2]}


class TestMalformedTokens:
    @pytest.mark.parametrize("case", MALFORMED_TOKENS)
    def test_refused_without_warning(self, case):
        tokens = MALFORMED_TOKENS[case]
        matrix = tokens if case == "ragged" else [tokens, tokens]
        calls = [(detect, CLOSED_KEY, tokens), (detect, OPEN_KEY, tokens),
                 (closed_statistics, CLOSED_KEY, matrix), (open_statistics, OPEN_KEY, matrix)]
        for score, key, arg in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(CorruptTextError):
                    score(key, arg)

    def test_boolean_arrays_refused(self):
        # numpy reads True as token 1; a boolean array is refused like a
        # boolean list, as the text-record reader refuses booleans.
        tokens = np.array([True, False, True])
        matrix = np.ones((2, 3), dtype=bool)
        calls = [(detect, CLOSED_KEY, tokens), (detect, OPEN_KEY, tokens),
                 (closed_statistics, CLOSED_KEY, matrix), (open_statistics, OPEN_KEY, matrix)]
        for score, key, arg in calls:
            with pytest.raises(CorruptTextError, match="boolean"):
                score(key, arg)
        np.testing.assert_array_equal(validate_tokens(np.array([1, 0, 1]), 8), [1, 0, 1])


class TestBatchScoring:
    def test_closed_rows_match_single_calls(self):
        rng = np.random.default_rng(3)
        texts = rng.integers(0, 8, size=(20, 150))
        zs = closed_statistics(CLOSED_KEY, texts)
        for i in range(20):
            assert zs[i] == pytest.approx(
                detect(CLOSED_KEY, texts[i]).statistic, abs=1e-15
            )

    def test_open_rows_match_single_calls(self):
        rng = np.random.default_rng(4)
        texts = rng.integers(0, 8, size=(20, 150))
        zs = open_statistics(OPEN_KEY, texts)
        for i in range(20):
            assert zs[i] == pytest.approx(detect(OPEN_KEY, texts[i]).statistic, abs=1e-15)

    def test_token_matrix_validated(self):
        # Negative tokens would wrap around to the last columns.
        bad = (
            np.array([[-1, -2, -3]]),
            np.array([[0, 1, 8]]),
            np.array([[0.5, 1.0, 2.0]]),
            np.array([0, 1, 2]),
            np.zeros((2, 0), dtype=np.int64),
        )
        for tokens in bad:
            with pytest.raises(CorruptTextError):
                closed_statistics(CLOSED_KEY, tokens)
            with pytest.raises(CorruptTextError):
                open_statistics(OPEN_KEY, tokens)

    def test_start_offset(self):
        rng = np.random.default_rng(5)
        texts = rng.integers(0, 8, size=(5, 80))
        zs = closed_statistics(CLOSED_KEY, texts, start=40)
        for i in range(5):
            assert zs[i] == pytest.approx(
                detect(CLOSED_KEY, texts[i], start=40).statistic, abs=1e-15
            )


def reference_statistics(key, tokens, start):
    """Each row's mean score, from the whole (m, n) matrix of float64
    scores gathered off the cached batch."""
    n = tokens.shape[1]
    steps = np.arange(n)[None, :]
    if key.scheme == CLOSED:
        batch = derive_closed_steps(key, n, start)
        return (batch.colorings[steps, tokens].astype(np.float64) * batch.flips).mean(axis=1)
    return derive_open_gaussians(key, n, start)[steps, tokens].mean(axis=1)


def statistics_peak(key, tokens):
    """tracemalloc peak of one batched statistic call, its derivation
    cached by a one-row call first."""
    scores = closed_statistics if key.scheme == CLOSED else open_statistics
    scores(key, tokens[:1])
    tracemalloc.start()
    try:
        scores(key, tokens)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBatchBlocks:
    """The batched statistics hold no (m, n) float64 array, and give every
    row the same float as the mean of its gathered float64 scores."""

    @pytest.mark.parametrize("d", [8, 512, 1024])
    @pytest.mark.parametrize("scheme", [CLOSED, OPEN])
    @pytest.mark.parametrize("start", [0, 37])
    def test_rows_equal_gathered_means(self, monkeypatch, d, scheme, start):
        key = (WatermarkKey(master_seed=SEED, d=d, scheme=CLOSED) if scheme == CLOSED else
               WatermarkKey(master_seed=SEED, d=d, scheme=OPEN, epsilon=0.5, k=2))
        n = 64
        tokens = np.random.default_rng(d + start).integers(0, d, size=(50, n))
        expected = reference_statistics(key, tokens, start)
        scores = closed_statistics if scheme == CLOSED else open_statistics
        # 50 rows in blocks of 3 or 7 leave a partial last block; a budget
        # below one row scores a row at a time.
        for budget in (detector._SCORE_BLOCK_BYTES, 8 * n * 3, 8 * n * 7 + 5, 1):
            monkeypatch.setattr(detector, "_SCORE_BLOCK_BYTES", budget)
            np.testing.assert_array_equal(scores(key, tokens, start), expected)

    def test_closed_memory_one_byte_per_score(self):
        """Past its input and the cached batch, closed_statistics holds the
        int8 scores and O(m) sums: about 1 B per (text, step). Gathering
        float64 scores and their product held 17 B."""
        m, n = 4000, 256
        key = WatermarkKey(master_seed=SEED, d=64, scheme=CLOSED)
        tokens = np.random.default_rng(1).integers(0, 64, size=(m, n))
        peak = statistics_peak(key, tokens)
        assert peak < 1.25 * m * n + 32 * m + (256 << 10), (
            f"peaked at {peak / (m * n):.2f} B per score")

    def test_open_memory_one_block(self):
        """Past its input and the cached batch, open_statistics holds one
        block of gathered scores and O(m) means. Gathering every row at once
        held 8 B per (text, step), here 8 MiB."""
        m, n = 4000, 256
        key = WatermarkKey(master_seed=SEED, d=64, scheme=OPEN, epsilon=0.5, k=2)
        tokens = np.random.default_rng(2).integers(0, 64, size=(m, n))
        peak = statistics_peak(key, tokens)
        assert peak < 2 * detector._SCORE_BLOCK_BYTES + 16 * m + (256 << 10), (
            f"peaked at {peak / 2**20:.2f} MiB")


class TestCacheTraffic:
    """The batched statistics read the one batch the derive caches keep:
    closed texts are scored against the batch their generation derived,
    and soundness scores block after block of texts against one batch.
    Open generation fills the sampler's cache, not the detector's."""

    CASES = [(CLOSED_KEY, derive_closed_steps, closed_statistics),
             (OPEN_KEY, derive_open_gaussians, open_statistics)]

    @pytest.mark.parametrize("key, derive, statistics", CASES[:1], ids=[CLOSED])
    def test_completeness_scores_the_generated_batch(self, key, derive, statistics):
        derive.cache_clear()
        tokens = generate_many(uniform_source(8), 40, key, 30, np.random.default_rng(3))
        misses = derive.cache_info().misses
        statistics(key, tokens)
        assert derive.cache_info().misses == misses

    @pytest.mark.parametrize("key, derive, statistics", CASES, ids=[CLOSED, OPEN])
    def test_soundness_blocks_share_one_batch(self, key, derive, statistics):
        derive.cache_clear()
        rng = np.random.default_rng(4)
        for _ in range(3):
            statistics(key, rng.integers(0, 8, size=(5, 40)))
        info = derive.cache_info()
        assert (info.hits, info.misses) == (2, 1)


class TestStepStart:
    @pytest.mark.parametrize("start", [True, False, 1.0, 2.5, "1"])
    def test_non_integer_start_rejected(self, start):
        tokens = [0, 3, 5, 1]
        matrix = np.array([tokens, tokens[::-1]])
        # Warm the derivation caches at the integer start a bool or float
        # would equal, so the check must run ahead of a cached answer.
        closed_statistics(CLOSED_KEY, matrix, start=int(start == 1))
        open_statistics(OPEN_KEY, matrix, start=int(start == 1))
        calls = [lambda: detect(CLOSED_KEY, tokens, start=start),
                 lambda: detect(OPEN_KEY, tokens, start=start),
                 lambda: keystream.closed_token_colors(CLOSED_KEY, tokens, start),
                 lambda: keystream.open_gaussian_entries(OPEN_KEY, tokens, start),
                 lambda: closed_statistics(CLOSED_KEY, matrix, start=start),
                 lambda: open_statistics(OPEN_KEY, matrix, start=start)]
        for call in calls:
            with pytest.raises(InvalidInputError, match="integers"):
                call()

    @pytest.mark.parametrize("count", [True, 4.0, "4"])
    def test_non_integer_count_rejected(self, count):
        derive_closed_steps(CLOSED_KEY, 1)
        for call in (lambda: derive_closed_steps(CLOSED_KEY, count),
                     lambda: keystream.derive_open_steps(OPEN_KEY, count),
                     lambda: keystream.derive_open_gaussians(OPEN_KEY, count)):
            with pytest.raises(InvalidInputError, match="integers"):
                call()

    def test_numpy_integer_start_accepted(self):
        tokens = [0, 3, 5, 1]
        assert (detect(CLOSED_KEY, tokens, start=np.int64(2))
                == detect(CLOSED_KEY, tokens, start=2))


class TestReport:
    def test_round_trip(self):
        report = detect(CLOSED_KEY, [0, 3, 5, 1, 7] * 10)
        again = DetectionReport.from_dict(report.to_dict())
        assert again == report

    def test_json_schema(self):
        # The text ``tokenmark detect`` prints and writes with --out.
        obj = json.loads(json_text(detect(OPEN_KEY, [1, 2, 3, 4]).to_dict()))
        assert set(obj) == {
            "scheme", "n_tokens", "delta", "statistic", "threshold", "p_value", "verdict",
        }
        assert obj["scheme"] == "open"
        assert isinstance(obj["verdict"], bool)
        assert obj["n_tokens"] == 4

    def test_malformed_rejected(self):
        with pytest.raises(InvalidInputError):
            DetectionReport.from_dict({"scheme": "closed"})

    @pytest.mark.parametrize("name, value", [
        ("verdict", "no"), ("verdict", 1), ("n_tokens", 2.9), ("n_tokens", True),
        ("statistic", "0.5"), ("threshold", None), ("delta", float("nan")),
        ("p_value", [0.5]), ("scheme", "alien"), ("scheme", None),
        ("n_tokens", -3), ("n_tokens", 0), ("delta", 7.0), ("delta", 0.0), ("delta", 1.0),
        ("p_value", 2.5), ("p_value", -0.1), ("verdict", True), ("statistic", 0.7),
        ("threshold", -1.0),
    ])
    def test_lax_fields_rejected(self, name, value):
        # "verdict": "no" once loaded as True, n_tokens 2.9 as 2 and
        # statistic "0.5" as 0.5. The report's verdict is False (statistic
        # -0.043 < threshold 0.612), so a True verdict, a statistic of 0.7
        # or a threshold of -1.0 contradicts it.
        report = detect(OPEN_KEY, [1, 2, 3, 4])
        assert DetectionReport.from_dict(report.to_dict()) == report
        with pytest.raises(InvalidInputError, match=name):
            DetectionReport.from_dict({**report.to_dict(), name: value})
