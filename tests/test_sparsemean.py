"""Sparse-mean testbed: instances, statistics, calibration, power sweeps."""

import concurrent.futures
import hashlib
import itertools
import math
import sys
import threading

import numpy as np
import pytest
from scipy import stats

from tokenmark import sparsemean
from tokenmark.errors import InvalidInputError, ScanBudgetError
from tokenmark.seeds import derive_seed
from tokenmark.sparsemean import (
    H0,
    HA,
    NULL_DRAWS,
    POWER_CSV_HEADER,
    SCAN_BUDGET,
    SCAN_MATRIX_BYTES,
    SCAN_TEST,
    THRESHOLD_TEST,
    SparseMeanInstance,
    null_quantile,
    power_point,
    rejection_rate,
    run_test,
    sample_instance,
    scan_budget_error,
    scan_statistic,
    threshold_statistic,
    wilson_interval,
)


class TestSampleInstance:
    def test_h0_moments(self):
        inst = sample_instance(4000, 8, 2, 0.5, H0, seed=0)
        assert inst.data.shape == (4000, 8)
        assert inst.truth == H0
        assert inst.planted_support is None
        se = 0.5 / math.sqrt(4000)
        assert np.all(np.abs(inst.data.mean(axis=0)) < 4 * se)
        np.testing.assert_allclose(inst.data.var(axis=0), 0.25, atol=0.03)

    def test_ha_first_moments_vanish(self):
        # The Rademacher sign wipes the planted mean out of first moments;
        # that is the whole point of the construction.
        inst = sample_instance(4000, 8, 2, 1.0, HA, seed=1)
        se = math.sqrt((1.0 + 0.5) / 4000)  # noise plus planted coordinate
        assert np.all(np.abs(inst.data.mean(axis=0)) < 4 * se)

    def test_ha_sign_corrected_mean_reveals_plant(self):
        inst = sample_instance(4000, 8, 2, 1.0, HA, seed=2)
        aligned = (inst.data * inst.planted_signs[:, None]).mean(axis=0)
        on = aligned[inst.planted_support]
        np.testing.assert_allclose(on, 1.0 / math.sqrt(2), atol=0.08)
        off = np.delete(aligned, inst.planted_support)
        assert np.all(np.abs(off) < 0.08)

    def test_force_positive_signs(self):
        inst = sample_instance(4000, 8, 3, 1.0, HA, seed=3, force_positive_signs=True)
        assert np.all(inst.planted_signs == 1)
        on = inst.data.mean(axis=0)[inst.planted_support]
        np.testing.assert_allclose(on, 1.0 / math.sqrt(3), atol=0.08)

    def test_ha_second_moments_lift_on_support(self):
        inst = sample_instance(6000, 6, 2, 1.0, HA, seed=4)
        second = (inst.data**2).mean(axis=0)
        np.testing.assert_allclose(second[inst.planted_support], 1.5, atol=0.1)
        off = np.delete(second, inst.planted_support)
        np.testing.assert_allclose(off, 1.0, atol=0.1)

    def test_h0_column_means_are_chi_square(self):
        # n * (column mean / epsilon)^2 is chi2(1) under H0.
        inst = sample_instance(50, 400, 4, 0.7, H0, seed=5)
        scaled = 50 * (inst.data.mean(axis=0) / 0.7) ** 2
        assert stats.kstest(scaled, "chi2", args=(1,)).pvalue > 1e-3

    def test_support_is_sorted_size_k(self):
        inst = sample_instance(10, 12, 5, 1.0, HA, seed=6)
        assert inst.planted_support.size == 5
        assert np.all(np.diff(inst.planted_support) > 0)

    def test_deterministic_and_param_sensitive(self):
        a = sample_instance(20, 6, 2, 1.0, HA, seed=7)
        b = sample_instance(20, 6, 2, 1.0, HA, seed=7)
        np.testing.assert_array_equal(a.data, b.data)
        c = sample_instance(20, 6, 2, 1.0, H0, seed=7)
        assert not np.array_equal(a.data, c.data)

    def test_ha_data_pinned(self):
        # SHA-256 of the Ha data over 6 shapes, 5 seeds, both sign modes and
        # two epsilons, as the dense planting gave it before the alternative
        # was built by the open scheme's perturbation builder.
        shapes = [(40, 24, 3), (160, 32, 4), (10, 1000, 17), (5, 4, 4), (7, 9, 1), (33, 64, 8)]
        digest = hashlib.sha256()
        for n, d, k in shapes:
            for seed in range(5):
                for force in (False, True):
                    for epsilon in (0.7, 2.5):
                        inst = sample_instance(n, d, k, epsilon, HA, seed,
                                               force_positive_signs=force)
                        digest.update(inst.data.tobytes())
        assert digest.hexdigest() == (
            "10e23af317b89348b49cc7398c58f583066ef10db759c7da0ede4219414873dd")

    def test_ha_rows_are_open_perturbations(self):
        # Each Ha row is the open scheme's dense perturbation of the row's
        # N(0, epsilon^2) draw, with the planted support and the row's sign.
        n, d, k, epsilon = 12, 20, 3, 0.6
        inst = sample_instance(n, d, k, epsilon, HA, seed=8)
        rng = np.random.default_rng(derive_seed(8, "instance", HA, n, d, k))
        gaussians = epsilon * rng.standard_normal((n, d))
        mu = np.zeros(d)
        mu[inst.planted_support] = 1 / np.sqrt(k)
        for j in range(n):
            np.testing.assert_array_equal(
                inst.data[j], gaussians[j] + (int(inst.planted_signs[j]) * epsilon) * mu)

    def test_integer_epsilon(self):
        # The int8 signs times a large integer epsilon must not overflow.
        a = sample_instance(6, 5, 2, 200, HA, seed=9)
        b = sample_instance(6, 5, 2, 200.0, HA, seed=9)
        np.testing.assert_array_equal(a.data, b.data)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            sample_instance(0, 6, 2, 1.0, H0, seed=0)
        with pytest.raises(InvalidInputError):
            sample_instance(5, 6, 7, 1.0, H0, seed=0)
        with pytest.raises(InvalidInputError):
            sample_instance(5, 6, 2, 0.0, H0, seed=0)
        with pytest.raises(InvalidInputError):
            sample_instance(5, 6, 2, 1.0, "maybe", seed=0)

    @pytest.mark.parametrize("epsilon", [1e200, sparsemean.EPSILON_LIMIT, 1e308])
    def test_epsilon_whose_squares_overflow_refused(self, epsilon):
        # At epsilon = 1e200 the threshold statistic squared to infinity, so
        # every test statistic and null quantile was inf and the power 0.0.
        for call in (lambda: sample_instance(16, 24, 3, epsilon, HA, seed=0),
                     lambda: null_quantile(THRESHOLD_TEST, 16, 24, 3, epsilon, 0.05),
                     lambda: power_point(THRESHOLD_TEST, 16, 24, 3, epsilon, 0.05, 2, 0)):
            with pytest.raises(InvalidInputError, match="epsilon"):
                call()

    def test_largest_epsilon_gives_finite_statistics(self):
        # Overflow warnings are errors under this suite's settings.
        epsilon = float(np.nextafter(sparsemean.EPSILON_LIMIT, 0))
        data = sample_instance(64, 24, 24, epsilon, HA, seed=3).data
        assert math.isfinite(threshold_statistic(data, 24))
        assert math.isfinite(scan_statistic(data, 3))

    def test_instance_consistency_enforced(self):
        with pytest.raises(InvalidInputError):
            SparseMeanInstance(
                data=np.zeros((3, 4)), epsilon=1.0, k=2, truth=HA,
                planted_support=None, planted_signs=None,
            )


class TestStatistics:
    def test_threshold_hand_example(self):
        data = np.array([[1.0, 2.0], [3.0, 4.0]])
        # Second moments: (1+9)/2 = 5 and (4+16)/2 = 10.
        assert threshold_statistic(data, 1) == 10.0
        assert threshold_statistic(data, 2) == 15.0

    def test_scan_hand_example(self):
        data = np.array([[1.0, -2.0], [3.0, 4.0]])
        # k=1 directions are coordinate vectors: mean |col0| = 2, |col1| = 3.
        assert scan_statistic(data, 1) == 3.0

    def test_scan_full_support(self):
        data = np.array([[1.0, 1.0], [-1.0, 3.0]])
        # Only subset is {0, 1}: mean of |row sums| / sqrt(2).
        expected = (abs(2.0) + abs(2.0)) / 2 / math.sqrt(2)
        assert scan_statistic(data, 2) == pytest.approx(expected, abs=1e-15)

    def test_scan_matches_brute_force(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(15, 6))
        for k in (1, 2, 3, 6):
            best = max(
                np.abs(data[:, list(combo)].sum(axis=1) / math.sqrt(k)).mean()
                for combo in itertools.combinations(range(6), k)
            )
            assert scan_statistic(data, k) == pytest.approx(best, abs=1e-12)

    @pytest.mark.parametrize("d, k", [(24, 3), (32, 4)])
    def test_scan_is_mean_abs_alignment_bit_for_bit(self, d, k):
        # C(32, 4) = 35960 supports span five _SCAN_CHUNK chunks, the last
        # one partial.
        dirs = np.zeros((d, math.comb(d, k)))
        for col, combo in enumerate(itertools.combinations(range(d), k)):
            dirs[list(combo), col] = 1.0 / math.sqrt(k)
        assert math.comb(32, 4) // sparsemean._SCAN_CHUNK == 4
        rng = np.random.default_rng(d)
        datasets = [rng.standard_normal((n, d)) for n in (1, 16, 160)]
        expected = [float(np.abs(x @ dirs).mean(axis=0).max()) for x in datasets]
        assert [scan_statistic(x, k) for x in datasets] == expected
        # A caller may scan on threads of its own.
        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(lambda x: scan_statistic(x, k), datasets * 2)) == expected * 2

    def test_empty_data_refused(self):
        for statistic in (scan_statistic, threshold_statistic):
            with pytest.raises(InvalidInputError, match="n >= 1"):
                statistic(np.zeros((0, 4)), 2)

    def test_scan_budget_refused_before_any_work(self):
        # C(40, 8) is about 77 million; the refusal must come from the
        # budget check, fast, not from an attempted enumeration.
        with pytest.raises(ScanBudgetError):
            scan_statistic(np.zeros((5, 40)), 8)
        assert math.comb(40, 8) > SCAN_BUDGET

    def test_scan_matrix_bytes_refused_before_any_work(self):
        # C(1414, 2) = 998991 supports fit the enumeration budget, but their
        # (d, C) float64 direction matrix would take 11.3 GB.
        assert math.comb(1414, 2) <= SCAN_BUDGET
        assert 8 * 1414 * math.comb(1414, 2) > SCAN_MATRIX_BYTES
        with pytest.raises(ScanBudgetError, match="GiB direction matrix"):
            scan_statistic(np.zeros((2, 1414)), 2)
        # The scans the experiments run still fit: d = 32, k = 4 (9.2 MB)
        # and d = 24, k = 3.
        assert scan_budget_error(32, 4) is None and scan_budget_error(24, 3) is None

    def test_scan_budget_boundary(self):
        # C(20, 10) = 184756 fits comfortably inside the budget.
        assert math.comb(20, 10) < SCAN_BUDGET
        value = scan_statistic(np.random.default_rng(9).normal(size=(4, 20)), 10)
        assert np.isfinite(value)

    def test_direction_cache_holds_one_matrix(self):
        # Each direction matrix may take SCAN_MATRIX_BYTES (256 MiB); the
        # cache kept four.
        data = np.random.default_rng(0).standard_normal((3, 7))
        scan_statistic(data, 2)
        scan_statistic(data[:, :6], 3)
        info = sparsemean._subset_directions.cache_info()
        assert (info.maxsize, info.currsize) == (1, 1)

    @pytest.mark.parametrize("d, k", [(8, 2), (24, 3), (32, 4)])
    def test_direction_matrix_equals_column_loop(self, d, k):
        sparsemean._subset_directions.cache_clear()
        expected = np.zeros((d, math.comb(d, k)))
        for col, combo in enumerate(itertools.combinations(range(d), k)):
            expected[list(combo), col] = 1.0 / math.sqrt(k)
        directions = sparsemean._subset_directions(d, k)
        assert directions.tobytes() == expected.tobytes()
        assert not directions.flags.writeable

    @pytest.mark.parametrize("workers", [2, 4])
    def test_concurrent_scans_build_the_matrix_once(self, workers):
        # lru_cache does not hold a second caller while the first computes,
        # so threads that all missed each built a matrix (misses == workers).
        sparsemean._subset_directions.cache_clear()
        data = np.random.default_rng(4).standard_normal((5, 32))
        barrier = threading.Barrier(workers, timeout=60)

        def scan(_):
            barrier.wait()
            return scan_statistic(data, 4)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(scan, range(workers), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert results == [scan_statistic(data, 4)] * workers
        assert sparsemean._subset_directions.cache_info().misses == 1

    def test_input_validation(self):
        with pytest.raises(InvalidInputError):
            threshold_statistic(np.zeros(5), 1)
        with pytest.raises(InvalidInputError):
            scan_statistic(np.zeros((3, 4)), 5)
        # k = d + 1 summed all d second moments; k <= 0 was a bare numpy
        # "kth out of bounds" ValueError.
        data = np.random.default_rng(0).standard_normal((3, 4))
        for k in (5, 0, -1):
            with pytest.raises(InvalidInputError):
                threshold_statistic(data, k)
            with pytest.raises(InvalidInputError):
                scan_statistic(data, k)
        # k = True ran as k = 1; k = 2.5 passed the range check and ended in
        # numpy's or itertools' bare TypeError.
        for k in (True, 2.5, 2.0, "2", None):
            with pytest.raises(InvalidInputError):
                threshold_statistic(data, k)
            with pytest.raises(InvalidInputError):
                scan_statistic(data, k)
        assert threshold_statistic(data, np.int64(2)) == threshold_statistic(data, 2)
        assert scan_statistic(data, np.int64(2)) == scan_statistic(data, 2)
        assert threshold_statistic(data, 4) == pytest.approx((data**2).mean(axis=0).sum())


class TestCalibration:
    def test_quantile_deterministic_and_cached(self):
        a = null_quantile(THRESHOLD_TEST, 30, 8, 2, 1.0, 0.05)
        b = null_quantile(THRESHOLD_TEST, 30, 8, 2, 1.0, 0.05)
        assert a == b

    def test_quantile_monotone_in_alpha(self):
        qs = [null_quantile(THRESHOLD_TEST, 30, 8, 2, 1.0, a) for a in (0.01, 0.05, 0.2)]
        assert qs == sorted(qs, reverse=True)

    def test_unknown_test_and_bad_args(self):
        with pytest.raises(InvalidInputError):
            null_quantile("oracle", 30, 8, 2, 1.0, 0.05)
        with pytest.raises(InvalidInputError):
            null_quantile(THRESHOLD_TEST, 30, 8, 2, 1.0, 0.0)
        with pytest.raises(InvalidInputError):
            null_quantile(THRESHOLD_TEST, 30, 8, 2, 1.0, 0.05, draws=50)

    # A float or boolean draw count and a string alpha ended in a bare
    # TypeError or were taken as numbers.
    @pytest.mark.parametrize("options", [
        {"draws": 100.0}, {"draws": True}, {"draws": "100"}, {"alpha": "0.05"},
        {"alpha": True}, {"alpha": float("nan")},
    ])
    def test_count_and_alpha_types(self, options):
        options = {"alpha": 0.05, **options}
        with pytest.raises(InvalidInputError):
            null_quantile(THRESHOLD_TEST, 30, 8, 2, 1.0, **options)

    def test_numpy_count_and_alpha_accepted(self):
        assert (null_quantile(THRESHOLD_TEST, 4, 4, 2, 1.0, np.float64(0.05), draws=np.int64(100))
                == null_quantile(THRESHOLD_TEST, 4, 4, 2, 1.0, 0.05, draws=100))

    def test_threshold_level(self):
        # Empirical false-positive rate within 3 binomial sigmas of alpha.
        hits, trials = rejection_rate(THRESHOLD_TEST, H0, 40, 16, 3, 1.0, 0.05, 400, seed=10)
        rate = hits / trials
        band = 3 * math.sqrt(0.05 * 0.95 / trials)
        assert abs(rate - 0.05) < band + 1 / trials

    def test_scan_level(self):
        hits, trials = rejection_rate(SCAN_TEST, H0, 30, 10, 2, 1.0, 0.05, 400, seed=11)
        rate = hits / trials
        band = 3 * math.sqrt(0.05 * 0.95 / trials)
        assert abs(rate - 0.05) < band + 1 / trials


class TestPower:
    def test_both_tests_crush_strong_signal(self):
        for test in (THRESHOLD_TEST, SCAN_TEST):
            hits, trials = rejection_rate(test, HA, 200, 8, 2, 1.0, 0.05, 60, seed=12)
            assert hits / trials >= 0.95

    def test_tiny_samples_are_powerless(self):
        hits, trials = rejection_rate(THRESHOLD_TEST, HA, 2, 32, 4, 1.0, 0.05, 200, seed=13)
        assert hits / trials < 0.2

    def test_power_grows_with_n(self):
        small = rejection_rate(SCAN_TEST, HA, 8, 8, 2, 1.0, 0.05, 150, seed=14)
        large = rejection_rate(SCAN_TEST, HA, 80, 8, 2, 1.0, 0.05, 150, seed=14)
        assert large[0] / large[1] > small[0] / small[1] + 0.1

    def test_full_support_tests_agree_when_saturated(self):
        # At k=d the scan has exactly one subset and both statistics read
        # the same signal; with this much signal each test rejects every
        # planted instance, so they agree trial-by-trial.
        for t in range(200):
            inst = sample_instance(300, 2, 2, 1.0, HA, seed=derive_seed(15, t))
            a = run_test(THRESHOLD_TEST, inst.data, 2, 1.0, 0.05)
            b = run_test(SCAN_TEST, inst.data, 2, 1.0, 0.05)
            assert a is True and b is True

    # (n, d, k, epsilon): a NaN or infinite epsilon gave NaN data and a
    # power of 0.0, a fractional or boolean size a bare TypeError or a
    # silent size of 1.
    @pytest.mark.parametrize("params", [
        (2.5, 6, 2, 1.0), (True, 6, 2, 1.0), (5, 6.0, 2, 1.0), (5, 6, 2.0, 1.0),
        (5, 6, 2, float("nan")), (5, 6, 2, float("inf")), (5, 6, 2, True), (5, 6, 2, "1.0"),
    ])
    def test_bad_numbers_refused(self, params):
        n, d, k, epsilon = params
        with pytest.raises(InvalidInputError):
            sample_instance(n, d, k, epsilon, HA, seed=0)
        with pytest.raises(InvalidInputError):
            null_quantile(THRESHOLD_TEST, n, d, k, epsilon, 0.05)
        with pytest.raises(InvalidInputError):
            power_point(THRESHOLD_TEST, n, d, k, epsilon, 0.05, 3, seed=0)

    # trials=True counted one trial and returned (0, True); a float count
    # ended in a bare TypeError.
    @pytest.mark.parametrize("trials", [True, 2.0, "2", None, 0])
    def test_trial_count_must_be_an_integer(self, trials):
        calls = [lambda: rejection_rate(THRESHOLD_TEST, H0, 4, 4, 2, 1.0, 0.05, trials, 0),
                 lambda: power_point(THRESHOLD_TEST, 4, 4, 2, 1.0, 0.05, trials, 0)]
        for call in calls:
            with pytest.raises(InvalidInputError, match="trials"):
                call()

    def test_run_test_dispatch(self):
        inst = sample_instance(50, 6, 2, 1.0, H0, seed=16)
        assert run_test(THRESHOLD_TEST, inst.data, 2, 1.0, 0.05) in (True, False)
        with pytest.raises(InvalidInputError):
            run_test("magic", inst.data, 2, 1.0, 0.05)


class TestSeeds:
    """Every entry point refuses a seed that ``derive_seed`` would hash as
    text or take for an integer: ``seed=True`` drew the data of ``seed=1``,
    and ``seed=2.5`` or ``"a"`` ran."""

    @pytest.mark.parametrize("seed", [True, False, 2.5, 1.0, "a", "1", None, (15, 1)])
    def test_non_integer_seeds_refused(self, seed):
        # Warm null_quantile's cache at the integers a boolean equals, so the
        # check must run ahead of a cached answer.
        for warm in (0, 1):
            null_quantile(THRESHOLD_TEST, 4, 4, 2, 1.0, 0.05, seed=warm)
        calls = [lambda: sample_instance(4, 4, 2, 1.0, H0, seed),
                 lambda: rejection_rate(THRESHOLD_TEST, H0, 4, 4, 2, 1.0, 0.05, 2, seed),
                 lambda: power_point(THRESHOLD_TEST, 4, 4, 2, 1.0, 0.05, 2, seed),
                 lambda: null_quantile(THRESHOLD_TEST, 4, 4, 2, 1.0, 0.05, seed=seed)]
        for call in calls:
            with pytest.raises(InvalidInputError, match="seed must be an integer"):
                call()

    def test_numpy_integer_seeds_accepted(self):
        for seed in (np.int64(3), np.uint8(3)):
            np.testing.assert_array_equal(sample_instance(5, 4, 2, 1.0, HA, seed).data,
                                          sample_instance(5, 4, 2, 1.0, HA, 3).data)
            assert (null_quantile(THRESHOLD_TEST, 4, 4, 2, 1.0, 0.05, seed=seed)
                    == null_quantile(THRESHOLD_TEST, 4, 4, 2, 1.0, 0.05, seed=3))
            assert (power_point(THRESHOLD_TEST, 4, 4, 2, 1.0, 0.05, 5, seed)
                    == power_point(THRESHOLD_TEST, 4, 4, 2, 1.0, 0.05, 5, 3))


class TestWilson:
    def test_degenerate_endpoints(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and hi < 0.1
        lo, hi = wilson_interval(50, 50)
        assert lo > 0.9 and hi == 1.0

    def test_symmetric_half_case(self):
        lo, hi = wilson_interval(5, 10)
        assert lo == pytest.approx(0.2366, abs=2e-4)
        assert hi == pytest.approx(0.7634, abs=2e-4)
        assert lo + hi == pytest.approx(1.0, abs=1e-12)

    def test_contains_point_estimate(self):
        for hits, trials in ((3, 20), (17, 20), (250, 1000)):
            lo, hi = wilson_interval(hits, trials)
            assert lo < hits / trials < hi

    def test_narrows_with_trials(self):
        w100 = np.diff(wilson_interval(50, 100))[0]
        w1000 = np.diff(wilson_interval(500, 1000))[0]
        assert w1000 < w100 / 2

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            wilson_interval(0, 0)


    # Counts out of range raised "math domain error"; a fractional or
    # boolean count gave an interval.
    @pytest.mark.parametrize("counts", [(5, 2), (-1, 2), (1, 2.5), (True, 2), (1, True),
                                        (1.0, 2), ("1", 2), (0, 0)])
    def test_counts_must_be_integers_in_range(self, counts):
        with pytest.raises(InvalidInputError):
            wilson_interval(*counts)

    def test_numpy_counts_accepted(self):
        assert wilson_interval(np.int64(3), np.uint16(20)) == wilson_interval(3, 20)


class TestPowerCurve:
    """A power curve is ``power_point`` at each grid size; sorting and
    deduplicating a grid is the experiment runner's job (test_experiments)."""

    def test_row_schema(self):
        point = power_point(THRESHOLD_TEST, 10, d=6, k=2, epsilon=1.0,
                            alpha=0.05, trials=20, seed=18)
        row = point.to_row()
        assert POWER_CSV_HEADER == ["test", "n", "d", "k", "epsilon", "alpha",
                                    "power", "ci_lo", "ci_hi"]
        assert row == [THRESHOLD_TEST, 10, 6, 2, 1.0, 0.05, point.power,
                       point.ci_lo, point.ci_hi]
        assert 0.0 <= point.ci_lo <= point.power <= point.ci_hi <= 1.0

    def test_default_draw_count(self):
        assert NULL_DRAWS == 2000
