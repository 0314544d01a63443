"""Verification oracles: enumeration, Monte-Carlo bounds, and the suite."""

import hashlib
import itertools
import json
import math

import numpy as np
import pytest

import tokenmark.closed_scheme
from tokenmark import cli
from tokenmark.core import json_text
from tokenmark.errors import CheckFailedError, InvalidInputError
from tokenmark.keystream import CLOSED, WatermarkKey
from tokenmark.oracles import (
    BIAS_CONSTANT,
    PSI1_CENTERED_SCALE,
    PSI1_SCALE,
    bias_bound_mc,
    lemma_maxima_exact,
    lemma_maxima_mc,
    psi1_bound_mc,
    suite_report,
    tv_gaussians,
    undetectability_exact,
    verify_suite,
)
from tokenmark.textgen import generate, iid_source, markov_source


class TestLemmaExact:
    def test_worked_example(self):
        lower, expectation, upper = lemma_maxima_exact([0.4, 0.3, 0.2, 0.1])
        assert expectation == pytest.approx(2.2 / 6.0, abs=1e-15)
        assert lower == pytest.approx(0.03, abs=1e-15)
        assert upper == pytest.approx(0.6, abs=1e-15)

    def test_point_mass(self):
        lower, expectation, upper = lemma_maxima_exact([1.0, 0.0, 0.0, 0.0])
        assert (lower, expectation, upper) == (0.0, 0.0, 0.0)

    def test_uniform_d4(self):
        _, expectation, _ = lemma_maxima_exact([0.25] * 4)
        assert expectation == pytest.approx(0.5, abs=1e-15)

    def test_two_tokens_forced_pairing(self):
        # With d=2 the only balanced split pairs the two tokens, so the
        # expectation is exactly the smaller probability.
        _, expectation, upper = lemma_maxima_exact([0.8, 0.2])
        assert expectation == 0.2
        assert upper == pytest.approx(0.2, abs=1e-16)

    def test_against_independent_enumeration(self):
        # Re-derive the expectation with plain itertools, pairing each
        # subset against its complement rank-by-rank.
        rng = np.random.default_rng(0)
        for d in (4, 6, 8):
            p = np.sort(rng.dirichlet(np.ones(d)))[::-1]
            total = 0.0
            count = 0
            for combo in itertools.combinations(range(d), d // 2):
                inside = sorted(combo)
                outside = sorted(set(range(d)) - set(combo))
                total += sum(min(p[a], p[b]) for a, b in zip(inside, outside))
                count += 1
            _, expectation, _ = lemma_maxima_exact(p)
            assert expectation == pytest.approx(total / count, abs=1e-14)

    def test_bounds_hold_on_random_sweep(self):
        rng = np.random.default_rng(1)
        for d in (4, 6, 8, 10):
            for _ in range(100):
                p = np.sort(rng.dirichlet(np.full(d, 0.4)))[::-1]
                lower, expectation, upper = lemma_maxima_exact(p)
                assert lower - 1e-12 <= expectation <= upper + 1e-12

    def test_rejects_unsorted(self):
        with pytest.raises(InvalidInputError):
            lemma_maxima_exact([0.1, 0.4, 0.3, 0.2])

    def test_rejects_odd_and_oversize(self):
        with pytest.raises(InvalidInputError):
            lemma_maxima_exact(np.full(6, 1 / 6)[:5] * 6 / 5)
        with pytest.raises(InvalidInputError):
            lemma_maxima_exact(np.full(14, 1 / 14))


class TestLemmaMonteCarlo:
    def test_agrees_with_enumeration(self):
        p = np.sort(np.random.default_rng(2).dirichlet(np.ones(6)))[::-1]
        _, exact, _ = lemma_maxima_exact(p)
        estimate, se = lemma_maxima_mc(p, 100_000, seed=7)
        assert se > 0
        assert abs(estimate - exact) <= 3 * se

    def test_standard_error_scaling(self):
        p = np.sort(np.random.default_rng(3).dirichlet(np.ones(12)))[::-1]
        _, se_small = lemma_maxima_mc(p, 40_000, seed=1)
        _, se_large = lemma_maxima_mc(p, 160_000, seed=1)
        assert 1.5 < se_small / se_large < 2.5

    def test_large_dimension_within_bounds(self):
        p = np.sort(np.random.default_rng(4).dirichlet(np.ones(64)))[::-1]
        estimate, se = lemma_maxima_mc(p, 50_000, seed=2)
        tail = float(p[1:].sum())
        assert tail / 20 - 3 * se <= estimate <= tail + 3 * se

    def test_deterministic_per_seed(self):
        p = np.sort(np.random.default_rng(5).dirichlet(np.ones(8)))[::-1]
        assert lemma_maxima_mc(p, 20_000, seed=3) == lemma_maxima_mc(p, 20_000, seed=3)
        assert lemma_maxima_mc(p, 20_000, seed=3) != lemma_maxima_mc(p, 20_000, seed=4)

    def test_sample_floor(self):
        with pytest.raises(InvalidInputError):
            lemma_maxima_mc([0.5, 0.5], 9_999)

    @pytest.mark.parametrize("samples", [1e5, 100_000.0, True, "100000", None])
    def test_samples_must_be_an_integer(self, samples):
        # lemma_maxima_mc(p, 1e5) once ended in numpy's bare TypeError.
        with pytest.raises(InvalidInputError):
            lemma_maxima_mc([0.5, 0.5], samples)


class TestUndetectabilityExact:
    def test_sweep_is_float_exact(self):
        rng = np.random.default_rng(6)
        for d in (2, 4, 6, 8):
            for _ in range(30):
                assert undetectability_exact(rng.dirichlet(np.ones(d))) <= 1e-12

    def test_two_tokens_exactly_zero(self):
        assert undetectability_exact([0.5, 0.5]) == 0.0
        assert undetectability_exact([0.9, 0.1]) == 0.0

    def test_rejects_odd_and_oversize(self):
        with pytest.raises(InvalidInputError):
            undetectability_exact(np.full(10, 0.1))
        with pytest.raises(InvalidInputError):
            undetectability_exact(np.full(3, 1 / 3) * (3 / 3))

    def test_catches_clip_and_renormalize_mutant(self, monkeypatch):
        """The one class of bug this oracle exists for: a sampler that
        overshoots the pair minimum, clips negatives, and renormalizes looks
        valid step-by-step but is biased on average. The oracle must see it.

        (Mutants that keep the +-shift symmetry, like ignoring the flip or
        doubling it without clipping, are genuinely undetectable from one
        sample; the averaging cancels them by construction.)
        """
        real = tokenmark.closed_scheme.watermark_distribution

        def overshooting(p, coloring, flip):
            q = np.asarray(p) + 2.0 * (real(p, coloring, flip) - p)
            q = np.clip(q, 0.0, None)
            return q / q.sum()

        monkeypatch.setattr(tokenmark.closed_scheme, "watermark_distribution", overshooting)
        assert undetectability_exact([0.7, 0.3]) > 0.1
        monkeypatch.setattr(tokenmark.closed_scheme, "watermark_distribution", real)
        assert undetectability_exact([0.7, 0.3]) == 0.0

    def test_kernel_mutant_reaches_oracle_and_generation(self, monkeypatch):
        """The oracle certifies the code that samples: the same mutant
        patched into the one pairing kernel shows in the oracle and changes
        the closed tokens ``generate`` draws, memoryless and Markov."""
        real = tokenmark.closed_scheme._rank_shift

        def overshooting(probs, order, signs):
            q = np.clip(probs + 2.0 * real(probs, order, signs), 0.0, None)
            return q / q.sum(axis=-1, keepdims=True) - probs

        key = WatermarkKey(master_seed=bytes(32), d=8, scheme=CLOSED)
        base = np.array([0.3, 0.2, 0.15, 0.12, 0.1, 0.06, 0.04, 0.03])
        models = [iid_source(base),
                  markov_source(np.vstack([np.roll(base, i) for i in range(8)]), base)]

        def streams():
            return [generate(m, 300, key, np.random.default_rng(21)).tokens for m in models]

        honest = streams()
        monkeypatch.setattr(tokenmark.closed_scheme, "_rank_shift", overshooting)
        assert undetectability_exact([0.7, 0.3]) > 0.1
        for before, after in zip(honest, streams()):
            assert not np.array_equal(before, after)

    def test_mutant_makes_quick_suite_fail(self, monkeypatch):
        real = tokenmark.closed_scheme.watermark_distribution

        def overshooting(p, coloring, flip):
            q = np.asarray(p) + 2.0 * (real(p, coloring, flip) - p)
            q = np.clip(q, 0.0, None)
            return q / q.sum()

        monkeypatch.setattr(tokenmark.closed_scheme, "watermark_distribution", overshooting)
        report = suite_report(verify_suite("quick"), "quick")
        assert report["all_pass"] is False
        failed = {c["name"] for c in report["checks"] if not c["pass"]}
        assert "undetectability-sweep" in failed


class TestBiasBound:
    def test_uniform_d16_reference(self):
        est, bound, se = bias_bound_mc(np.zeros(16), 0.5, 200_000, seed=0)
        assert bound == pytest.approx(0.25 / 1200 * (15 / 16), abs=1e-18)
        assert est >= bound - 3 * se
        assert est > 0

    def test_bound_formula(self):
        logits = np.log([0.7, 0.2, 0.1])
        _, bound, _ = bias_bound_mc(logits, 0.2, 100_000, seed=1)
        assert bound == pytest.approx(BIAS_CONSTANT * 0.04 * 0.3, rel=1e-12)

    def test_deterministic_source_limit(self):
        # p* -> 1 sends the bound to zero; the estimate must not fall below
        # the (vanishing) bound.
        logits = np.zeros(8)
        logits[0] = 50.0
        est, bound, se = bias_bound_mc(logits, 0.5, 100_000, seed=2)
        assert bound < 1e-20
        assert est >= bound - 3 * se

    def test_k_variants(self):
        for k in (1, 3, 8):
            est, bound, se = bias_bound_mc(np.zeros(8), 0.5, 100_000, k=k, seed=3)
            assert est >= bound - 3 * se

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            bias_bound_mc(np.zeros(8), 0.5, 50_000)
        with pytest.raises(InvalidInputError):
            bias_bound_mc(np.zeros(8), -0.5, 100_000)
        with pytest.raises(InvalidInputError):
            bias_bound_mc(np.zeros(8), 0.5, 100_000, k=9)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, True, "0.5", None])
    def test_epsilon_must_be_a_finite_number(self, epsilon):
        # A NaN epsilon once returned (nan, nan, nan): the bound comparison
        # cannot fail on NaN, so no check raised.
        with pytest.raises(InvalidInputError):
            bias_bound_mc(np.zeros(4), epsilon, 100_000)

    @pytest.mark.parametrize("samples", [1e5, True])
    def test_samples_must_be_an_integer(self, samples):
        with pytest.raises(InvalidInputError):
            bias_bound_mc(np.zeros(4), 0.5, samples)


class TestPsi1Bound:
    def test_uniform_well_below_cap(self):
        est, se = psi1_bound_mc(np.zeros(16), 0.5, 100_000, seed=0)
        assert est <= 2.0 + 3 * se
        assert est < 1.5

    def test_vanishing_epsilon_hits_pure_gaussian_limit(self):
        # |G(x)|/tau is scale-free; the small-epsilon limit is the standard
        # normal exp-moment at the psi_1 scale, about 1.097, not 1.
        est, _ = psi1_bound_mc(np.zeros(16), 0.01, 100_000, seed=1)
        a = PSI1_SCALE
        limit = math.exp(1 / (2 * a * a)) * math.erfc(-1 / (a * math.sqrt(2)))
        assert est == pytest.approx(limit, abs=0.005)

    def test_centered_variant(self):
        est, se = psi1_bound_mc(np.zeros(16), 0.5, 100_000, centered=True, seed=2)
        assert est <= 2.0 + 3 * se

    def test_centered_uses_larger_scale(self):
        assert PSI1_CENTERED_SCALE == 3 * PSI1_SCALE

    def test_deterministic_per_seed(self):
        a = psi1_bound_mc(np.zeros(8), 0.25, 100_000, seed=5)
        b = psi1_bound_mc(np.zeros(8), 0.25, 100_000, seed=5)
        assert a == b

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            psi1_bound_mc(np.zeros(8), 0.5, 99_999)

    @pytest.mark.parametrize("centered", [False, True])
    @pytest.mark.parametrize("epsilon", [math.inf, math.nan, "0.5"])
    def test_epsilon_must_be_a_finite_number(self, epsilon, centered):
        # An infinite epsilon once returned (nan, nan).
        with pytest.raises(InvalidInputError):
            psi1_bound_mc(np.zeros(4), epsilon, 100_000, centered=centered)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, "2"])
    def test_k_must_be_an_integer(self, k):
        # k = 2.5 once ended in numpy's bare TypeError.
        with pytest.raises(InvalidInputError):
            psi1_bound_mc(np.zeros(4), 0.5, 100_000, k=k)


class TestTvGaussians:
    def test_zero_separation(self):
        assert tv_gaussians(0.0, 1.0) == 0.0

    def test_reference_value(self):
        assert tv_gaussians(0.5, 1.0) == pytest.approx(0.19741265136584743, abs=1e-16)

    def test_erf_identity(self):
        # 2*Phi(s/(2*sigma)) - 1 written via erf.
        for sep, sigma in ((0.3, 1.0), (1.0, 0.5), (2.5, 2.0)):
            assert tv_gaussians(sep, sigma) == pytest.approx(
                math.erf(sep / (2 * sigma * math.sqrt(2))), abs=1e-16
            )

    def test_scale_invariance(self):
        assert tv_gaussians(0.5, 1.0) == tv_gaussians(1.0, 2.0)

    def test_monotone_in_separation(self):
        values = [tv_gaussians(s, 1.0) for s in (0.0, 0.5, 1.0, 2.0, 5.0)]
        assert values == sorted(values)
        assert values[-1] < 1.0

    def test_saturates(self):
        assert tv_gaussians(1e6, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            tv_gaussians(0.5, 0.0)
        with pytest.raises(InvalidInputError):
            tv_gaussians(-0.1, 1.0)

    @pytest.mark.parametrize("mean_sep, sigma", [(math.nan, 1.0), (math.inf, 1.0),
                                                 (0.5, math.nan), (0.5, math.inf),
                                                 (True, 1.0), (0.5, "1")])
    def test_arguments_must_be_finite_numbers(self, mean_sep, sigma):
        # tv_gaussians(nan, 1.0) once returned nan.
        with pytest.raises(InvalidInputError):
            tv_gaussians(mean_sep, sigma)


class TestVerifySuite:
    def test_quick_all_pass(self):
        checks = verify_suite("quick")
        assert len(checks) == 10
        assert all(c.passed for c in checks)
        assert len({c.name for c in checks}) == 10

    def test_full_all_pass(self):
        checks = verify_suite("full", seed=0)
        assert len(checks) == 19
        assert all(c.passed for c in checks)

    def test_deterministic(self):
        assert verify_suite("quick", seed=1) == verify_suite("quick", seed=1)

    def test_surfaced_disagreement_is_informational(self):
        # The mimicry-radius row reports the exact TV next to the claimed
        # constant without asserting; both numbers must be present and the
        # row must not fail the suite.
        row = next(c for c in verify_suite("quick") if c.name == "tv-unremovability-surfaced")
        assert row.passed is True
        assert row.value == pytest.approx(0.1974, abs=1e-4)
        assert row.bound == pytest.approx(0.4013, abs=1e-4)

    def test_report_schema(self):
        report = suite_report(verify_suite("quick"), "quick")
        assert report["level"] == "quick"
        assert report["all_pass"] is True
        for row in report["checks"]:
            assert set(row) == {"name", "value", "bound", "se", "pass"}

    def test_invalid_level(self):
        with pytest.raises(InvalidInputError):
            verify_suite("paranoid")

    @pytest.mark.parametrize("seed", [2.5, 1.0, "a", True, None, 2**127, -2**127 - 1])
    def test_seed_must_be_an_integer(self, seed):
        # 2.5 and "a" once ran, hashed as text, and True drew seed 1's stream.
        calls = [lambda: verify_suite("quick", seed=seed),
                 lambda: lemma_maxima_mc([0.5, 0.5], 10_000, seed=seed),
                 lambda: bias_bound_mc(np.zeros(4), 0.5, 100_000, seed=seed),
                 lambda: psi1_bound_mc(np.zeros(4), 0.5, 100_000, seed=seed),
                 lambda: psi1_bound_mc(np.zeros(4), 0.5, 100_000, centered=True, seed=seed)]
        for call in calls:
            with pytest.raises(InvalidInputError, match="seed"):
                call()

    def test_numpy_integer_seed(self):
        assert verify_suite("quick", seed=np.int64(1)) == verify_suite("quick", seed=1)
        assert (lemma_maxima_mc([0.5, 0.5], 10_000, seed=np.uint8(3))
                == lemma_maxima_mc([0.5, 0.5], 10_000, seed=3))


class TestCheckFailedSurface:
    def test_lemma_mc_raises_on_impossible_bounds(self):
        # Force a violation by lying about the vector: pass an unsorted p
        # disguised as sorted via a direct bound check is not possible, so
        # instead check the error type is raised from the MC path with a
        # doctored sample floor; the bound-violation branch is exercised by
        # the mutation tests above through _run.
        with pytest.raises(InvalidInputError):
            lemma_maxima_mc([0.6, 0.4], 100)

    def test_failed_check_becomes_row(self, monkeypatch):
        # A CheckFailedError inside a suite body must convert to a failed
        # row, not abort the run.
        def exploding(p, coloring, flip):
            raise CheckFailedError("boom")

        monkeypatch.setattr(tokenmark.closed_scheme, "watermark_distribution", exploding)
        checks = verify_suite("quick")
        by_name = {c.name: c for c in checks}
        assert by_name["undetectability-sweep"].passed is False
        assert by_name["tv-zero-separation"].passed is True


class TestReportBytes:
    @pytest.mark.parametrize("level, seed, digest", [
        ("quick", 0, "79801f00eedf80718481b1066e4607f822fa4f843b62a18e7a5b3fb02a932946"),
        ("quick", 1, "472996531b7d2351eb46c475ebe8725be064640a9048b725389191098a2d75a7"),
        ("full", 0, "190f7844271fe9d03443f0093205676c7ad75f51f94e2fd73e44968c919681ff"),
    ])
    def test_report_pinned(self, level, seed, digest):
        # SHA-256 of the report text ``tokenmark verify`` prints, as the
        # suite gave it before its checks were gathered into one table.
        text = json_text(suite_report(verify_suite(level, seed), level))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_failed_rows_are_strict_json(self, monkeypatch, tmp_path, capsys):
        # A check that raises leaves a null value, never NaN, in the file
        # ``verify --out`` writes.
        def exploding(p, coloring, flip):
            raise CheckFailedError("boom")

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        monkeypatch.setattr(tokenmark.closed_scheme, "watermark_distribution", exploding)
        out = tmp_path / "report.json"
        assert cli.main(["verify", "--out", str(out)]) == 1
        report = json.loads(out.read_text(), parse_constant=reject)
        assert out.read_text() == capsys.readouterr().out
        failed = [row for row in report["checks"] if not row["pass"]]
        assert {row["name"] for row in failed} == {"undetectability-sweep",
                                                   "undetectability-two-tokens"}
        assert all(row["value"] is None for row in failed)
