"""Brute-force and Monte-Carlo verification of the analytic guarantees.

Every provable statement the schemes rely on gets an independent check
here: the rank-pairing expectation bounds by exhaustive enumeration of
balanced splits, exact undetectability by averaging the production
watermarked distribution over the whole key space, the open scheme's bias
and sub-exponential tail bounds by simulation, and the Gaussian
total-variation formula the unremovability argument reduces to. The checks
deliberately avoid sharing code with the sampling path (enumeration here,
keyed PRF there), except ``undetectability_exact``, which must call the
production ``watermark_distribution``: it certifies the one pairing kernel
that every closed-scheme sampling path shifts mass with.

``verify_suite`` bundles the assertions into a machine-readable report;
Monte-Carlo assertions uniformly use three standard errors of slack, so a
correct build fails any single check with probability around 0.3%.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import closed_scheme
from .core import as_logits, as_probs, sample_rows, softmax, softmax_rows
from .errors import CheckFailedError, InvalidInputError
from .seeds import derive_seed

EXACT_ENUM_MAX_D = 12
EXACT_AVG_MAX_D = 8
_MC_CHUNK = 1 << 14

# Constants from the tail analyses: |G(x)| has psi_1 norm at most
# 2.8*sqrt(10)*epsilon, and the centered variable at most 8.4*sqrt(10)*epsilon.
PSI1_SCALE = 2.8 * math.sqrt(10.0)
PSI1_CENTERED_SCALE = 8.4 * math.sqrt(10.0)
BIAS_CONSTANT = 1.0 / 1200.0


def _require_sorted(p: np.ndarray) -> None:
    if (np.diff(p) > 0).any():
        raise InvalidInputError("probability vector must be sorted non-increasing")


@functools.lru_cache(maxsize=8)
def _balanced_masks(d: int) -> np.ndarray:
    """All C(d, d/2) balanced subsets of [d] as boolean rows."""
    half = d // 2
    combos = list(itertools.combinations(range(d), half))
    masks = np.zeros((len(combos), d), dtype=bool)
    for row, combo in enumerate(combos):
        masks[row, list(combo)] = True
    masks.flags.writeable = False
    return masks


def _pair_min_sums(p: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """For each balanced subset, sum of pairwise minima after rank-pairing
    the subset against its complement. ``p`` must be sorted non-increasing,
    so within-class rank order is just index order."""
    m = masks.shape[0]
    bp = np.broadcast_to(p, masks.shape)
    w = bp[masks].reshape(m, -1)
    wbar = bp[~masks].reshape(m, -1)
    return np.minimum(w, wbar).sum(axis=1)


def lemma_maxima_exact(p) -> tuple[float, float, float]:
    """Exact expectation of the rank-pairing minima sum over a uniform
    balanced split, with the lower and upper tail-mass bounds it provably
    sits between. Raises if the bounds fail (they cannot, for a correct
    enumeration)."""
    p = as_probs(p)
    _require_sorted(p)
    d = p.size
    if d % 2 != 0:
        raise InvalidInputError("balanced splits need even d")
    if d > EXACT_ENUM_MAX_D:
        raise InvalidInputError(
            f"enumeration capped at d={EXACT_ENUM_MAX_D}; use lemma_maxima_mc")
    expectation = float(_pair_min_sums(p, _balanced_masks(d)).mean())
    tail = float(p[1:].sum())
    lower, upper = tail / 20.0, tail
    if not (lower - 1e-12 <= expectation <= upper + 1e-12):
        raise CheckFailedError(
            f"pair-minima expectation {expectation} outside [{lower}, {upper}]")
    return lower, expectation, upper


def lemma_maxima_mc(p, samples: int, *, seed: int = 0) -> tuple[float, float]:
    """Monte-Carlo version of ``lemma_maxima_exact`` for large d: unbiased
    estimate and its standard error, with the same bounds asserted to within
    three standard errors."""
    p = as_probs(p)
    _require_sorted(p)
    d = p.size
    if d % 2 != 0:
        raise InvalidInputError("balanced splits need even d")
    if samples < 10_000:
        raise InvalidInputError("need at least 1e4 samples for a meaningful check")
    rng = np.random.default_rng(derive_seed(seed, "lemma-mc", d, samples))
    half = d // 2
    total = total_sq = 0.0
    done = 0
    while done < samples:
        m = min(_MC_CHUNK, samples - done)
        picks = np.argpartition(rng.random((m, d)), half - 1, axis=1)[:, :half]
        masks = np.zeros((m, d), dtype=bool)
        masks[np.arange(m)[:, None], picks] = True
        sums = _pair_min_sums(p, masks)
        total += float(sums.sum())
        total_sq += float((sums * sums).sum())
        done += m
    estimate = total / samples
    var = max(total_sq / samples - estimate * estimate, 0.0) * samples / (samples - 1)
    se = math.sqrt(var / samples)
    tail = float(p[1:].sum())
    if not (tail / 20.0 - 3.0 * se <= estimate <= tail + 3.0 * se):
        raise CheckFailedError(
            f"pair-minima estimate {estimate} +- {se} violates [{tail / 20.0}, {tail}]")
    return estimate, se


def undetectability_exact(p) -> float:
    """Average the production watermarked distribution over every balanced
    coloring and both flips; returns the largest deviation from ``p``.

    Exhaustive, so a nonzero result beyond float round-off is proof of a
    biased sampler rather than an unlucky draw."""
    p = as_probs(p)
    d = p.size
    if d % 2 != 0 or d > EXACT_AVG_MAX_D:
        raise InvalidInputError(f"exact averaging needs even d <= {EXACT_AVG_MAX_D}")
    masks = _balanced_masks(d)
    total = np.zeros(d)
    for mask in masks:
        coloring = np.where(mask, 1, -1).astype(np.int8)
        for flip in (1, -1):
            total += closed_scheme.watermark_distribution(p, coloring, flip)
    avg = total / (2.0 * masks.shape[0])
    return float(np.abs(avg - p).max())


# --------------------------------------------------------------------------
# Open-scheme Monte-Carlo bounds


def _gx_moments(logits: np.ndarray, epsilon: float, k: int, samples: int,
                rng: np.random.Generator, transform=None) -> tuple[float, float]:
    """Mean and standard error of ``transform(G(x))`` (identity by default)
    under the watermarked softmax, streamed in chunks."""
    d = logits.size
    total = total_sq = 0.0
    done = 0
    while done < samples:
        m = min(_MC_CHUNK, samples - done)
        gauss = epsilon * rng.standard_normal((m, d))
        if k == 1:
            cols = rng.integers(0, d, m)
            mu = np.zeros((m, d))
            mu[np.arange(m), cols] = 1.0
        elif k == d:
            mu = np.full((m, d), 1.0 / math.sqrt(d))
        else:
            picks = np.argpartition(rng.random((m, d)), k - 1, axis=1)[:, :k]
            mu = np.zeros((m, d))
            mu[np.arange(m)[:, None], picks] = 1.0 / math.sqrt(k)
        r = rng.integers(0, 2, m) * 2 - 1
        q = softmax_rows(logits + gauss + r[:, None] * epsilon * mu)
        x = sample_rows(q, rng)
        vals = gauss[np.arange(m), x]
        if transform is not None:
            vals = transform(vals)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += m
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0) * samples / (samples - 1)
    return mean, math.sqrt(var / samples)


def _check_mc_args(epsilon: float, k: int, d: int, samples: int) -> None:
    if epsilon <= 0:
        raise InvalidInputError("epsilon must be positive")
    if not 1 <= k <= d:
        raise InvalidInputError("need 1 <= k <= d")
    if samples < 100_000:
        raise InvalidInputError("need at least 1e5 samples for a meaningful check")


def bias_bound_mc(logits, epsilon: float, samples: int, *, k: int = 1,
                  seed: int = 0) -> tuple[float, float, float]:
    """Estimate the selection bias E G(x) of the watermarked softmax and
    assert the quadratic lower bound ``epsilon^2/1200 * (1 - p*)`` up to
    three standard errors. Returns (estimate, bound, se)."""
    logits = as_logits(logits)
    _check_mc_args(epsilon, k, logits.size, samples)
    rng = np.random.default_rng(derive_seed(seed, "bias-mc", logits.size, k, samples))
    estimate, se = _gx_moments(logits, epsilon, k, samples, rng)
    bound = BIAS_CONSTANT * epsilon * epsilon * (1.0 - float(softmax(logits).max()))
    if estimate < bound - 3.0 * se:
        raise CheckFailedError(
            f"selection bias {estimate} +- {se} fell below bound {bound}")
    return estimate, bound, se


def psi1_bound_mc(logits, epsilon: float, samples: int, *, k: int = 1,
                  centered: bool = False, seed: int = 0) -> tuple[float, float]:
    """Check the sub-exponential tail of G(x): estimate E exp(|G(x)|/tau) at
    the certified psi_1 scale and assert it is at most 2, up to three
    standard errors. With ``centered=True`` the check runs on
    ``G(x) - E G(x)`` (sample-mean centering) at the larger centered scale.
    Returns (mgf_estimate, se)."""
    logits = as_logits(logits)
    _check_mc_args(epsilon, k, logits.size, samples)
    label = "psi1-centered" if centered else "psi1"
    rng = np.random.default_rng(derive_seed(seed, label, logits.size, k, samples))
    if centered:
        shift, _ = _gx_moments(logits, epsilon, k, samples, np.random.default_rng(
            derive_seed(seed, label, "mean-pass", logits.size, k, samples)))
        tau = PSI1_CENTERED_SCALE * epsilon
        transform = lambda v: np.exp(np.abs(v - shift) / tau)
    else:
        tau = PSI1_SCALE * epsilon
        transform = lambda v: np.exp(np.abs(v) / tau)
    estimate, se = _gx_moments(logits, epsilon, k, samples, rng, transform)
    if estimate > 2.0 + 3.0 * se:
        raise CheckFailedError(
            f"exp-moment {estimate} +- {se} exceeds the sub-exponential cap 2")
    return estimate, se


def tv_gaussians(mean_sep: float, sigma: float) -> float:
    """Exact total-variation distance between two isotropic Gaussians with
    equal covariance ``sigma^2 I`` and mean separation ``mean_sep``:
    ``2*Phi(mean_sep/(2*sigma)) - 1``, via the 1-d reduction along the
    mean-difference axis."""
    if sigma <= 0:
        raise InvalidInputError("sigma must be positive")
    if mean_sep < 0:
        raise InvalidInputError("mean separation cannot be negative")
    return math.erf(mean_sep / (2.0 * sigma * math.sqrt(2.0)))


# --------------------------------------------------------------------------
# The bundled verification suite


@dataclass(frozen=True)
class CheckResult:
    """One verification check: a computed value, what bounded it, and the
    outcome. ``se`` is None for exact (non-Monte-Carlo) checks."""

    name: str
    value: float
    bound: float | None
    se: float | None
    passed: bool

    def to_dict(self) -> dict:
        return {"name": self.name, "value": self.value, "bound": self.bound,
                "se": self.se, "pass": self.passed}


def _run(checks: list[CheckResult], name: str, fn) -> None:
    """Run one check body, converting a CheckFailedError into a failed row
    rather than aborting the suite."""
    try:
        checks.append(fn())
    except CheckFailedError:
        checks.append(CheckResult(name=name, value=float("nan"), bound=None,
                                  se=None, passed=False))


def _quick_checks(seed: int) -> list[CheckResult]:
    checks: list[CheckResult] = []

    def lemma_example():
        lo, expectation, hi = lemma_maxima_exact([0.4, 0.3, 0.2, 0.1])
        ok = abs(expectation - 2.2 / 6.0) <= 1e-12 and (lo, hi) == (0.03, 0.6)
        return CheckResult("lemma-exact-example", expectation, 2.2 / 6.0, None, ok)

    def lemma_point_mass():
        _, expectation, hi = lemma_maxima_exact([1.0, 0.0, 0.0, 0.0])
        return CheckResult("lemma-exact-point-mass", expectation, 0.0, None,
                           expectation == 0.0 and hi == 0.0)

    def lemma_uniform():
        _, expectation, _ = lemma_maxima_exact([0.25] * 4)
        return CheckResult("lemma-exact-uniform-d4", expectation, 0.5, None,
                           abs(expectation - 0.5) <= 1e-12)

    def lemma_sweep():
        rng = np.random.default_rng(derive_seed(seed, "suite", "lemma-sweep"))
        worst = math.inf
        for d in (4, 6, 8, 10):
            for _ in range(50):
                p = np.sort(rng.dirichlet(np.ones(d)))[::-1]
                lo, expectation, hi = lemma_maxima_exact(p)
                worst = min(worst, expectation - lo, hi - expectation)
        return CheckResult("lemma-exact-random-sweep", worst, 0.0, None,
                           worst >= -1e-12)

    def undetect_sweep():
        rng = np.random.default_rng(derive_seed(seed, "suite", "undetect-sweep"))
        worst = 0.0
        for d in (2, 4, 6, 8):
            for _ in range(25):
                worst = max(worst, undetectability_exact(rng.dirichlet(np.ones(d))))
        return CheckResult("undetectability-sweep", worst, 1e-12, None,
                           worst <= 1e-12)

    def undetect_two():
        dev = undetectability_exact([0.5, 0.5])
        return CheckResult("undetectability-two-tokens", dev, 0.0, None, dev == 0.0)

    def tv_zero():
        v = tv_gaussians(0.0, 1.0)
        return CheckResult("tv-zero-separation", v, 0.0, None, v == 0.0)

    def tv_example():
        v = tv_gaussians(0.5, 1.0)
        want = math.erf(0.25 / math.sqrt(2.0))
        return CheckResult("tv-closed-form-example", v, want, None,
                           abs(v - want) <= 1e-15)

    def tv_limit():
        v = tv_gaussians(1e6, 1.0)
        return CheckResult("tv-limit-one", v, 1.0, None, v >= 1.0 - 1e-12)

    def tv_surface():
        # The adversarial-mimicry analysis claims TV at least Phi(-1/4)
        # (about 0.401) at separation eps/2 and noise eps, while the exact
        # equal-covariance formula gives about 0.197. Both numbers are
        # surfaced here; nothing is asserted beyond the formula itself.
        exact = tv_gaussians(0.5, 1.0)
        claimed = 0.5 * math.erfc(0.25 / math.sqrt(2.0))
        return CheckResult("tv-unremovability-surfaced", exact, claimed, None, True)

    for name, fn in [
        ("lemma-exact-example", lemma_example),
        ("lemma-exact-point-mass", lemma_point_mass),
        ("lemma-exact-uniform-d4", lemma_uniform),
        ("lemma-exact-random-sweep", lemma_sweep),
        ("undetectability-sweep", undetect_sweep),
        ("undetectability-two-tokens", undetect_two),
        ("tv-zero-separation", tv_zero),
        ("tv-closed-form-example", tv_example),
        ("tv-limit-one", tv_limit),
        ("tv-unremovability-surfaced", tv_surface),
    ]:
        _run(checks, name, fn)
    return checks


def _full_checks(seed: int) -> list[CheckResult]:
    checks: list[CheckResult] = []

    def lemma_mc_agreement():
        p = [0.4, 0.3, 0.2, 0.1]
        _, exact, _ = lemma_maxima_exact(p)
        estimate, se = lemma_maxima_mc(p, 1_000_000, seed=seed)
        return CheckResult("lemma-mc-agreement", abs(estimate - exact), 3.0 * se,
                           se, abs(estimate - exact) <= 3.0 * se)

    def lemma_mc_large():
        rng = np.random.default_rng(derive_seed(seed, "suite", "lemma-mc-large"))
        p = np.sort(rng.dirichlet(np.ones(100)))[::-1]
        estimate, se = lemma_maxima_mc(p, 100_000, seed=seed)
        return CheckResult("lemma-mc-large-d", estimate, float(p[1:].sum()), se, True)

    def bias_uniform():
        est, bound, se = bias_bound_mc(np.zeros(16), 0.5, 200_000, seed=seed)
        return CheckResult("bias-uniform-d16", est, bound, se, est >= bound - 3 * se)

    def bias_powerlaw():
        logits = -1.0 * np.log(np.arange(1, 65, dtype=float))
        est, bound, se = bias_bound_mc(logits, 0.25, 100_000, seed=seed)
        return CheckResult("bias-powerlaw-d64", est, bound, se, est >= bound - 3 * se)

    def bias_deterministic():
        logits = np.zeros(8)
        logits[0] = 50.0
        est, bound, se = bias_bound_mc(logits, 0.5, 100_000, seed=seed)
        return CheckResult("bias-deterministic-limit", est, bound, se,
                           est >= bound - 3 * se)

    def psi1_uniform():
        est, se = psi1_bound_mc(np.zeros(16), 0.5, 100_000, seed=seed)
        return CheckResult("psi1-eps-half-uniform-d16", est, 2.0, se,
                           est <= 2.0 + 3 * se)

    def psi1_powerlaw():
        logits = -1.0 * np.log(np.arange(1, 65, dtype=float))
        est, se = psi1_bound_mc(logits, 0.25, 100_000, seed=seed)
        return CheckResult("psi1-eps-quarter-powerlaw-d64", est, 2.0, se,
                           est <= 2.0 + 3 * se)

    def psi1_small_eps():
        # The ratio |G(x)|/tau is scale-free, so epsilon -> 0 does not send
        # the exp-moment to 1; it converges to the pure-Gaussian value
        # 2*exp(1/(2a^2))*Phi(1/a) at a = PSI1_SCALE as the selection effect
        # vanishes. Convergence to that limit is the sharp check.
        est, se = psi1_bound_mc(np.zeros(16), 0.01, 100_000, seed=seed)
        a = PSI1_SCALE
        limit = math.exp(1.0 / (2.0 * a * a)) * math.erfc(-1.0 / (a * math.sqrt(2.0)))
        return CheckResult("psi1-vanishing-eps", est, limit, se,
                           abs(est - limit) <= 4.0 * se + 1e-3)

    def psi1_centered():
        est, se = psi1_bound_mc(np.zeros(16), 0.5, 100_000, centered=True, seed=seed)
        return CheckResult("psi1-centered-eps-half", est, 2.0, se,
                           est <= 2.0 + 3 * se)

    for name, fn in [
        ("lemma-mc-agreement", lemma_mc_agreement),
        ("lemma-mc-large-d", lemma_mc_large),
        ("bias-uniform-d16", bias_uniform),
        ("bias-powerlaw-d64", bias_powerlaw),
        ("bias-deterministic-limit", bias_deterministic),
        ("psi1-eps-half-uniform-d16", psi1_uniform),
        ("psi1-eps-quarter-powerlaw-d64", psi1_powerlaw),
        ("psi1-vanishing-eps", psi1_small_eps),
        ("psi1-centered-eps-half", psi1_centered),
    ]:
        _run(checks, name, fn)
    return checks


def verify_suite(level: str = "quick", seed: int = 0) -> list[CheckResult]:
    """Run the verification checks: ``quick`` is enumeration and closed-form
    only, ``full`` adds the Monte-Carlo bound checks. Deterministic for a
    given seed."""
    if level not in ("quick", "full"):
        raise InvalidInputError("level must be 'quick' or 'full'")
    checks = _quick_checks(seed)
    if level == "full":
        checks.extend(_full_checks(seed))
    return checks


def suite_report(checks: list[CheckResult], level: str) -> dict:
    return {
        "level": level,
        "all_pass": all(c.passed for c in checks),
        "checks": [c.to_dict() for c in checks],
    }
