"""Brute-force and Monte-Carlo verification of the analytic guarantees.

Every provable statement the schemes rely on gets an independent check
here: the rank-pairing expectation bounds by exhaustive enumeration of
balanced splits, exact undetectability by averaging the production
watermarked distribution over the whole key space, the open scheme's bias
and sub-exponential tail bounds by simulation, and the Gaussian
total-variation formula the unremovability argument reduces to. The checks
deliberately avoid sharing code with the fast paths: enumeration and plain
numpy draws here, keyed PRF streams and perturbation builders there. Two
exceptions are deliberate. ``undetectability_exact`` calls the production
``watermark_distribution``, so it certifies the one pairing kernel that
every closed-scheme sampling path shifts mass with. The open-scheme bias
and tail checks draw tokens through ``core.softmax_rows`` and
``core.sample_rows``, so they exercise the one sampler every path draws
with.

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
from .core import as_logits, as_probs, is_int, is_number, sample_rows, softmax, softmax_rows
from .errors import CheckFailedError, InvalidInputError
from .seeds import check_seed, derive_seed

EXACT_ENUM_MAX_D = 12
EXACT_AVG_MAX_D = 8
_MC_CHUNK = 1 << 14

# Constants from the tail analyses: |G(x)| has psi_1 norm at most
# 2.8*sqrt(10)*epsilon, and the centered variable at most 8.4*sqrt(10)*epsilon.
PSI1_SCALE = 2.8 * math.sqrt(10.0)
PSI1_CENTERED_SCALE = 8.4 * math.sqrt(10.0)
BIAS_CONSTANT = 1.0 / 1200.0


def _streamed_mean(samples: int, draw) -> tuple[float, float]:
    """Mean and standard error of ``samples`` values, where ``draw(m)``
    returns the next ``m`` of them; drawn in chunks of ``_MC_CHUNK``."""
    total = total_sq = 0.0
    done = 0
    while done < samples:
        m = min(_MC_CHUNK, samples - done)
        vals = draw(m)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += m
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0) * samples / (samples - 1)
    return mean, math.sqrt(var / samples)


def _check_samples(samples: int, floor: int) -> None:
    if not is_int(samples):
        raise InvalidInputError(f"samples must be an integer, got {samples!r}")
    if samples < floor:
        raise InvalidInputError(f"need at least {floor} samples for a meaningful check")


def _subset_rows(rng: np.random.Generator, m: int, d: int, k: int, fill) -> np.ndarray:
    """``m`` rows of length ``d``, each ``fill`` on its own uniform random
    k-subset of [d] and zero elsewhere."""
    picks = np.argpartition(rng.random((m, d)), k - 1, axis=1)[:, :k]
    rows = np.zeros((m, d), dtype=np.asarray(fill).dtype)
    rows[np.arange(m)[:, None], picks] = fill
    return rows


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


def _lemma_probs(p) -> np.ndarray:
    """``p`` checked as a probability vector that is sorted non-increasing
    and has an even number of entries, as balanced splits need."""
    p = as_probs(p)
    if (np.diff(p) > 0).any():
        raise InvalidInputError("probability vector must be sorted non-increasing")
    if p.size % 2 != 0:
        raise InvalidInputError("balanced splits need even d")
    return p


def lemma_maxima_exact(p) -> tuple[float, float, float]:
    """Exact expectation of the rank-pairing minima sum over a uniform
    balanced split, with the lower and upper tail-mass bounds it provably
    sits between. Raises if the bounds fail (they cannot, for a correct
    enumeration)."""
    p = _lemma_probs(p)
    if p.size > EXACT_ENUM_MAX_D:
        raise InvalidInputError(
            f"enumeration capped at d={EXACT_ENUM_MAX_D}; use lemma_maxima_mc")
    expectation = float(_pair_min_sums(p, _balanced_masks(p.size)).mean())
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
    p = _lemma_probs(p)
    d = p.size
    _check_samples(samples, 10_000)
    rng = np.random.default_rng(derive_seed(check_seed(seed), "lemma-mc", d, samples))
    estimate, se = _streamed_mean(
        samples, lambda m: _pair_min_sums(p, _subset_rows(rng, m, d, d // 2, True)))
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


def _gx_moments(logits, epsilon: float, k: int, samples: int, seed: int, *labels,
                transform=None) -> tuple[float, float]:
    """Mean and standard error of ``transform(G(x))`` (identity by default)
    under the watermarked softmax, from a stream seeded by ``seed``, the
    ``labels``, d, k and ``samples``."""
    logits = as_logits(logits)
    d = logits.size
    if not is_number(epsilon) or epsilon <= 0:
        raise InvalidInputError(f"epsilon must be a finite number > 0, got {epsilon!r}")
    if not is_int(k) or not 1 <= k <= d:
        raise InvalidInputError(f"need an integer 1 <= k <= d, got {k!r}")
    _check_samples(samples, 100_000)
    rng = np.random.default_rng(derive_seed(check_seed(seed), *labels, d, k, samples))

    def draw(m: int) -> np.ndarray:
        gauss = epsilon * rng.standard_normal((m, d))
        # k = 1 and k = d draw their supports apart from the general case:
        # each consumes the stream its own way.
        if k == 1:
            mu = np.zeros((m, d))
            mu[np.arange(m), rng.integers(0, d, m)] = 1.0
        elif k == d:
            mu = np.full((m, d), 1.0 / math.sqrt(d))
        else:
            mu = _subset_rows(rng, m, d, k, 1.0 / math.sqrt(k))
        r = rng.integers(0, 2, m) * 2 - 1
        x = sample_rows(softmax_rows(logits + gauss + r[:, None] * epsilon * mu), rng)
        vals = gauss[np.arange(m), x]
        return vals if transform is None else transform(vals)

    return _streamed_mean(samples, draw)


def bias_bound_mc(logits, epsilon: float, samples: int, *, k: int = 1,
                  seed: int = 0) -> tuple[float, float, float]:
    """Estimate the selection bias E G(x) of the watermarked softmax and
    assert the quadratic lower bound ``epsilon^2/1200 * (1 - p*)`` up to
    three standard errors. Returns (estimate, bound, se)."""
    estimate, se = _gx_moments(logits, epsilon, k, samples, seed, "bias-mc")
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
    label = "psi1-centered" if centered else "psi1"
    shift = 0.0
    if centered:
        shift, _ = _gx_moments(logits, epsilon, k, samples, seed, label, "mean-pass")
    scale = PSI1_CENTERED_SCALE if centered else PSI1_SCALE
    estimate, se = _gx_moments(logits, epsilon, k, samples, seed, label,
                               transform=lambda v: np.exp(np.abs(v - shift) / (scale * epsilon)))
    if estimate > 2.0 + 3.0 * se:
        raise CheckFailedError(
            f"exp-moment {estimate} +- {se} exceeds the sub-exponential cap 2")
    return estimate, se


def tv_gaussians(mean_sep: float, sigma: float) -> float:
    """Exact total-variation distance between two isotropic Gaussians with
    equal covariance ``sigma^2 I`` and mean separation ``mean_sep``:
    ``2*Phi(mean_sep/(2*sigma)) - 1``, via the 1-d reduction along the
    mean-difference axis."""
    if not is_number(sigma) or sigma <= 0:
        raise InvalidInputError(f"sigma must be a finite number > 0, got {sigma!r}")
    if not is_number(mean_sep) or mean_sep < 0:
        raise InvalidInputError(f"mean separation must be a finite number >= 0, got {mean_sep!r}")
    return math.erf(mean_sep / (2.0 * sigma * math.sqrt(2.0)))


# --------------------------------------------------------------------------
# The bundled verification suite


@dataclass(frozen=True)
class CheckResult:
    """One verification check: a computed value, what bounded it, and the
    outcome. ``se`` is None for exact (non-Monte-Carlo) checks; ``value``
    is None when the check's body raised CheckFailedError."""

    name: str
    value: float | None
    bound: float | None
    se: float | None
    passed: bool

    def to_dict(self) -> dict:
        return {"name": self.name, "value": self.value, "bound": self.bound,
                "se": self.se, "pass": self.passed}


# Each check below takes the suite seed and returns its row's
# (value, bound, se, passed); the tables at the end name the rows.


def _within(value: float, want: float, tol: float):
    """The row of an exact check that ``value`` is within ``tol`` of ``want``."""
    return value, want, None, abs(value - want) <= tol


def _lemma_example(seed):
    lo, expectation, hi = lemma_maxima_exact([0.4, 0.3, 0.2, 0.1])
    ok = abs(expectation - 2.2 / 6.0) <= 1e-12 and (lo, hi) == (0.03, 0.6)
    return expectation, 2.2 / 6.0, None, ok


def _lemma_point_mass(seed):
    _, expectation, hi = lemma_maxima_exact([1.0, 0.0, 0.0, 0.0])
    return expectation, 0.0, None, expectation == 0.0 and hi == 0.0


def _lemma_sweep(seed):
    rng = np.random.default_rng(derive_seed(seed, "suite", "lemma-sweep"))
    worst = math.inf
    for d in (4, 6, 8, 10):
        for _ in range(50):
            p = np.sort(rng.dirichlet(np.ones(d)))[::-1]
            lo, expectation, hi = lemma_maxima_exact(p)
            worst = min(worst, expectation - lo, hi - expectation)
    return worst, 0.0, None, worst >= -1e-12


def _undetect_sweep(seed):
    rng = np.random.default_rng(derive_seed(seed, "suite", "undetect-sweep"))
    worst = 0.0
    for d in (2, 4, 6, 8):
        for _ in range(25):
            worst = max(worst, undetectability_exact(rng.dirichlet(np.ones(d))))
    return worst, 1e-12, None, worst <= 1e-12


def _tv_surface(seed):
    # The adversarial-mimicry analysis claims TV at least Phi(-1/4)
    # (about 0.401) at separation eps/2 and noise eps, while the exact
    # equal-covariance formula gives about 0.197. Both numbers are
    # surfaced here; nothing is asserted beyond the formula itself.
    claimed = 0.5 * math.erfc(0.25 / math.sqrt(2.0))
    return tv_gaussians(0.5, 1.0), claimed, None, True


def _lemma_mc_agreement(seed):
    p = [0.4, 0.3, 0.2, 0.1]
    _, exact, _ = lemma_maxima_exact(p)
    estimate, se = lemma_maxima_mc(p, 1_000_000, seed=seed)
    return abs(estimate - exact), 3.0 * se, se, abs(estimate - exact) <= 3.0 * se


def _lemma_mc_large(seed):
    rng = np.random.default_rng(derive_seed(seed, "suite", "lemma-mc-large"))
    p = np.sort(rng.dirichlet(np.ones(100)))[::-1]
    estimate, se = lemma_maxima_mc(p, 100_000, seed=seed)
    return estimate, float(p[1:].sum()), se, True


def _bias(logits, epsilon: float, samples: int):
    def check(seed):
        est, bound, se = bias_bound_mc(logits, epsilon, samples, seed=seed)
        return est, bound, se, est >= bound - 3 * se
    return check


def _psi1(logits, epsilon: float, centered: bool = False):
    def check(seed):
        est, se = psi1_bound_mc(logits, epsilon, 100_000, centered=centered, seed=seed)
        return est, 2.0, se, est <= 2.0 + 3 * se
    return check


def _psi1_small_eps(seed):
    # The ratio |G(x)|/tau is scale-free, so epsilon -> 0 does not send
    # the exp-moment to 1; it converges to the pure-Gaussian value
    # 2*exp(1/(2a^2))*Phi(1/a) at a = PSI1_SCALE as the selection effect
    # vanishes. Convergence to that limit is the sharp check.
    est, se = psi1_bound_mc(np.zeros(16), 0.01, 100_000, seed=seed)
    a = PSI1_SCALE
    limit = math.exp(1.0 / (2.0 * a * a)) * math.erfc(-1.0 / (a * math.sqrt(2.0)))
    return est, limit, se, abs(est - limit) <= 4.0 * se + 1e-3


_POWER_LAW_D64 = -1.0 * np.log(np.arange(1, 65, dtype=float))
_DETERMINISTIC_D8 = np.array([50.0] + [0.0] * 7)

_QUICK = [
    ("lemma-exact-example", _lemma_example),
    ("lemma-exact-point-mass", _lemma_point_mass),
    ("lemma-exact-uniform-d4", lambda seed: _within(lemma_maxima_exact([0.25] * 4)[1],
                                                    0.5, 1e-12)),
    ("lemma-exact-random-sweep", _lemma_sweep),
    ("undetectability-sweep", _undetect_sweep),
    ("undetectability-two-tokens",
     lambda seed: _within(undetectability_exact([0.5, 0.5]), 0.0, 0.0)),
    ("tv-zero-separation", lambda seed: _within(tv_gaussians(0.0, 1.0), 0.0, 0.0)),
    ("tv-closed-form-example", lambda seed: _within(
        tv_gaussians(0.5, 1.0), math.erf(0.25 / math.sqrt(2.0)), 1e-15)),
    ("tv-limit-one", lambda seed: _within(tv_gaussians(1e6, 1.0), 1.0, 1e-12)),
    ("tv-unremovability-surfaced", _tv_surface),
]
_SUITES = {
    "quick": _QUICK,
    "full": _QUICK + [
        ("lemma-mc-agreement", _lemma_mc_agreement),
        ("lemma-mc-large-d", _lemma_mc_large),
        ("bias-uniform-d16", _bias(np.zeros(16), 0.5, 200_000)),
        ("bias-powerlaw-d64", _bias(_POWER_LAW_D64, 0.25, 100_000)),
        ("bias-deterministic-limit", _bias(_DETERMINISTIC_D8, 0.5, 100_000)),
        ("psi1-eps-half-uniform-d16", _psi1(np.zeros(16), 0.5)),
        ("psi1-eps-quarter-powerlaw-d64", _psi1(_POWER_LAW_D64, 0.25)),
        ("psi1-vanishing-eps", _psi1_small_eps),
        ("psi1-centered-eps-half", _psi1(np.zeros(16), 0.5, centered=True)),
    ],
}


def _run(name: str, check, seed: int) -> CheckResult:
    """One check's row; a CheckFailedError in its body becomes a failed row
    with no value rather than aborting the suite."""
    try:
        return CheckResult(name, *check(seed))
    except CheckFailedError:
        return CheckResult(name, None, None, None, False)


def verify_suite(level: str = "quick", seed: int = 0) -> list[CheckResult]:
    """Run the verification checks: ``quick`` is enumeration and closed-form
    only, ``full`` adds the Monte-Carlo bound checks. Deterministic for a
    given seed."""
    if not isinstance(level, str) or level not in _SUITES:
        raise InvalidInputError("level must be 'quick' or 'full'")
    check_seed(seed)
    return [_run(name, check, seed) for name, check in _SUITES[level]]


def suite_report(checks: list[CheckResult], level: str) -> dict:
    return {
        "level": level,
        "all_pass": all(c.passed for c in checks),
        "checks": [c.to_dict() for c in checks],
    }
