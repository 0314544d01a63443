"""Desk-scale sparse-mean hypothesis testing: the hardness story, empirically.

The null is pure Gaussian noise; the alternative plants a common k-sparse
unit mean direction, flipped by an independent sign per sample. Because the
mixture is sign-symmetric, first moments carry nothing and both detectors
work from sign-invariant statistics: a polynomial-time test summing the k
largest per-coordinate second moments, and an exhaustive scan over all
k-subsets that is information-theoretically stronger but pays a C(d, k)
enumeration bill. Their power curves exhibit, at desk scale, the sample-size
gap that the asymptotic hardness statement predicts between efficient and
unbounded detection; nothing asymptotic is (or can be) reproduced here.

Both tests calibrate their rejection threshold by simulating the null
(2000 draws by default) rather than by analytic approximation, which keeps
them honest at small n and d.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass, fields

import numpy as np

from .core import is_int, is_number
from .errors import InvalidInputError, ScanBudgetError
from .open_scheme import _perturbations
from .seeds import check_seed, derive_seed

H0 = "H0"
HA = "Ha"
THRESHOLD_TEST = "threshold"
SCAN_TEST = "scan"

SCAN_BUDGET = 1_000_000
# Bytes the scan's dense (d, C(d, k)) float64 direction matrix may take.
SCAN_MATRIX_BYTES = 256 << 20
NULL_DRAWS = 2000
_SCAN_CHUNK = 8192
# Scans read _subset_directions under this lock: lru_cache lets callers
# that miss at once each build the matrix, a sweep's worker threads too.
_DIRECTIONS_LOCK = threading.Lock()

# 97.5% standard-normal quantile, pinned so Wilson intervals are stable.
_WILSON_Z = 1.959963984540054


@dataclass(frozen=True, eq=False)
class SparseMeanInstance:
    """One sampled dataset plus the ground truth that generated it."""

    data: np.ndarray                      # (n, d)
    epsilon: float
    k: int
    truth: str                            # "H0" | "Ha"
    planted_support: np.ndarray | None    # (k,) sorted, Ha only
    planted_signs: np.ndarray | None      # (n,) +-1, Ha only

    def __post_init__(self):
        if self.truth not in (H0, HA):
            raise InvalidInputError("truth must be 'H0' or 'Ha'")
        if self.truth == HA:
            if self.planted_support is None or self.planted_support.size != self.k:
                raise InvalidInputError("Ha instance needs a size-k planted support")
            if self.planted_signs is None or self.planted_signs.size != self.data.shape[0]:
                raise InvalidInputError("Ha instance needs one sign per sample")


def _check_params(n: int, d: int, k: int, epsilon: float) -> None:
    if not (is_int(n) and is_int(d) and is_int(k)):
        raise InvalidInputError(f"n, d and k must be integers, got {n!r}, {d!r} and {k!r}")
    if n < 1:
        raise InvalidInputError("need at least one sample")
    if not 1 <= k <= d:
        raise InvalidInputError("need 1 <= k <= d")
    if not is_number(epsilon) or epsilon <= 0:
        raise InvalidInputError(f"epsilon must be a finite number > 0, got {epsilon!r}")


def sample_instance(n: int, d: int, k: int, epsilon: float, hypothesis: str,
                    seed, *, force_positive_signs: bool = False) -> SparseMeanInstance:
    """Draw one dataset: under H0 rows are N(0, epsilon^2 I); under Ha each
    row additionally gets ``sign * epsilon * mu`` for a common uniformly
    drawn k-sparse unit ``mu`` and independent Rademacher signs, which is
    the open scheme's perturbation with a fixed support, built by its builder.

    ``force_positive_signs`` pins every sign to +1, a diagnostic mode that
    makes the planted mean visible to first-moment checks."""
    _check_params(n, d, k, epsilon)
    check_seed(seed)
    if hypothesis not in (H0, HA):
        raise InvalidInputError("hypothesis must be 'H0' or 'Ha'")
    rng = np.random.default_rng(derive_seed(seed, "instance", hypothesis, n, d, k))
    data = epsilon * rng.standard_normal((n, d))
    if hypothesis == H0:
        return SparseMeanInstance(data=data, epsilon=epsilon, k=k, truth=H0,
                                  planted_support=None, planted_signs=None)
    support = np.sort(rng.choice(d, size=k, replace=False)).astype(np.int64)
    if force_positive_signs:
        signs = np.ones(n, dtype=np.int8)
    else:
        signs = (rng.integers(0, 2, n) * 2 - 1).astype(np.int8)
    data = _perturbations(data, np.broadcast_to(support, (n, k)), signs, epsilon)
    return SparseMeanInstance(data=data, epsilon=epsilon, k=k, truth=HA,
                              planted_support=support, planted_signs=signs)


# --------------------------------------------------------------------------
# Test statistics


def _check_data(data, k) -> np.ndarray:
    """``data`` as a checked (n, d) float64 matrix with n >= 1, for an integer
    k in [1, d]."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] < 1:
        raise InvalidInputError("data must be an (n, d) matrix with n >= 1")
    if not is_int(k) or not 1 <= k <= data.shape[1]:
        raise InvalidInputError(f"need an integer 1 <= k <= d, got k = {k!r}")
    return data


def threshold_statistic(data: np.ndarray, k: int) -> float:
    """Sum of the k largest per-coordinate second moments (1/n) sum_j X_j(i)^2."""
    data = _check_data(data, k)
    second = (data * data).mean(axis=0)
    return float(np.partition(second, second.size - k)[-k:].sum())


def scan_budget_error(d: int, k: int) -> str | None:
    """Why an exhaustive scan over the k-subsets of d coordinates is
    refused, or None when it fits both budgets: ``SCAN_BUDGET`` supports
    and ``SCAN_MATRIX_BYTES`` for its direction matrix."""
    n_subsets = math.comb(d, k)
    if n_subsets > SCAN_BUDGET:
        return (f"scan over C({d}, {k}) = {n_subsets} supports exceeds the "
                f"{SCAN_BUDGET} enumeration budget")
    nbytes = 8 * d * n_subsets
    if nbytes > SCAN_MATRIX_BYTES:
        return (f"scan over C({d}, {k}) = {n_subsets} supports needs a {nbytes / 2**30:.1f} GiB "
                f"direction matrix, over the {SCAN_MATRIX_BYTES >> 20} MiB budget")
    return None


# One matrix, up to SCAN_MATRIX_BYTES: a sweep scans one (d, k) at a time.
@functools.lru_cache(maxsize=1)
def _subset_directions(d: int, k: int) -> np.ndarray:
    """All C(d, k) unit vectors k**-0.5 * 1_T as columns, shape (d, C)."""
    count = math.comb(d, k)
    combos = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(d), k)),
                         dtype=np.intp, count=count * k).reshape(count, k)
    u = np.zeros((d, count))
    u[combos.T, np.arange(count)] = 1.0 / math.sqrt(k)
    u.flags.writeable = False
    return u


def scan_statistic(data: np.ndarray, k: int) -> float:
    """Exhaustive support scan: max over all k-subsets T of the mean absolute
    alignment (1/n) sum_j |<X_j, mu_T>|. Cost grows with C(d, k) and memory
    with d x C(d, k); refuses to run past either budget."""
    data = _check_data(data, k)
    d = data.shape[1]
    refusal = scan_budget_error(d, k)
    if refusal:
        raise ScanBudgetError(refusal)
    with _DIRECTIONS_LOCK:
        directions = _subset_directions(d, k)
    n, count = data.shape[0], directions.shape[1]
    # Every chunk's products go into one buffer and take their absolute
    # values in place: fresh (n, chunk) arrays per chunk cost more than the
    # matmul at small n. mean(axis=0) is the column sum followed by a
    # division by n, and that division is monotone, so it waits until after
    # the max.
    buffer = np.empty(n * min(count, _SCAN_CHUNK))
    best = -math.inf
    for lo in range(0, count, _SCAN_CHUNK):
        columns = directions[:, lo:lo + _SCAN_CHUNK]
        block = np.matmul(data, columns, out=buffer[:n * columns.shape[1]].reshape(n, -1))
        best = max(best, float(np.abs(block, out=block).sum(axis=0).max()))
    return best / n


# --------------------------------------------------------------------------
# Calibrated tests


def _statistic(test: str):
    """The statistic function of ``test``, read from the module at call time
    so that a rebound module attribute is the one called."""
    if test == THRESHOLD_TEST:
        return threshold_statistic
    if test == SCAN_TEST:
        return scan_statistic
    raise InvalidInputError(f"unknown test {test!r}")


@functools.lru_cache(maxsize=64, typed=True)
def null_quantile(test: str, n: int, d: int, k: int, epsilon: float, alpha: float,
                  draws: int = NULL_DRAWS, seed: int = 0) -> float:
    """Upper alpha-quantile of a test statistic under H0, by simulation.

    ``method='higher'`` rounds the empirical quantile up, so the calibrated
    test is level-alpha up to simulation error rather than slightly above.
    The cache is typed, so a boolean seed is checked, not taken for 0 or 1."""
    _check_params(n, d, k, epsilon)
    check_seed(seed)
    if not is_number(alpha) or not 0.0 < alpha < 1.0:
        raise InvalidInputError(f"alpha must be a number strictly between 0 and 1, got {alpha!r}")
    if not is_int(draws) or draws < 100:
        raise InvalidInputError(f"quantile simulation needs an integer >= 100 of draws, "
                                f"got {draws!r}")
    statistic = _statistic(test)
    rng = np.random.default_rng(derive_seed(seed, "null-calibration", test,
                                            n, d, k, epsilon, draws))
    stats = np.empty(draws)
    for i in range(draws):
        stats[i] = statistic(epsilon * rng.standard_normal((n, d)), k)
    return float(np.quantile(stats, 1.0 - alpha, method="higher"))


def run_test(test: str, data, k: int, epsilon: float, alpha: float, *,
             calibration_seed: int = 0) -> bool:
    """Reject H0 when ``test``'s statistic of ``data`` exceeds its simulated
    null quantile."""
    data = np.asarray(data, dtype=np.float64)
    stat = _statistic(test)(data, k)
    q = null_quantile(test, data.shape[0], data.shape[1], k, epsilon,
                      alpha, seed=calibration_seed)
    return stat > q


# --------------------------------------------------------------------------
# Power sweeps


def _check_trials(trials: int) -> None:
    if not is_int(trials) or trials < 1:
        raise InvalidInputError(f"need an integer count >= 1 of trials, got {trials!r}")


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion: integer counts,
    0 <= successes <= trials and trials >= 1."""
    _check_trials(trials)
    if not is_int(successes) or not 0 <= successes <= trials:
        raise InvalidInputError(f"successes must be an integer in [0, {trials}], "
                                f"got {successes!r}")
    phat, z = successes / trials, _WILSON_Z
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)) / denom
    # The extreme counts have exact endpoints; the formula only misses them
    # by round-off.
    lo = 0.0 if successes == 0 else max(center - half, 0.0)
    hi = 1.0 if successes == trials else min(center + half, 1.0)
    return lo, hi


def rejection_rate(test: str, hypothesis: str, n: int, d: int, k: int,
                   epsilon: float, alpha: float, trials: int, seed) -> tuple[int, int]:
    """Count rejections over independent instances; returns (rejections, trials)."""
    check_seed(seed)
    _check_trials(trials)
    rejections = 0
    for t in range(trials):
        inst = sample_instance(n, d, k, epsilon, hypothesis,
                               derive_seed(seed, "trial", test, hypothesis, n, t))
        if run_test(test, inst.data, k, epsilon, alpha, calibration_seed=seed):
            rejections += 1
    return rejections, trials


@dataclass(frozen=True)
class PowerPoint:
    """One grid cell of a power sweep."""

    test: str
    n: int
    d: int
    k: int
    epsilon: float
    alpha: float
    power: float
    ci_lo: float
    ci_hi: float

    def to_row(self) -> list:
        return [getattr(self, name) for name in POWER_CSV_HEADER]


POWER_CSV_HEADER = [f.name for f in fields(PowerPoint)]


def power_point(test: str, n: int, d: int, k: int, epsilon: float, alpha: float,
                trials: int, seed) -> PowerPoint:
    """Monte-Carlo power of one test at one sample size, with its Wilson 95%
    confidence interval: one cell of a power curve. ``tokenmark experiment``
    maps it over a sparse-power grid."""
    hits, total = rejection_rate(test, HA, n, d, k, epsilon, alpha, trials, seed)
    lo, hi = wilson_interval(hits, total)
    return PowerPoint(test=test, n=n, d=d, k=k, epsilon=epsilon, alpha=alpha,
                      power=hits / total, ci_lo=lo, ci_hi=hi)

