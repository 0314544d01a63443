"""Watermark detectors: correlation statistics, thresholds, p-values.

Both detectors score a token sequence by correlating it with re-derived
per-step key material and compare the mean against a threshold calibrated
so that unwatermarked text is flagged with probability at most delta. The
closed bound is sub-Gaussian (the per-step scores live in [-1, 1]); the
open statistic is exactly Gaussian under the null, so its p-value is an
equality rather than a bound.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import keystream
from .core import field, is_int, is_number, validate_token_matrix, validate_tokens
from .errors import InvalidInputError
from .keystream import CLOSED, OPEN, WatermarkKey


@dataclass(frozen=True)
class DetectionReport:
    """Outcome of scoring one token sequence against one key.

    ``verdict`` is exactly the rule ``statistic >= threshold``; the p-value
    is extra reporting and never changes the decision."""

    scheme: str
    n_tokens: int
    statistic: float
    threshold: float
    delta: float
    p_value: float
    verdict: bool

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "DetectionReport":
        """Parse a report as strictly as a key file: a known scheme, a
        positive integer token count, finite scores with delta in (0, 1) and
        p_value in [0, 1], and the boolean verdict ``statistic >= threshold``."""
        try:
            scores = {name: field(obj, name, is_number)
                      for name in ("statistic", "threshold", "delta", "p_value")}
            report = cls(scheme=field(obj, "scheme", lambda v: v in (CLOSED, OPEN)),
                         n_tokens=field(obj, "n_tokens", is_int),
                         verdict=field(obj, "verdict", lambda v: isinstance(v, bool)), **scores)
        except (InvalidInputError, TypeError) as exc:
            raise InvalidInputError(f"malformed detection report: {exc}") from exc
        for name, ok in (("n_tokens", report.n_tokens >= 1),
                         ("delta", 0.0 < report.delta < 1.0),
                         ("p_value", 0.0 <= report.p_value <= 1.0)):
            if not ok:
                raise InvalidInputError(f"malformed detection report: {name} is out of range: "
                                        f"{getattr(report, name)!r}")
        if report.verdict != (report.statistic >= report.threshold):
            raise InvalidInputError(f"malformed detection report: verdict {report.verdict} is "
                                    "not statistic >= threshold")
        return report


# Every delta is above this: then 1/delta, and so each threshold, is finite.
DELTA_MIN = 2.0 ** -1024


def _check_delta(delta: float) -> None:
    if not is_number(delta) or not DELTA_MIN < delta < 1.0:
        raise InvalidInputError(f"delta must be a number in (2**-1024, 1), got {delta!r}")


def _check_n(n: int) -> None:
    if not is_int(n) or n < 1:
        raise InvalidInputError(f"need an integer count >= 1 of tokens to score, got {n!r}")


def _check_epsilon(epsilon: float) -> None:
    if not is_number(epsilon) or epsilon <= 0:
        raise InvalidInputError(f"epsilon must be a finite number > 0, got {epsilon!r}")


def _check_z(z: float) -> None:
    if not is_number(z):
        raise InvalidInputError(f"statistic must be a finite number, got {z!r}")


def closed_threshold(n: int, delta: float) -> float:
    """Decision threshold sqrt(2 ln(1/delta) / n) for the closed statistic."""
    _check_n(n)
    _check_delta(delta)
    return math.sqrt(2.0 * math.log(1.0 / delta) / n)


def open_threshold(n: int, delta: float, epsilon: float) -> float:
    """Decision threshold epsilon * sqrt(2 ln(1/delta) / n) for the open
    statistic."""
    _check_epsilon(epsilon)
    return epsilon * closed_threshold(n, delta)


def closed_p_value(z: float, n: int) -> float:
    """Sub-Gaussian tail bound exp(-n * max(z, 0)^2 / 2) on falsely reaching
    score z with unwatermarked text: 0.0, its limit, where z**2 overflows."""
    _check_z(z)
    _check_n(n)
    try:
        square = max(z, 0.0) ** 2
    except OverflowError:
        return 0.0
    return math.exp(-n * square / 2.0)


def open_p_value(z: float, n: int, epsilon: float) -> float:
    """Exact null tail probability of the open statistic: under the null the
    mean of n i.i.d. N(0, epsilon^2) scores is N(0, epsilon^2/n)."""
    _check_z(z)
    _check_n(n)
    _check_epsilon(epsilon)
    return 0.5 * math.erfc(math.sqrt(n) * max(z, 0.0) / (epsilon * math.sqrt(2.0)))


def threshold(key: WatermarkKey, n: int, delta: float) -> float:
    """The decision threshold of ``key``'s scheme for n scored tokens."""
    if key.scheme == CLOSED:
        return closed_threshold(n, delta)
    return open_threshold(n, delta, key.epsilon)


# --------------------------------------------------------------------------
# End-to-end detection against a key


def detect(key: WatermarkKey, tokens, delta: float = 0.05,
           start: int = 0) -> DetectionReport:
    """Score ``tokens`` (generated from step ``start`` onward) against
    ``key``: the mean per-step score, each token's coloring entry times the
    step's flip (closed) or its Gaussian entry (open), against the key's
    threshold. A padded closed key's last token is never sampled, so it is
    refused as out of range."""
    tokens = validate_tokens(tokens, key.dictionary_size)
    n = tokens.size
    t = threshold(key, n, delta)
    scores = (keystream.closed_token_colors if key.scheme == CLOSED
              else keystream.open_gaussian_entries)(key, tokens, start)
    z = float(scores.mean())  # float64, exact for the closed +-1 sums
    p_value = closed_p_value(z, n) if key.scheme == CLOSED else open_p_value(z, n, key.epsilon)
    return DetectionReport(scheme=key.scheme, n_tokens=n, statistic=z, threshold=t,
                           delta=delta, p_value=p_value, verdict=z >= t)


# --------------------------------------------------------------------------
# Batched scoring for sweeps: many same-length texts against one key


# Texts the batched statistics gather and average at a time, in bytes of
# float64 scores.
_SCORE_BLOCK_BYTES = 1 << 20


def _row_means(table: np.ndarray, token_matrix: np.ndarray, signs=None) -> np.ndarray:
    """Each row's mean over steps j of ``table[j, token]`` (times ``signs[j]``
    if given), gathered a block of ``_SCORE_BLOCK_BYTES`` of rows at a time."""
    m, n = token_matrix.shape
    steps = np.arange(n)
    rows = max(1, _SCORE_BLOCK_BYTES // (8 * n))
    z = np.empty(m)
    for lo in range(0, m, rows):
        scores = table[steps, token_matrix[lo:lo + rows]]
        if signs is not None:
            scores *= signs
        z[lo:lo + rows] = scores.mean(axis=1)
    return z


def closed_statistics(key: WatermarkKey, token_matrix: np.ndarray,
                      start: int = 0) -> np.ndarray:
    """Closed statistic per row of an (m, n) token matrix, one derivation.
    The scores are +-1, so each row's float64 sum is an exact integer. As
    in ``detect``, a padded key's last token is out of range."""
    token_matrix = validate_token_matrix(token_matrix, key.dictionary_size)
    batch = keystream.derive_closed_steps(key, token_matrix.shape[1], start)
    return _row_means(batch.colorings, token_matrix, batch.flips)


def open_statistics(key: WatermarkKey, token_matrix: np.ndarray,
                    start: int = 0) -> np.ndarray:
    """Open statistic per row of an (m, n) token matrix, one derivation."""
    token_matrix = validate_token_matrix(token_matrix, key.d)
    return _row_means(keystream.derive_open_gaussians(key, token_matrix.shape[1], start),
                      token_matrix)
