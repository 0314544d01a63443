"""Toy autoregressive token sources with closed-form per-step laws.

Real language models are deliberately out of scope: these sources exist so
that every hypothesis a guarantee depends on (top-token probability per
step, entropy of the source) is computable exactly instead of estimated.
Generation works with or without a watermark key and records the per-step
top probability ``p*_j`` alongside the tokens, which is what the
completeness condition is checked against.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import keystream
from .closed_scheme import watermark_distributions
from .core import as_probs, sample_rows, softmax, softmax_rows
from .errors import InvalidInputError, SchemeMismatchError
from .keystream import CLOSED, OPEN, WatermarkKey
from .open_scheme import perturbations_for

IID = "iid"
MARKOV = "markov"
POWERLAW = "powerlaw-logits"
UNWATERMARKED = "none"

# Steps per derivation/sampling block in the memoryless fast paths; bounds
# peak memory at ~chunk * d doubles regardless of text length.
_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class SourceModel:
    """A token source whose next-token law is known in closed form.

    ``iid`` repeats one fixed distribution, ``markov`` follows a
    row-stochastic transition matrix from an initial law, and
    ``powerlaw-logits`` is a fixed logit vector ``l(i) = -s * ln(i + 1)``
    (so probabilities decay like ``(i+1)**-s``). Build via the factory
    functions below rather than directly.
    """

    kind: str
    d: int
    probs: np.ndarray | None = None
    transition: np.ndarray | None = None
    initial: np.ndarray | None = None
    logits: np.ndarray | None = None

    @property
    def memoryless(self) -> bool:
        return self.kind != MARKOV

    def fixed_probs(self) -> np.ndarray:
        """The single per-step distribution of a memoryless source."""
        if self.kind == IID:
            return self.probs
        if self.kind == POWERLAW:
            return softmax(self.logits)
        raise InvalidInputError("markov sources have no fixed per-step law")

    def fixed_logits(self) -> np.ndarray:
        """Logits of a memoryless source; iid sources must be strictly
        positive for this to exist."""
        if self.kind == POWERLAW:
            return self.logits
        if self.kind == IID:
            if (self.probs <= 0).any():
                raise InvalidInputError("logit-space sampling needs strictly positive probabilities")
            return np.log(self.probs)
        raise InvalidInputError("markov sources have no fixed logits")

    def row_logits(self) -> np.ndarray:
        """Per-state logits (d, d) of a markov source, rows log(transition)."""
        if self.kind != MARKOV:
            raise InvalidInputError("row_logits applies to markov sources")
        if (self.transition <= 0).any() or (self.initial <= 0).any():
            raise InvalidInputError("logit-space sampling needs strictly positive rows")
        return np.log(self.transition)


def iid_source(p) -> SourceModel:
    p = as_probs(p)
    return SourceModel(kind=IID, d=p.size, probs=p)


def uniform_source(d: int) -> SourceModel:
    if d < 2:
        raise InvalidInputError("need at least two tokens")
    return iid_source(np.full(d, 1.0 / d))


def markov_source(transition, initial) -> SourceModel:
    transition = np.asarray(transition, dtype=np.float64)
    if transition.ndim != 2 or transition.shape[0] != transition.shape[1]:
        raise InvalidInputError("transition must be a square matrix")
    d = transition.shape[0]
    for row in transition:
        as_probs(row, d)
    initial = as_probs(initial, d)
    return SourceModel(kind=MARKOV, d=d, transition=transition, initial=initial)


def powerlaw_source(d: int, s: float, scale: float = 1.0) -> SourceModel:
    """Logits ``-scale * s * ln(i + 1)``; token i's probability decays like
    a power law with exponent ``scale * s``."""
    if d < 2:
        raise InvalidInputError("need at least two tokens")
    if s < 0 or scale <= 0:
        raise InvalidInputError("exponent must be >= 0 and scale positive")
    logits = -scale * s * np.log(np.arange(1, d + 1, dtype=np.float64))
    return SourceModel(kind=POWERLAW, d=d, logits=logits)


@dataclass(frozen=True, eq=False)
class GenerationRecord:
    """A generated text plus the exact per-step top-token probabilities."""

    tokens: np.ndarray          # (n,) int64
    per_step_pstar: np.ndarray  # (n,) float64
    watermarked: bool
    scheme: str                 # "closed" | "open" | "none"
    d: int

    def __post_init__(self):
        if self.tokens.shape != self.per_step_pstar.shape:
            raise InvalidInputError("tokens and per_step_pstar lengths differ")
        if self.scheme not in (CLOSED, OPEN, UNWATERMARKED):
            raise InvalidInputError(f"unknown scheme tag {self.scheme!r}")


# --------------------------------------------------------------------------
# Generation


def _check_dims(model: SourceModel, key: WatermarkKey) -> bool:
    """Whether the key matches the model's dictionary; True if the closed key
    expects one padding token on top of the model's d."""
    if key.scheme == CLOSED and key.padded:
        if key.d != model.d + 1:
            raise SchemeMismatchError("padded key size must be model size + 1")
        return True
    if key.d != model.d:
        raise SchemeMismatchError(f"key is for d={key.d}, model has d={model.d}")
    return False


def _sample_fixed(p: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws from one distribution, never returning zero-probability
    tokens."""
    support = np.flatnonzero(p > 0)
    cdf = np.cumsum(p[support])
    u = rng.random(n)
    idx = np.minimum(np.searchsorted(cdf, u, side="right"), support.size - 1)
    return support[idx].astype(np.int64)


def _generate_memoryless(model: SourceModel, n: int, key: WatermarkKey | None,
                         rng: np.random.Generator) -> np.ndarray:
    if key is None:
        return _sample_fixed(model.fixed_probs(), n, rng)
    padded = _check_dims(model, key)
    if key.scheme == CLOSED:
        p = model.fixed_probs()
        if padded:
            p = np.append(p, 0.0)
        tokens = np.empty(n, dtype=np.int64)
        for lo in range(0, n, _CHUNK):
            hi = min(lo + _CHUNK, n)
            batch = keystream.derive_closed_steps(key, hi - lo, lo)
            q = watermark_distributions(p, batch.colorings, batch.flips)
            tokens[lo:hi] = sample_rows(q, rng)
        return tokens
    logits = model.fixed_logits()
    tokens = np.empty(n, dtype=np.int64)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        q = softmax_rows(logits + perturbations_for(key, hi - lo, lo))
        tokens[lo:hi] = sample_rows(q, rng)
    return tokens


def _generate_markov(model: SourceModel, n: int, key: WatermarkKey | None,
                     rng: np.random.Generator) -> np.ndarray:
    d = model.d
    tokens = np.empty(n, dtype=np.int64)
    uniforms = rng.random(n)

    if key is None:
        sup_cdf = []
        for r in [model.initial, *model.transition]:
            sup = np.flatnonzero(r > 0)
            sup_cdf.append((sup, np.cumsum(r[sup])))
        prev = -1
        for j in range(n):
            sup, cdf = sup_cdf[prev + 1]
            i = min(int(np.searchsorted(cdf, uniforms[j], side="right")), sup.size - 1)
            tokens[j] = prev = int(sup[i])
        return tokens

    padded = _check_dims(model, key)
    if key.scheme == CLOSED:
        # Per-row sort orders are fixed, so precompute them and do each
        # step's pairing in rank space where it is a handful of O(d) ops.
        rows = [model.initial] + [model.transition[s] for s in range(d)]
        if padded:
            rows = [np.append(r, 0.0) for r in rows]
        dk = key.d
        orders = [np.argsort(-r, kind="stable") for r in rows]
        sorted_rows = [r[o] for r, o in zip(rows, orders)]
        eps_sorted = np.empty(dk)
        prev = -1  # index 0 of `rows` is the initial law
        for lo in range(0, n, _CHUNK):
            batch = keystream.derive_closed_steps(key, min(_CHUNK, n - lo), lo)
            for j in range(batch.colorings.shape[0]):
                order = orders[prev + 1]
                ps = sorted_rows[prev + 1]
                cs = batch.colorings[j][order]
                pos = np.flatnonzero(cs == 1)
                neg = np.flatnonzero(cs == -1)
                pairmin = ps[np.maximum(pos, neg)]
                eps_sorted[pos] = pairmin
                eps_sorted[neg] = pairmin
                q = ps + (batch.flips[j] * eps_sorted) * cs
                cdf = np.cumsum(q)
                i = min(int(np.searchsorted(cdf, uniforms[lo + j] * cdf[-1],
                                            side="right")), dk - 1)
                while q[i] <= 0.0:
                    i -= 1
                prev = int(order[i])
                tokens[lo + j] = prev
        return tokens

    row_logits = model.row_logits()
    init_logits = np.log(model.initial)
    prev = -1
    for lo in range(0, n, _CHUNK):
        deltas = perturbations_for(key, min(_CHUNK, n - lo), lo)
        for j in range(deltas.shape[0]):
            logits = init_logits if prev < 0 else row_logits[prev]
            q = softmax(logits + deltas[j])
            cdf = np.cumsum(q)
            i = min(int(np.searchsorted(cdf, uniforms[lo + j] * cdf[-1],
                                        side="right")), d - 1)
            while q[i] <= 0.0:
                i -= 1
            prev = i
            tokens[lo + j] = prev
    return tokens


def _pstar_series(model: SourceModel, tokens: np.ndarray) -> np.ndarray:
    """Exact per-step top probability of the source law (not the watermarked
    one: the guarantees are stated in terms of the model's own entropy)."""
    n = tokens.size
    if model.memoryless:
        return np.full(n, model.fixed_probs().max())
    row_max = model.transition.max(axis=1)
    out = np.empty(n)
    out[0] = model.initial.max()
    out[1:] = row_max[tokens[:-1]]
    return out


def generate(model: SourceModel, n: int, key: WatermarkKey | None,
             rng: np.random.Generator) -> GenerationRecord:
    """Sample an n-token text from ``model``, watermarking each step with
    ``key`` if one is given. Deterministic given the rng state and key."""
    if n < 1:
        raise InvalidInputError("text length must be at least 1")
    if model.memoryless:
        tokens = _generate_memoryless(model, n, key, rng)
    else:
        tokens = _generate_markov(model, n, key, rng)
    tokens.flags.writeable = False
    pstar = _pstar_series(model, tokens)
    pstar.flags.writeable = False
    return GenerationRecord(
        tokens=tokens,
        per_step_pstar=pstar,
        watermarked=key is not None,
        scheme=UNWATERMARKED if key is None else key.scheme,
        d=model.d,
    )


def _sample_rows_many(q: np.ndarray, u: np.ndarray) -> None:
    """Fill ``u`` (texts, steps) in place with token draws: column j of the
    output samples distribution ``q[j]``. ``u`` holds uniforms on entry."""
    cdf = np.cumsum(q, axis=1)
    last = cdf[:, -1]
    d = q.shape[1]
    for j in range(q.shape[0]):
        # (1 - u) * total lies in (0, total], and side='left' then lands on
        # an atom of positive width, so zero-probability tokens never appear.
        u[:, j] = np.searchsorted(cdf[j], (1.0 - u[:, j]) * last[j], side="left")
        np.minimum(u[:, j], d - 1, out=u[:, j])


def generate_many(model: SourceModel, n: int, key: WatermarkKey | None,
                  texts: int, rng: np.random.Generator) -> np.ndarray:
    """Token matrix (texts, n): independent texts sharing one key.

    For a memoryless source all texts draw from the same per-step
    watermarked distributions, so those are computed once; this is what
    makes thousand-text detector sweeps cheap. Markov sources fall back to
    per-text generation."""
    if texts < 1 or n < 1:
        raise InvalidInputError("need at least one text and one step")
    if not model.memoryless:
        return np.stack([generate(model, n, key, rng).tokens for _ in range(texts)])
    if key is None:
        return _sample_fixed(model.fixed_probs(), texts * n, rng).reshape(texts, n)

    padded = _check_dims(model, key)
    out = rng.random((texts, n))
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        if key.scheme == CLOSED:
            p = model.fixed_probs()
            if padded:
                p = np.append(p, 0.0)
            batch = keystream.derive_closed_steps(key, hi - lo, lo)
            q = watermark_distributions(p, batch.colorings, batch.flips)
        else:
            q = softmax_rows(model.fixed_logits() + perturbations_for(key, hi - lo, lo))
        _sample_rows_many(q, out[:, lo:hi])
    return out.astype(np.int64)


def condition_lhs(record: GenerationRecord, delta: float) -> float:
    """Slack in the low-entropy completeness condition: the average of
    ``(1 - p*_j) / 20`` minus the detection threshold. Detection of a
    watermarked text is guaranteed (with probability depending on the slack)
    exactly when this is positive."""
    if not 0.0 < delta < 1.0:
        raise InvalidInputError("delta must lie strictly between 0 and 1")
    n = record.tokens.size
    if n < 1:
        raise InvalidInputError("record is empty")
    lhs = float(np.sum(1.0 - record.per_step_pstar)) / (20.0 * n)
    return lhs - math.sqrt(2.0 * math.log(1.0 / delta) / n)


def model_from_dict(obj: dict) -> SourceModel:
    """Build a source from its JSON description. Kinds: ``uniform`` (d),
    ``iid`` (probs), ``markov`` (transition, initial), ``powerlaw-logits``
    (d, s, optional scale)."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InvalidInputError("model description must be an object with a kind")
    kind = obj["kind"]
    try:
        if kind == "uniform":
            return uniform_source(int(obj["d"]))
        if kind == IID:
            return iid_source(obj["probs"])
        if kind == MARKOV:
            return markov_source(obj["transition"], obj["initial"])
        if kind == POWERLAW:
            return powerlaw_source(int(obj["d"]), float(obj["s"]),
                                   float(obj.get("scale", 1.0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed model description: {exc}") from exc
    raise InvalidInputError(f"unknown model kind {kind!r}")


# --------------------------------------------------------------------------
# Text files


def record_to_dict(record: GenerationRecord) -> dict:
    return {
        "d": record.d,
        "scheme": record.scheme,
        "tokens": [int(t) for t in record.tokens],
        "pstar": [float(p) for p in record.per_step_pstar],
    }


def record_from_dict(obj: dict) -> GenerationRecord:
    try:
        scheme = obj["scheme"]
        return GenerationRecord(
            tokens=np.asarray(obj["tokens"], dtype=np.int64),
            per_step_pstar=np.asarray(obj["pstar"], dtype=np.float64),
            watermarked=scheme != UNWATERMARKED,
            scheme=scheme,
            d=int(obj["d"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed text record: {exc}") from exc


def save_record(record: GenerationRecord, path) -> None:
    Path(path).write_text(json.dumps(record_to_dict(record)) + "\n")


def load_record(path) -> GenerationRecord:
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInputError(f"cannot read text record {path}: {exc}") from exc
    return record_from_dict(obj)


def save_tokens(tokens, path) -> None:
    """Bare interchange format: whitespace-separated token ids, one line."""
    Path(path).write_text(" ".join(str(int(t)) for t in np.asarray(tokens).ravel()) + "\n")


def load_tokens(path) -> np.ndarray:
    try:
        text = Path(path).read_text()
        return np.array([int(tok) for tok in text.split()], dtype=np.int64)
    except (OSError, ValueError) as exc:
        raise InvalidInputError(f"cannot read token file {path}: {exc}") from exc
