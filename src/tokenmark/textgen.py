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
from .closed_scheme import (rank_order, sample_closed_batch, watermark_distributions,
                            watermark_ranked)
from .core import as_probs, is_int, is_number, sample_tokens, softmax, softmax_rows
from .errors import InvalidInputError, SchemeMismatchError
from .keystream import CLOSED, OPEN, WatermarkKey
from .open_scheme import perturbations_for, sample_open_batch

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


def _fixed_law(model: SourceModel, key: WatermarkKey) -> np.ndarray:
    """What a memoryless source gives the key's scheme at every step: its
    logits for an open key, its probabilities (padded as the key needs) for
    a closed one."""
    padded = _check_dims(model, key)
    if key.scheme == OPEN:
        return model.fixed_logits()
    p = model.fixed_probs()
    return np.append(p, 0.0) if padded else p


def _generate_memoryless(model: SourceModel, n: int, key: WatermarkKey | None,
                         rng: np.random.Generator) -> np.ndarray:
    if key is None:
        return sample_tokens(model.fixed_probs(), rng.random(n))
    law = _fixed_law(model, key)
    sample_batch = sample_closed_batch if key.scheme == CLOSED else sample_open_batch
    tokens = np.empty(n, dtype=np.int64)
    for lo in range(0, n, _CHUNK):
        tokens[lo:lo + _CHUNK] = sample_batch(key, law, rng, min(_CHUNK, n - lo), lo)
    return tokens


def _generate_markov(model: SourceModel, n: int, key: WatermarkKey | None,
                     rng: np.random.Generator) -> np.ndarray:
    tokens = np.empty(n, dtype=np.int64)
    uniforms = rng.random(n)
    rows = [model.initial, *model.transition]  # the law after token prev is rows[prev + 1]
    prev = -1

    if key is None:
        for j in range(n):
            tokens[j] = prev = int(sample_tokens(rows[prev + 1], uniforms[j]))
        return tokens

    padded = _check_dims(model, key)
    if key.scheme == CLOSED:
        if padded:
            rows = [np.append(r, 0.0) for r in rows]
        orders = [rank_order(r) for r in rows]  # each state's law is sorted once
        for lo in range(0, n, _CHUNK):
            batch = keystream.derive_closed_steps(key, min(_CHUNK, n - lo), lo)
            for j, signs in enumerate(batch.colorings * batch.flips[:, None]):
                q = watermark_ranked(rows[prev + 1], orders[prev + 1], signs)
                tokens[lo + j] = prev = int(sample_tokens(q, uniforms[lo + j]))
        return tokens

    logits = [np.log(model.initial), *model.row_logits()]
    for lo in range(0, n, _CHUNK):
        for j, delta in enumerate(perturbations_for(key, min(_CHUNK, n - lo), lo)):
            q = softmax_rows(logits[prev + 1] + delta)
            tokens[lo + j] = prev = int(sample_tokens(q, uniforms[lo + j]))
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
        return sample_tokens(model.fixed_probs(), rng.random((texts, n)))

    law = _fixed_law(model, key)
    u = rng.random((texts, n))
    tokens = np.empty((texts, n), dtype=np.int64)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        if key.scheme == CLOSED:
            batch = keystream.derive_closed_steps(key, hi - lo, lo)
            q = watermark_distributions(law, batch.colorings, batch.flips)
        else:
            q = softmax_rows(law + perturbations_for(key, hi - lo, lo))
        for j in range(lo, hi):
            tokens[:, j] = sample_tokens(q[j - lo], u[:, j])
    return tokens


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


def _field(obj: dict, name: str, check, default=None):
    """``obj[name]`` (or ``default`` when absent) after ``check`` accepts it."""
    value = obj[name] if default is None else obj.get(name, default)
    if not check(value):
        raise InvalidInputError(f"{name} has the wrong type: {value!r}")
    return value


def _array_field(obj: dict, name: str, check, dtype) -> np.ndarray:
    """``obj[name]``, a (nested) list, as an array after ``check`` accepts
    every entry; booleans and strings are never silently converted."""
    entries = np.asarray(obj[name], dtype=object)
    if not all(map(check, entries.flat)):
        raise InvalidInputError(f"{name} has an entry of the wrong type")
    return entries.astype(dtype)


def model_from_dict(obj: dict) -> SourceModel:
    """Build a source from its JSON description. Kinds: ``uniform`` (d),
    ``iid`` (probs), ``markov`` (transition, initial), ``powerlaw-logits``
    (d, s, optional scale). ``d`` must be an integer and every other number
    a number: booleans and strings are rejected."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InvalidInputError("model description must be an object with a kind")
    kind = obj["kind"]
    try:
        if kind == "uniform":
            return uniform_source(_field(obj, "d", is_int))
        if kind == IID:
            return iid_source(_array_field(obj, "probs", is_number, np.float64))
        if kind == MARKOV:
            return markov_source(_array_field(obj, "transition", is_number, np.float64),
                                 _array_field(obj, "initial", is_number, np.float64))
        if kind == POWERLAW:
            return powerlaw_source(_field(obj, "d", is_int), _field(obj, "s", is_number),
                                   _field(obj, "scale", is_number, 1.0))
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
    """Parse a text record. ``d`` and the tokens must be integers and the
    ``pstar`` entries numbers: booleans, strings and fractions are rejected."""
    try:
        scheme = obj["scheme"]
        return GenerationRecord(
            tokens=_array_field(obj, "tokens", is_int, np.int64),
            per_step_pstar=_array_field(obj, "pstar", is_number, np.float64),
            watermarked=scheme != UNWATERMARKED,
            scheme=scheme,
            d=_field(obj, "d", is_int),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
