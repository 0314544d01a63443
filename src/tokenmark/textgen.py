"""Toy autoregressive token sources with closed-form per-step laws.

Real language models are deliberately out of scope: these sources exist so
that every hypothesis a guarantee depends on (top-token probability per
step, entropy of the source) is computable exactly instead of estimated.
Generation works with or without a watermark key and records the per-step
top probability ``p*_j`` alongside the tokens, which is what the
completeness condition is checked against.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import keystream
from .closed_scheme import rank_order, watermark_ranked
from .core import (array_field, as_probs, field, is_int, is_number, read_json, sample_tokens,
                   softmax, softmax_rows, validate_tokens)
from .detector import closed_threshold
from .errors import CorruptTextError, InvalidInputError
from .keystream import CLOSED, OPEN, WatermarkKey
from .open_scheme import perturbations_for

IID = "iid"
MARKOV = "markov"
POWERLAW = "powerlaw-logits"
UNWATERMARKED = "none"

# Key material the generation loop derives at a time, in bytes at 8 B per
# (step, token) entry, an open Gaussian's width: a chunk is as many steps as
# fit, and at least one. Live are the chunk in use (open: its cached
# Gaussians and the perturbations' copy; closed: 1 B colorings and signs)
# and, while the next chunk is derived, that one plus a block of steps'
# words (128 KiB, or one step's at larger d) and their work arrays: about
# three budgets open and under half of one closed, for any text length.
_CHUNK_BYTES = 2 << 20
# Prepared state laws the generation loop keeps, the most recently used
# ones, in bytes. A prepared state holds at most 16 B per token: its intp
# rank order and a padded copy of its law (closed), or its log law (open).
_PREPARED_BYTES = 8 << 20


@dataclass(frozen=True, eq=False)
class SourceModel:
    """A token source whose next-token law is known in closed form.

    ``iid`` repeats one fixed distribution, ``markov`` follows a
    row-stochastic transition matrix from an initial law, and
    ``powerlaw-logits`` is a fixed logit vector ``l(i) = -s * ln(i + 1)``
    (so probabilities decay like ``(i+1)**-s``). ``laws`` is the source's
    (states, d) table of state laws, built once by the factory functions
    below: one row for a memoryless source; for a Markov source the initial
    law (state 0) followed by the transition rows (state ``token + 1``). A
    power law also keeps the ``logits`` that open sampling perturbs. The
    factories store read-only arrays of their own, so a caller changing its
    input afterwards changes neither the model nor what it generates.
    """

    kind: str
    d: int
    laws: np.ndarray
    logits: np.ndarray | None = None


def iid_source(p) -> SourceModel:
    p = as_probs(p)
    return SourceModel(kind=IID, d=p.size, laws=keystream._freeze(p[None].copy()))


def _check_d(d: int) -> None:
    if not is_int(d) or d < 2:
        raise InvalidInputError(f"dictionary size must be an integer >= 2, got {d!r}")


def uniform_source(d: int) -> SourceModel:
    _check_d(d)
    return iid_source(np.full(d, 1.0 / d))


def markov_source(transition, initial) -> SourceModel:
    transition = np.asarray(transition, dtype=np.float64)
    if transition.ndim != 2 or transition.shape[0] != transition.shape[1]:
        raise InvalidInputError("transition must be a square matrix")
    d = transition.shape[0]
    for row in transition:
        as_probs(row, d)
    return SourceModel(kind=MARKOV, d=d,
                       laws=keystream._freeze(np.vstack([as_probs(initial, d), transition])))


def powerlaw_source(d: int, s: float, scale: float = 1.0) -> SourceModel:
    """Logits ``-scale * s * ln(i + 1)``; token i's probability decays like
    a power law with exponent ``scale * s``."""
    _check_d(d)
    if not (is_number(s) and is_number(scale)) or s < 0 or scale <= 0:
        raise InvalidInputError(f"exponent must be a finite number >= 0 and scale a finite "
                                f"number > 0, got {s!r} and {scale!r}")
    logits = -scale * s * np.log(np.arange(1, d + 1, dtype=np.float64))
    return SourceModel(kind=POWERLAW, d=d, laws=keystream._freeze(softmax(logits)[None]),
                       logits=keystream._freeze(logits))


@dataclass(frozen=True, eq=False)
class GenerationRecord:
    """A generated text plus the exact per-step top-token probabilities."""

    tokens: np.ndarray          # (n,) int64
    per_step_pstar: np.ndarray  # (n,) float64
    scheme: str                 # "closed" | "open" | "none"
    d: int

    def __post_init__(self):
        if self.tokens.shape != self.per_step_pstar.shape:
            raise InvalidInputError("tokens and per_step_pstar lengths differ")
        if self.scheme not in (CLOSED, OPEN, UNWATERMARKED):
            raise InvalidInputError(f"unknown scheme tag {self.scheme!r}")

    @property
    def watermarked(self) -> bool:
        return self.scheme != UNWATERMARKED


# --------------------------------------------------------------------------
# Generation


def _chain_tokens(model: SourceModel, key: WatermarkKey | None, u: np.ndarray,
                  score: bool = False) -> np.ndarray:
    """Tokens from uniforms ``u`` (texts, n), one step at a time. Every text
    starts in state 0; from a Markov source it moves to state ``token + 1``.
    A state's law is prepared for ``key`` when a text enters it:
    rank-ordered for a closed key (after a zero for the padding token of a
    padded one), logits for an open key. An LRU cache keeps the most
    recently used prepared states within ``_PREPARED_BYTES``; a state
    dropped from it is prepared again, to the same arrays, when a text
    re-enters it. Each step computes the (watermarked) law of every state in
    use once and samples that group's uniforms from it. With ``score``, no
    token matrix is kept: a step's tokens are scored against the chunk they
    were sampled from (signed coloring or Gaussian entry) into the column of
    ``u`` they used, and ``u`` is returned."""
    texts, n = u.shape
    markov = model.laws.shape[0] > 1
    closed = key is not None and key.scheme == CLOSED

    @functools.lru_cache(maxsize=max(1, _PREPARED_BYTES // (16 * model.d)))
    def prepare(s):
        law = model.laws[s]
        if closed:
            law = key.pad_law(law)
            return law, rank_order(law)
        if key is not None:
            law = np.log(law) if model.logits is None else model.logits
        return law, None

    tokens = np.empty(texts if score else u.shape, dtype=np.int64)
    states = np.zeros(texts, dtype=np.int64)
    chunk = n if key is None else max(1, _CHUNK_BYTES // (8 * key.d))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        if closed:
            batch = keystream.derive_closed_steps(key, hi - lo, lo)
            scores = batch.colorings * batch.flips[:, None]
        elif key is not None:
            deltas = perturbations_for(key, hi - lo, lo)
            if score:  # the Gaussians perturbations_for just derived, cached
                scores = keystream.derive_open_gaussians(key, hi - lo, lo)
        for j in range(lo, hi):
            step = tokens if score else tokens[:, j]
            groups = (((s, states == s) for s in np.unique(states)) if markov
                      else [(0, slice(None))])
            for s, group in groups:
                law, order = prepare(s)
                if closed:
                    law = watermark_ranked(law, order, scores[j - lo])
                elif key is not None:
                    law = softmax_rows(law + deltas[j - lo])
                step[group] = sample_tokens(law, u[group, j])
            if markov:
                states = step + 1
            if score:
                u[:, j] = scores[j - lo].take(step)
    return u if score else tokens


def _pstar_series(model: SourceModel, tokens: np.ndarray) -> np.ndarray:
    """Exact per-step top probability of the source law (not the watermarked
    one: the guarantees are stated in terms of the model's own entropy)."""
    states = np.zeros(tokens.size, dtype=np.int64)
    if model.laws.shape[0] > 1:
        states[1:] = tokens[:-1] + 1
    return model.laws.max(axis=1)[states]


def generate(model: SourceModel, n: int, key: WatermarkKey | None,
             rng: np.random.Generator) -> GenerationRecord:
    """Sample an n-token text from ``model``, watermarking each step with
    ``key`` if one is given: the one-text case of ``generate_many``, plus
    the per-step top probabilities. Deterministic given the rng state and
    key."""
    tokens = generate_many(model, n, key, 1, rng)[0]
    tokens.flags.writeable = False
    pstar = _pstar_series(model, tokens)
    pstar.flags.writeable = False
    return GenerationRecord(
        tokens=tokens,
        per_step_pstar=pstar,
        scheme=UNWATERMARKED if key is None else key.scheme,
        d=model.d,
    )


def generate_many(model: SourceModel, n: int, key: WatermarkKey | None,
                  texts: int, rng: np.random.Generator) -> np.ndarray:
    """Token matrix (texts, n): independent texts sharing one key.

    Whatever the source and key, the uniforms are one draw
    ``u = rng.random((texts, n))`` and text i takes its tokens from row i,
    so a call equals ``texts`` successive one-text calls on the same rng.
    The per-step watermarked laws of a memoryless source are computed once
    for all texts; this is what makes thousand-text detector sweeps cheap."""
    u = _uniforms(model, n, key, texts, rng)
    if model.laws.shape[0] == 1 and key is None:
        return sample_tokens(model.laws[0], u)
    return _chain_tokens(model, key, u)


def generate_statistics(model: SourceModel, n: int, key: WatermarkKey, texts: int,
                        rng: np.random.Generator) -> np.ndarray:
    """The detector statistics, shape (texts,), of ``generate_many(model, n,
    key, texts, rng)``, bit for bit and with the rng left as it leaves it,
    each step scored as it is sampled: only the uniforms are kept, which the
    scores overwrite. Closed scores are +-1, so a row's float64 sum is
    exact; an open row is reduced as one contiguous row, as in detector."""
    if not isinstance(key, WatermarkKey):
        raise InvalidInputError(f"statistics need a watermark key, got {key!r}")
    return _chain_tokens(model, key, _uniforms(model, n, key, texts, rng), score=True).mean(axis=1)


def _uniforms(model: SourceModel, n: int, key: WatermarkKey | None, texts: int,
              rng: np.random.Generator) -> np.ndarray:
    """The (texts, n) uniforms of a generation call, after checking it."""
    if not (is_int(n) and is_int(texts)):
        raise InvalidInputError(f"n and texts must be integers, got {n!r} and {texts!r}")
    if texts < 1 or n < 1:
        raise InvalidInputError("need at least one text and one step")
    if key is not None:
        keystream.check_key_d(model.d, key)
        if key.scheme == OPEN and model.logits is None and model.laws.min() <= 0:
            raise InvalidInputError("logit-space sampling needs strictly positive state laws")
    return rng.random((texts, n))


def condition_lhs(record: GenerationRecord, delta: float) -> float:
    """Slack in the low-entropy completeness condition: the average of
    ``(1 - p*_j) / 20`` minus the closed detection threshold. Detection of a
    watermarked text is guaranteed (with probability depending on the slack)
    exactly when this is positive."""
    return _condition_slack(record.per_step_pstar, delta)


def _condition_slack(pstar: np.ndarray, delta: float) -> float:
    """``condition_lhs`` of a text with per-step top probabilities ``pstar``."""
    n = pstar.size
    return float(np.sum(1.0 - pstar)) / (20.0 * n) - closed_threshold(n, delta)


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
            return uniform_source(field(obj, "d", is_int))
        if kind == IID:
            return iid_source(array_field(obj, "probs", is_number, np.float64))
        if kind == MARKOV:
            return markov_source(array_field(obj, "transition", is_number, np.float64),
                                 array_field(obj, "initial", is_number, np.float64))
        if kind == POWERLAW:
            return powerlaw_source(field(obj, "d", is_int), field(obj, "s", is_number),
                                   field(obj, "scale", is_number, 1.0))
    except (TypeError, ValueError) as exc:
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
    """Parse a text record. ``d`` and the tokens must be integers, each token
    in [0, d), and the ``pstar`` entries numbers in [0, 1]: booleans, strings
    and fractions are rejected."""
    try:
        d = field(obj, "d", is_int)
        return GenerationRecord(
            tokens=validate_tokens(array_field(obj, "tokens", is_int, np.int64), d),
            per_step_pstar=array_field(obj, "pstar", lambda p: is_number(p) and 0 <= p <= 1,
                                       np.float64),
            scheme=obj["scheme"],
            d=d,
        )
    except (CorruptTextError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"malformed text record: {exc}") from exc


def save_record(record: GenerationRecord, path) -> None:
    Path(path).write_text(json.dumps(record_to_dict(record)) + "\n")


def load_record(path) -> GenerationRecord:
    return record_from_dict(read_json(path, "text record"))


def save_tokens(tokens, path) -> None:
    """Bare interchange format: whitespace-separated token ids, one line."""
    Path(path).write_text(" ".join(str(int(t)) for t in np.asarray(tokens).ravel()) + "\n")


def tokens_from_text(text: str, path) -> np.ndarray:
    """Token ids of ``text``, the contents of the bare token file ``path``."""
    try:
        return np.array([int(tok) for tok in text.split()], dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise InvalidInputError(f"cannot read token file {path}: {exc}") from exc

