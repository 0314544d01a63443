"""Seeded inputs for the benchmark workloads.

Everything a workload feeds the library comes from here and depends only
on the workload seed: stream logits and sampling streams, stream keys,
the pipeline's model JSON and text schedule, and the sweep config. The
library never sees the seed itself, only what is derived from it.
"""

from __future__ import annotations

import hashlib

import numpy as np

# stream-32k -----------------------------------------------------------------

STREAM_D = 32768
# Logits of the synthetic model are -STREAM_S * ln(rank + 1) under a fresh
# random ranking each step; a flatter law than s = 1 gives the closed
# detector enough per-token signal to flag a text of STREAM_MIN_CYCLES tokens.
STREAM_S = 0.7
# Each request cycle is one closed_step followed by one open_step. Below
# this many cycles the closed stream is too short for the detector check,
# so a run always completes at least this many.
STREAM_MIN_CYCLES = 60
# The open statistic gains about 0.47 standard deviations per sqrt(token)
# at epsilon 0.5, so the open text needs roughly 500 tokens before the
# detector check at DETECT_DELTA is safe. The timed cycles make fewer, so
# the check extends the open text to this length with untimed open_step
# calls on the same stream.
STREAM_OPEN_TEXT = 500
STREAM_EPSILON = 0.5
STREAM_K = 64

CLOSED_STREAM = 0
OPEN_STREAM = 1
CONTROL_STREAM = 2

# False-positive level of every detector check. Controls are flagged with
# probability at most this, so a correct program fails a check about once
# in 10^6 runs; watermarked texts are sized to clear it by > 5 sd.
DETECT_DELTA = 1e-6


def master_seed(seed: int, *labels) -> bytes:
    """A 32-byte key seed for the path ``seed/labels``."""
    text = "/".join(["perfbench", str(seed), *map(str, labels)])
    return hashlib.sha256(text.encode("utf-8")).digest()


class StreamModel:
    """Seeded synthetic next-token model at d = STREAM_D.

    Step ``j`` of stream ``s`` has logits ``base[perm]`` for a permutation
    drawn from ``(seed, s, j)``, so every step ranks the tokens afresh and
    any step can be rebuilt on its own.
    """

    def __init__(self, seed: int, d: int = STREAM_D):
        self.seed = seed
        self.d = d
        self.base = -STREAM_S * np.log(np.arange(1, d + 1, dtype=np.float64))

    def logits(self, stream: int, step: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, stream, step])
        return self.base[rng.permutation(self.d)]

    def rng(self, stream: int, step: int) -> np.random.Generator:
        """The sampling stream the library draws step ``step`` from."""
        return np.random.default_rng([self.seed, 100 + stream, step])


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = np.exp(logits - logits.max())
    return shifted / shifted.sum()


# pipeline-8k ----------------------------------------------------------------

PIPELINE_D = 8192
PIPELINE_EPSILON = 0.5
PIPELINE_K = 64
# One pass of the pipeline: (scheme, watermarked, nominal length). Lengths
# span a few hundred to about 2k tokens; open texts start at 500 because
# shorter ones cannot clear DETECT_DELTA reliably at epsilon 0.5.
PIPELINE_PASS = (
    ("closed", True, 300),
    ("closed", True, 1800),
    ("open", True, 500),
    ("open", True, 900),
    ("closed", False, 350),
    ("open", False, 250),
)


def pipeline_model(seed: int) -> dict:
    """Model JSON for ``tokenmark generate``: a power-law source at d = 8192."""
    rng = np.random.default_rng([seed, 1])
    return {"kind": "powerlaw-logits", "d": PIPELINE_D,
            "s": round(float(rng.uniform(0.95, 1.05)), 6)}


def pipeline_pass(seed: int, index: int) -> list[dict]:
    """The texts of pass ``index``: each gets its own key, a length jittered
    by up to 2% and a generation seed, in a seeded order."""
    rng = np.random.default_rng([seed, 2, index])
    texts = []
    for slot, (scheme, watermarked, nominal) in enumerate(PIPELINE_PASS):
        texts.append({
            "slot": slot,
            "scheme": scheme,
            "watermarked": watermarked,
            "n": int(round(nominal * rng.uniform(0.98, 1.02))),
            "gen_seed": int(rng.integers(0, 2**31)),
        })
    order = rng.permutation(len(texts))
    return [texts[i] for i in order]


# sweep ----------------------------------------------------------------------


def sweep_config(seed: int) -> dict:
    """Experiment config: detector soundness and completeness at d <= 1024
    with thousands of texts per key, plus a sparse-power sweep of both tests
    at two workers. The seed picks the root seed, so keys, texts and Monte
    Carlo draws change with it while the amount of work stays the same."""
    rng = np.random.default_rng([seed, 3])
    return {
        "root_seed": int(rng.integers(0, 2**31)),
        "workers": 2,
        "experiments": [
            {"name": "closed-soundness", "type": "closed-soundness", "d": 512,
             "n": 256, "texts": 10000, "deltas": [0.01, 0.05]},
            {"name": "open-soundness", "type": "open-soundness", "d": 512,
             "n": 256, "texts": 10000, "epsilon": 0.5, "k": 8,
             "deltas": [0.01, 0.05]},
            {"name": "closed-completeness", "type": "closed-completeness",
             "d": 1024, "n_grid": [64, 128, 256], "texts": 5000, "delta": 0.05},
            {"name": "open-completeness", "type": "open-completeness", "d": 1024,
             "n_grid": [64, 128, 256], "texts": 5000, "delta": 0.05,
             "epsilon": 0.5, "k": 16},
            {"name": "sparse-power", "type": "sparse-power", "d": 24, "k": 3,
             "epsilon": 0.5, "alpha": 0.05, "n_grid": [16, 32, 64],
             "trials": 40, "tests": ["scan", "threshold"]},
        ],
    }


def sweep_work(config: dict) -> dict:
    """Texts, and tokens per text set, of the detector experiments in a
    config; each of those tokens is sampled once and scored once."""
    texts = tokens = 0
    for exp in config["experiments"]:
        lengths = [exp["n"]] if "n" in exp else exp.get("n_grid", [])
        if exp["type"] != "sparse-power":
            texts += exp["texts"] * len(lengths)
            tokens += exp["texts"] * sum(lengths)
    return {"texts": texts, "tokens": tokens}
