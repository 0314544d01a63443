"""Golden token streams: SHA-256 digests of what the samplers draw.

Every sampling path draws through one categorical sampler and, for the
closed scheme, one pairing kernel. These digests pin the token streams of
the single-step samplers at d = 32768 and of the generation paths whose
streams did not change when those paths were merged; a refactor of the
sampler or the kernels must keep every one of them.
"""

import hashlib

import numpy as np

from tokenmark.closed_scheme import closed_step
from tokenmark.keystream import CLOSED, OPEN, WatermarkKey
from tokenmark.open_scheme import open_step
from tokenmark.textgen import (generate, generate_many, iid_source, markov_source,
                               powerlaw_source)

SEED = bytes(range(32))
D = 32768
STEPS = [0, 1, 4097, 2**40 + 3]
P9 = np.array([0.25, 0.2, 0.15, 0.0, 0.12, 0.1, 0.1, 0.05, 0.03])


def digest(tokens):
    return hashlib.sha256(np.asarray(tokens, dtype=np.int64).tobytes()).hexdigest()


def large_inputs():
    """A power law at d = 32768 under a seeded permutation, an eighth of it
    zeroed, and power-law logits under another permutation."""
    rng = np.random.default_rng(404)
    logits = -0.7 * np.log(np.arange(1, D + 1))
    p = np.exp(logits[rng.permutation(D)])
    p[rng.choice(D, D // 8, replace=False)] = 0.0
    return p / p.sum(), logits[rng.permutation(D)]


def test_single_steps_d32768():
    p, logits = large_inputs()
    closed = WatermarkKey(master_seed=SEED, d=D, scheme=CLOSED)
    opened = WatermarkKey(master_seed=SEED, d=D, scheme=OPEN, epsilon=0.3, k=16)
    rng = np.random.default_rng(5)
    tokens = [closed_step(closed, s, p, rng) for s in STEPS for _ in range(6)]
    assert tokens[:6] == [26155, 26199, 17180, 9478, 1326, 12923]
    assert digest(tokens) == "fc0ae80b6ac7a8d1a0c514669a9e234f50b31388f3b40ceaef4c6a6b234221ef"
    rng = np.random.default_rng(6)
    tokens = [open_step(opened, s, logits, rng) for s in STEPS for _ in range(6)]
    assert tokens[:6] == [17725, 11098, 11968, 12114, 32366, 20791]
    assert digest(tokens) == "642d8eacf6b3c5f2b9182aa3cc950e4efeac7bd6cb5b2f4a55e5e49488437a53"


def test_generate_memoryless():
    padded = WatermarkKey(master_seed=SEED, d=10, scheme=CLOSED, padded=True)
    record = generate(iid_source(P9), 3000, padded, np.random.default_rng(7))
    assert digest(record.tokens) == \
        "7840a73fc2aa7416933a33dbe1261e95401be157e61f03c906664f21adcfba93"
    key = WatermarkKey(master_seed=SEED, d=64, scheme=OPEN, epsilon=0.3, k=4)
    record = generate(powerlaw_source(64, 1.1), 3000, key, np.random.default_rng(8))
    assert digest(record.tokens) == \
        "176031ee3ca4982873ba7c74d2da466d6367e9b6f46dc5bf907811162dfd7434"
    record = generate(iid_source(P9), 5000, None, np.random.default_rng(9))
    assert digest(record.tokens) == \
        "90ed2a95fc532fb6eb244364cd3c9a48a1286ac00030f290642aa0caeac9b751"


def test_generate_many_unkeyed():
    tokens = generate_many(iid_source(P9), 300, None, 20, np.random.default_rng(10))
    assert digest(tokens) == "12aadb69290061c24d2ff07facc283976efb5a7c398249d170270dc8c4a4f9e5"


def test_markov_unkeyed():
    base = np.array([0.4, 0.0, 0.2, 0.2, 0.1, 0.05, 0.05, 0.0])
    model = markov_source(np.vstack([np.roll(base, i) for i in range(8)]), np.full(8, 1 / 8))
    record = generate(model, 5000, None, np.random.default_rng(11))
    assert digest(record.tokens) == \
        "063624b833efcb705dd3ee73aa16cfb8b5b673c5e0ba6f0afa685955df7c55b8"
