"""Golden token streams: SHA-256 digests of what the samplers draw.

Every sampling path draws through one categorical sampler and, for the
closed scheme, one pairing kernel, and ``generate`` is the one-text case of
``generate_many``. These digests pin the token streams of the single-step
samplers at d = 32768 and of every generation path: memoryless and Markov,
one text and many, unkeyed, closed, padded closed and open, and texts
longer than one derivation chunk. A refactor of the sampler, the kernels or
the generation loops must keep every one of them.
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
P8 = np.array([0.4, 0.02, 0.25, 0.15, 0.1, 0.05, 0.02, 0.01])
# One step past a derivation chunk of 2**16 steps, and 99 more.
LONG = 65536 + 100

CLOSED8 = WatermarkKey(master_seed=SEED, d=8, scheme=CLOSED)
PADDED8 = WatermarkKey(master_seed=SEED, d=8, scheme=CLOSED, padded=True)
OPEN8 = WatermarkKey(master_seed=SEED, d=8, scheme=OPEN, epsilon=0.4, k=2)


def digest(tokens):
    return hashlib.sha256(np.asarray(tokens, dtype=np.int64).tobytes()).hexdigest()


def circulant(base):
    return np.vstack([np.roll(base, i) for i in range(base.size)])


def markov8():
    return markov_source(circulant(P8), np.full(8, 1 / 8))


def markov7():
    """A d = 7 chain with a zero in every row, for a padded d = 8 key."""
    base = np.array([0.35, 0.0, 0.25, 0.15, 0.12, 0.08, 0.05])
    return markov_source(circulant(base), np.array([0.1, 0.2, 0.3, 0.1, 0.1, 0.1, 0.1]))


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
    assert tokens[:6] == [26513, 26634, 17165, 8912, 1224, 12618]
    assert digest(tokens) == "6dfa48c0a764dacff807b371e0349939ddad95053410a7213c09ba8b1db3fe62"
    rng = np.random.default_rng(6)
    tokens = [open_step(opened, s, logits, rng) for s in STEPS for _ in range(6)]
    assert tokens[:6] == [17725, 11098, 11968, 12114, 32366, 20791]
    assert digest(tokens) == "642d8eacf6b3c5f2b9182aa3cc950e4efeac7bd6cb5b2f4a55e5e49488437a53"


def test_generate_memoryless():
    padded = WatermarkKey(master_seed=SEED, d=10, scheme=CLOSED, padded=True)
    record = generate(iid_source(P9), 3000, padded, np.random.default_rng(7))
    assert digest(record.tokens) == \
        "9f8196a57632b89d1dd5051d6a92cfc8dadaf50855920a2e5d966c8623d4dd68"
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


def test_markov_keyed():
    record = generate(markov8(), 4000, CLOSED8, np.random.default_rng(31))
    assert digest(record.tokens) == \
        "06d23196e2aff656a9e80121ea3de4289caf4efad3078016b4c1b564302a0900"
    record = generate(markov7(), 4000, PADDED8, np.random.default_rng(32))
    assert digest(record.tokens) == \
        "50697348f128f157310927f5352183debe6494f3d05034acd3b6500a1659758a"
    record = generate(markov8(), 4000, OPEN8, np.random.default_rng(33))
    assert digest(record.tokens) == \
        "ce6bd2debc87d767747f6bb61bea5624317f7a21731e3c3be28cc79f6562a6a5"


def test_generate_many_keyed():
    padded = WatermarkKey(master_seed=SEED, d=10, scheme=CLOSED, padded=True)
    tokens = generate_many(iid_source(P9), 500, padded, 7, np.random.default_rng(34))
    assert digest(tokens) == "61645c848b5240b070e8a52e4b28d8f4e2a4ed5120815d2484ebb772a8bd62aa"
    key = WatermarkKey(master_seed=SEED, d=64, scheme=OPEN, epsilon=0.3, k=4)
    tokens = generate_many(powerlaw_source(64, 1.1), 500, key, 7, np.random.default_rng(35))
    assert digest(tokens) == "32d8f009f617bd78fee28c47e142a6dafd36f447492ee85664f321c7416941a7"
    tokens = generate_many(markov8(), 400, CLOSED8, 5, np.random.default_rng(36))
    assert digest(tokens) == "d44241dcedf37c5290ad78daf8d77d5020028ced0ef3a0d2b9a3f54494a45a02"


def test_texts_longer_than_a_chunk():
    record = generate(iid_source(P8), LONG, CLOSED8, np.random.default_rng(37))
    assert digest(record.tokens) == \
        "08c89c8d315134854a47ca1634c13e6f028e95418b6d77252be8692fd7986aba"
    record = generate(powerlaw_source(8, 0.9), LONG, OPEN8, np.random.default_rng(38))
    assert digest(record.tokens) == \
        "fab9bc69b3b89162631002ebc6602ac860a296d84492f84753c76582539848d2"
    tokens = generate_many(iid_source(P8), LONG, CLOSED8, 2, np.random.default_rng(39))
    assert digest(tokens) == "5c20bc8c7a4ba214680a20bd1a6ffe80245a5d4d23e9ad4f62bab3f5276e4ee4"
    record = generate(markov8(), LONG, CLOSED8, np.random.default_rng(40))
    assert digest(record.tokens) == \
        "0a0e9d97150504d9d3af7bef47b4f2ce1ed52cef84c2ee2810abc341ffd09647"


def test_generate_is_the_one_text_case():
    padded = WatermarkKey(master_seed=SEED, d=10, scheme=CLOSED, padded=True)
    opened = WatermarkKey(master_seed=SEED, d=64, scheme=OPEN, epsilon=0.3, k=4)
    for model, key in ((iid_source(P9), padded), (powerlaw_source(64, 1.1), opened),
                       (iid_source(P8), CLOSED8)):
        record = generate(model, 700, key, np.random.default_rng(41))
        rows = generate_many(model, 700, key, 1, np.random.default_rng(41))
        np.testing.assert_array_equal(record.tokens, rows[0])


def test_rows_are_successive_texts():
    # Row i of a many-text call is the text a one-text call draws from the
    # rng's next uniforms, whatever the source and key.
    for model, key in ((markov8(), CLOSED8), (markov7(), PADDED8), (markov8(), OPEN8),
                       (markov8(), None), (iid_source(P8), CLOSED8),
                       (powerlaw_source(8, 0.9), OPEN8)):
        rows = generate_many(model, 300, key, 4, np.random.default_rng(42))
        rng = np.random.default_rng(42)
        for row in rows:
            np.testing.assert_array_equal(row, generate(model, 300, key, rng).tokens)
