"""Key derivation: bit-exactness against an independent scalar reference,
distributional checks, and key-file format round-trips.

The reference implementation below uses only hashlib and math, no numpy, so
it cannot share bugs with the production vectorized path. Integer lanes must
match it exactly; the Gaussian lane is compared at few-ulp tolerance because
vectorized transcendental kernels may differ from libm in the last ulp.
The golden vectors pin key-file version 3, the one version read. Its flip,
support, direction and Gaussian vectors were computed under version 2,
which shares those lanes. None may ever change.
"""

import hashlib
import itertools
import json
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from tokenmark import keystream
from tokenmark.cli import main
from tokenmark.closed_scheme import closed_step
from tokenmark.detector import closed_statistics, detect, open_statistics
from tokenmark.errors import InvalidInputError, InvalidKeyError, SchemeMismatchError
from tokenmark.keystream import (
    CLOSED,
    EPSILON_LIMIT,
    EPSILON_SOFT_CAP,
    FIXED_SUPPORT,
    FRESH_SUPPORT,
    KEY_FILE_VERSION,
    OPEN,
    WatermarkKey,
    closed_token_colors,
    derive_closed_step,
    derive_closed_steps,
    derive_open_gaussians,
    derive_open_step,
    derive_open_steps,
    key_from_dict,
    key_to_dict,
    load_key,
    new_master_seed,
    open_gaussian_entries,
    save_key,
)
from tokenmark.open_scheme import perturbations_for

SEED = bytes(range(32))


# --------------------------------------------------------------------------
# Scalar reference implementation (hashlib + math only)


def ref_words(seed, lane, step, n):
    """Words of SHAKE-256 blocks of 1024 bytes."""
    out = []
    counter = 0
    while len(out) < n:
        data = seed + bytes([lane]) + step.to_bytes(8, "big") + counter.to_bytes(8, "big")
        block = hashlib.shake_256(data).digest(1024)
        out.extend(int.from_bytes(block[i : i + 8], "big") for i in range(0, len(block), 8))
        counter += 1
    return out[:n]


def ref_selection(words):
    """The coloring of one step's words: a sort of the (word, index) pairs,
    +1 for the first half."""
    colors = [-1] * len(words)
    for _, i in sorted(zip(words, range(len(words))))[: len(words) // 2]:
        colors[i] = 1
    return colors


def ref_coloring(seed, step, d):
    return ref_selection(ref_words(seed, 0, step, d))


def ref_sign(seed, lane, step):
    return 1 if ref_words(seed, lane, step, 1)[0] & 1 else -1


def ref_gaussian(seed, step, d, epsilon):
    npairs = (d + 1) // 2
    words = ref_words(seed, 2, step, 2 * npairs)
    out = []
    for m in range(npairs):
        u1 = ((words[2 * m] >> 11) + 1) * 2.0**-53
        u2 = (words[2 * m + 1] >> 11) * 2.0**-53
        radius = math.sqrt(-2.0 * math.log(u1))
        out.append(radius * math.cos(2.0 * math.pi * u2))
        out.append(radius * math.sin(2.0 * math.pi * u2))
    return [epsilon * g for g in out[:d]]


def ref_gaussian_entry(seed, step, t, epsilon):
    """Entry ``t`` of a step's Gaussian vector from the one block that holds
    its pair of words, at any d. Agrees with ``ref_gaussian``."""
    block, first = divmod(2 * (t // 2), 128)
    data = seed + bytes([2]) + step.to_bytes(8, "big") + block.to_bytes(8, "big")
    raw = hashlib.shake_256(data).digest(1024)
    w1, w2 = (int.from_bytes(raw[8 * i : 8 * i + 8], "big") for i in (first, first + 1))
    radius = math.sqrt(-2.0 * math.log(((w1 >> 11) + 1) * 2.0**-53))
    angle = 2.0 * math.pi * ((w2 >> 11) * 2.0**-53)
    return epsilon * (radius * (math.sin(angle) if t % 2 else math.cos(angle)))


def ref_support(seed, step, d, k):
    chosen = set()
    words = ref_words(seed, 3, step, k)
    for t in range(k):
        j = d - k + t
        pos = words[t] % (j + 1)
        chosen.add(j if pos in chosen else pos)
    return sorted(chosen)


# --------------------------------------------------------------------------
# Frozen golden vectors for the all-zeros..31 seed


# Digests are SHA-256 of d = 32768 material: single steps 0, 1 and
# 2**40 + 3 concatenated, and the 65-row batch of steps 5 .. 69. Supports
# (k = 64, fresh per step) are hashed as little-endian int64.
GOLDEN_SINGLE_STEPS_D32768 = (0, 1, 2**40 + 3)
# SHA-256 of the flips (int8) of steps 0 .. 4095, then of steps
# 2**40 + 3 and 2**64 - 1.
GOLDEN_FLIP_DIGEST = "53b51f115d0b698bdcfefefa91ce5a5e66c4018eab907b702e6ade20f034cff7"

# The lanes version 3 shares with version 2, computed from the scalar
# reference before version 3 existed.
GOLDEN_V2_FLIPS = [-1, -1, -1, 1]
GOLDEN_V2_SUPPORT_D4_K2 = [0, 3]
GOLDEN_V2_DIRECTIONS = [-1, -1, 1]
GOLDEN_V2_GAUSSIAN_STEP0 = [0.44925, -0.23029, -0.53911, 0.49121]
GOLDEN_V2_SUPPORT_DIGEST_D32768 = "ed97e491ae7839b04d4b5992b49c53a08550f50de4c78585d2ff6e6c8d39c297"
GOLDEN_V2_SUPPORT_BATCH_DIGEST_D32768 = (
    "aa8608fbcb73ec7ebc5b7e37089e5296da79e570d9155d15ad67921825b4d055")

# Version 3 colorings, computed from the scalar reference.
GOLDEN_V3_COLORINGS_D8 = [
    [-1, -1, 1, -1, -1, 1, 1, 1],
    [1, -1, 1, -1, -1, 1, 1, -1],
    [-1, -1, -1, 1, 1, 1, 1, -1],
    [-1, 1, -1, 1, -1, 1, 1, -1],
]
GOLDEN_V3_SINGLE_DIGEST_D32768 = "7c626694addce1a5d5b15a6714bc9a5f487e4e8b829e5dcca7ce34abc7304651"
GOLDEN_V3_BATCH_DIGEST_D32768 = "e9c8d895379b75ef29cdb4392ec70108491455ce57e8ae3bbf7a425056daa0c4"


def closed_key(d=8):
    return WatermarkKey(master_seed=SEED, d=d, scheme=CLOSED)


def open_key(d=4, epsilon=0.5, k=2, mode=None):
    return WatermarkKey(master_seed=SEED, d=d, scheme=OPEN, epsilon=epsilon, k=k,
                        support_mode=mode)


class TestGoldenVectors:
    def test_colorings(self):
        batch = derive_closed_steps(closed_key(), 4)
        np.testing.assert_array_equal(batch.colorings, GOLDEN_V3_COLORINGS_D8)

    def test_flips(self):
        key = closed_key()
        np.testing.assert_array_equal(derive_closed_steps(key, 4).flips, GOLDEN_V2_FLIPS)
        digest = hashlib.sha256(derive_closed_steps(key, 4096).flips.tobytes())
        for step in (2**40 + 3, 2**64 - 1):
            digest.update(np.int8(derive_closed_step(key, step).flip).tobytes())
        assert digest.hexdigest() == GOLDEN_FLIP_DIGEST

    def test_fixed_support_and_directions(self):
        batch = derive_open_steps(open_key(), 3)
        np.testing.assert_array_equal(batch.supports, [GOLDEN_V2_SUPPORT_D4_K2] * 3)
        np.testing.assert_array_equal(batch.directions, GOLDEN_V2_DIRECTIONS)

    def test_gaussian_step0(self):
        got = derive_open_step(open_key(), 0).gaussian
        np.testing.assert_allclose(got, GOLDEN_V2_GAUSSIAN_STEP0, atol=1e-5)

    def test_support_digests_d32768(self):
        key = open_key(d=32768, epsilon=0.5, k=64, mode=FRESH_SUPPORT)
        supports = derive_open_steps(key, 65, start=5).supports
        for row in (0, 31, 64):
            assert supports[row].tolist() == ref_support(SEED, 5 + row, 32768, 64)
        for step in GOLDEN_SINGLE_STEPS_D32768:
            assert derive_open_step(key, step).support.tolist() == (
                ref_support(SEED, step, 32768, 64))

    def test_v2_support_digests_d32768(self):
        # Digests pinned under version 2 keys: version 3 shares the support
        # lane, so its keys must reproduce them.
        key = open_key(d=32768, epsilon=0.5, k=64, mode=FRESH_SUPPORT)
        digest = hashlib.sha256()
        for step in GOLDEN_SINGLE_STEPS_D32768:
            digest.update(derive_open_step(key, step).support.astype("<i8").tobytes())
        assert digest.hexdigest() == GOLDEN_V2_SUPPORT_DIGEST_D32768
        supports = derive_open_steps(key, 65, start=5).supports
        assert hashlib.sha256(supports.astype("<i8").tobytes()).hexdigest() == (
            GOLDEN_V2_SUPPORT_BATCH_DIGEST_D32768)

    def test_v3_coloring_digests_d32768(self):
        key = closed_key(32768)
        digest = hashlib.sha256()
        for step in GOLDEN_SINGLE_STEPS_D32768:
            digest.update(derive_closed_step(key, step).coloring.tobytes())
        assert digest.hexdigest() == GOLDEN_V3_SINGLE_DIGEST_D32768
        batch = derive_closed_steps(key, 65, start=5)
        assert hashlib.sha256(batch.colorings.tobytes()).hexdigest() == (
            GOLDEN_V3_BATCH_DIGEST_D32768)
        for row in (0, 64):
            assert batch.colorings[row].tolist() == ref_coloring(SEED, 5 + row, 32768)


class TestAgainstScalarReference:
    def test_colorings_exact(self):
        # At d = 1024 a block holds 16 steps: batches end one row short of,
        # at and one row past a block boundary.
        for d, count in ((2, 40), (8, 40), (12, 40), (1024, 63), (1024, 64), (1024, 65)):
            key = closed_key(d)
            batch = derive_closed_steps(key, count)
            for step in range(count):
                assert batch.colorings[step].tolist() == ref_coloring(SEED, step, d), (d, step)
        key = closed_key(32768)
        for step in (0, 2**40 + 3):
            assert derive_closed_step(key, step).coloring.tolist() == ref_coloring(
                SEED, step, 32768)

    def test_flips_exact(self):
        batch = derive_closed_steps(closed_key(), 40)
        assert batch.flips.tolist() == [ref_sign(SEED, 1, s) for s in range(40)]

    def test_directions_exact(self):
        batch = derive_open_steps(open_key(), 40)
        assert batch.directions.tolist() == [ref_sign(SEED, 4, s) for s in range(40)]

    def test_supports_exact_fresh(self):
        for d, k in ((4, 2), (7, 3), (16, 16), (9, 1)):
            key = open_key(d=d, epsilon=0.3, k=k, mode=FRESH_SUPPORT)
            batch = derive_open_steps(key, 40)
            for step in range(40):
                assert batch.supports[step].tolist() == ref_support(SEED, step, d, k), (d, k, step)

    def test_supports_fixed_mode_reuses_step_zero(self):
        key = open_key(d=16, epsilon=0.3, k=5, mode=FIXED_SUPPORT)
        batch = derive_open_steps(key, 40)
        expected = ref_support(SEED, 0, 16, 5)
        for step in range(40):
            assert batch.supports[step].tolist() == expected

    def test_gaussians_few_ulp(self):
        for d in (2, 4, 7, 5):
            key = open_key(d=d, epsilon=0.5, k=1)
            batch = derive_open_steps(key, 40)
            ref = np.array([ref_gaussian(SEED, s, d, 0.5) for s in range(40)])
            np.testing.assert_allclose(batch.gaussians, ref, rtol=1e-13, atol=1e-13)
        key = open_key(d=32768, epsilon=0.5, k=1)
        for step in (0, 2**40 + 3):
            np.testing.assert_allclose(derive_open_step(key, step).gaussian,
                                       ref_gaussian(SEED, step, 32768, 0.5),
                                       rtol=1e-13, atol=1e-13)

    def test_block_boundaries_match_reference(self):
        # Word counts on both sides of the 128-word block boundary.
        for d, count in ((2, 40), (128, 3), (130, 3), (258, 3), (1024, 63), (1024, 65)):
            batch = derive_closed_steps(closed_key(d), count)
            for step in range(count):
                assert batch.colorings[step].tolist() == ref_coloring(SEED, step, d), (d, step)
        key = closed_key(32768)
        for step in (0, 2**40 + 3, 2**64 - 1):
            assert derive_closed_step(key, step).coloring.tolist() == ref_coloring(
                SEED, step, 32768)
        batch = derive_closed_steps(closed_key(), 40, start=2**64 - 40)
        assert batch.flips.tolist() == [ref_sign(SEED, 1, 2**64 - 40 + s) for s in range(40)]
        directions = derive_open_steps(open_key(), 40).directions
        assert directions.tolist() == [ref_sign(SEED, 4, s) for s in range(40)]
        for d, k in ((7, 3), (200, 128), (300, 129)):
            key = open_key(d=d, epsilon=0.3, k=k, mode=FRESH_SUPPORT)
            supports = derive_open_steps(key, 5).supports
            for step in range(5):
                assert supports[step].tolist() == ref_support(SEED, step, d, k), (d, k, step)
        for d in (5, 127, 128, 129, 256, 301):
            gaussians = derive_open_steps(open_key(d=d, epsilon=0.5, k=1), 4).gaussians
            ref = np.array([ref_gaussian(SEED, s, d, 0.5) for s in range(4)])
            np.testing.assert_allclose(gaussians, ref, rtol=1e-13, atol=1e-13)

    def test_v3_matches_reference(self):
        """Single steps, batches and the per-token reader of version 3 keys
        against a sort of the (word, index) pairs."""
        rng = np.random.default_rng(12)
        for d in (4, 6, 8, 10, 1024, 32768):
            key = closed_key(d)
            count, start = (12, 2**40 + 3) if d > 1000 else (40, 0)
            batch = derive_closed_steps(key, count, start)
            tokens = reader_tokens(d, count, rng)
            got = closed_token_colors(key, tokens, start)
            for row in range(count):
                step = start + row
                expected = ref_coloring(SEED, step, d)
                assert batch.colorings[row].tolist() == expected, (d, step)
                assert derive_closed_step(key, step).coloring.tolist() == expected, (d, step)
                assert int(got[row]) == expected[tokens[row]] * ref_sign(SEED, 1, step), (
                    d, step)
        key = closed_key(8)
        assert derive_closed_step(key, 2**64 - 1).coloring.tolist() == ref_coloring(
            SEED, 2**64 - 1, 8)
        # 130 rows at d = 1024 span several selection blocks.
        key = closed_key(1024)
        batch = derive_closed_steps(key, 130, 7)
        for row in range(130):
            np.testing.assert_array_equal(batch.colorings[row],
                                          derive_closed_step(key, 7 + row).coloring)
        block = keystream._BLOCK_WORDS // 1024
        assert 1 < block < 130
        for row in (block - 1, block, 129):
            assert batch.colorings[row].tolist() == ref_coloring(SEED, 7 + row, 1024)

    def test_v3_ties_break_by_token_index(self, monkeypatch):
        """Equal words, which hashing makes vanishingly rare, rank by token
        index in the batch rule and in the per-token reader alike. Odd steps
        here get words in {0, 1, 2}, so a batch mixes tied and untied rows."""
        real = keystream._word_matrix

        def tied_odd_steps(key, lane, start, count, nwords):
            words = real(key, lane, start, count, nwords)
            if lane == keystream.LANE_COLORING:
                words[(start + np.arange(count)) % 2 == 1] %= np.uint64(3)
            return words

        def expected(step, d):
            words = ref_words(SEED, 0, step, d)
            return ref_selection([w % 3 for w in words] if step % 2 else words)

        monkeypatch.setattr(keystream, "_word_matrix", tied_odd_steps)
        for d in (2, 4, 10, 64, 1024):
            key = closed_key(d)
            batch = derive_closed_steps.__wrapped__(key, 6)  # bypass the cache
            for step in range(6):
                assert batch.colorings[step].tolist() == expected(step, d), (d, step)
                assert [keystream._select_color(key, step, t) for t in range(d)] == (
                    expected(step, d)), (d, step)
            tokens = np.arange(6) * 7 % d
            np.testing.assert_array_equal(closed_token_colors(key, tokens),
                                          batch.colorings[np.arange(6), tokens] * batch.flips)

    def test_odd_d_truncates_final_pair(self):
        # d=5 and d=6 consume the same word budget; the first five entries of
        # the step key must coincide and the sixth must simply be dropped.
        g5 = derive_open_step(open_key(d=5, k=2), 0).gaussian
        g6 = derive_open_step(open_key(d=6, k=2), 0).gaussian
        assert g5.shape == (5,)
        np.testing.assert_array_equal(g5, g6[:5])


class TestDerivationProperties:
    def test_repeat_calls_identical(self):
        a = derive_closed_step(closed_key(), 17)
        b = derive_closed_step(closed_key(), 17)
        np.testing.assert_array_equal(a.coloring, b.coloring)
        assert a.flip == b.flip

    def test_single_matches_batch_row(self):
        # One block of 70 steps against the same steps one at a time.
        key = closed_key(16)
        batch = derive_closed_steps(key, 70, start=7)
        for offset in range(70):
            single = derive_closed_step(key, 7 + offset)
            np.testing.assert_array_equal(batch.colorings[offset], single.coloring)
            assert int(batch.flips[offset]) == single.flip

    def test_batches_span_blocks(self):
        """Batches from a step past 0 that span two blocks of steps: every
        row equals single-step derivation and the scalar reference, and
        every scored entry the per-token reader."""
        rng = np.random.default_rng(6)
        for d in (10, 1024, 32768):
            key = closed_key(d)
            start, count = 9, keystream._BLOCK_WORDS // d + 2
            batch = derive_closed_steps(key, count, start)
            for row in range(count):
                expected = ref_coloring(SEED, start + row, d)
                assert batch.colorings[row].tolist() == expected, (d, row)
                np.testing.assert_array_equal(
                    derive_closed_step(key, start + row).coloring, batch.colorings[row])
            tokens = rng.integers(0, d, count)
            np.testing.assert_array_equal(
                closed_token_colors(key, tokens, start),
                batch.colorings[np.arange(count), tokens] * batch.flips)

    def test_open_single_matches_batch_row(self):
        key = open_key(d=10, epsilon=0.4, k=3, mode=FRESH_SUPPORT)
        batch = derive_open_steps(key, 4, start=3)
        for offset in range(4):
            single = derive_open_step(key, 3 + offset)
            np.testing.assert_array_equal(batch.gaussians[offset], single.gaussian)
            np.testing.assert_array_equal(batch.supports[offset], single.support)
            assert int(batch.directions[offset]) == single.direction

    def test_gaussian_lane_shared_with_detector_view(self):
        # The sampler's batch and the detector's view hold the same
        # Gaussians, whichever of the two is derived first.
        key = open_key(d=6, epsilon=0.25, k=2)
        np.testing.assert_array_equal(
            derive_open_gaussians(key, 9), derive_open_steps(key, 9).gaussians
        )
        np.testing.assert_array_equal(derive_open_steps(key, 9, 0).gaussians,
                                      derive_open_gaussians(key, 9, 0))
        np.testing.assert_array_equal(derive_open_gaussians(key, 4, 7),
                                      derive_open_steps(key, 4, 7).gaussians)

    def test_batch_cache_returns_same_object(self):
        key = closed_key()
        assert derive_closed_steps(key, 12) is derive_closed_steps(key, 12)

    def test_derived_arrays_frozen(self):
        step = derive_closed_step(closed_key(), 0)
        with pytest.raises(ValueError):
            step.coloring[0] = 1
        opened = derive_open_step(open_key(), 0)
        with pytest.raises(ValueError):
            opened.gaussian[0] = 0.0

    def test_colorings_balanced(self):
        batch = derive_closed_steps(closed_key(16), 500)
        assert set(np.unique(batch.colorings)) == {-1, 1}
        np.testing.assert_array_equal(batch.colorings.sum(axis=1), np.zeros(500))

    def test_flips_are_signs(self):
        batch = derive_closed_steps(closed_key(), 500)
        assert set(np.unique(batch.flips)) <= {-1, 1}

    def test_supports_sorted_unique_in_range(self):
        key = open_key(d=11, epsilon=0.2, k=4, mode=FRESH_SUPPORT)
        batch = derive_open_steps(key, 300)
        assert batch.supports.shape == (300, 4)
        assert batch.supports.min() >= 0 and batch.supports.max() < 11
        diffs = np.diff(batch.supports, axis=1)
        assert np.all(diffs > 0)

    def test_fresh_supports_vary(self):
        key = open_key(d=8, epsilon=0.2, k=2, mode=FRESH_SUPPORT)
        batch = derive_open_steps(key, 50)
        assert len({tuple(row) for row in batch.supports.tolist()}) > 1

    def test_negative_step_rejected(self):
        with pytest.raises(InvalidInputError):
            derive_closed_step(closed_key(), -1)
        with pytest.raises(InvalidInputError):
            derive_open_steps(open_key(), 4, start=-2)
        # The step field holds 8 bytes; counts must be non-negative.
        last = 2**64 - 1
        with pytest.raises(InvalidInputError):
            closed_step(closed_key(), 2**64, np.full(8, 1 / 8), np.random.default_rng(0))
        with pytest.raises(InvalidInputError):
            derive_open_step(open_key(), 2**64)
        with pytest.raises(InvalidInputError):
            derive_closed_steps(closed_key(), -1)
        with pytest.raises(InvalidInputError):
            derive_open_gaussians(open_key(), -3)
        with pytest.raises(InvalidInputError):
            derive_closed_steps(closed_key(), 2, start=last)
        with pytest.raises(InvalidInputError):
            derive_open_steps(open_key(), 1, start=2**64)
        key = closed_key()
        assert derive_closed_step(key, last).coloring.tolist() == ref_coloring(SEED, last, 8)
        assert derive_closed_steps(key, 1, start=last).flips.tolist() == [
            ref_sign(SEED, 1, last)]

    def test_scheme_mismatch(self):
        with pytest.raises(SchemeMismatchError):
            derive_closed_step(open_key(), 0)
        with pytest.raises(SchemeMismatchError):
            derive_open_step(closed_key(), 0)
        with pytest.raises(SchemeMismatchError):
            derive_open_gaussians(closed_key(), 3)


def reader_tokens(d, n, rng):
    """Edge tokens (those that exist), then random ones. 127 and 128 sit on
    either side of the first block boundary of the Gaussian lane;
    d-128 and d-129 make the coloring reader hash exactly one whole block
    and just over one."""
    edge = {0, 1, 127, 128, d // 2 - 1, d // 2, d - 129, d - 128, d - 1}
    edge = sorted(edge & set(range(d)))
    return np.array(edge + rng.integers(0, d, n - len(edge)).tolist())


def unblocked_gaussians(key, start, count):
    """The Gaussian lane of ``count`` steps as one Box-Muller over all their
    words, scaled by epsilon after the odd-d sine entry is dropped."""
    npairs = (key.d + 1) // 2
    words = keystream._word_matrix(key, keystream.LANE_GAUSSIAN, start, count, 2 * npairs)
    out = np.empty((count, 2 * npairs))
    out[:, 0::2], out[:, 1::2] = keystream._box_muller(words[:, 0::2], words[:, 1::2])
    return key.epsilon * out[:, :key.d]


class TestGaussianBlocks:
    """The Gaussian lane is hashed and transformed a block of steps at a
    time, bit for bit the one Box-Muller of all the steps' words."""

    @pytest.mark.parametrize("d", [5, 8, 513, 1024, 32768])
    @pytest.mark.parametrize("block_words", [16, 100, keystream._BLOCK_WORDS])
    def test_blocks_equal_unblocked(self, monkeypatch, d, block_words):
        monkeypatch.setattr(keystream, "_BLOCK_WORDS", block_words)
        key = open_key(d=d, epsilon=0.3, k=1)
        rows = max(1, block_words // (d + d % 2))
        count = min(3 * rows + 1, 9)  # a partial last block where rows < 3
        got = keystream._gaussian_matrix(key, 11, count)
        assert got.shape == (count, d)
        expected = unblocked_gaussians(key, 11, count)
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))
        tokens = np.random.default_rng(d).integers(0, d, count)
        np.testing.assert_array_equal(open_gaussian_entries(key, tokens, 11),
                                      got[np.arange(count), tokens])

    @pytest.mark.parametrize("d, count", [(4096, 64), (1023, 100), (32768, 4)])
    def test_memory_near_output(self, d, count):
        """Past its 8 B per entry output, the lane holds one block's words
        and Box-Muller work arrays. The unblocked lane peaked at 40 B per
        entry."""
        key = open_key(d=d, epsilon=0.5, k=2)
        tracemalloc.start()
        try:
            keystream._gaussian_matrix(key, 3, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = 8 * max(keystream._BLOCK_WORDS, d + 1)
        assert peak < 8 * count * d + 8 * block, (
            f"peaked at {peak / (count * d):.1f} B per entry")


class TestTokenReaders:
    """The per-token readers return exactly the batch material's entries."""

    STARTS = (0, 2**40 + 3)

    def cases(self, sizes):
        rng = np.random.default_rng(11)
        for d in sizes:
            n = 40 if d < 1000 else 12
            for start in self.STARTS + (2**64 - n,):
                yield d, n, start, reader_tokens(d, n, rng)

    def test_closed_matches_batch_and_reference(self):
        for d, n, start, tokens in self.cases((2, 8192, 32768)):
            key = closed_key(d)
            got = closed_token_colors(key, tokens, start)
            batch = derive_closed_steps(key, n, start)
            steps = np.arange(n)
            assert got.dtype == np.int8 and got.shape == (n,)
            np.testing.assert_array_equal(got, batch.colorings[steps, tokens] * batch.flips)
            score = batch.colorings[steps, tokens].astype(np.float64) * batch.flips
            assert detect(key, tokens, start=start).statistic == float(score.mean())
            for j in range(0, n, 3 if d > 1000 else 1):
                step = start + j
                expected = ref_coloring(SEED, step, d)[tokens[j]] * ref_sign(SEED, 1, step)
                assert int(got[j]) == expected, (d, step)

    def test_open_matches_batch_and_reference(self):
        for d, n, start, tokens in self.cases((2, 5, 8192, 32768)):
            key = open_key(d=d, epsilon=0.3, k=1)
            got = open_gaussian_entries(key, tokens, start)
            gaussians = derive_open_gaussians(key, n, start)
            entries = gaussians[np.arange(n), tokens]
            assert got.shape == (n,)
            np.testing.assert_array_equal(got.view(np.uint64), entries.view(np.uint64))
            assert detect(key, tokens, start=start).statistic == float(entries.mean())
            for j in range(0, n, 3 if d > 1000 else 1):
                ref = ref_gaussian(SEED, start + j, d, 0.3)[tokens[j]]
                assert got[j] == pytest.approx(ref, rel=1e-13, abs=1e-13), (d, start + j)

    def test_odd_d_final_token(self):
        # d = 5: token 4 is the cosine half of the truncated last pair.
        key = open_key(d=5, epsilon=0.3, k=1)
        tokens = np.full(6, 4)
        expected = derive_open_gaussians(key, 6)[:, 4]
        np.testing.assert_array_equal(open_gaussian_entries(key, tokens), expected)

    def test_step_range_and_scheme_checked(self):
        tokens = np.array([0, 1, 2])
        for start in (2**64 - 2, 2**64, -1):
            with pytest.raises(InvalidInputError):
                closed_token_colors(closed_key(), tokens, start)
            with pytest.raises(InvalidInputError):
                open_gaussian_entries(open_key(), tokens, start)
            with pytest.raises(InvalidInputError):
                detect(closed_key(), tokens, start=start)
            with pytest.raises(InvalidInputError):
                detect(open_key(), tokens, start=start)
        with pytest.raises(SchemeMismatchError):
            closed_token_colors(open_key(), tokens)
        with pytest.raises(SchemeMismatchError):
            open_gaussian_entries(closed_key(), tokens)

    def test_numpy_step_indices(self):
        # A numpy start is checked and used as a Python int: the step range
        # cannot wrap past 2**64 (or 2**63) in the caller's integer type.
        with pytest.raises(InvalidInputError):
            keystream._check_step(np.uint64(2**64 - 1), 2)
        with pytest.raises(InvalidInputError):
            closed_token_colors(closed_key(), [1, 2], np.uint64(2**64 - 1))
        start = 2**63 - 1
        tokens = np.array([1, 2])
        ckey, okey = closed_key(), open_key()
        calls = [
            lambda s: derive_closed_step(ckey, s).coloring,
            lambda s: derive_closed_steps(ckey, 2, s).colorings,
            lambda s: derive_closed_steps(ckey, 2, s).flips,
            lambda s: derive_open_step(okey, s).gaussian,
            lambda s: derive_open_steps(okey, 2, s).gaussians,
            lambda s: derive_open_gaussians(okey, 2, s),
            lambda s: closed_token_colors(ckey, tokens, s),
            lambda s: open_gaussian_entries(okey, tokens, s),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                np.testing.assert_array_equal(call(np.int64(start)), call(start))


def time_and_peak(fn):
    """Wall time of one call, and the tracemalloc peak of a second call."""
    start = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return elapsed, peak


class TestRuntime:
    def test_open_detect_bounded_d262144(self):
        """Open detection at d = 2**18 reads one hash block per token: 2000
        tokens in under 1 s and 4 MB, where whole rows would need 4.2 GB."""
        d = 2**18
        key = open_key(d=d, epsilon=0.5, k=1)
        tokens = np.random.default_rng(3).integers(0, d, 2000)
        elapsed, peak = time_and_peak(lambda: detect(key, tokens))
        assert elapsed < 1.0, f"open detection took {elapsed:.2f}s >= 1s"
        assert peak < 4 * 2**20, f"open detection peaked at {peak / 2**20:.1f} MB >= 4 MB"

    def test_closed_detect_bounded_d32768(self):
        """Closed detection at d = 32768 holds one step's words at a time:
        64 tokens in under 2.5 s and 8 MB."""
        d = 32768
        key = closed_key(d)
        tokens = np.random.default_rng(4).integers(0, d, 64)
        elapsed, peak = time_and_peak(lambda: detect(key, tokens))
        assert elapsed < 2.5, f"closed detection took {elapsed:.2f}s >= 2.5s"
        assert peak < 8 * 2**20, f"closed detection peaked at {peak / 2**20:.1f} MB >= 8 MB"

    def test_closed_step_ceiling_d32768(self):
        """20 single-step colorings at d = 32768 finish within 2 s."""
        key = closed_key(32768)
        start = time.perf_counter()
        for step in range(20):
            derive_closed_step(key, step)
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"20 closed steps took {elapsed:.2f}s >= 2s"


def traced_peak(call):
    """tracemalloc peak of ``call()``, and what it returned or the
    InvalidKeyError it raised."""
    tracemalloc.start()
    try:
        try:
            outcome = call()
        except InvalidKeyError as exc:
            outcome = exc
        return tracemalloc.get_traced_memory()[1], outcome
    finally:
        tracemalloc.stop()


class TestHugeDictionary:
    """Key material no array can hold is refused with InvalidKeyError before
    anything of size d is allocated or hashed. Each (count, d) derivation
    allocated its output first, so these ended in numpy's bare ValueError
    ("array is too big", "Maximum allowed dimension exceeded") or a
    MemoryError."""

    @pytest.mark.parametrize("log2_d", [62, 70])
    def test_every_batch_entry_point_refuses(self, log2_d):
        d = 2**log2_d
        closed = closed_key(d)
        fixed = open_key(d=d, epsilon=0.5, k=3)
        fresh = open_key(d=d, epsilon=0.5, k=3, mode=FRESH_SUPPORT)
        matrix = np.zeros((2, 3), dtype=np.int64)
        calls = {
            "derive_closed_step": lambda: derive_closed_step(closed, 5),
            "derive_closed_steps": lambda: derive_closed_steps(closed, 2, 7),
            "closed_statistics": lambda: closed_statistics(closed, matrix),
            "derive_open_step": lambda: derive_open_step(fixed, 5),
            "derive_open_step fresh": lambda: derive_open_step(fresh, 5),
            "perturbations_for": lambda: perturbations_for(fixed, 2, 7),
            "perturbations_for fresh": lambda: perturbations_for(fresh, 2, 7),
            "derive_open_steps": lambda: derive_open_steps(fixed, 2, 7),
            "derive_open_gaussians": lambda: derive_open_gaussians(fixed, 2, 7),
            "open_statistics": lambda: open_statistics(fixed, matrix),
            "fixed support": lambda: keystream._fixed_support(fixed),
        }
        for name, call in calls.items():
            peak, outcome = traced_peak(call)
            assert isinstance(outcome, InvalidKeyError), f"{name}: {outcome!r}"
            assert f"d={d} is too large to derive" in str(outcome), name
            assert peak < 1 << 20, f"{name} peaked at {peak} B"

    @pytest.mark.parametrize("log2_d", [62, 70])
    def test_open_detection_reads_one_block_per_token(self, log2_d):
        # Scoring reads each token's Gaussian pair, so an open key at such
        # a d still detects, in memory that does not grow with d.
        d = 2**log2_d
        key = open_key(d=d, epsilon=0.5, k=3)
        tokens = [0, min(d, 2**63) - 1, 12345, 2**40 + 1]  # int64 tokens
        peak, report = traced_peak(lambda: detect(key, tokens, start=2**40))
        assert report.n_tokens == 4, report
        assert peak < 1 << 20, f"peaked at {peak} B"
        assert ([ref_gaussian_entry(SEED, 2**40, t, 0.5) for t in range(300)]
                == ref_gaussian(SEED, 2**40, 300, 0.5))
        expected = [ref_gaussian_entry(SEED, 2**40 + j, t, 0.5) for j, t in enumerate(tokens)]
        np.testing.assert_allclose(open_gaussian_entries(key, tokens, 2**40), expected,
                                   rtol=1e-14)


class TestDistributions:
    def test_coloring_flip_pairs_uniform(self):
        # d=4 has C(4,2)=6 balanced colorings; with the flip that is 12
        # equally likely (coloring, flip) pairs.
        key = closed_key(4)
        batch = derive_closed_steps(key, 20_000)
        pairs = {}
        for coloring, flip in zip(batch.colorings.tolist(), batch.flips.tolist()):
            pair = (tuple(coloring), flip)
            pairs[pair] = pairs.get(pair, 0) + 1
        assert len(pairs) == 12
        freqs = np.array(list(pairs.values())) / 20_000
        assert np.all(np.abs(freqs - 1 / 12) < 0.012)

    def test_independent_coloring_positions(self):
        # Marginal of each coordinate is +-1 with probability 1/2.
        batch = derive_closed_steps(closed_key(8), 20_000)
        marginals = (batch.colorings == 1).mean(axis=0)
        assert np.all(np.abs(marginals - 0.5) < 0.015)

    @pytest.mark.filterwarnings("ignore:epsilon=")
    def test_gaussian_lane_normality(self):
        epsilon = 0.7
        key = open_key(d=4, epsilon=epsilon, k=1)
        flat = derive_open_gaussians(key, 4000).ravel()
        assert abs(flat.mean()) < 4 * epsilon / math.sqrt(flat.size)
        assert abs(flat.std() - epsilon) < 0.02
        assert stats.kstest(flat, "norm", args=(0.0, epsilon)).pvalue > 1e-3

    @pytest.mark.filterwarnings("ignore:epsilon=")
    def test_gaussian_scale_is_exact_multiplier(self):
        # epsilon=0.5 scaling is a power of two, hence bit-exact against the
        # unit-scale lane.
        unit = derive_open_gaussians(open_key(d=6, epsilon=1.0, k=1), 20)
        half = derive_open_gaussians(open_key(d=6, epsilon=0.5, k=1), 20)
        np.testing.assert_array_equal(half, 0.5 * unit)

    def test_support_subsets_uniform(self):
        # d=5, k=2 has 10 subsets; fresh-per-step draws should hit each with
        # frequency 1/10.
        key = open_key(d=5, epsilon=0.2, k=2, mode=FRESH_SUPPORT)
        batch = derive_open_steps(key, 20_000)
        counts = {}
        for row in batch.supports.tolist():
            counts[tuple(row)] = counts.get(tuple(row), 0) + 1
        assert len(counts) == 10
        freqs = np.array(list(counts.values())) / 20_000
        assert np.all(np.abs(freqs - 0.1) < 0.012)

    def test_v3_selection_law_exact(self):
        """Every ordering of d distinct words, fed to the version 3 row rule,
        gives each balanced coloring equally often: d!/C(d, d/2) times. So
        independent uniform words (distinct but with probability below
        d**2 / 2**65) give a uniform balanced coloring."""
        for d in (4, 6, 8):
            orderings = np.array(list(itertools.permutations(range(d))), dtype=np.uint64)
            counts = {}
            for coloring in map(tuple, keystream._select_rows(orderings).tolist()):
                counts[coloring] = counts.get(coloring, 0) + 1
            balanced = {c for c in itertools.product((1, -1), repeat=d) if sum(c) == 0}
            assert set(counts) == balanced
            assert set(counts.values()) == {math.factorial(d) // math.comb(d, d // 2)}

    def test_signs_balanced(self):
        batch = derive_closed_steps(closed_key(), 20_000)
        assert abs((batch.flips == 1).mean() - 0.5) < 0.015


class TestKeyValidation:
    def test_closed_requires_even_d(self):
        with pytest.raises(InvalidKeyError):
            WatermarkKey(master_seed=SEED, d=7, scheme=CLOSED)

    def test_closed_rejects_open_parameters(self):
        for kwargs in ({"epsilon": 0.5}, {"k": 2}, {"support_mode": FIXED_SUPPORT}):
            with pytest.raises(InvalidKeyError):
                WatermarkKey(master_seed=SEED, d=8, scheme=CLOSED, **kwargs)

    def test_open_requires_epsilon_and_k(self):
        with pytest.raises(InvalidKeyError):
            WatermarkKey(master_seed=SEED, d=8, scheme=OPEN, k=2)
        with pytest.raises(InvalidKeyError):
            WatermarkKey(master_seed=SEED, d=8, scheme=OPEN, epsilon=0.5)
        with pytest.raises(InvalidKeyError):
            WatermarkKey(master_seed=SEED, d=8, scheme=OPEN, epsilon=-0.1, k=2)

    def test_open_k_range(self):
        with pytest.raises(InvalidKeyError):
            WatermarkKey(master_seed=SEED, d=8, scheme=OPEN, epsilon=0.5, k=0)
        with pytest.raises(InvalidKeyError):
            WatermarkKey(master_seed=SEED, d=8, scheme=OPEN, epsilon=0.5, k=9)
        WatermarkKey(master_seed=SEED, d=8, scheme=OPEN, epsilon=0.5, k=8)

    def test_open_defaults_to_fixed_support(self):
        key = WatermarkKey(master_seed=SEED, d=8, scheme=OPEN, epsilon=0.5, k=2)
        assert key.support_mode == FIXED_SUPPORT

    def test_unknown_scheme_and_mode(self):
        with pytest.raises(InvalidKeyError):
            WatermarkKey(master_seed=SEED, d=8, scheme="hybrid")
        with pytest.raises(InvalidKeyError):
            WatermarkKey(master_seed=SEED, d=8, scheme=OPEN, epsilon=0.5, k=2, support_mode="daily")

    def test_seed_length(self):
        with pytest.raises(InvalidKeyError):
            WatermarkKey(master_seed=b"short", d=8, scheme=CLOSED)

    def test_seed_bytearray_refused(self):
        # A bytearray seed constructed, then the first batch derivation
        # failed with TypeError: unhashable type: 'bytearray'.
        with pytest.raises(InvalidKeyError, match="master seed"):
            WatermarkKey(master_seed=bytearray(SEED), d=8, scheme=CLOSED)

    def test_seed_str_refused(self):
        # A 32-character str constructed and failed at the first derivation.
        with pytest.raises(InvalidKeyError, match="master seed"):
            WatermarkKey(master_seed="k" * 32, d=8, scheme=CLOSED)

    def test_padded_string_refused(self):
        # padded="yes" constructed and ended in a bare TypeError in detect.
        with pytest.raises(InvalidKeyError, match="padded must be a boolean"):
            WatermarkKey(master_seed=SEED, d=8, scheme=CLOSED, padded="yes")

    def test_padded_int_refused(self):
        # padded=1 passed as True.
        with pytest.raises(InvalidKeyError, match="padded must be a boolean"):
            WatermarkKey(master_seed=SEED, d=8, scheme=CLOSED, padded=1)

    def test_dictionary_size_and_pad_law(self):
        law = np.full(7, 1 / 7)
        padded = WatermarkKey(master_seed=SEED, d=8, scheme=CLOSED, padded=True)
        assert padded.dictionary_size == 7
        assert padded.pad_law(law).tolist() == law.tolist() + [0.0]
        plain = WatermarkKey(master_seed=SEED, d=8, scheme=CLOSED)
        assert plain.dictionary_size == 8
        assert plain.pad_law(law) is law
        keystream.check_key_d(7, padded)
        with pytest.raises(SchemeMismatchError, match="key is for d=7, not d=8"):
            keystream.check_key_d(8, padded)

    def test_minimum_dictionary(self):
        with pytest.raises(InvalidKeyError):
            WatermarkKey(master_seed=SEED, d=1, scheme=OPEN, epsilon=0.5, k=1)

    def test_d_and_k_must_be_integers(self):
        # d = 4.0, k = 2.5 and k = True were accepted, and save_key then
        # wrote a file that load_key rejects.
        for d in (4.0, 8.5, True, "8", None):
            with pytest.raises(InvalidKeyError):
                WatermarkKey(master_seed=SEED, d=d, scheme=CLOSED)
            with pytest.raises(InvalidKeyError):
                WatermarkKey(master_seed=SEED, d=d, scheme=OPEN, epsilon=0.5, k=1)
        for k in (2.5, 2.0, True, "2"):
            with pytest.raises(InvalidKeyError):
                WatermarkKey(master_seed=SEED, d=8, scheme=OPEN, epsilon=0.5, k=k)

    def test_numpy_parameters_are_stored_as_python_numbers(self):
        key = WatermarkKey(master_seed=SEED, d=np.int64(8), scheme=OPEN,
                           epsilon=np.float32(0.25), k=np.int32(2))
        assert (type(key.d), type(key.k), type(key.epsilon)) == (int, int, float)
        assert (key.d, key.k, key.epsilon) == (8, 2, float(np.float32(0.25)))
        assert type(WatermarkKey(master_seed=SEED, d=np.uint16(8), scheme=CLOSED).d) is int

    def test_padded_only_for_closed(self):
        with pytest.raises(InvalidKeyError):
            WatermarkKey(master_seed=SEED, d=8, scheme=OPEN, epsilon=0.5, k=2, padded=True)

    def test_padded_key_needs_d_at_least_4(self):
        # A padded d = 2 key pads a one-token dictionary, which no model has.
        with pytest.raises(InvalidKeyError, match="d >= 4"):
            WatermarkKey(master_seed=SEED, d=2, scheme=CLOSED, padded=True)
        obj = key_to_dict(WatermarkKey(master_seed=SEED, d=4, scheme=CLOSED, padded=True))
        with pytest.raises(InvalidKeyError, match="d >= 4"):
            key_from_dict({**obj, "d": 2})
        assert WatermarkKey(master_seed=SEED, d=2, scheme=CLOSED).d == 2

    def test_epsilon_soft_cap_warns(self):
        with pytest.warns(UserWarning):
            open_key(epsilon=EPSILON_SOFT_CAP + 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            open_key(epsilon=EPSILON_SOFT_CAP)

    def test_epsilon_must_keep_key_material_finite(self, tmp_path):
        # epsilon = 1e308 once made a key whose text was sampled from NaN
        # laws and whose statistic was NaN.
        for epsilon in (1e308, 2.0**1000, EPSILON_LIMIT):
            with pytest.raises(InvalidKeyError, match="epsilon"):
                open_key(epsilon=epsilon)
            obj = key_to_dict(open_key())
            obj["epsilon"] = epsilon
            with pytest.raises(InvalidKeyError, match="epsilon"):
                key_from_dict(obj)
            path = tmp_path / "key.json"
            path.write_text(json.dumps(obj))
            with pytest.raises(InvalidKeyError, match="epsilon"):
                load_key(path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            key = open_key(d=64, epsilon=np.nextafter(EPSILON_LIMIT, 0), k=4)
        with np.errstate(all="raise"):
            assert np.isfinite(perturbations_for(key, 64)).all()
            tokens = np.arange(64)[None, :] % 64
            assert np.isfinite(open_statistics(key, tokens)).all()

    def test_small_epsilon_key_file_bytes_kept(self, tmp_path):
        for epsilon in (0.5, 0.25, 1e-300):
            path = tmp_path / "key.json"
            save_key(open_key(epsilon=epsilon), path)
            saved = path.read_bytes()
            save_key(load_key(path), path)
            assert path.read_bytes() == saved
            assert json.loads(saved)["epsilon"] == epsilon

    def test_new_master_seed(self):
        a, b = new_master_seed(), new_master_seed()
        assert len(a) == len(b) == 32
        assert a != b


class TestKeyFiles:
    def test_closed_round_trip(self, tmp_path):
        key = closed_key(64)
        path = tmp_path / "closed.json"
        save_key(key, path)
        assert load_key(path) == key

    def test_closed_serializes_nulls(self):
        obj = key_to_dict(closed_key())
        assert obj["version"] == KEY_FILE_VERSION
        assert obj["epsilon"] is None
        assert obj["k"] is None
        assert obj["support_mode"] is None
        assert "padded" not in obj

    def test_open_round_trip(self, tmp_path):
        key = open_key(d=100, epsilon=0.25, k=10, mode=FRESH_SUPPORT)
        path = tmp_path / "open.json"
        save_key(key, path)
        loaded = load_key(path)
        assert loaded == key
        assert loaded.support_mode == FRESH_SUPPORT

    def test_numpy_parameters_round_trip(self, tmp_path):
        # A numpy d or epsilon made save_key raise "not JSON serializable".
        keys = (WatermarkKey(master_seed=SEED, d=np.int64(16), scheme=CLOSED),
                WatermarkKey(master_seed=SEED, d=np.int64(16), scheme=OPEN,
                             epsilon=np.float32(0.3), k=np.int64(3)),
                WatermarkKey(master_seed=SEED, d=np.int32(16), scheme=OPEN,
                             epsilon=np.float64(0.5), k=np.int16(16)))
        for i, key in enumerate(keys):
            path = tmp_path / f"key{i}.json"
            save_key(key, path)
            assert load_key(path) == key

    def test_padded_round_trip(self, tmp_path):
        key = WatermarkKey(master_seed=SEED, d=64, scheme=CLOSED, padded=True)
        assert key_to_dict(key)["padded"] is True
        path = tmp_path / "padded.json"
        save_key(key, path)
        assert load_key(path).padded is True

    def test_unsupported_version(self):
        obj = key_to_dict(closed_key())
        obj["version"] = 99
        with pytest.raises(InvalidKeyError):
            key_from_dict(obj)

    def test_missing_field(self):
        obj = key_to_dict(closed_key())
        del obj["master_seed_base64"]
        with pytest.raises(InvalidKeyError):
            key_from_dict(obj)

    def test_truncated_seed(self):
        obj = key_to_dict(closed_key())
        obj["master_seed_base64"] = obj["master_seed_base64"][:12]
        with pytest.raises(InvalidKeyError):
            key_from_dict(obj)

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all {")
        with pytest.raises(InvalidKeyError):
            load_key(path)
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(InvalidKeyError):
            load_key(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidKeyError):
            load_key(tmp_path / "nope.json")

    def test_version_must_be_a_supported_int(self):
        for version in (True, 1.0, 2.0, "2", 0, 4, None):
            obj = key_to_dict(closed_key())
            obj["version"] = version
            with pytest.raises(InvalidKeyError):
                key_from_dict(obj)
            with pytest.raises(InvalidKeyError):
                WatermarkKey(master_seed=SEED, d=8, scheme=CLOSED, version=version)

    def test_d_must_be_an_int(self):
        for d in (8.7, 8.0, True, "8"):
            obj = key_to_dict(closed_key())
            obj["d"] = d
            with pytest.raises(InvalidKeyError):
                key_from_dict(obj)

    def test_k_must_be_an_int(self):
        for k in (2.5, 2.0, True):
            obj = key_to_dict(open_key())
            obj["k"] = k
            with pytest.raises(InvalidKeyError):
                key_from_dict(obj)

    def test_epsilon_must_be_a_number(self):
        for epsilon in (True, "0.25", float("nan"), [0.25]):
            obj = key_to_dict(open_key())
            obj["epsilon"] = epsilon
            with pytest.raises(InvalidKeyError):
                key_from_dict(obj)

    def test_padded_must_be_a_boolean(self):
        # "no" once loaded as padded=True, and generate then refused the
        # key's own model.
        for padded in ("no", "false", 0, 1, None):
            obj = key_to_dict(closed_key())
            obj["padded"] = padded
            with pytest.raises(InvalidKeyError):
                key_from_dict(obj)
        obj = key_to_dict(closed_key())
        obj["padded"] = False
        assert key_from_dict(obj).padded is False

    def test_seed_base64_is_strict(self):
        obj = key_to_dict(closed_key())
        obj["master_seed_base64"] = "!!!!" + obj["master_seed_base64"]
        with pytest.raises(InvalidKeyError):
            key_from_dict(obj)


# Key files written by the version 1 code, before version 2 existed, and
# the same files as version 2. Both versions are retired.
V1_CLOSED_KEY_FILE = {
    "d": 64, "epsilon": None, "k": None, "scheme": "closed", "support_mode": None,
    "master_seed_base64": "KCkqKywtLi8wMTIzNDU2Nzg5Ojs8PT4/QEFCQ0RFRkc=", "version": 1,
}
V1_OPEN_KEY_FILE = {
    "d": 64, "epsilon": 0.5, "k": 8, "scheme": "open", "support_mode": "fixed-per-key",
    "master_seed_base64": "SElKS0xNTk9QUVJTVFVWV1hZWltcXV5fYGFiY2RlZmc=", "version": 1,
}
RETIRED_KEY_FILES = [{**obj, "version": version} for version in (1, 2)
                     for obj in (V1_CLOSED_KEY_FILE, V1_OPEN_KEY_FILE)]
V1_TOKENS = [(37 * j + 11) % 64 for j in range(48)]


def retired_message(version):
    return f"key file version {version} is retired .*`tokenmark keygen` writes a supported key"


class TestKeyFormatVersions:
    def test_retired_key_files_refused(self, tmp_path):
        for obj in RETIRED_KEY_FILES:
            path = tmp_path / "key.json"
            path.write_text(json.dumps(obj))
            with pytest.raises(InvalidKeyError, match=retired_message(obj["version"])):
                load_key(path)
        for version in (1, 2, np.int64(2)):
            with pytest.raises(InvalidKeyError, match=retired_message(version)):
                WatermarkKey(master_seed=SEED, d=8, scheme=CLOSED, version=version)

    def test_cli_detect_with_v1_key_file(self, tmp_path, capsys):
        # `detect`, and `generate` too, exit 2 on a version 1 or 2 key file
        # with the message and nothing on stdout; `generate` writes no record.
        text, record = tmp_path / "tokens.txt", tmp_path / "text.json"
        text.write_text(" ".join(map(str, V1_TOKENS)) + "\n")
        model = json.dumps({"kind": "uniform", "d": 64})
        for obj in RETIRED_KEY_FILES:
            path = tmp_path / "key.json"
            path.write_text(json.dumps(obj))
            for argv in (["detect", "--text", str(text), "--key", str(path)],
                         ["generate", "--model", model, "--n", "10", "--seed", "1",
                          "--key", str(path), "--out", str(record)]):
                assert main(argv) == 2
                out, err = capsys.readouterr()
                assert out == ""
                assert err.startswith(f"error: key file version {obj['version']} is retired")
                assert "`tokenmark keygen` writes a supported key" in err
            assert not record.exists()

    def test_default_version_is_3(self):
        assert KEY_FILE_VERSION == 3
        assert WatermarkKey(master_seed=SEED, d=8, scheme=CLOSED).version == 3
