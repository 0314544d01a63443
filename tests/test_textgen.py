"""Token sources, keyed generation, the completeness condition, file I/O."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from tokenmark import textgen
from tokenmark.closed_scheme import (closed_step, rank_order, watermark_distribution,
                                     watermark_distributions)
from tokenmark.core import sample_tokens
from tokenmark.detector import closed_statistics, detect, open_statistics
from tokenmark.errors import InvalidInputError, SchemeMismatchError
from tokenmark.keystream import (
    CLOSED,
    FIXED_SUPPORT,
    FRESH_SUPPORT,
    OPEN,
    WatermarkKey,
    derive_closed_steps,
    derive_open_gaussians,
    derive_open_steps,
)
from tokenmark.open_scheme import open_step, perturbations_for, watermarked_softmax
from tokenmark.textgen import (
    GenerationRecord,
    condition_lhs,
    generate,
    generate_many,
    generate_statistics,
    iid_source,
    load_record,
    markov_source,
    model_from_dict,
    powerlaw_source,
    record_from_dict,
    record_to_dict,
    save_record,
    save_tokens,
    tokens_from_text,
    uniform_source,
)

SEED = bytes(range(32))


def closed_key(d):
    return WatermarkKey(master_seed=SEED, d=d, scheme=CLOSED)


def open_key(d, epsilon=0.5, k=2):
    return WatermarkKey(master_seed=SEED, d=d, scheme=OPEN, epsilon=epsilon, k=k)


def circulant_transition(base):
    base = np.asarray(base, dtype=np.float64)
    return np.vstack([np.roll(base, i) for i in range(base.size)])


class TestSources:
    def test_uniform(self):
        model = uniform_source(6)
        np.testing.assert_allclose(model.laws, np.full((1, 6), 1 / 6), atol=0)

    def test_powerlaw_logit_formula(self):
        model = powerlaw_source(5, s=1.5)
        expected = -1.5 * np.log(np.arange(1, 6))
        np.testing.assert_array_equal(model.logits, expected)
        # Probabilities decay like (i+1)^-s.
        p = model.laws[0]
        np.testing.assert_allclose(p[1] / p[0], 2.0**-1.5, rtol=1e-12)

    def test_powerlaw_scale(self):
        a = powerlaw_source(4, s=2.0, scale=0.5)
        b = powerlaw_source(4, s=1.0)
        np.testing.assert_array_equal(a.logits, b.logits)

    def test_markov_validates_rows(self):
        with pytest.raises(InvalidInputError):
            markov_source([[0.5, 0.6], [0.5, 0.5]], [0.5, 0.5])
        with pytest.raises(InvalidInputError):
            markov_source([[0.5, 0.5], [0.5, 0.5]], [0.9, 0.2])
        with pytest.raises(InvalidInputError):
            markov_source(np.ones((2, 3)) / 3, [0.5, 0.5])

    def test_iid_fixed_logits_requires_positive(self):
        with pytest.raises(InvalidInputError):
            generate(iid_source([0.5, 0.5, 0.0]), 5, open_key(3), np.random.default_rng(0))
        # Open sampling of an iid source perturbs its log law: each step's
        # token is drawn from softmax(log p + delta_j).
        key = open_key(2, k=1)
        p = np.array([0.25, 0.75])
        tokens = generate(iid_source(p), 40, key, np.random.default_rng(5)).tokens
        u = np.random.default_rng(5).random(40)
        deltas = perturbations_for(key, 40)
        for j, token in enumerate(tokens):
            assert token == sample_tokens(watermarked_softmax(np.log(p), deltas[j]), u[j])

    def test_markov_has_no_fixed_law(self):
        # A Markov source has d + 1 states: its initial law, then one per token.
        transition = circulant_transition([0.5, 0.3, 0.2])
        model = markov_source(transition, [0.1, 0.1, 0.8])
        np.testing.assert_array_equal(model.laws, np.vstack([[0.1, 0.1, 0.8], transition]))

    def test_factory_validation(self):
        with pytest.raises(InvalidInputError):
            uniform_source(1)
        with pytest.raises(InvalidInputError):
            powerlaw_source(4, s=-1.0)
        with pytest.raises(InvalidInputError):
            powerlaw_source(4, s=1.0, scale=0.0)

    @pytest.mark.parametrize("s, scale", [(True, 1.0), (1.0, True), (math.nan, 1.0),
                                          (math.inf, 1.0), (1.0, math.inf), ("1", 1.0)])
    def test_powerlaw_parameters_must_be_finite_numbers(self, s, scale):
        # powerlaw_source(4, True) once built exponent 1, and an infinite
        # scale raised numpy's RuntimeWarning before it was refused.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError):
                powerlaw_source(4, s, scale)

    @pytest.mark.parametrize("d", [4.5, 4.0, np.float64(4), True, "4", 1, -3])
    def test_dictionary_size_must_be_an_integer(self, d):
        # powerlaw_source(4.5, 1.0) once returned a 4-token model whose d
        # was 4.5, and uniform_source(4.5) ended in numpy's bare TypeError.
        with pytest.raises(InvalidInputError):
            uniform_source(d)
        with pytest.raises(InvalidInputError):
            powerlaw_source(d, 1.0)

    @pytest.mark.parametrize("key", [None, closed_key(2), open_key(2, k=1)])
    def test_iid_source_owns_its_law(self, key):
        # Changing the caller's array afterwards changes neither the model
        # nor the tokens it generates.
        p = np.array([0.7, 0.3])
        model = iid_source(p)
        before = generate(model, 200, key, np.random.default_rng(3)).tokens
        p[:] = [3.0, -2.0]
        np.testing.assert_array_equal(model.laws, [[0.7, 0.3]])
        np.testing.assert_array_equal(
            generate(model, 200, key, np.random.default_rng(3)).tokens, before)

    def test_factory_arrays_are_read_only(self):
        transition = circulant_transition([0.5, 0.3, 0.2])
        initial = np.array([0.1, 0.1, 0.8])
        markov = markov_source(transition, initial)
        transition[0] = initial[0] = 0.0
        np.testing.assert_array_equal(markov.laws[:2], [[0.1, 0.1, 0.8], [0.5, 0.3, 0.2]])
        power = powerlaw_source(4, s=1.0)
        for arr in (iid_source([0.5, 0.5]).laws, uniform_source(4).laws, markov.laws,
                    power.laws, power.logits):
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestModelFromDict:
    def test_all_kinds(self):
        assert model_from_dict({"kind": "uniform", "d": 8}).d == 8
        assert model_from_dict({"kind": "iid", "probs": [0.5, 0.5]}).kind == "iid"
        markov = model_from_dict(
            {"kind": "markov", "transition": [[0.5, 0.5], [0.5, 0.5]], "initial": [1.0, 0.0]}
        )
        assert markov.laws.shape == (3, 2)
        power = model_from_dict({"kind": "powerlaw-logits", "d": 16, "s": 1.2})
        assert power.d == 16

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            model_from_dict({"kind": "lstm"})
        with pytest.raises(InvalidInputError):
            model_from_dict({"d": 8})

    def test_missing_field(self):
        with pytest.raises(InvalidInputError):
            model_from_dict({"kind": "iid"})

    def test_field_types_are_strict(self):
        # Each of these once loaded: d = 8.7 as 8, "16" as 16, s = true as 1.
        for obj in (
            {"kind": "uniform", "d": 8.7},
            {"kind": "uniform", "d": True},
            {"kind": "powerlaw-logits", "d": 8.7, "s": 1.0},
            {"kind": "powerlaw-logits", "d": "16", "s": 1.0},
            {"kind": "powerlaw-logits", "d": 16, "s": True},
            {"kind": "powerlaw-logits", "d": 16, "s": "1.2"},
            {"kind": "powerlaw-logits", "d": 16, "s": 1.2, "scale": "2"},
            {"kind": "powerlaw-logits", "d": 16, "s": 1.2, "scale": True},
            {"kind": "iid", "probs": [True, False]},
            {"kind": "iid", "probs": ["0.5", "0.5"]},
            {"kind": "markov", "transition": [[1, 0], [0, True]], "initial": [1, 0]},
        ):
            with pytest.raises(InvalidInputError):
                model_from_dict(obj)

    def test_numbers_load(self):
        # Integers are numbers wherever a number is asked for.
        power = model_from_dict({"kind": "powerlaw-logits", "d": 8192, "s": 1, "scale": 2})
        np.testing.assert_array_equal(power.logits, powerlaw_source(8192, 2.0).logits)
        iid = model_from_dict({"kind": "iid", "probs": [1, 0]})
        np.testing.assert_array_equal(iid.laws, [[1.0, 0.0]])


class TestGenerate:
    def test_record_shape_and_tags(self):
        record = generate(uniform_source(8), 50, None, np.random.default_rng(0))
        assert record.tokens.shape == (50,)
        assert record.per_step_pstar.shape == (50,)
        assert not record.watermarked
        assert record.scheme == "none"
        keyed = generate(uniform_source(8), 50, closed_key(8), np.random.default_rng(0))
        assert keyed.watermarked and keyed.scheme == "closed"

    def test_deterministic(self):
        model = powerlaw_source(16, 1.0)
        key = open_key(16, epsilon=0.3, k=4)
        a = generate(model, 80, key, np.random.default_rng(5))
        b = generate(model, 80, key, np.random.default_rng(5))
        np.testing.assert_array_equal(a.tokens, b.tokens)

    def test_memoryless_pstar_is_constant_max(self):
        model = iid_source([0.5, 0.2, 0.3])
        record = generate(model, 20, None, np.random.default_rng(1))
        np.testing.assert_array_equal(record.per_step_pstar, np.full(20, 0.5))

    def test_markov_pstar_tracks_visited_rows(self):
        transition = np.array([[0.7, 0.3], [0.1, 0.9]])
        model = markov_source(transition, [0.6, 0.4])
        record = generate(model, 200, None, np.random.default_rng(2))
        expected = np.empty(200)
        expected[0] = 0.6
        expected[1:] = transition.max(axis=1)[record.tokens[:-1]]
        np.testing.assert_array_equal(record.per_step_pstar, expected)

    def test_zero_probability_tokens_never_appear(self):
        model = iid_source([0.5, 0.0, 0.5, 0.0])
        record = generate(model, 3000, None, np.random.default_rng(3))
        assert set(np.unique(record.tokens)) <= {0, 2}

    def test_markov_zero_transitions_respected(self):
        # A deterministic cycle: the only valid text is 0, 1, 2, 0, 1, 2, ...
        eye_cycle = np.array([[0, 1.0, 0], [0, 0, 1.0], [1.0, 0, 0]])
        model = markov_source(eye_cycle, [1.0, 0, 0])
        record = generate(model, 30, None, np.random.default_rng(4))
        np.testing.assert_array_equal(record.tokens, np.arange(30) % 3)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(SchemeMismatchError):
            generate(uniform_source(8), 10, closed_key(16), np.random.default_rng(0))

    def test_length_validated(self):
        with pytest.raises(InvalidInputError):
            generate(uniform_source(4), 0, None, np.random.default_rng(0))

    def test_padded_key_skips_spurious_token(self):
        # Odd dictionary: the key covers d+1 tokens, the last having zero
        # probability. Generated text must never contain it, and detection
        # with the padded key must still see the full watermark signal.
        model = uniform_source(7)
        key = WatermarkKey(master_seed=SEED, d=8, scheme=CLOSED, padded=True)
        record = generate(model, 400, key, np.random.default_rng(6))
        assert record.tokens.max() < 7
        assert detect(key, record.tokens).verdict is True

    def test_padded_key_size_must_match(self):
        key = WatermarkKey(master_seed=SEED, d=10, scheme=CLOSED, padded=True)
        with pytest.raises(SchemeMismatchError):
            generate(uniform_source(7), 10, key, np.random.default_rng(0))

    def test_markov_generation_with_open_key(self):
        transition = circulant_transition([0.4, 0.3, 0.2, 0.1])
        model = markov_source(transition, np.full(4, 0.25))
        key = open_key(4, epsilon=0.4, k=1)
        record = generate(model, 120, key, np.random.default_rng(7))
        assert record.scheme == "open"
        assert record.tokens.shape == (120,)

    @pytest.mark.parametrize("model", [
        iid_source([0.5, 0.0, 0.5]),
        markov_source(circulant_transition([0.5, 0.5, 0.0]), np.full(3, 1 / 3)),
    ], ids=["iid", "markov"])
    def test_logit_sampling_refuses_zero_probability(self, model):
        with pytest.raises(InvalidInputError, match="strictly positive"):
            generate(model, 5, open_key(3, k=1), np.random.default_rng(0))


    def test_markov_steps_follow_single_step_laws(self):
        # Keyed Markov generation draws step j from the single-step law of
        # the current state, with the one sampler and uniforms drawn up front.
        base = np.array([0.4, 0.02, 0.25, 0.15, 0.1, 0.05, 0.02, 0.01])
        model = markov_source(circulant_transition(base), np.full(8, 1 / 8))
        n = 300
        for key in (closed_key(8), open_key(8, epsilon=0.4, k=2)):
            tokens = generate(model, n, key, np.random.default_rng(22)).tokens
            u = np.random.default_rng(22).random(n)
            if key.scheme == CLOSED:
                batch = derive_closed_steps(key, n)

                def law(row, j):
                    return watermark_distribution(row, batch.colorings[j], int(batch.flips[j]))
            else:
                deltas = perturbations_for(key, n)

                def law(row, j):
                    return watermarked_softmax(np.log(row), deltas[j])
            row = model.laws[0]
            for j, token in enumerate(tokens):
                assert token == sample_tokens(law(row, j), u[j])
                row = model.laws[token + 1]


def markov_model(d):
    rng = np.random.default_rng(d)
    return markov_source(rng.dirichlet(np.ones(d), size=d), rng.dirichlet(np.ones(d)))


# (model, key) pairs whose tokens must not depend on the chunk size.
CHUNK_CASES = {
    "closed": (powerlaw_source(16, 1.1), closed_key(16)),
    "closed-padded": (powerlaw_source(7, 1.1),
                      WatermarkKey(master_seed=SEED, d=8, scheme=CLOSED, padded=True)),
    "open-fixed": (powerlaw_source(16, 1.1), open_key(16, k=3)),
    "open-fresh": (powerlaw_source(16, 1.1),
                   WatermarkKey(master_seed=SEED, d=16, scheme=OPEN, epsilon=0.5, k=3,
                                support_mode=FRESH_SUPPORT)),
    "markov-closed": (markov_model(8), closed_key(8)),
    "markov-open": (markov_model(8), open_key(8, k=3)),
}


class TestChunkBudget:
    @pytest.mark.parametrize("case", CHUNK_CASES)
    def test_tokens_do_not_depend_on_chunk_size(self, monkeypatch, case):
        # Generation derives key material in chunks of _CHUNK_BYTES; a text
        # of 23 steps split into chunks of 1, 7 or 23 steps gets the same
        # tokens as with the shipped budget.
        model, key = CHUNK_CASES[case]
        n = 23
        expected = generate_many(model, n, key, 3, np.random.default_rng(21))
        for steps in (1, 7, n):
            monkeypatch.setattr(textgen, "_CHUNK_BYTES", 8 * steps * key.d)
            got = generate_many(model, n, key, 3, np.random.default_rng(21))
            np.testing.assert_array_equal(got, expected, err_msg=f"{steps} steps per chunk")


# (model, key) pairs whose scored pass must give the detector statistics of
# the texts generate_many makes: the chunk cases plus iid sources, which
# open keys sample in log space.
IID_LAW = np.array([0.05, 0.3, 0.1, 0.15, 0.2, 0.05, 0.1, 0.05])
SCORED_CASES = {**CHUNK_CASES,
                "iid-closed": (iid_source(IID_LAW), closed_key(8)),
                "iid-open": (iid_source(IID_LAW), open_key(8, k=3))}


class TestScoredPass:
    @pytest.mark.parametrize("n", [23, 128, 256])
    @pytest.mark.parametrize("case", SCORED_CASES)
    def test_statistics_equal_scored_token_matrix(self, monkeypatch, case, n):
        # generate_statistics scores each step as it is sampled; with chunks
        # of 1, 7 or n steps its statistics equal, bit for bit, the batched
        # statistics of generate_many's texts from the same rng, and it
        # leaves the rng where generate_many does.
        model, key = SCORED_CASES[case]
        statistics = closed_statistics if key.scheme == CLOSED else open_statistics
        rng = np.random.default_rng(31)
        expected = statistics(key, generate_many(model, n, key, 5, rng))
        for steps in (1, 7, n):
            monkeypatch.setattr(textgen, "_CHUNK_BYTES", 8 * steps * key.d)
            scored_rng = np.random.default_rng(31)
            got = generate_statistics(model, n, key, 5, scored_rng)
            np.testing.assert_array_equal(got, expected, err_msg=f"{steps} steps per chunk")
            assert scored_rng.bit_generator.state == rng.bit_generator.state

    def test_needs_a_key(self):
        with pytest.raises(InvalidInputError, match="watermark key"):
            generate_statistics(uniform_source(4), 5, None, 2, np.random.default_rng(0))


# Keyed Markov (model, key) pairs whose tokens must not depend on how many
# prepared states generation keeps.
PREPARED_CASES = {
    "closed": (markov_model(8), closed_key(8)),
    "closed-padded": (markov_model(7),
                      WatermarkKey(master_seed=SEED, d=8, scheme=CLOSED, padded=True)),
    "open": (markov_model(8), open_key(8, k=3)),
}


class TestPreparedBudget:
    @pytest.mark.parametrize("case", PREPARED_CASES)
    def test_tokens_do_not_depend_on_prepared_states_kept(self, monkeypatch, case):
        # Generation keeps the most recently used prepared state laws within
        # _PREPARED_BYTES at 16 B per token; keeping 1, 2 or 5 of a source's
        # 8 or 9 states re-prepares evicted ones, to the same laws.
        model, key = PREPARED_CASES[case]
        expected = generate_many(model, 60, key, 4, np.random.default_rng(23))
        prepared = []

        def counted_rank_order(law):
            prepared.append(law.size)
            return rank_order(law)

        monkeypatch.setattr(textgen, "rank_order", counted_rank_order)
        for states in (1, 2, 5):
            monkeypatch.setattr(textgen, "_PREPARED_BYTES", 16 * model.d * states)
            got = generate_many(model, 60, key, 4, np.random.default_rng(23))
            np.testing.assert_array_equal(got, expected, err_msg=f"{states} states kept")
        if key.scheme == CLOSED:  # evicted states were prepared again
            assert len(prepared) > 3 * model.laws.shape[0]


class TestSingleStep:
    """A step sampled on its own equals the same step of the generation
    loop, bit for bit: the per-step entry points derive one step's material
    and draw one uniform from the rng, where generation derives chunks and
    draws all uniforms at once."""

    # An odd d is a dictionary under a padded key of d + 1 tokens: closed_step
    # takes the dictionary's d-entry law, as generate does. It refused that
    # law and took a (d + 1)-entry one, whose padding token it could emit.
    @pytest.mark.parametrize("d, n", [(8, 200), (32768, 12), (7, 200), (32767, 12)])
    def test_closed_step_equals_generate(self, d, n):
        padded = d % 2 == 1
        key = WatermarkKey(master_seed=SEED, d=d + padded, scheme=CLOSED, padded=padded)
        p = powerlaw_source(d, 1.1).laws[0]
        rng = np.random.default_rng(31)
        steps = [closed_step(key, j, p, rng) for j in range(n)]
        expected = generate(iid_source(p), n, key, np.random.default_rng(31)).tokens
        assert steps == expected.tolist()
        assert max(steps) < d
        if padded:
            with pytest.raises(InvalidInputError):
                closed_step(key, 0, np.append(p, 0.0), rng)

    @pytest.mark.parametrize("mode", [FIXED_SUPPORT, FRESH_SUPPORT])
    @pytest.mark.parametrize("d, n, k", [(8, 200, 3), (32768, 12, 64)])
    def test_open_step_equals_generate(self, d, n, k, mode):
        key = WatermarkKey(master_seed=SEED, d=d, scheme=OPEN, epsilon=0.5, k=k,
                           support_mode=mode)
        model = powerlaw_source(d, 1.1)
        rng = np.random.default_rng(32)
        steps = [open_step(key, j, model.logits, rng) for j in range(n)]
        assert steps == generate(model, n, key, np.random.default_rng(32)).tokens.tolist()


# What generation may hold, whatever the text length, with a 2 MiB chunk
# budget at 8 B per (step, token) entry. Open: the cached chunk of float64
# Gaussians and its perturbations' copy, the next chunk while it is derived,
# and one block of words with its Box-Muller temporaries, about 3.4 budgets
# at d = 4096; 5 budgets leave room for the vectors of length n or d.
# Closed: the same chunks at 1 B per entry and the coloring rule's work
# arrays, 1.2-1.8 MiB at d = 4096. With eight cached chunks of a 16 MiB
# budget both peaked at 12.2 MiB there for n = 2048.
GENERATE_CEILING = 10 << 20
CLOSED_GENERATE_CEILING = 4 << 20


def clear_derive_caches():
    for derive in (derive_closed_steps, derive_open_steps, derive_open_gaussians):
        derive.cache_clear()


def generate_peaks(key, lengths):
    """tracemalloc peak of one ``generate`` call with ``key`` at each length,
    derivation caches cleared first."""
    peaks = []
    for n in lengths:
        clear_derive_caches()
        tracemalloc.start()
        try:
            generate(powerlaw_source(key.d, 1.1), n, key, np.random.default_rng(0))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


class TestRuntime:
    def test_closed_generate_memory_d4096(self):
        """Closed texts of 256 and 2048 steps at d = 4096, key derivation
        included, peak under one ceiling that does not grow with n."""
        for n, peak in zip((256, 2048), generate_peaks(closed_key(4096), (256, 2048))):
            assert peak < CLOSED_GENERATE_CEILING, f"n={n} peaked at {peak / 2**20:.1f} MiB"

    def test_open_generate_memory_d4096(self):
        """The same for open texts: at d = 4096 one chunk is 64 steps, so
        n = 2048 runs through 32 chunks."""
        key = open_key(4096, k=64)
        for n, peak in zip((256, 2048), generate_peaks(key, (256, 2048))):
            assert peak < GENERATE_CEILING, f"n={n} peaked at {peak / 2**20:.1f} MiB"


    def test_unkeyed_markov_generate_copies_no_table(self):
        """Unkeyed Markov generation reads the source's stored (d + 1, d)
        table of state laws; it allocated a copy of it per call before."""
        model = markov_model(1024)
        table_bytes = 1025 * 1024 * 8
        tracemalloc.start()
        try:
            generate(model, 200, None, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table_bytes / 4, f"peaked at {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("key", [
        closed_key(2048),
        WatermarkKey(master_seed=SEED, d=2048, scheme=CLOSED, padded=True),
        open_key(2048, k=64),
    ], ids=["closed", "closed-padded", "open"])
    def test_keyed_markov_generate_prepares_visited_states(self, key):
        """Keyed Markov generation prepares the law of each state a text
        visits, not the whole (d + 1, d) table: at d = 2048 and n = 200 (a
        32 MiB table) it peaked at 64, 96 and 42 MiB when it sorted, padded
        or took the log of every row."""
        model = markov_model(2047 if key.padded else 2048)
        clear_derive_caches()
        tracemalloc.start()
        try:
            generate(model, 200, key, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, f"peaked at {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("key, before", [
        (closed_key(2048), 34.1),
        (open_key(2048, k=64), 47.4),
    ], ids=["closed", "open"])
    def test_keyed_markov_memory_does_not_grow_with_states_visited(self, key, before):
        """Generation keeps the most recently used prepared states within
        ``_PREPARED_BYTES``. When it kept every state it visited, a text at
        d = 2048 peaked at 34.1 MiB (closed) or 47.4 MiB (open) by n = 2000
        and grew with the states a longer text visits. Cold peaks stay below
        those figures. Run cold and again after an identical call, which
        leaves its last chunk in the derivation caches, n = 4000 peaks
        within 5% of n = 2000."""
        model = markov_model(2048)
        peaks = {}
        for n in (2000, 4000):
            clear_derive_caches()
            for warm in (False, True):
                tracemalloc.start()
                try:
                    generate(model, n, key, np.random.default_rng(0))
                    peaks[warm, n] = tracemalloc.get_traced_memory()[1] / 2**20
                finally:
                    tracemalloc.stop()
        assert max(peaks.values()) < before, peaks
        assert peaks[True, 4000] < 1.05 * peaks[True, 2000], peaks


class TestGenerateMany:
    def test_rows_are_independent_texts(self):
        texts = generate_many(uniform_source(16), 64, closed_key(16), 40, np.random.default_rng(8))
        assert texts.shape == (40, 64)
        assert len({tuple(t) for t in texts.tolist()}) == 40

    def test_deterministic(self):
        key = open_key(8, epsilon=0.4, k=2)
        a = generate_many(powerlaw_source(8, 1.0), 30, key, 6, np.random.default_rng(9))
        b = generate_many(powerlaw_source(8, 1.0), 30, key, 6, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_unkeyed_matches_source_frequencies(self):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        texts = generate_many(iid_source(p), 500, None, 40, np.random.default_rng(10))
        freq = np.bincount(texts.ravel(), minlength=4) / texts.size
        np.testing.assert_allclose(freq, p, atol=0.012)

    def test_keyed_matches_per_step_laws(self):
        # Column j of the matrix is i.i.d. from the step-j watermarked law.
        key = closed_key(4)
        p = np.array([0.4, 0.3, 0.2, 0.1])
        texts = generate_many(iid_source(p), 6, key, 30_000, np.random.default_rng(11))
        batch = derive_closed_steps(key, 6)
        q = watermark_distributions(p, batch.colorings, batch.flips)
        for j in range(6):
            freq = np.bincount(texts[:, j], minlength=4) / texts.shape[0]
            np.testing.assert_allclose(freq, q[j], atol=0.012)

    def test_zero_probability_tokens_never_appear(self):
        key = closed_key(4)
        # Uniform p pairs equal masses, so half the tokens vanish each step.
        texts = generate_many(uniform_source(4), 50, key, 200, np.random.default_rng(12))
        batch = derive_closed_steps(key, 50)
        q = watermark_distributions(np.full(4, 0.25), batch.colorings, batch.flips)
        probs = q[np.arange(50)[None, :], texts]
        assert probs.min() > 0

    def test_uniform_closed_texts_score_one(self):
        key = closed_key(32)
        texts = generate_many(uniform_source(32), 100, key, 50, np.random.default_rng(13))
        np.testing.assert_array_equal(closed_statistics(key, texts), np.ones(50))

    def test_markov_fallback(self):
        transition = circulant_transition([0.5, 0.3, 0.2])
        model = markov_source(transition, np.full(3, 1 / 3))
        key = WatermarkKey(master_seed=SEED, d=4, scheme=CLOSED, padded=True)
        texts = generate_many(model, 25, key, 4, np.random.default_rng(14))
        assert texts.shape == (4, 25)
        assert texts.max() < 3

    def test_markov_fallback_needs_matching_key(self):
        transition = circulant_transition([0.5, 0.3, 0.2])
        with pytest.raises(SchemeMismatchError):
            generate_many(
                markov_source(transition, np.full(3, 1 / 3)),
                10,
                closed_key(8),
                2,
                np.random.default_rng(0),
            )

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            generate_many(uniform_source(4), 0, None, 5, np.random.default_rng(0))
        with pytest.raises(InvalidInputError):
            generate_many(uniform_source(4), 5, None, 0, np.random.default_rng(0))

    @pytest.mark.parametrize("size", [True, 2.0, "2", None])
    @pytest.mark.parametrize("key", [None, closed_key(4)])
    def test_sizes_must_be_integers(self, size, key):
        # A boolean n or texts ran as 1; a float or a string ended in a
        # bare TypeError.
        for n, texts in ((size, 3), (3, size)):
            with pytest.raises(InvalidInputError):
                generate_many(uniform_source(4), n, key, texts, np.random.default_rng(0))
        assert generate_many(uniform_source(4), np.int64(3), key, np.int64(2),
                             np.random.default_rng(0)).shape == (2, 3)


class TestTextLevelUndetectability:
    """Watermarked text is distributed exactly like unwatermarked text; the
    keyed shifts must be invisible to anyone without the key, even over a
    million steps."""

    def test_markov_stationary_frequencies(self):
        # Doubly stochastic transition: the stationary law is uniform. The
        # closed watermark must not move the visit frequencies.
        base = np.array([0.4, 0.2, 0.2, 0.1, 0.05, 0.02, 0.02, 0.01])
        model = markov_source(circulant_transition(base), np.full(8, 1 / 8))
        record = generate(model, 1_000_000, closed_key(8), np.random.default_rng(15))
        freq = np.bincount(record.tokens, minlength=8) / record.tokens.size
        assert np.all(np.abs(freq - 1 / 8) < 0.01)

    def test_unigram_and_bigram_two_sample(self):
        # Watermarked and unwatermarked corpora from the same iid source are
        # indistinguishable by unigram and bigram chi-square tests at
        # significance 1e-3.
        p = np.array([0.3, 0.2, 0.15, 0.12, 0.1, 0.06, 0.04, 0.03])
        model = iid_source(p)
        n = 1_000_000
        marked = generate(model, n, closed_key(8), np.random.default_rng(16)).tokens
        plain = generate(model, n, None, np.random.default_rng(17)).tokens

        unigram = np.vstack(
            [np.bincount(marked, minlength=8), np.bincount(plain, minlength=8)]
        )
        assert stats.chi2_contingency(unigram).pvalue > 1e-3

        def bigram_counts(tokens):
            pairs = tokens[:-1] * 8 + tokens[1:]
            return np.bincount(pairs, minlength=64)

        bigram = np.vstack([bigram_counts(marked), bigram_counts(plain)])
        assert stats.chi2_contingency(bigram).pvalue > 1e-3


class TestConditionLhs:
    def test_reference_operating_point(self):
        # Uniform d=64 at n=10^4, delta=0.05: slack is (63/64)/20 minus the
        # threshold, about 0.0247.
        record = generate(uniform_source(64), 10_000, None, np.random.default_rng(18))
        expected = (63 / 64) / 20 - math.sqrt(2 * math.log(20) / 10_000)
        value = condition_lhs(record, 0.05)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.024741, abs=1e-6)

    def test_deterministic_source_is_hopeless(self):
        # p* = 1 everywhere leaves no entropy to hide a watermark in.
        record = GenerationRecord(
            tokens=np.zeros(1000, dtype=np.int64),
            per_step_pstar=np.ones(1000),
            scheme="none",
            d=4,
        )
        assert condition_lhs(record, 0.05) < 0

    def test_threshold_term_vanishes_with_length(self):
        def record_of_length(n):
            return GenerationRecord(
                tokens=np.zeros(n, dtype=np.int64),
                per_step_pstar=np.full(n, 0.5),
                scheme="none",
                d=4,
            )

        values = [condition_lhs(record_of_length(n), 0.05) for n in (100, 10_000, 1_000_000)]
        gaps = [0.5 / 20 - v for v in values]
        assert all(g > 0 for g in gaps)
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 0.003

    def test_delta_validated(self):
        record = generate(uniform_source(4), 10, None, np.random.default_rng(19))
        with pytest.raises(InvalidInputError):
            condition_lhs(record, 0.0)


class TestFiles:
    def test_record_round_trip(self, tmp_path):
        record = generate(powerlaw_source(16, 1.2), 40, closed_key(16), np.random.default_rng(20))
        path = tmp_path / "text.json"
        save_record(record, path)
        loaded = load_record(path)
        np.testing.assert_array_equal(loaded.tokens, record.tokens)
        np.testing.assert_array_equal(loaded.per_step_pstar, record.per_step_pstar)
        assert loaded.scheme == "closed"
        assert loaded.watermarked
        assert loaded.d == 16

    def test_record_dict_schema(self):
        record = generate(uniform_source(4), 5, None, np.random.default_rng(21))
        obj = record_to_dict(record)
        assert set(obj) == {"d", "scheme", "tokens", "pstar"}
        json.dumps(obj)  # plain types only
        again = record_from_dict(obj)
        assert not again.watermarked

    def test_watermarked_is_the_scheme(self):
        # A record once took watermarked=True beside scheme "none" and read
        # back unwatermarked after a save and load.
        tokens, pstar = np.zeros(3, dtype=np.int64), np.full(3, 0.5)
        for scheme, marked in (("none", False), ("closed", True), ("open", True)):
            record = GenerationRecord(tokens=tokens, per_step_pstar=pstar, scheme=scheme, d=4)
            assert record.watermarked is marked
        with pytest.raises(TypeError):
            GenerationRecord(tokens=tokens, per_step_pstar=pstar, watermarked=True,
                             scheme="none", d=4)

    def test_malformed_record(self):
        with pytest.raises(InvalidInputError):
            record_from_dict({"d": 4, "scheme": "closed", "tokens": [0, 1]})
        with pytest.raises(InvalidInputError):
            record_from_dict(
                {"d": 4, "scheme": "alien", "tokens": [0], "pstar": [0.5]}
            )

    def test_record_field_types_are_strict(self):
        # Fractional or boolean tokens once loaded as [1, 2] and [1, 0] and
        # were scored; d = 8.9 loaded as 8.
        good = {"d": 8, "scheme": "closed", "tokens": [1, 2], "pstar": [0.5, 0.5]}
        assert record_from_dict(good).tokens.tolist() == [1, 2]
        for field, value in (
            ("tokens", [1.7, 2.2]), ("tokens", [1.0, 2.0]), ("tokens", [True, False]),
            ("tokens", ["1", "2"]), ("tokens", [1, 2**70]), ("d", 8.9), ("d", True),
            ("d", "8"), ("pstar", [True, 0.5]), ("pstar", ["0.5", "0.5"]),
        ):
            with pytest.raises(InvalidInputError):
                record_from_dict({**good, field: value})

    def test_record_values_in_range(self):
        # A d = 7 record holding token 7, the padding token of a padded
        # closed key, with p* = 5.0 once loaded and was scored.
        good = {"d": 7, "scheme": "closed", "tokens": [0, 6], "pstar": [0.0, 1.0]}
        assert record_from_dict(good).tokens.tolist() == [0, 6]
        for change in ({"tokens": [1, 7]}, {"tokens": [-1, 2]}, {"tokens": [], "pstar": []},
                       {"pstar": [0.5, 5.0]}, {"pstar": [-0.1, 0.5]}):
            with pytest.raises(InvalidInputError):
                record_from_dict({**good, **change})

    def test_token_file_round_trip(self, tmp_path):
        path = tmp_path / "tokens.txt"
        save_tokens([5, 0, 63, 17], path)
        assert path.read_text() == "5 0 63 17\n"
        np.testing.assert_array_equal(tokens_from_text(path.read_text(), path), [5, 0, 63, 17])

    def test_token_file_tolerates_any_whitespace(self):
        np.testing.assert_array_equal(tokens_from_text("1\n2\t3   4\n", "t.txt"), [1, 2, 3, 4])

    def test_garbled_token_file(self):
        with pytest.raises(InvalidInputError, match="bad.txt"):
            tokens_from_text("12 potato 7", "bad.txt")

    def test_missing_files(self, tmp_path):
        with pytest.raises(InvalidInputError):
            load_record(tmp_path / "none.json")
