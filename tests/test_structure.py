"""Where the key rules live, checked on the source and on behaviour.

``keystream`` owns the padded dictionary: no other module reads a key's
``padded`` flag or appends the padding token's zero, so the rule has one
place to be right. Each scheme derives a run of steps in one uncached body,
and a single step is row 0 of a batch of one that goes through no batch
cache. Generation is one loop that yields its steps, and its two consumers
keep a token matrix or score each step; it derives each chunk once, as
its scheme's sampler batch, and fills no detector cache. The experiments
generate keyed texts only through the scored pass, which keeps no token
matrix. Every closed shift comes from one pairing kernel, which only
``watermark_ranked`` calls. ``keystream`` reads one key-file format: one
block function and one coloring rule, with no table of versions.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from tokenmark import closed_scheme, keystream, textgen
from tokenmark.closed_scheme import closed_step, watermark_distribution, watermark_distributions
from tokenmark.detector import closed_statistics, detect
from tokenmark.errors import CorruptTextError
from tokenmark.keystream import (
    CLOSED,
    FIXED_SUPPORT,
    FRESH_SUPPORT,
    OPEN,
    WatermarkKey,
    derive_closed_step,
    derive_closed_steps,
    derive_open_gaussians,
    derive_open_step,
    derive_open_steps,
)
from tokenmark.textgen import (
    generate,
    generate_many,
    generate_statistics,
    iid_source,
    markov_source,
    powerlaw_source,
)

SRC = Path(keystream.__file__).resolve().parent
SEED = bytes(range(32))


def parsed_modules():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def called_name(node):
    """The called function's name: ``f`` of ``f(...)`` or ``m.f(...)``."""
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


class TestPaddingRule:
    def test_padded_read_only_in_keystream(self):
        readers = {name: sum(isinstance(node, ast.Attribute) and node.attr == "padded"
                             for node in ast.walk(tree))
                   for name, tree in parsed_modules().items()}
        assert readers["keystream.py"] > 0
        assert {name: n for name, n in readers.items() if n and name != "keystream.py"} == {}

    def test_padding_zero_appended_only_in_keystream(self):
        # np.append(law, 0.0) pads a law; core appends booleans, not laws.
        appends = {name: [node.lineno for node in ast.walk(tree)
                          if isinstance(node, ast.Call) and called_name(node) == "append"
                          and isinstance(node.args[-1], ast.Constant)
                          and node.args[-1].value == 0.0
                          and not isinstance(node.args[-1].value, bool)]
                   for name, tree in parsed_modules().items()}
        assert len(appends.pop("keystream.py")) == 1
        assert {name: lines for name, lines in appends.items() if lines} == {}

    def test_padded_dictionary_32767(self):
        # A padded key for a 32767-token dictionary: generation never emits
        # the padding token, even from a law whose heaviest token is the last
        # real one, and detection and the batched statistic refuse it.
        d = 32767
        key = WatermarkKey(master_seed=SEED, d=d + 1, scheme=CLOSED, padded=True)
        assert key.dictionary_size == d
        p = 1.0 / np.arange(d, 0, -1)
        tokens = generate_many(iid_source(p / p.sum()), 48, key, 6, np.random.default_rng(9))
        assert tokens.max() < d
        assert (tokens == d - 1).any()
        assert np.isfinite(closed_statistics(key, tokens)).all()
        assert detect(key, tokens[0]).n_tokens == 48
        with_padding = tokens.copy()
        with_padding[3, 17] = d
        with pytest.raises(CorruptTextError, match=f"dictionary size {d}"):
            closed_statistics(key, with_padding)
        with pytest.raises(CorruptTextError, match=f"dictionary size {d}"):
            detect(key, with_padding[3])


class TestDerivationBodies:
    def test_one_body_per_scheme(self):
        # Among the module's functions, one closed body derives colorings and
        # one open body supports (the fixed-support branch too) and
        # directions; the single-step and cached batch functions call them.
        tree = parsed_modules()["keystream.py"]
        calls, names = {}, {}
        for fn in (node for node in tree.body if isinstance(node, ast.FunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    calls.setdefault(called_name(node), []).append(fn.name)
                elif isinstance(node, ast.Name):
                    names.setdefault(node.id, []).append(fn.name)
        assert calls["_coloring_matrix"] == ["_closed_steps"]
        assert calls["_closed_steps"] == ["derive_closed_step", "derive_closed_steps"]
        assert calls["_fixed_support"] == ["_open_steps"]
        assert calls["_support_matrix"] == ["_fixed_support", "_open_steps"]
        assert calls["_open_steps"] == ["derive_open_step", "derive_open_steps"]
        assert names["FIXED_SUPPORT"] == names["LANE_DIRECTION"] == ["_open_steps"]

    def test_open_body_has_no_cache_route(self):
        # The sampler's batch derives its own Gaussians: nothing in keystream
        # fills the detector's Gaussian cache.
        body = module_function("keystream.py", "_open_steps")
        assert [arg.arg for arg in body.args.args + body.args.kwonlyargs] == [
            "key", "count", "start"]
        assert [key for key, names in function_calls().items()
                if key[0] == "keystream.py" and "derive_open_gaussians" in names] == []

    @pytest.mark.parametrize("mode", [FIXED_SUPPORT, FRESH_SUPPORT])
    def test_single_steps_touch_no_batch_cache(self, mode):
        caches = (derive_closed_steps, derive_open_steps, derive_open_gaussians)
        closed = WatermarkKey(master_seed=SEED, d=16, scheme=CLOSED)
        opened = WatermarkKey(master_seed=SEED, d=16, scheme=OPEN, epsilon=0.5, k=3,
                              support_mode=mode)
        derive_closed_steps(closed, 4, 2)
        derive_open_steps(opened, 4, 2)
        before = [cache.cache_info() for cache in caches]
        for step in (0, 2, 3, 2**40):
            single = derive_closed_step(closed, step)
            assert single.coloring.shape == (16,) and single.flip in (1, -1)
            opened_step = derive_open_step(opened, step)
            assert opened_step.gaussian.shape == (16,)
            assert opened_step.support.shape == (3,)
        assert [cache.cache_info() for cache in caches] == before


class TestExperimentGeneration:
    def test_experiments_generate_no_keyed_token_matrix(self):
        # generate_many keeps a (texts, n) token matrix; the experiments call
        # it only for unkeyed soundness texts, with the key argument None.
        tree = parsed_modules()["experiments.py"]
        calls = [node for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and called_name(node) == "generate_many"]
        assert calls
        for call in calls:
            keys = [kw.value for kw in call.keywords if kw.arg == "key"] + call.args[2:3]
            assert [isinstance(key, ast.Constant) and key.value is None
                    for key in keys] == [True], ast.unparse(call)


def function_calls():
    """{(module, function): names it calls} for every module-level function."""
    return {(module, fn.name): {called_name(node) for node in ast.walk(fn)
                                if isinstance(node, ast.Call)}
            for module, tree in parsed_modules().items()
            for fn in tree.body if isinstance(fn, ast.FunctionDef)}


def module_function(module, name):
    return next(fn for fn in parsed_modules()[module].body
                if isinstance(fn, ast.FunctionDef) and fn.name == name)


def calls_in(fn):
    return {called_name(node) for node in ast.walk(fn) if isinstance(node, ast.Call)}


class TestPairingKernel:
    def test_only_watermark_ranked_calls_the_kernel(self):
        # _rank_shift splits the ranked signs into pairs; no other function
        # in the package reaches that code, and only closed_scheme names it.
        callers = sorted(key for key, names in function_calls().items() if "_rank_shift" in names)
        assert callers == [("closed_scheme.py", "watermark_ranked")]
        named = {module for module, tree in parsed_modules().items()
                 if any(isinstance(node, (ast.Name, ast.Attribute))
                        and getattr(node, "id", getattr(node, "attr", None)) == "_rank_shift"
                        for node in ast.walk(tree))}
        assert named == {"closed_scheme.py"}
        # The split itself (stable argsort, nonzero scans) sits in the kernel.
        kernel = module_function("closed_scheme.py", "_rank_shift")
        assert {"argsort", "nonzero"} <= calls_in(kernel)

    def test_callers_reach_pairing_through_watermark_ranked(self):
        calls = function_calls()
        assert "watermark_ranked" in calls[("closed_scheme.py", "watermark_distributions")]
        assert "watermark_ranked" in calls[("closed_scheme.py", "watermark_distribution")]
        assert "watermark_distributions" in calls[("closed_scheme.py", "closed_step")]
        assert {"rank_order", "watermark_ranked"} <= calls_in(
            module_function("textgen.py", "_chain_tokens"))

    def test_every_closed_path_runs_the_kernel(self, monkeypatch):
        # The same kernel, counted: one call per single step, per batch, and
        # per step and state of keyed generation.
        real, counted = closed_scheme._rank_shift, []

        def counting(probs, order, signs):
            counted.append(signs.shape)
            return real(probs, order, signs)

        monkeypatch.setattr(closed_scheme, "_rank_shift", counting)
        key = WatermarkKey(master_seed=SEED, d=8, scheme=CLOSED)
        p = np.array([0.3, 0.2, 0.15, 0.12, 0.1, 0.06, 0.04, 0.03])
        closed_step(key, 3, p, np.random.default_rng(0))
        assert counted == [(1, 8)]
        watermark_distribution(p, np.array([1, -1] * 4), -1)
        batch = derive_closed_steps(key, 5)
        watermark_distributions(p, batch.colorings, batch.flips)
        assert counted[1:] == [(8,), (5, 8)]
        del counted[:]
        generate(iid_source(p), 6, key, np.random.default_rng(1))
        assert counted == [(8,)] * 6
        del counted[:]
        markov = markov_source(np.vstack([np.roll(p, i) for i in range(8)]), p)
        generate_many(markov, 4, key, 1, np.random.default_rng(2))
        assert counted == [(8,)] * 4


class TestSingleFormat:
    def test_one_block_function(self):
        tree = parsed_modules()["keystream.py"]
        hashes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name) and node.value.id == "hashlib"}
        assert hashes == {"shake_256"}
        assert not [node for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "hashlib"]

    def test_no_mapping_keyed_by_version(self):
        # No dict literal with integer keys, and no lookup by a key's version.
        tree = parsed_modules()["keystream.py"]
        int_keys = [ast.unparse(key) for node in ast.walk(tree) if isinstance(node, ast.Dict)
                    for key in node.keys if isinstance(key, ast.Constant)
                    and isinstance(key.value, int)]
        assert int_keys == []
        by_version = [ast.unparse(node) for node in ast.walk(tree)
                      if isinstance(node, ast.Subscript) and "version" in ast.unparse(node.slice)]
        assert by_version == []

    def test_coloring_readers_call_the_rule_directly(self):
        calls = function_calls()
        assert sorted(key for key, names in calls.items() if "_select_rows" in names) == [
            ("keystream.py", "_coloring_matrix")]
        assert sorted(key for key, names in calls.items() if "_select_color" in names) == [
            ("keystream.py", "closed_token_colors")]


class TestGenerationLoop:
    def test_loop_yields_steps_with_no_score_mode(self):
        loop = module_function("textgen.py", "_chain_tokens")
        params = [arg.arg for arg in loop.args.args + loop.args.kwonlyargs]
        assert params == ["model", "key", "u"]
        assert [node for node in ast.walk(loop) if isinstance(node, ast.Yield)]

    def test_two_consumers(self):
        # The token matrix and the scored pass are the loop's only callers,
        # and no module but textgen names it.
        callers = sorted(key for key, names in function_calls().items()
                         if "_chain_tokens" in names)
        assert callers == [("textgen.py", "generate_many"),
                           ("textgen.py", "generate_statistics")]
        named = {module for module, tree in parsed_modules().items()
                 if any(isinstance(node, (ast.Name, ast.Attribute))
                        and getattr(node, "id", getattr(node, "attr", None)) == "_chain_tokens"
                        for node in ast.walk(tree))}
        assert named == {"textgen.py"}

    @pytest.mark.parametrize("mode", [FIXED_SUPPORT, FRESH_SUPPORT])
    @pytest.mark.parametrize("consume", [generate_many, generate_statistics])
    def test_open_consumers_derive_each_chunk_once(self, monkeypatch, consume, mode):
        # Each chunk's sampler batch is derived once, and its perturbations
        # and scores both come from it: 23 steps in chunks of 7 miss four
        # times. A call whose one chunk is still cached derives nothing
        # again, even after a detector-side Gaussian batch.
        key = WatermarkKey(master_seed=SEED, d=16, scheme=OPEN, epsilon=0.5, k=3,
                           support_mode=mode)
        model = powerlaw_source(16, 1.1)
        monkeypatch.setattr(textgen, "_CHUNK_BYTES", 8 * 7 * key.d)
        derive_open_steps.cache_clear()
        consume(model, 23, key, 3, np.random.default_rng(5))
        assert derive_open_steps.cache_info().misses == 4
        consume(model, 5, key, 3, np.random.default_rng(6))
        derive_open_gaussians(key, 9)
        misses = derive_open_steps.cache_info().misses
        consume(model, 5, key, 3, np.random.default_rng(6))
        assert derive_open_steps.cache_info().misses == misses

    @pytest.mark.parametrize("consume", [generate_many, generate_statistics])
    def test_generation_fills_only_the_sampler_caches(self, monkeypatch, consume):
        # One derivation per chunk and no read-back: 23 steps in chunks of 7
        # miss the scheme's sampler cache four times and never hit it, and
        # the detector's Gaussian cache is left as it was.
        keys = [WatermarkKey(master_seed=SEED, d=16, scheme=CLOSED)] + [
            WatermarkKey(master_seed=SEED, d=16, scheme=OPEN, epsilon=0.5, k=3,
                         support_mode=mode) for mode in (FIXED_SUPPORT, FRESH_SUPPORT)]
        monkeypatch.setattr(textgen, "_CHUNK_BYTES", 8 * 7 * 16)
        model = powerlaw_source(16, 1.1)
        derive_open_gaussians(keys[1], 9)
        detector_side = derive_open_gaussians.cache_info()
        for key in keys:
            derive = derive_closed_steps if key.scheme == CLOSED else derive_open_steps
            derive.cache_clear()
            consume(model, 23, key, 3, np.random.default_rng(5))
            info = derive.cache_info()
            assert (info.hits, info.misses) == (0, 4), key
        assert derive_open_gaussians.cache_info() == detector_side
