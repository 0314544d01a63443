"""Where the key rules live, checked on the source and on behaviour.

``keystream`` owns the padded dictionary: no other module reads a key's
``padded`` flag or appends the padding token's zero, so the rule has one
place to be right. Each scheme derives a run of steps in one uncached body,
and a single step is row 0 of a batch of one that goes through no batch
cache. The experiments generate keyed texts only through the scored pass,
which keeps no token matrix.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from tokenmark import keystream
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
from tokenmark.textgen import generate_many, iid_source

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
