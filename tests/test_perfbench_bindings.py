"""The library names the benchmark in ``perfbench/`` binds.

``perfbench/tracing.py`` wraps every ``ENTRY_POINTS`` function with a
``getattr`` that has no default and reads ``cache_info()`` off every
``CACHED`` one; ``perfbench/run.py`` calls ``cache_clear()`` on two derive
functions, and feeds ``model_from_dict`` the model ``perfbench/synth.py``
writes. Renaming or deleting any of them breaks the benchmark, so these
tests load the benchmark's own modules by path and check each binding.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from tokenmark import cli, keystream
from tokenmark.detector import DetectionReport
from tokenmark.textgen import model_from_dict

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return load_perfbench("tracing")


def test_entry_points_resolve(tracing):
    for layer, names in tracing.ENTRY_POINTS.items():
        module = importlib.import_module(f"tokenmark.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"tokenmark.{layer}.{name}"


def test_cached_entry_points_answer_cache_info(tracing):
    for dotted in tracing.CACHED:
        layer, name = dotted.split(".")
        info = getattr(importlib.import_module(f"tokenmark.{layer}"), name).cache_info()
        assert info.hits >= 0 and info.misses >= 0


def test_spot_check_derivations_answer_cache_clear():
    for fn in (keystream.derive_closed_steps, keystream.derive_open_gaussians):
        assert callable(fn.cache_clear)


def test_pipeline_model_loads():
    synth = load_perfbench("synth")
    for seed in (1, 2, 3):
        obj = synth.pipeline_model(seed)
        model = model_from_dict(obj)
        assert model.d == obj["d"] == synth.PIPELINE_D


@pytest.mark.parametrize("scheme", ["closed", "open"])
def test_detect_report_file_reads_back(tmp_path, capsys, scheme):
    # perfbench's pipeline check reads each `detect --out` report with
    # DetectionReport.from_dict; it must equal the report detect printed.
    key, record, report = (tmp_path / name for name in ("key.json", "text.json", "report.json"))
    options = ["--epsilon", "0.25", "--k", "2"] if scheme == "open" else []
    assert cli.main(["keygen", "--scheme", scheme, "--d", "16", *options, "--out", str(key)]) == 0
    assert cli.main(["generate", "--model", json.dumps({"kind": "uniform", "d": 16}),
                     "--n", "200", "--seed", "5", "--key", str(key), "--out", str(record)]) == 0
    capsys.readouterr()
    assert cli.main(["detect", "--text", str(record), "--key", str(key),
                     "--out", str(report)]) in (0, 1)
    printed = DetectionReport.from_dict(json.loads(capsys.readouterr().out))
    assert DetectionReport.from_dict(json.loads(report.read_text())) == printed
    assert printed.scheme == scheme and printed.n_tokens == 200
