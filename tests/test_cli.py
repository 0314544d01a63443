"""End-to-end checks for the command line interface.

Everything runs in-process through ``main(argv)`` so exit codes and
stdout/stderr can be asserted without spawning interpreters. The smoke
tests at the bottom start real interpreters. ``test_module_invocation``
runs ``python -m tokenmark`` and ``test_console_script`` runs a launcher
built from the ``[project.scripts]`` declaration in ``pyproject.toml``;
neither needs the package installed, since their children find this
checkout's ``src`` through ``child_env``. ``test_installed_console_script``
runs the script an installer put in place, so it needs ``pip install -e .``
and is skipped without it.
"""

import importlib.metadata
import importlib.util
import json
import os
import resource
import shutil
import subprocess
import sys
import sysconfig
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import tokenmark.cli
import tokenmark.closed_scheme
import tokenmark.textgen
from tokenmark.cli import main
from tokenmark.detector import detect
from tokenmark.keystream import CLOSED, OPEN, WatermarkKey, load_key, save_key
from tokenmark.textgen import (generate, load_record, save_tokens, tokens_from_text,
                               uniform_source)

UNIFORM64 = json.dumps({"kind": "uniform", "d": 64})
FPR = {"name": "fpr", "type": "closed-soundness", "d": 8, "n": 50, "texts": 40,
       "deltas": [0.05]}
POWER = {"name": "power", "type": "closed-completeness", "d": 8, "n_grid": [200.7],
         "texts": 10, "delta": 0.05}
SPARSE = {"name": "sparse", "type": "sparse-power", "d": 4, "k": 2, "epsilon": 1.0,
          "alpha": 0.05, "n_grid": [5], "trials": 2, "tests": ["threshold"]}


def run_cli(*argv):
    return main(list(argv))


def cap_address_space():
    """Cap a child interpreter's address space at 4 GB."""
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    cap = 2**32 if hard == resource.RLIM_INFINITY else min(2**32, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def child_env():
    """The environment for a child interpreter, with this checkout's ``src``
    first on its module path, so that it imports this tokenmark without an
    install."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestKeygen:
    def test_closed_round_trip(self, tmp_path):
        out = tmp_path / "key.json"
        assert run_cli("keygen", "--scheme", "closed", "--d", "64",
                       "--out", str(out)) == 0
        key = load_key(out)
        assert key.d == 64
        assert key.scheme == CLOSED
        assert not key.padded
        assert len(key.master_seed) == 32

    def test_writes_key_format_3(self, tmp_path):
        out = tmp_path / "key.json"
        assert run_cli("keygen", "--scheme", "closed", "--d", "8",
                       "--out", str(out)) == 0
        assert json.loads(out.read_text())["version"] == 3
        assert load_key(out).version == 3

    @pytest.mark.parametrize("scheme", [CLOSED, OPEN])
    def test_key_file_generates_and_detects(self, tmp_path, capsys, scheme):
        # A saved key file watermarks a text through `generate` and scores it
        # through `detect`, as the key itself scores it.
        key_path, record = tmp_path / "key.json", tmp_path / "text.json"
        options = {"epsilon": 0.5, "k": 4} if scheme == OPEN else {}
        key = WatermarkKey(master_seed=bytes(range(32)), d=64, scheme=scheme, **options)
        save_key(key, key_path)
        assert run_cli("generate", "--model", UNIFORM64, "--n", "300", "--seed", "3",
                       "--key", str(key_path), "--out", str(record)) == 0
        capsys.readouterr()
        assert run_cli("detect", "--text", str(record), "--key", str(key_path)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] is True
        assert report["statistic"] == detect(key, load_record(record).tokens).statistic

    def test_open_round_trip(self, tmp_path):
        out = tmp_path / "key.json"
        rc = run_cli("keygen", "--scheme", "open", "--d", "32",
                     "--epsilon", "0.25", "--k", "4",
                     "--support-mode", "fresh-per-step", "--out", str(out))
        assert rc == 0
        key = load_key(out)
        assert key.scheme == OPEN
        assert key.epsilon == 0.25
        assert key.k == 4
        assert key.support_mode == "fresh-per-step"

    def test_odd_dimension_is_padded(self, tmp_path, capsys):
        out = tmp_path / "key.json"
        assert run_cli("keygen", "--scheme", "closed", "--d", "63",
                       "--out", str(out)) == 0
        key = load_key(out)
        assert key.d == 64
        assert key.padded
        assert "padded dictionary to d=64" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme", [CLOSED, OPEN])
    @pytest.mark.parametrize("d", ["1", "0", "-3"])
    def test_dictionary_below_two_is_refused(self, tmp_path, capsys, scheme, d):
        # `--scheme closed --d 1` wrote a padded d = 2 key, for a one-token
        # dictionary no model has, and exited 0.
        out = tmp_path / "key.json"
        options = ["--epsilon", "0.25", "--k", "1"] if scheme == OPEN else []
        assert run_cli("keygen", "--scheme", scheme, "--d", d, *options, "--out", str(out)) == 2
        assert "--d must be at least 2" in capsys.readouterr().err
        assert not out.exists()

    def test_padded_key_below_d4_does_not_load(self, tmp_path, capsys):
        key = tmp_path / "key.json"
        assert run_cli("keygen", "--scheme", "closed", "--d", "3", "--out", str(key)) == 0
        obj = json.loads(key.read_text())
        assert (obj["d"], obj["padded"]) == (4, True)
        key.write_text(json.dumps({**obj, "d": 2}))
        text = tmp_path / "tokens.txt"
        text.write_text("0 0 0\n")
        assert run_cli("detect", "--text", str(text), "--key", str(key)) == 2
        assert "padded key needs d >= 4" in capsys.readouterr().err

    def test_keys_are_fresh(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("keygen", "--scheme", "closed", "--d", "8", "--out", str(a))
        run_cli("keygen", "--scheme", "closed", "--d", "8", "--out", str(b))
        assert load_key(a).master_seed != load_key(b).master_seed

    def test_open_requires_epsilon(self, tmp_path, capsys):
        rc = run_cli("keygen", "--scheme", "open", "--d", "16", "--k", "2",
                     "--out", str(tmp_path / "key.json"))
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_non_finite_epsilon_writes_no_key(self, tmp_path, capsys, epsilon):
        # Such a key file was once written, and every later command rejected it.
        out = tmp_path / "key.json"
        rc = run_cli("keygen", "--scheme", "open", "--d", "8", "--k", "2",
                     "--epsilon", epsilon, "--out", str(out))
        assert rc == 2
        assert "epsilon" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_epsilon_refused(self, tmp_path, capsys):
        # keygen once wrote this key with only the soft-cap warning; generate
        # then sampled from NaN laws with exit 0 and detect ended on a NaN
        # statistic.
        out = tmp_path / "key.json"
        rc = run_cli("keygen", "--scheme", "open", "--d", "64", "--k", "4",
                     "--epsilon", "1e308", "--out", str(out))
        assert rc == 2
        assert "epsilon" in capsys.readouterr().err
        assert not out.exists()
        save_key(WatermarkKey(b"\x00" * 32, d=64, scheme=OPEN, epsilon=0.5, k=4), out)
        obj = json.loads(out.read_text())
        out.write_text(json.dumps({**obj, "epsilon": 1e308}))
        text = tmp_path / "tokens.txt"
        text.write_text("0 1 2\n")
        record = tmp_path / "record.json"
        for argv in (("generate", "--model", UNIFORM64, "--n", "20", "--seed", "1",
                      "--key", str(out), "--out", str(record)),
                     ("detect", "--text", str(text), "--key", str(out))):
            assert run_cli(*argv) == 2
            assert "epsilon" in capsys.readouterr().err
        assert not record.exists()


class TestGenerate:
    def test_deterministic_record(self, tmp_path):
        key = tmp_path / "key.json"
        run_cli("keygen", "--scheme", "closed", "--d", "64", "--out", str(key))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            rc = run_cli("generate", "--model", UNIFORM64, "--n", "200",
                         "--seed", "7", "--key", str(key), "--out", str(out))
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()
        record = load_record(a)
        assert record.tokens.shape == (200,)
        assert record.d == 64

    def test_tokens_out_matches_record(self, tmp_path):
        record = tmp_path / "record.json"
        tokens = tmp_path / "tokens.txt"
        rc = run_cli("generate", "--model", UNIFORM64, "--n", "50",
                     "--seed", "3", "--out", str(record),
                     "--tokens-out", str(tokens))
        assert rc == 0
        np.testing.assert_array_equal(tokens_from_text(tokens.read_text(), tokens),
                                      load_record(record).tokens)

    def test_model_file_input(self, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"kind": "powerlaw-logits", "d": 16,
                                     "s": 1.2}))
        out = tmp_path / "record.json"
        rc = run_cli("generate", "--model-file", str(model), "--n", "30",
                     "--seed", "1", "--out", str(out))
        assert rc == 0
        assert load_record(out).d == 16

    def test_overflowing_power_law_is_refused(self, tmp_path, capsys):
        # numpy's overflow RuntimeWarning went to stderr before the exit-2
        # message (and, as an error, ended the command).
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"kind": "powerlaw-logits", "d": 16, "s": 1e300,
                                     "scale": 1e10}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run_cli("generate", "--model-file", str(model), "--n", "3",
                         "--seed", "1", "--out", str(tmp_path / "record.json"))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be finite" in err

    def test_unwatermarked_has_no_scheme(self, tmp_path):
        out = tmp_path / "record.json"
        run_cli("generate", "--model", UNIFORM64, "--n", "20", "--seed", "0",
                "--out", str(out))
        record = load_record(out)
        assert not record.watermarked
        assert record.scheme == "none"

    def test_bad_model_json(self, tmp_path, capsys):
        rc = run_cli("generate", "--model", "{not json", "--n", "10",
                     "--seed", "0", "--out", str(tmp_path / "r.json"))
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("model", [
        {"kind": "uniform", "d": 8.7},
        {"kind": "powerlaw-logits", "d": 8.7, "s": 1.0},
        {"kind": "powerlaw-logits", "d": "16", "s": 1.0},
        {"kind": "powerlaw-logits", "d": 16, "s": True},
        {"kind": "powerlaw-logits", "d": 16, "s": "1.0"},
        {"kind": "powerlaw-logits", "d": 16, "s": 1.0, "scale": False},
    ], ids=["uniform-d-float", "powerlaw-d-float", "d-string", "s-bool", "s-string",
            "scale-bool"])
    def test_lax_model_fields(self, tmp_path, capsys, model):
        rc = run_cli("generate", "--model", json.dumps(model), "--n", "5",
                     "--seed", "1", "--out", str(tmp_path / "t.json"))
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "t.json").exists()

    def test_negative_seed(self, tmp_path, capsys):
        # A negative seed ended in numpy's ValueError traceback with exit 1.
        rc = run_cli("generate", "--model", UNIFORM64, "--n", "5", "--seed", "-1",
                     "--out", str(tmp_path / "r.json"))
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_out_of_memory_is_an_error(self, tmp_path, monkeypatch, capsys):
        # generate from a uniform source with a closed key at d = 2**40 ended
        # in numpy's _ArrayMemoryError traceback with exit 1.
        def no_memory(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(tokenmark.textgen, "generate", no_memory)
        rc = run_cli("generate", "--model", UNIFORM64, "--n", "5", "--seed", "1",
                     "--out", str(tmp_path / "r.json"))
        assert rc == 2
        assert capsys.readouterr().err == "error: MemoryError\n"
        assert not (tmp_path / "r.json").exists()

    def test_model_and_model_file_conflict(self, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(UNIFORM64)
        with pytest.raises(SystemExit) as exc:
            run_cli("generate", "--model", UNIFORM64,
                    "--model-file", str(model), "--n", "10", "--seed", "0",
                    "--out", str(tmp_path / "r.json"))
        assert exc.value.code == 2


class TestDetect:
    @pytest.fixture()
    def watermarked(self, tmp_path):
        key = tmp_path / "key.json"
        record = tmp_path / "record.json"
        run_cli("keygen", "--scheme", "closed", "--d", "64", "--out", str(key))
        run_cli("generate", "--model", UNIFORM64, "--n", "500", "--seed", "11",
                "--key", str(key), "--out", str(record))
        return key, record

    def test_right_key_fires(self, watermarked, capsys):
        key, record = watermarked
        rc = run_cli("detect", "--text", str(record), "--key", str(key))
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert report["verdict"] is True
        assert report["statistic"] == pytest.approx(1.0)
        assert report["n_tokens"] == 500

    def test_wrong_key_is_quiet(self, tmp_path, capsys):
        record = tmp_path / "record.json"
        run_cli("generate", "--model", UNIFORM64, "--n", "500", "--seed", "11",
                "--out", str(record))
        other = tmp_path / "other.json"
        save_key(WatermarkKey(master_seed=bytes(range(100, 132)), d=64,
                              scheme=CLOSED), other)
        rc = run_cli("detect", "--text", str(record), "--key", str(other))
        report = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert report["verdict"] is False

    def test_reads_bare_token_files(self, watermarked, tmp_path, capsys):
        key, record = watermarked
        tokens = tmp_path / "tokens.txt"
        tokens.write_text(" ".join(str(t) for t in load_record(record).tokens))
        assert run_cli("detect", "--text", str(tokens),
                       "--key", str(key)) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] is True

    def test_report_file(self, watermarked, tmp_path, capsys):
        key, record = watermarked
        out = tmp_path / "report.json"
        run_cli("detect", "--text", str(record), "--key", str(key),
                "--out", str(out))
        on_disk = json.loads(out.read_text())
        assert on_disk == json.loads(capsys.readouterr().out)
        assert set(on_disk) == {"scheme", "n_tokens", "delta", "statistic",
                                "threshold", "p_value", "verdict"}

    def test_open_exit_code_tracks_verdict(self, tmp_path, capsys):
        key = tmp_path / "key.json"
        record = tmp_path / "record.json"
        run_cli("keygen", "--scheme", "open", "--d", "16", "--epsilon", "0.5",
                "--k", "2", "--out", str(key))
        run_cli("generate", "--model",
                json.dumps({"kind": "uniform", "d": 16}), "--n", "100",
                "--seed", "5", "--key", str(key), "--out", str(record))
        rc = run_cli("detect", "--text", str(record), "--key", str(key))
        report = json.loads(capsys.readouterr().out)
        assert report["scheme"] == "open"
        assert rc == (0 if report["verdict"] else 1)

    def test_garbled_text_file(self, tmp_path, capsys):
        key = tmp_path / "key.json"
        run_cli("keygen", "--scheme", "closed", "--d", "8", "--out", str(key))
        bad = tmp_path / "bad.txt"
        bad.write_text("3 fifty 1\n")
        rc = run_cli("detect", "--text", str(bad), "--key", str(key))
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_token_ids_int_would_read(self, tmp_path, capsys):
        # "1_0 +3 \u0661\u0662" was scored as the tokens [10, 3, 12], exit 1.
        key = tmp_path / "key.json"
        run_cli("keygen", "--scheme", "closed", "--d", "16", "--out", str(key))
        text = tmp_path / "tokens.txt"
        for content, entry in (("1_0 +3 \u0661\u0662", "1_0"), ("0 +3 1", "+3"),
                               ("0 \u0661\u0662 1", "\u0661\u0662")):
            text.write_text(content + "\n", encoding="utf-8")
            assert run_cli("detect", "--text", str(text), "--key", str(key)) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:") and repr(entry) in captured.err

    def test_saved_tokens_detect_as_the_record(self, tmp_path, capsys):
        key = tmp_path / "key.json"
        run_cli("keygen", "--scheme", "closed", "--d", "64", "--out", str(key))
        record = generate(uniform_source(64), 80, load_key(key), np.random.default_rng(4))
        text = tmp_path / "tokens.txt"
        save_tokens(record.tokens, text)
        assert run_cli("detect", "--text", str(text), "--key", str(key)) == 0
        assert json.loads(capsys.readouterr().out) == detect(load_key(key),
                                                             record.tokens).to_dict()

    def test_token_out_of_range(self, tmp_path, capsys):
        key = tmp_path / "key.json"
        run_cli("keygen", "--scheme", "closed", "--d", "8", "--out", str(key))
        text = tmp_path / "tokens.txt"
        text.write_text("0 3 9\n")
        assert run_cli("detect", "--text", str(text),
                       "--key", str(key)) == 2
        capsys.readouterr()

    def test_token_id_past_int64(self, tmp_path, capsys):
        # A bare token file with id 2**63 ended in numpy's OverflowError
        # traceback with exit 1; a text record with it already exited 2.
        key = tmp_path / "key.json"
        run_cli("keygen", "--scheme", "closed", "--d", "8", "--out", str(key))
        text = tmp_path / "tokens.txt"
        text.write_text(f"0 {2**63} 1\n")
        assert run_cli("detect", "--text", str(text), "--key", str(key)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_out_of_memory_is_an_error(self, watermarked, monkeypatch, capsys):
        # A closed key at d = 2**40 made detect end in numpy's
        # _ArrayMemoryError traceback with exit 1.
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 TiB")

        key, record = watermarked
        monkeypatch.setattr(tokenmark.cli, "detect", no_memory)
        assert run_cli("detect", "--text", str(record), "--key", str(key)) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: Unable to allocate 8.00 TiB\n"
        assert captured.out == ""

    def test_missing_text_file(self, tmp_path, capsys):
        key = tmp_path / "key.json"
        run_cli("keygen", "--scheme", "closed", "--d", "8", "--out", str(key))
        rc = run_cli("detect", "--text", str(tmp_path / "none.txt"), "--key", str(key))
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_key_file(self, tmp_path, capsys):
        text = tmp_path / "tokens.txt"
        text.write_text("0 1 2\n")
        rc = run_cli("detect", "--text", str(text),
                     "--key", str(tmp_path / "nope.json"))
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("version", True), ("version", 1.0), ("d", 8.7), ("k", 2.5),
        ("master_seed_base64", "!!!!"), ("padded", "no"), ("epsilon", True),
        ("epsilon", "0.25"),
    ])
    def test_lax_key_file_fields(self, tmp_path, capsys, field, value):
        key = tmp_path / "key.json"
        if field == "padded":  # a closed-key field; "no" once loaded as True
            run_cli("keygen", "--scheme", "closed", "--d", "8", "--out", str(key))
        else:
            run_cli("keygen", "--scheme", "open", "--d", "8", "--epsilon", "0.5",
                    "--k", "2", "--out", str(key))
        obj = json.loads(key.read_text())
        obj[field] = value + obj[field] if field == "master_seed_base64" else value
        key.write_text(json.dumps(obj))
        text = tmp_path / "tokens.txt"
        text.write_text("0 1 2\n")
        assert run_cli("detect", "--text", str(text), "--key", str(key)) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("tokens", [1.7, 2.2]), ("tokens", [True, False]), ("tokens", ["1", "2"]),
        ("d", 8.9),
    ])
    def test_lax_text_record_fields(self, tmp_path, capsys, field, value):
        # Each of these once loaded (tokens [1, 2] or [1, 0], d = 8) and was
        # scored.
        key = tmp_path / "key.json"
        run_cli("keygen", "--scheme", "closed", "--d", "8", "--out", str(key))
        text = tmp_path / "text.json"
        record = {"d": 8, "scheme": "closed", "tokens": [1, 2], "pstar": [0.5, 0.5]}
        text.write_text(json.dumps({**record, field: value}))
        assert run_cli("detect", "--text", str(text), "--key", str(key)) == 2
        assert "error:" in capsys.readouterr().err

    def test_record_values_out_of_range(self, tmp_path, capsys):
        # A d = 7 record holding token 7, the padding token, with p* = 5.0
        # once loaded and was scored against a padded closed key (exit 1).
        key = tmp_path / "key.json"
        run_cli("keygen", "--scheme", "closed", "--d", "7", "--out", str(key))
        text = tmp_path / "text.json"
        record = {"d": 7, "scheme": "closed", "tokens": [1, 2], "pstar": [0.5, 0.5]}
        for name, change in (("token", {"tokens": [1, 7]}), ("pstar", {"pstar": [0.5, 5.0]})):
            text.write_text(json.dumps({**record, **change}))
            assert run_cli("detect", "--text", str(text), "--key", str(key)) == 2
            assert name in capsys.readouterr().err

    def test_record_error_is_reported_as_is(self, tmp_path, capsys):
        key = tmp_path / "key.json"
        run_cli("keygen", "--scheme", "closed", "--d", "8", "--out", str(key))
        text = tmp_path / "text.json"
        text.write_text(json.dumps({"d": 8, "scheme": "closed", "tokens": [1.5, 2],
                                    "pstar": [0.5, 0.5]}))
        assert run_cli("detect", "--text", str(text), "--key", str(key)) == 2
        err = capsys.readouterr().err
        assert "tokens" in err
        assert "token file" not in err
        bare = tmp_path / "tokens.txt"
        bare.write_text("\n  1 2 3\n")
        assert run_cli("detect", "--text", str(bare), "--key", str(key)) in (0, 1)
        assert json.loads(capsys.readouterr().out)["n_tokens"] == 3
        # Not UTF-8: once a traceback with exit 1.
        bare.write_bytes(b"\xff\xfe 1 2")
        assert run_cli("detect", "--text", str(bare), "--key", str(key)) == 2
        assert "error:" in capsys.readouterr().err

    def test_record_d_must_fit_the_key(self, tmp_path, capsys):
        text = tmp_path / "text.json"
        text.write_text(json.dumps({"d": 8, "scheme": "closed", "tokens": [1, 2],
                                    "pstar": [0.5, 0.5]}))
        for d, padded in ((16, False), (8, True)):
            key = tmp_path / f"key{d}.json"
            save_key(WatermarkKey(master_seed=bytes(32), d=d, scheme=CLOSED,
                                  padded=padded), key)
            assert run_cli("detect", "--text", str(text), "--key", str(key)) == 2
            assert "d=8" in capsys.readouterr().err

    def test_padding_token_is_refused(self, tmp_path, capsys):
        # A bare token file holding a padded key's last token, which sampling
        # never emits, got a report and exit 1; a text record holding it
        # already exits 2 (test_record_values_out_of_range).
        key = tmp_path / "key.json"
        run_cli("keygen", "--scheme", "closed", "--d", "7", "--out", str(key))
        capsys.readouterr()
        text = tmp_path / "tokens.txt"
        text.write_text("7 7 7 7 7\n")
        assert run_cli("detect", "--text", str(text), "--key", str(key)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "out of range for dictionary size 7" in captured.err
        text.write_text("6 6 6 6 6\n")
        assert run_cli("detect", "--text", str(text), "--key", str(key)) in (0, 1)

    def test_padded_key_scores_its_record(self, tmp_path, capsys):
        key = tmp_path / "key.json"
        record = tmp_path / "record.json"
        run_cli("keygen", "--scheme", "closed", "--d", "7", "--out", str(key))
        run_cli("generate", "--model", json.dumps({"kind": "uniform", "d": 7}),
                "--n", "300", "--seed", "3", "--key", str(key), "--out", str(record))
        capsys.readouterr()
        assert load_record(record).d == 7
        assert run_cli("detect", "--text", str(record), "--key", str(key)) == 0
        assert json.loads(capsys.readouterr().out)["n_tokens"] == 300

    @pytest.mark.parametrize("log2_d", [62, 70])
    def test_huge_closed_key_exits_2(self, tmp_path, log2_d):
        # A closed key at d = 2**62 listed one block counter per 128 words
        # before allocating anything and was killed for memory; at d = 2**70
        # it ran past a minute. No array holds its coloring, so detect now
        # exits 2 at once. An open key at the same d still scores, one block
        # per token. The child's address space is capped, so that a
        # regression fails here instead of filling the machine's memory.
        text = tmp_path / "tokens.txt"
        text.write_text("0 1 2\n")
        for scheme, options, codes in ((CLOSED, {}, {2}), (OPEN, {"epsilon": 0.5, "k": 4}, {0, 1})):
            key = tmp_path / f"{scheme}.json"
            save_key(WatermarkKey(master_seed=bytes(32), d=2**log2_d, scheme=scheme, **options),
                     key)
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "tokenmark", "detect", "--text", str(text), "--key", str(key)],
                capture_output=True, text=True, env=child_env(), timeout=30,
                preexec_fn=cap_address_space)
            elapsed = time.perf_counter() - start
            assert proc.returncode in codes, proc.stderr
            assert elapsed < 10, f"{scheme} detect at d=2**{log2_d} took {elapsed:.1f}s"
            if scheme == CLOSED:
                assert proc.stdout == ""
                assert proc.stderr == (f"error: d={2**log2_d} is too large to derive: "
                                       f"1 x {2**log2_d} words exceed the largest array\n")
            else:
                assert json.loads(proc.stdout)["n_tokens"] == 3

    def test_bad_delta(self, tmp_path, capsys):
        key = tmp_path / "key.json"
        run_cli("keygen", "--scheme", "closed", "--d", "8", "--out", str(key))
        text = tmp_path / "tokens.txt"
        text.write_text("0 1 2\n")
        rc = run_cli("detect", "--text", str(text), "--key", str(key),
                     "--delta", "0")
        assert rc == 2
        capsys.readouterr()
        # 1/delta overflowed for these, and the report held "threshold": Infinity.
        for delta in ("1e-320", "5e-324"):
            assert run_cli("detect", "--text", str(text), "--key", str(key),
                           "--delta", delta) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "delta" in captured.err
        assert run_cli("detect", "--text", str(text), "--key", str(key),
                       "--delta", "2.3e-308") in (0, 1)
        report = json.loads(capsys.readouterr().out)
        assert report["delta"] == 2.3e-308 and np.isfinite(report["threshold"])


class TestVerify:
    def test_quick_passes(self, capsys):
        assert run_cli("verify", "--level", "quick") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_pass"] is True
        assert report["level"] == "quick"
        assert len(report["checks"]) == 10

    def test_report_file(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        assert run_cli("verify", "--out", str(out)) == 0
        assert json.loads(out.read_text()) == json.loads(
            capsys.readouterr().out)

    def test_broken_library_fails_verify(self, monkeypatch, capsys):
        real = tokenmark.closed_scheme.watermark_distribution

        def overshooting(p, coloring, flip):
            q = np.asarray(p) + 2.0 * (real(p, coloring, flip) - p)
            q = np.clip(q, 0.0, None)
            return q / q.sum()

        monkeypatch.setattr(tokenmark.closed_scheme, "watermark_distribution",
                            overshooting)
        rc = run_cli("verify", "--level", "quick")
        captured = capsys.readouterr()
        assert rc == 1
        assert "failed checks:" in captured.err
        assert json.loads(captured.out)["all_pass"] is False

    def test_rejects_unknown_level(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("verify", "--level", "paranoid")
        assert exc.value.code == 2


class TestExperiment:
    def test_end_to_end(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "root_seed": 99,
            "workers": 1,
            "experiments": [{"name": "fpr", "type": "closed-soundness",
                             "d": 8, "n": 50, "texts": 40,
                             "deltas": [0.05]}],
        }))
        out_dir = tmp_path / "results"
        rc = run_cli("experiment", "--config", str(config),
                     "--out-dir", str(out_dir))
        assert rc == 0
        manifest = json.loads(capsys.readouterr().out)
        assert (out_dir / "manifest.json").exists()
        for filename in manifest["outputs"].values():
            assert (out_dir / filename).exists()

    @pytest.mark.parametrize("workers, experiment", [
        ("two", FPR), (1, {**FPR, "d": "8"}), (1, {**FPR, "d": 8.0}),
        (1, {**FPR, "n": 20.5}), (1, POWER), (1, {**FPR, "name": 5}),
        (1, {**FPR, "type": ["closed-soundness"]}),
        (1, {"name": "p", "type": "sparse-power", "tests": [["scan"]]}),
        (1, {"name": "p", "type": "sparse-power", "tests": "scan"}),
    ], ids=["workers-string", "d-string", "d-float", "n-float", "n_grid-float", "name-int",
            "type-list", "tests-nested", "tests-string"])
    def test_malformed_config_fields(self, tmp_path, capsys, workers, experiment):
        # Each once ended in a traceback with exit 1; the n_grid one silently
        # ran n = 200.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"root_seed": 99, "workers": workers,
                                      "experiments": [experiment]}))
        out_dir = tmp_path / "results"
        rc = run_cli("experiment", "--config", str(config), "--out-dir", str(out_dir))
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_overflowing_epsilon_config_refused(self, tmp_path, capsys):
        # Such a sweep once wrote power 1.0 from NaN statistics and exited 0.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"root_seed": 99, "experiments": [
            {"name": "open-power", "type": "open-completeness", "d": 16, "n_grid": [50],
             "texts": 10, "delta": 0.05, "epsilon": 1e308, "k": 2}]}))
        out_dir = tmp_path / "results"
        assert run_cli("experiment", "--config", str(config), "--out-dir", str(out_dir)) == 2
        assert "epsilon" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_missing_field_of_later_experiment(self, tmp_path, capsys):
        # Required fields were once checked only as each experiment ran, by
        # when the first one's CSV was written and no manifest followed.
        second = {key: value for key, value in FPR.items() if key != "deltas"}
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"root_seed": 99,
                                      "experiments": [FPR, {**second, "name": "b"}]}))
        out_dir = tmp_path / "results"
        rc = run_cli("experiment", "--config", str(config), "--out-dir", str(out_dir))
        assert rc == 2
        assert "deltas" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("second, name, value", [
        ({**FPR, "d": 1}, "d", 1), ({**FPR, "d": 7}, "d", 7), ({**FPR, "texts": 0}, "texts", 0),
        ({**FPR, "n": 0}, "n", 0), ({**POWER, "n_grid": [0]}, "n_grid", [0]),
        ({**FPR, "deltas": [1.5]}, "deltas", [1.5]),
        ({**FPR, "type": "open-soundness", "k": 99}, "k", 99),
        ({**FPR, "type": "open-soundness", "epsilon": -1}, "epsilon", -1),
        ({**SPARSE, "k": 9}, "k", 9), ({**SPARSE, "alpha": 1.5}, "alpha", 1.5),
        ({**SPARSE, "d": 40, "k": 8, "tests": ["scan"]}, "k", 8),
        ({**SPARSE, "d": 1414, "k": 2, "tests": ["scan"]}, "k", 2),
    ], ids=["d-1", "closed-d-7", "texts-0", "n-0", "n_grid-0", "deltas-1.5", "open-k-99",
            "open-epsilon-neg", "sparse-k-9", "sparse-alpha-1.5", "scan-budget",
            "scan-matrix-bytes"])
    def test_value_out_of_range_in_later_experiment(self, tmp_path, capsys, second, name, value):
        # Value ranges were once checked only as each experiment ran, by when
        # the first one's CSV was written and no manifest followed.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"root_seed": 99,
                                      "experiments": [FPR, {**second, "name": "b"}]}))
        out_dir = tmp_path / "results"
        rc = run_cli("experiment", "--config", str(config), "--out-dir", str(out_dir))
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{name} must" in err and f"got {value}" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("experiment, warns", [
        ({**SPARSE, "d": 1, "k": 1, "tests": ["threshold", "scan"]}, False),
        ({**FPR, "type": "open-soundness", "epsilon": 0.9}, True),
        ({**POWER, "n_grid": [], "texts": 0, "delta": 1.5, "k": 99}, False),
        ({**SPARSE, "tests": [], "alpha": 1.5}, False),
    ], ids=["sparse-d-k-1", "open-epsilon-0.9", "empty-n_grid", "no-tests"])
    def test_value_range_ends_run(self, tmp_path, capsys, experiment, warns):
        # An epsilon above 0.5 only warns, and a grid with no point reads
        # only a detector's key values.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"root_seed": 99, "experiments": [experiment]}))
        out_dir = tmp_path / "results"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run_cli("experiment", "--config", str(config), "--out-dir", str(out_dir))
        assert rc == 0
        assert (out_dir / f"{experiment['name']}.csv").exists()
        assert bool(caught) == warns

    def test_missing_config(self, tmp_path, capsys):
        rc = run_cli("experiment", "--config", str(tmp_path / "nope.json"),
                     "--out-dir", str(tmp_path / "results"))
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("root_seed", [2**127, -2**127 - 1, True, 1.5, "7"],
                             ids=["2**127", "-2**127-1", "true", "float", "string"])
    def test_bad_root_seed(self, tmp_path, capsys, root_seed):
        # 2**127 once ended in an OverflowError traceback with exit 1, and
        # true ran as root seed 1.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"root_seed": root_seed, "experiments": [FPR]}))
        out_dir = tmp_path / "results"
        rc = run_cli("experiment", "--config", str(config), "--out-dir", str(out_dir))
        assert rc == 2
        assert "root_seed" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("root_seed", [2**127 - 1, -2**127], ids=["max", "min"])
    def test_root_seed_range_ends(self, tmp_path, capsys, root_seed):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"root_seed": root_seed, "experiments": [FPR]}))
        out_dir = tmp_path / "results"
        rc = run_cli("experiment", "--config", str(config), "--out-dir", str(out_dir))
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["root_seed"] == root_seed
        assert (out_dir / "fpr.csv").exists()


@pytest.mark.parametrize("flag", ["detect --key", "detect --text", "generate --key",
                                  "generate --model-file", "experiment --config"])
def test_non_utf8_file(tmp_path, capsys, flag):
    # A file starting with bytes ff fe once ended in a UnicodeDecodeError
    # traceback with exit 1 for detect --key, generate --model-file and
    # experiment --config.
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    key, text, out = tmp_path / "key.json", tmp_path / "text.txt", tmp_path / "out"
    run_cli("keygen", "--scheme", "closed", "--d", "64", "--out", str(key))
    text.write_text("1 2 3\n")
    generate = ["generate", "--n", "5", "--seed", "0", "--out", out]
    argv = {
        "detect --key": ["detect", "--text", text, "--key", bad, "--out", out],
        "detect --text": ["detect", "--text", bad, "--key", key, "--out", out],
        "generate --key": [*generate, "--model", UNIFORM64, "--key", bad],
        "generate --model-file": [*generate, "--model-file", bad],
        "experiment --config": ["experiment", "--config", bad, "--out-dir", out],
    }[flag]
    assert run_cli(*map(str, argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


class TestParser:
    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            run_cli()
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 2

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("keygen", "--scheme", "closed", "--d", "8")
        assert exc.value.code == 2


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def declared_scripts():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"].get("scripts", {})


def is_installed():
    try:
        importlib.metadata.distribution("tokenmark")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


class TestInstalledEntryPoints:
    def test_console_script(self, tmp_path):
        target = declared_scripts().get("tokenmark")
        assert target is not None, "pyproject.toml declares no tokenmark script"
        entry = importlib.metadata.EntryPoint(
            name="tokenmark", value=target, group="console_scripts")
        assert callable(entry.load())
        # The launcher an installer writes for a console_scripts entry.
        launcher = tmp_path / "tokenmark"
        launcher.write_text(f"import sys\n"
                            f"from {entry.module} import {entry.attr}\n"
                            f"sys.exit({entry.attr}())\n")
        proc = subprocess.run([sys.executable, str(launcher), "--help"],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert "keygen" in proc.stdout

    @pytest.mark.skipif(not is_installed(),
                        reason="tokenmark is not installed; run "
                               "`pip install -e .` to check the installed "
                               "console script")
    def test_installed_console_script(self):
        dist = importlib.metadata.distribution("tokenmark")
        entries = dist.entry_points.select(group="console_scripts",
                                          name="tokenmark")
        assert [ep.value for ep in entries] == ["tokenmark.cli:main"]
        exe = (shutil.which("tokenmark", path=sysconfig.get_path("scripts"))
               or shutil.which("tokenmark"))
        assert exe is not None, "no installed tokenmark script found"
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "keygen" in proc.stdout

    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "tokenmark", "--help"],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0
        assert "detect" in proc.stdout


class TestStartup:
    def test_cli_import_loads_traced_layers_only(self):
        """``import tokenmark.cli`` loads every layer whose entry points the
        benchmark's tracer wraps, since it wraps only the modules loaded when
        ``cli.main`` starts. It loads none of the modules that only
        ``experiment`` uses: ``importlib.metadata`` (its package lookup
        scans every ``sys.path`` entry), ``concurrent.futures`` (which loads
        ``logging``) and ``numpy.random``."""
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        code = "import sys, tokenmark.cli; print(' '.join(sys.modules))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=child_env())
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert {f"tokenmark.{layer}" for layer in tracing.ENTRY_POINTS} <= loaded
        assert not {"importlib.metadata", "concurrent.futures", "numpy.random"} & loaded
