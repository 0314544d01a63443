"""Experiment runner: config validation, CSV schemas, reproducibility."""

import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest

from tokenmark import experiments
from tokenmark.cli import main
from tokenmark.errors import InvalidInputError
from tokenmark.experiments import (
    CLOSED_COMPLETENESS_HEADER,
    OPEN_COMPLETENESS_HEADER,
    SOUNDNESS_HEADER,
    config_digest,
    load_config,
    run_experiments,
    validate_config,
)
from tokenmark.sparsemean import POWER_CSV_HEADER


def small_config():
    return {
        "root_seed": 20240817,
        "workers": 1,
        "experiments": [
            {
                "name": "closed-fpr",
                "type": "closed-soundness",
                "d": 16,
                "n": 200,
                "texts": 400,
                "deltas": [0.01, 0.05, 0.1],
            },
            {
                "name": "closed-power",
                "type": "closed-completeness",
                "d": 16,
                "n_grid": [200, 600],
                "texts": 50,
                "delta": 0.05,
            },
            {
                "name": "open-power",
                "type": "open-completeness",
                "d": 16,
                "n_grid": [300],
                "texts": 50,
                "delta": 0.05,
                "epsilon": 0.5,
                "k": 2,
            },
            {
                "name": "sparse-grid",
                "type": "sparse-power",
                "d": 8,
                "k": 2,
                "epsilon": 1.0,
                "alpha": 0.05,
                "n_grid": [10, 40],
                "trials": 40,
                "tests": ["threshold", "scan"],
            },
        ],
    }


def pinned_config():
    """``small_config`` plus an open-soundness sweep: one of each type."""
    config = small_config()
    config["experiments"].append({"name": "open-fpr", "type": "open-soundness", "d": 16,
                                  "n": 200, "texts": 400, "epsilon": 0.5, "k": 2,
                                  "deltas": [0.01, 0.05, 0.1]})
    return config


# SHA-256 of each output of ``pinned_config``; the manifest's with its
# ``versions`` object emptied, since those name the installed numpy and python.
# closed-fpr.csv was pinned again when experiment keys became key format 3.
PINNED_OUTPUTS = {
    "closed-fpr.csv": "b8ee1750bac0bf28bd7617ae3bc79f177d3870289d4d230684cc4e28e9e3f4b1",
    "closed-power.csv": "b27935cd44fda43074bd383c06972371aa51cf52905f94ac45c6f4cf8f2d07a2",
    "open-fpr.csv": "aa27e0b20a6ff6cc97d2685326504926df4a293688495a560082e2c59e98eb87",
    "open-power.csv": "9f504533ad09af8430ace6290523ec1eae4f9a39f9af7e93971c91359a53d084",
    "sparse-grid.csv": "32446d74a0ff4f4dbd34523664904dc0643e1430513ce578d5a2115ea3f60551",
    "manifest.json": "e62e0d49d6b38a7dcd0854197f47cc9c86697b249b12f87da9c85eb8c5e3f212",
}


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestConfigValidation:
    def test_valid_config_passes(self):
        validate_config(small_config())

    def test_requires_root_seed_and_experiments(self):
        with pytest.raises(InvalidInputError):
            validate_config({"experiments": [{"name": "a", "type": "closed-soundness"}]})
        with pytest.raises(InvalidInputError):
            validate_config({"root_seed": 1, "experiments": []})
        with pytest.raises(InvalidInputError):
            validate_config([1, 2])

    def test_rejects_bad_names(self):
        config = small_config()
        config["experiments"][0]["name"] = "../escape"
        with pytest.raises(InvalidInputError):
            validate_config(config)

    def test_rejects_duplicate_names(self):
        config = small_config()
        config["experiments"][1]["name"] = config["experiments"][0]["name"]
        with pytest.raises(InvalidInputError):
            validate_config(config)

    def test_rejects_unknown_type(self):
        config = small_config()
        config["experiments"][0]["type"] = "teleport"
        with pytest.raises(InvalidInputError):
            validate_config(config)

    @pytest.mark.parametrize("index, name, value", [
        (2, "epsilon", 1e308), (3, "epsilon", 2.0**960), (4, "epsilon", 1e300 * 1e8),
        (1, "delta", 1e-320), (0, "deltas", [0.05, 5e-324]), (4, "deltas", [2.0**-1024]),
    ])
    def test_rejects_overflowing_epsilon_and_delta(self, tmp_path, index, name, value):
        # An open-completeness sweep at epsilon = 1e308 once wrote power 1.0
        # from NaN statistics, and a subnormal delta an infinite threshold.
        config = pinned_config()
        config["experiments"][index][name] = value
        with pytest.raises(InvalidInputError, match=name):
            validate_config(config)
        with pytest.raises(InvalidInputError, match=name):
            run_experiments(config, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_smallest_delta_accepted(self):
        config = pinned_config()
        config["experiments"][1]["delta"] = 2.3e-308
        config["experiments"][0]["deltas"] = [2.3e-308, 0.05]
        validate_config(config)

    def test_missing_parameter_reported(self, tmp_path):
        config = small_config()
        del config["experiments"][0]["deltas"]
        with pytest.raises(InvalidInputError, match="deltas"):
            run_experiments(config, tmp_path)

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(small_config()))
        assert load_config(path) == small_config()
        with pytest.raises(InvalidInputError):
            load_config(tmp_path / "missing.json")

    def test_digest_is_canonical(self):
        a = {"root_seed": 1, "experiments": [{"name": "x", "type": "sparse-power"}]}
        b = {"experiments": [{"type": "sparse-power", "name": "x"}], "root_seed": 1}
        assert config_digest(a) == config_digest(b)
        assert len(config_digest(a)) == 64


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    manifest = run_experiments(small_config(), out)
    return out, manifest


class TestRunOutputs:
    def test_manifest_contents(self, outputs):
        out, manifest = outputs
        assert manifest["config_digest"] == config_digest(small_config())
        assert manifest["root_seed"] == 20240817
        assert sorted(manifest["outputs"]) == [
            "closed-fpr", "closed-power", "open-power", "sparse-grid",
        ]
        assert set(manifest["versions"]) == {"tokenmark", "numpy", "python"}
        on_disk = json.loads((out / "manifest.json").read_text())
        assert on_disk == manifest

    def test_no_timestamps_anywhere(self, outputs):
        out, _ = outputs
        manifest_text = (out / "manifest.json").read_text()
        for fragment in ("time", "date", "host"):
            assert fragment not in manifest_text

    def test_soundness_schema_and_level(self, outputs):
        out, _ = outputs
        header, rows = read_csv(out / "closed-fpr.csv")
        assert header == SOUNDNESS_HEADER
        assert len(rows) == 3
        deltas = [float(r[1]) for r in rows]
        assert deltas == sorted(deltas)
        for row in rows:
            delta, fpr = float(row[1]), float(row[5])
            # Sub-Gaussian calibration: observed FPR within binomial noise
            # of at most delta (3 sigma at 400 texts).
            assert fpr <= delta + 3 * (delta * (1 - delta) / 400) ** 0.5 + 1 / 400
            assert float(row[6]) <= fpr <= float(row[7])

    def test_closed_completeness_schema(self, outputs):
        out, _ = outputs
        header, rows = read_csv(out / "closed-power.csv")
        assert header == CLOSED_COMPLETENESS_HEADER
        ns = [int(r[1]) for r in rows]
        assert ns == [200, 600]
        # Uniform source: the statistic is exactly 1, every text detected.
        for row in rows:
            assert float(row[6]) == 1.0
        # The condition margin grows with text length.
        gammas = [float(r[5]) for r in rows]
        assert gammas[1] > gammas[0]

    def test_open_completeness_schema(self, outputs):
        out, _ = outputs
        header, rows = read_csv(out / "open-power.csv")
        assert header == OPEN_COMPLETENESS_HEADER
        assert int(rows[0][1]) == 300
        assert float(rows[0][7]) >= 0.9

    def test_sparse_power_schema(self, outputs):
        out, _ = outputs
        header, rows = read_csv(out / "sparse-grid.csv")
        assert header == POWER_CSV_HEADER
        keys = [(r[0], int(r[1])) for r in rows]
        assert keys == sorted(keys)
        assert len(rows) == 4

    def test_csv_formatting(self, outputs):
        out, _ = outputs
        raw = (out / "closed-fpr.csv").read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        # Decimal separator is '.', never ','-in-number confusion: every row
        # has exactly the header's column count.
        lines = raw.decode().splitlines()
        width = len(lines[0].split(","))
        assert all(len(line.split(",")) == width for line in lines)


class TestReproducibility:
    def test_reruns_are_byte_identical(self, tmp_path):
        config = small_config()
        a, b = tmp_path / "a", tmp_path / "b"
        run_experiments(config, a)
        run_experiments(config, b)
        for name in ("closed-fpr.csv", "closed-power.csv", "open-power.csv",
                     "sparse-grid.csv", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_pinned_output_bytes(self, tmp_path):
        run_experiments(pinned_config(), tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(PINNED_OUTPUTS)
        for name, expected in PINNED_OUTPUTS.items():
            raw = (tmp_path / name).read_bytes()
            if name == "manifest.json":
                raw = re.sub(rb'"versions": \{[^}]*\}', b'"versions": {}', raw)
            assert hashlib.sha256(raw).hexdigest() == expected, name

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        serial = small_config()
        threaded = small_config()
        threaded["workers"] = 4
        a, b = tmp_path / "serial", tmp_path / "threaded"
        run_experiments(serial, a)
        run_experiments(threaded, b)
        assert (a / "sparse-grid.csv").read_bytes() == (b / "sparse-grid.csv").read_bytes()

    def test_duplicate_grid_values_run_once(self, tmp_path):
        """A value repeated in ``deltas``, ``n_grid`` or ``tests`` writes one
        row, so a config with repeats writes the CSV bytes of its
        deduplicated twin. Soundness and completeness wrote, and completeness
        generated, a repeated value once per entry."""
        twin = pinned_config()
        repeated = pinned_config()
        for exp in repeated["experiments"]:
            for name in ("deltas", "n_grid", "tests"):
                if name in exp:
                    exp[name] = exp[name][::-1] + exp[name][:1]
        run_experiments(twin, tmp_path / "twin")
        run_experiments(repeated, tmp_path / "repeated")
        for path in sorted((tmp_path / "twin").glob("*.csv")):
            assert (tmp_path / "repeated" / path.name).read_bytes() == path.read_bytes(), path.name

    def test_sparse_power_rows_sorted_and_unique(self, tmp_path):
        config = {"root_seed": 17, "workers": 2, "experiments": [
            {"name": "grid", "type": "sparse-power", "d": 6, "k": 2, "epsilon": 1.0,
             "alpha": 0.05, "n_grid": [20, 5, 20], "trials": 30,
             "tests": ["threshold", "scan"]}]}
        run_experiments(config, tmp_path)
        header, rows = read_csv(tmp_path / "grid.csv")
        assert header == POWER_CSV_HEADER
        assert [(r[0], int(r[1])) for r in rows] == [
            ("scan", 5), ("scan", 20), ("threshold", 5), ("threshold", 20)]

    def test_different_root_seed_changes_results(self, tmp_path):
        config = small_config()
        other = small_config()
        other["root_seed"] = 999
        a, b = tmp_path / "a", tmp_path / "b"
        run_experiments(config, a)
        run_experiments(other, b)
        assert (a / "closed-fpr.csv").read_bytes() != (b / "closed-fpr.csv").read_bytes()

    def test_soundness_block_size_does_not_change_bytes(self, tmp_path, monkeypatch, capsys):
        """Soundness texts are generated and scored a block at a time. Blocks
        of one text, of 7 texts (400 leave a partial last block) and the
        default single block give the same statistics and the same
        ``tokenmark experiment`` bytes."""
        config = {"root_seed": 5, "experiments": [
            exp for exp in pinned_config()["experiments"] if exp["type"].endswith("soundness")]}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        rate = experiments._rate
        outputs, statistics = [], []

        def recording_rate(key, z, n, delta):
            statistics[-1].append(z.copy())
            return rate(key, z, n, delta)

        monkeypatch.setattr(experiments, "_rate", recording_rate)
        for budget in (experiments._SOUNDNESS_BLOCK_BYTES, 1, 8 * 200 * 7):
            monkeypatch.setattr(experiments, "_SOUNDNESS_BLOCK_BYTES", budget)
            statistics.append([])
            out = tmp_path / str(budget)
            assert main(["experiment", "--config", str(config_path),
                         "--out-dir", str(out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        capsys.readouterr()
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        for run in statistics[1:]:
            assert len(run) == len(statistics[0]) == 6
            for z, expected in zip(run, statistics[0]):
                np.testing.assert_array_equal(z, expected)

    @pytest.mark.parametrize("kind", ["closed-soundness", "open-soundness"])
    def test_soundness_memory_does_not_grow_with_texts(self, kind):
        """A soundness run holds one block of texts at a time, so four times
        the texts peak within a few O(texts) arrays of the same. Drawing all
        texts at once held 16 B per (text, step) of uniforms and tokens, and
        the statistics up to 17 B more."""
        peaks = []
        for texts in (2048, 8192):
            exp = {"name": "fpr", "type": kind, "d": 64, "n": 256, "texts": texts,
                   "epsilon": 0.5, "k": 2, "deltas": [0.05]}
            experiments._RUNNERS[kind](exp, 3, 1)  # derive the key material once
            tracemalloc.start()
            try:
                experiments._RUNNERS[kind](exp, 3, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 32 * 8192, (
            f"peaked at {peaks[0] / 2**20:.1f} and {peaks[1] / 2**20:.1f} MiB")

    @pytest.mark.parametrize("kind", ["closed-completeness", "open-completeness"])
    def test_completeness_memory_per_text_step(self, kind):
        """Completeness scores each step as it is sampled and keeps only the
        uniforms, which the scores overwrite: four times the texts of one
        n = 256 grid point peak within 8 B per added (text, step) plus a few
        O(texts) arrays. A token matrix beside the uniforms held 16 B."""
        peaks = []
        for texts in (2048, 8192):
            exp = {"name": "power", "type": kind, "d": 64, "n_grid": [256], "texts": texts,
                   "delta": 0.05, "epsilon": 0.5, "k": 2}
            experiments._RUNNERS[kind](exp, 3, 1)  # derive the key material once
            tracemalloc.start()
            try:
                experiments._RUNNERS[kind](exp, 3, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 10 * (8192 - 2048) * 256, (
            f"peaked at {peaks[0] / 2**20:.1f} and {peaks[1] / 2**20:.1f} MiB")

    def test_bad_worker_count(self, tmp_path):
        config = small_config()
        config["workers"] = 0
        with pytest.raises(InvalidInputError):
            run_experiments(config, tmp_path)
