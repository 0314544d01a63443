"""Config-driven experiment sweeps with byte-reproducible outputs.

A single JSON config declares every sweep and the root seed; keys, text
randomness, and Monte-Carlo draws are all derived from named paths under
that root, so re-running the same config reproduces every output file
byte for byte. Results are CSV (LF line endings, '.' decimal separator,
mandatory header) plus a manifest recording the config digest and library
versions; deliberately no timestamps or hostnames, which would break
reproducibility for no benefit.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

from .core import field, is_int, is_number, json_text, read_json
from .detector import closed_statistics, open_statistics, threshold
from .errors import InvalidInputError
from .keystream import CLOSED, FRESH_SUPPORT, OPEN, WatermarkKey
from .seeds import check_seed, derive_master_seed, derive_seed, rng_for
from .sparsemean import (POWER_CSV_HEADER, SCAN_TEST, THRESHOLD_TEST, power_point,
                         scan_budget_error, wilson_interval)
from .textgen import _condition_slack, generate_many, generate_statistics, uniform_source

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

SOUNDNESS_HEADER = ["scheme", "delta", "d", "n", "texts", "fpr", "ci_lo", "ci_hi"]
CLOSED_COMPLETENESS_HEADER = ["scheme", "n", "d", "delta", "texts", "gamma",
                              "power", "ci_lo", "ci_hi"]
OPEN_COMPLETENESS_HEADER = ["scheme", "n", "d", "epsilon", "k", "delta", "texts",
                            "power", "ci_lo", "ci_hi"]


def _list_of(check):
    return lambda value: isinstance(value, list) and all(map(check, value))


# The type every experiment field must have.
_FIELDS = {"d": is_int, "n": is_int, "texts": is_int, "k": is_int, "trials": is_int,
           "n_grid": _list_of(is_int), "epsilon": is_number, "alpha": is_number,
           "delta": is_number, "deltas": _list_of(is_number),
           "tests": _list_of(lambda v: v in (THRESHOLD_TEST, SCAN_TEST))}


def load_config(path) -> dict:
    config = read_json(path, "experiment config")
    validate_config(config)
    return config


def validate_config(config: dict) -> None:
    if not isinstance(config, dict):
        raise InvalidInputError("config must be a JSON object")
    check_seed(field(config, "root_seed", is_int), "root_seed")
    workers = field(config, "workers", is_int, 1)
    if workers < 1:
        raise InvalidInputError(f"workers must be at least 1, got {workers!r}")
    experiments = config.get("experiments")
    if not isinstance(experiments, list) or not experiments:
        raise InvalidInputError("config needs a non-empty experiments list")
    seen = set()
    for exp in experiments:
        if not isinstance(exp, dict) or "name" not in exp or "type" not in exp:
            raise InvalidInputError("each experiment needs a name and a type")
        name = exp["name"]
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise InvalidInputError(f"experiment name {name!r} is not a safe file stem")
        if name in seen:
            raise InvalidInputError(f"duplicate experiment name {name!r}")
        seen.add(name)
        if not isinstance(exp["type"], str) or exp["type"] not in _RUNNERS:
            raise InvalidInputError(f"unknown experiment type {exp['type']!r}")
        required = _REQUIRED[exp["type"]]
        try:
            for key, check in _FIELDS.items():
                field(exp, key, check, ... if key in required else None)
            _check_values(exp)
        except InvalidInputError as exc:
            raise InvalidInputError(f"experiment {name!r}: {exc}") from exc


# The open interval each number, or each entry of a list, must lie in where
# a runner reads it; k's is (0, d + 1), and a closed d must also be even.
_RANGES = {**dict.fromkeys(("n", "n_grid", "texts", "trials", "epsilon"), (0, math.inf)),
           **dict.fromkeys(("delta", "deltas", "alpha"), (0, 1))}


def _check_values(exp: dict) -> None:
    """Raise unless each value the experiment's runner reads lies in its range."""
    kind, d, k = exp["type"], exp["d"], exp.get("k")
    reads = _REQUIRED[kind] + (("epsilon", "k") if kind.startswith("open") else ())
    if not all(exp[name] for name in ("n_grid", "tests") if name in reads):
        # A grid with no point makes only a detector's key.
        reads = () if kind == "sparse-power" else set(reads) & {"d", "epsilon", "k"}
    ranges = {**_RANGES, "d": (0 if kind == "sparse-power" else 1, math.inf), "k": (0, d + 1)}
    for name, (lo, hi) in ranges.items():
        if name in reads and name in exp and not all(lo < v < hi for v in np.ravel(exp[name])):
            raise InvalidInputError(f"{name} must lie in ({lo}, {hi}), got {exp[name]!r}")
    if kind.startswith("closed") and d % 2:
        raise InvalidInputError(f"d must be even for the closed scheme, got {d}")
    if "tests" in reads and SCAN_TEST in exp["tests"]:
        refusal = scan_budget_error(d, k)
        if refusal:
            raise InvalidInputError(f"k must keep the scan within its budgets, got {k}: {refusal}")


def _key(exp: dict, root, scheme: str, d: int) -> WatermarkKey:
    seed = derive_master_seed(root, exp["name"], "key")
    if scheme == CLOSED:
        return WatermarkKey(seed, d=d, scheme=CLOSED)
    return WatermarkKey(seed, d=d, scheme=OPEN, epsilon=float(exp.get("epsilon", 0.5)),
                        k=exp.get("k", 1), support_mode=FRESH_SUPPORT)


def _statistics(key: WatermarkKey, tokens: np.ndarray) -> np.ndarray:
    return (closed_statistics if key.scheme == CLOSED else open_statistics)(key, tokens)


def _rate(key: WatermarkKey, z: np.ndarray, n: int, delta: float) -> list:
    """Share of the statistics ``z`` at or above the key's threshold, and
    its Wilson interval."""
    hits = int((z >= threshold(key, n, delta)).sum())
    return [hits / z.size, *wilson_interval(hits, z.size)]


# Unkeyed soundness texts are generated and scored a block at a time, in
# bytes of their uniforms. 2 MiB is 262144 draws, well above the size from
# which core.sample_tokens searches by bucket table at any realistic d.
_SOUNDNESS_BLOCK_BYTES = 2 << 20


def _soundness(exp: dict, root, scheme: str) -> tuple[list[str], list[list]]:
    """False-positive rates of unkeyed texts. Successive draws of one rng
    give the rows of a single draw, so the texts, and their statistics, do
    not depend on the block size."""
    d, n, texts = exp["d"], exp["n"], exp["texts"]
    key = _key(exp, root, scheme, d)
    model, rng = uniform_source(d), rng_for(root, exp["name"], "texts")
    rows = max(1, _SOUNDNESS_BLOCK_BYTES // (8 * n))
    z = np.concatenate([_statistics(key, generate_many(model, n, None, min(rows, texts - lo), rng))
                        for lo in range(0, texts, rows)])
    return SOUNDNESS_HEADER, [[scheme, delta, d, n, texts, *_rate(key, z, n, delta)]
                              for delta in sorted(set(exp["deltas"]))]


def _completeness(exp: dict, root, scheme: str) -> tuple[list[str], list[list]]:
    d, n_grid, texts, delta = exp["d"], exp["n_grid"], exp["texts"], exp["delta"]
    key = _key(exp, root, scheme, d)
    rows = []
    for n in sorted(set(n_grid)):
        z = generate_statistics(uniform_source(d), n, key, texts,
                                rng_for(root, exp["name"], "texts", n))
        rate = _rate(key, z, n, delta)
        if scheme == CLOSED:
            # Every step of a uniform source has top probability 1/d.
            gamma = _condition_slack(np.full(n, 1.0 / d), delta)
            rows.append([CLOSED, n, d, delta, texts, gamma, *rate])
        else:
            rows.append([OPEN, n, d, key.epsilon, key.k, delta, texts, *rate])
    return (CLOSED_COMPLETENESS_HEADER if scheme == CLOSED else OPEN_COMPLETENESS_HEADER), rows


def _sparse_power(exp: dict, root, workers: int) -> tuple[list[str], list[list]]:
    import concurrent.futures  # loads logging; only this runner needs it

    seed = derive_seed(root, exp["name"])
    points = [(test, n) for test in sorted(set(exp["tests"])) for n in sorted(set(exp["n_grid"]))]

    def run_point(point):
        return power_point(*point, exp["d"], exp["k"], float(exp["epsilon"]),
                           float(exp["alpha"]), exp["trials"], seed)

    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        return POWER_CSV_HEADER, [p.to_row() for p in pool.map(run_point, points)]


# Each experiment type's runner, and the fields it needs, which
# validate_config checks before any experiment runs.
_RUNNERS = {
    "closed-soundness": lambda exp, root, workers: _soundness(exp, root, CLOSED),
    "open-soundness": lambda exp, root, workers: _soundness(exp, root, OPEN),
    "closed-completeness": lambda exp, root, workers: _completeness(exp, root, CLOSED),
    "open-completeness": lambda exp, root, workers: _completeness(exp, root, OPEN),
    "sparse-power": _sparse_power,
}
_REQUIRED = {
    "closed-soundness": ("d", "n", "texts", "deltas"),
    "open-soundness": ("d", "n", "texts", "deltas"),
    "closed-completeness": ("d", "n_grid", "texts", "delta"),
    "open-completeness": ("d", "n_grid", "texts", "delta", "epsilon", "k"),
    "sparse-power": ("d", "k", "epsilon", "alpha", "n_grid", "trials", "tests"),
}


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(str(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", newline="\n")


def config_digest(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _versions() -> dict:
    """The library versions a manifest records, looked up only when one is
    written: finding an uninstalled package scans every ``sys.path`` entry."""
    import importlib.metadata
    import platform

    try:
        version = importlib.metadata.version("tokenmark")
    except importlib.metadata.PackageNotFoundError:
        version = "unknown"
    return {"tokenmark": version, "numpy": np.__version__,
            "python": platform.python_version()}


def run_experiments(config: dict, out_dir) -> dict:
    """Execute every declared sweep and write CSVs plus a manifest into
    ``out_dir``. Returns the manifest. Identical config implies identical
    bytes in every output file, regardless of the worker count."""
    validate_config(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    root = config["root_seed"]
    workers = config.get("workers", 1)
    outputs = {}
    for exp in config["experiments"]:
        header, rows = _RUNNERS[exp["type"]](exp, root, workers)
        filename = f"{exp['name']}.csv"
        _write_csv(out / filename, header, rows)
        outputs[exp["name"]] = filename
    manifest = {
        "config_digest": config_digest(config),
        "root_seed": root,
        "workers": workers,
        "outputs": dict(sorted(outputs.items())),
        "versions": _versions(),
    }
    (out / "manifest.json").write_text(json_text(manifest))
    return manifest
