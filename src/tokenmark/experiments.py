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
from .detector import DELTA_MIN, closed_statistics, open_statistics, threshold
from .errors import InvalidInputError, TokenmarkError
from .keystream import CLOSED, EPSILON_LIMIT, FRESH_SUPPORT, OPEN, WatermarkKey
from .seeds import check_seed, derive_master_seed, derive_seed, rng_for
from .sparsemean import (EPSILON_LIMIT as SPARSE_EPSILON_LIMIT, POWER_CSV_HEADER, SCAN_TEST,
                         THRESHOLD_TEST, power_point, scan_budget_error, scan_directions,
                         wilson_interval)
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
# a runner reads it; k's is (0, d + 1), epsilon's the key's or the sparse-mean
# data's limit, and a closed d must also be even.
_RANGES = {**dict.fromkeys(("n", "n_grid", "texts", "trials"), (0, math.inf)),
           "delta": (DELTA_MIN, 1), "deltas": (DELTA_MIN, 1), "alpha": (0, 1)}


def _check_values(exp: dict) -> None:
    """Raise unless each value the experiment's runner reads lies in its range."""
    kind, d, k = exp["type"], exp["d"], exp.get("k")
    sparse = kind == "sparse-power"
    reads = _REQUIRED[kind] + (("epsilon", "k") if kind.startswith("open") else ())
    if not all(exp[name] for name in ("n_grid", "tests") if name in reads):
        # A grid with no point makes only a detector's key.
        reads = () if sparse else set(reads) & {"d", "epsilon", "k"}
    ranges = {**_RANGES, "d": (0 if sparse else 1, math.inf), "k": (0, d + 1),
              "epsilon": (0, SPARSE_EPSILON_LIMIT if sparse else EPSILON_LIMIT)}
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


def _soundness(exp: dict, root, scheme: str) -> list[list]:
    """False-positive rates of unkeyed texts. Successive draws of one rng
    give the rows of a single draw, so the texts, and their statistics, do
    not depend on the block size."""
    d, n, texts = exp["d"], exp["n"], exp["texts"]
    key = _key(exp, root, scheme, d)
    model, rng = uniform_source(d), rng_for(root, exp["name"], "texts")
    rows = max(1, _SOUNDNESS_BLOCK_BYTES // (8 * n))
    z = np.concatenate([_statistics(key, generate_many(model, n, None, min(rows, texts - lo), rng))
                        for lo in range(0, texts, rows)])
    return [[scheme, delta, d, n, texts, *_rate(key, z, n, delta)]
            for delta in sorted(set(exp["deltas"]))]


def _completeness(exp: dict, root, scheme: str) -> list[list]:
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
    return rows


def _power_point(exp: dict, root, test: str, n: int) -> list[list]:
    """The row of one (test, n) point of a sparse-power grid."""
    point = power_point(test, n, exp["d"], exp["k"], float(exp["epsilon"]),
                        float(exp["alpha"]), exp["trials"], derive_seed(root, exp["name"]))
    return [point.to_row()]


# Each experiment type's task, which returns CSV rows, and its CSV header.
# The fields each type needs are checked by validate_config before any
# experiment runs.
_RUNNERS = {
    "closed-soundness": lambda exp, root: _soundness(exp, root, CLOSED),
    "open-soundness": lambda exp, root: _soundness(exp, root, OPEN),
    "closed-completeness": lambda exp, root: _completeness(exp, root, CLOSED),
    "open-completeness": lambda exp, root: _completeness(exp, root, OPEN),
    "sparse-power": _power_point,
}
_HEADERS = {
    "closed-soundness": SOUNDNESS_HEADER,
    "open-soundness": SOUNDNESS_HEADER,
    "closed-completeness": CLOSED_COMPLETENESS_HEADER,
    "open-completeness": OPEN_COMPLETENESS_HEADER,
    "sparse-power": POWER_CSV_HEADER,
}
_REQUIRED = {
    "closed-soundness": ("d", "n", "texts", "deltas"),
    "open-soundness": ("d", "n", "texts", "deltas"),
    "closed-completeness": ("d", "n_grid", "texts", "delta"),
    "open-completeness": ("d", "n_grid", "texts", "delta", "epsilon", "k"),
    "sparse-power": ("d", "k", "epsilon", "alpha", "n_grid", "trials", "tests"),
}


def _points(exp: dict) -> list[tuple]:
    """The extra arguments of each of the experiment's tasks, in the order
    of their rows: one task for a detector experiment, one per (test, n)
    point of a sparse-power grid."""
    if exp["type"] != "sparse-power":
        return [()]
    return [(test, n) for test in sorted(set(exp["tests"])) for n in sorted(set(exp["n_grid"]))]


def _run_task(task: tuple) -> list[list]:
    """The rows of one (experiment, root seed, point) task. The runner is
    looked up when the task runs, so a rebound ``_RUNNERS`` entry is the one
    called, in a worker process too."""
    exp, root, point = task
    return _RUNNERS[exp["type"]](exp, root, *point)


# OpenBLAS's thread-count setters: numpy's own wheels, then other builds.
_OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads")


def _one_blas_thread() -> None:
    """Give this process's OpenBLAS, if numpy loaded one, a single thread.

    A pool worker calls it first: the workers are the sweep's parallelism,
    and each forked worker's OpenBLAS otherwise starts a thread per CPU,
    whose spinning made two workers' scans 2 to 4 times slower on two CPUs.
    Other BLAS builds, and systems with no ``/proc/self/maps``, are left as
    they are."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line[line.index("/"):].strip() for line in maps if "openblas" in line}
        libraries = [ctypes.CDLL(path) for path in paths]
    except OSError:  # a failed initializer would break the pool
        return
    for library in libraries:
        setter = next((getattr(library, name) for name in _OPENBLAS_SETTERS
                       if hasattr(library, name)), None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)


def _run_tasks(tasks: list[tuple], workers: int) -> list[list[list]]:
    """The rows of each task, in task order. The tasks run here, one after
    another, when ``workers`` or their count is 1; otherwise on a pool of
    that many forked processes, whose results are read in task order, so
    the first task to fail in that order raises, as it would here."""
    workers = min(workers, len(tasks))
    if workers <= 1:
        return list(map(_run_task, tasks))
    # Loaded here: concurrent.futures loads logging, which no other command needs.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # Forked workers start with the parent's modules, caches and rebound
    # names; spawned ones would import numpy and tokenmark again. The pool
    # forks at its first task, after the first scan's direction matrix is
    # built here, so the workers share that matrix instead of each building one.
    scans = [exp for exp, _, point in tasks if point[:1] == (SCAN_TEST,)]
    if scans:
        scan_directions(scans[0]["d"], scans[0]["k"])
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_one_blas_thread) as pool:
        try:
            return list(pool.map(_run_task, tasks))
        except BrokenProcessPool:
            raise TokenmarkError("an experiment worker process ended before returning "
                                 "its result") from None


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
    experiments = config["experiments"]
    tasks = [(exp, root, point) for exp in experiments for point in _points(exp)]
    rows = {exp["name"]: [] for exp in experiments}
    for (exp, _, _), task_rows in zip(tasks, _run_tasks(tasks, workers)):
        rows[exp["name"]] += task_rows
    outputs = {}
    for exp in experiments:
        filename = f"{exp['name']}.csv"
        _write_csv(out / filename, _HEADERS[exp["type"]], rows[exp["name"]])
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
