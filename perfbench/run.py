#!/usr/bin/env python3
"""tokenmark benchmark: three seeded, closed-loop workloads against the
library and CLI in ``src/``.

    python3 perfbench/run.py --workload stream-32k --seed 1 --seconds 25 --trace 0

Run it from the root of a source tree. Every library call happens in a
fresh child process (``child.py``); this process makes the inputs from the
seed, times the children, checks their outputs and prints one line per
metric, then the result as a JSON object on the last line. With
``--trace 1`` it makes every request untraced and then traced and reports
per-layer self time instead of the end-to-end metrics. See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread per process: the sweep runs two worker threads and the
# box has two cores. Set before numpy loads, here and in every child.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"
# A run must end within 180 s; children are killed past this.
RUN_LIMIT_S = 160.0
# Stream workers run one after another; each is one set-up sample for setup_s.
STREAM_WORKERS = 5
# Workloads whose library processes run one at a time, single-threaded.
# They run pinned to one CPU, so that a process and the calibration kernel
# it times run on the same CPU all through the run. The sweep runs two
# worker threads and keeps every CPU.
ONE_CPU = ("stream-32k", "pipeline-8k")

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import synth  # noqa: E402
import tracing  # noqa: E402

@dataclass
class Proc:
    """One finished child process."""

    code: int
    wall: float                  # spawn to exit, seconds
    t_spawn: float
    report: dict | None
    stderr: str

    @property
    def startup(self) -> float:
        """Interpreter start plus ``import tokenmark``."""
        return self.report["t_import"] - self.t_spawn

    @property
    def ready(self) -> float:
        """Spawn to the first timed library call."""
        return self.report["t_ready"] - self.t_spawn

    @property
    def kernels(self) -> list[float]:
        """Calibration kernel times, seconds: right after set-up, then after
        the command or after each stream cycle."""
        return self.report["kernels"] if self.report else []

    @property
    def net(self) -> float:
        """Wall time less the calibration kernel runs."""
        return self.wall - sum(self.kernels)

    def nominal(self, seconds: float, kernels: slice = slice(None)) -> float:
        """``seconds`` of this process's work in seconds of a host at
        nominal speed, by the mean of the kernel runs next to that work;
        unscaled if the process wrote no report, which is a failure anyway."""
        times = self.kernels[kernels] or [calibrate.NOMINAL_S]
        return seconds / statistics.fmean(times) * calibrate.NOMINAL_S


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    work: Path
    deadline: float
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    spawned: int = 0
    peak_rss_kb: int = 0  # over the untraced children

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def spawn(self, trace: bool, mode: str, args: list[str]) -> Proc:
        self.spawned += 1
        report = self.work / f"proc-{self.spawned}.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(report),
               "1" if trace else "0", mode, *map(str, args)]
        env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(SRC)}
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=self.work, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                text=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
            err += "\nkilled: run time limit reached"
        wall = time.perf_counter() - t0
        data = json.loads(report.read_text()) if report.exists() else None
        if data is None and proc.returncode in (0, 1):
            proc.returncode = -1  # exited without writing its report
        if data is not None and not trace:
            self.peak_rss_kb = max(self.peak_rss_kb, data["maxrss_kb"])
        return Proc(code=proc.returncode, wall=wall, t_spawn=t0, report=data, stderr=err)

    def out_of_time(self) -> bool:
        return time.perf_counter() > self.deadline


def another(elapsed: float, done: int, seconds: float, minimum: int = 1) -> bool:
    """Whether to start another unit of work: always below ``minimum``,
    otherwise only if finishing it ends nearer ``seconds`` than stopping."""
    if done < minimum:
        return True
    return elapsed + elapsed / done / 2 < seconds


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def metric(value: float, unit: str, count: int) -> dict:
    return {"value": float(value), "unit": unit, "count": int(count)}


def child_failed(run: Run, proc: Proc, what: str) -> bool:
    """Count a child that crashed or wrote no report as one failed operation."""
    if proc.report is None or proc.code not in (0, 1):
        run.check(False, f"{what}: exit {proc.code}: {proc.stderr.strip()[-300:]}")
        return True
    return False


# --------------------------------------------------------------------------
# stream-32k


def stream_workload(run: Run) -> dict:
    from tokenmark import detector, keystream, open_scheme
    from tokenmark.keystream import WatermarkKey

    d = synth.STREAM_D
    closed_path, open_path = run.work / "stream-closed.key", run.work / "stream-open.key"
    keystream.save_key(WatermarkKey(synth.master_seed(run.seed, "stream", "closed"),
                                    d=d, scheme="closed"), closed_path)
    keystream.save_key(WatermarkKey(synth.master_seed(run.seed, "stream", "open"), d=d,
                                    scheme="open", epsilon=synth.STREAM_EPSILON,
                                    k=synth.STREAM_K), open_path)

    def worker(trace: bool, first: int, stop: int | None) -> Proc | None:
        params = {"seed": run.seed, "closed_key": str(closed_path),
                  "open_key": str(open_path), "first_cycle": first}
        if stop is None:
            params["budget_s"] = run.seconds / STREAM_WORKERS
            params["min_cycles"] = -(-synth.STREAM_MIN_CYCLES // STREAM_WORKERS)
        else:
            params["stop_cycle"] = stop
        path = run.work / f"stream-params-{run.spawned + 1}.json"
        path.write_text(json.dumps(params))
        proc = run.spawn(trace, "stream", [path])
        return None if child_failed(run, proc, f"stream worker from cycle {first}") else proc

    # With tracing on, a traced twin replays each worker's cycles right
    # after it, so both see the same machine state.
    untraced, traced, first = [], [], 0
    for _ in range(STREAM_WORKERS):
        proc = worker(False, first, None)
        if proc is None:
            break
        untraced.append(proc)
        if run.trace:
            twin = worker(True, first, proc.report["stop_cycle"])
            if twin is not None:
                traced.append(twin)
        first = proc.report["stop_cycle"]
    if not untraced:
        return {}
    closed = [row for p in untraced for row in p.report["closed"]]
    opened = [row for p in untraced for row in p.report["open"]]
    closed_key, open_key = keystream.load_key(closed_path), keystream.load_key(open_path)
    model = synth.StreamModel(run.seed)

    # The timed cycles make fewer open tokens than the open detector check
    # needs, so the open stream goes on here, untimed, to STREAM_OPEN_TEXT.
    open_text = [(r[0], r[1], r[3]) for r in opened]
    for step in range(len(open_text), synth.STREAM_OPEN_TEXT):
        logits = model.logits(synth.OPEN_STREAM, step)
        token = open_scheme.open_step(open_key, step, logits,
                                      model.rng(synth.OPEN_STREAM, step))
        open_text.append((step, int(token), float(synth.softmax(logits)[token])))
    for name, rows in (("closed", [(r[0], r[1], r[3]) for r in closed]), ("open", open_text)):
        for step, token, prob in rows:
            run.check(0 <= token < d and prob > 0.0,
                      f"{name} step {step}: token {token} has source probability {prob}")

    # The streamed texts are flagged, and unwatermarked samples of the same
    # logits are not.
    control_rng = np.random.default_rng([run.seed, synth.CONTROL_STREAM])

    def control(stream: int, steps: list[int]) -> list[int]:
        tokens = []
        for step in steps:
            cdf = np.cumsum(synth.softmax(model.logits(stream, step)))
            tokens.append(int(min(np.searchsorted(cdf, control_rng.random() * cdf[-1],
                                                  side="right"), d - 1)))
        return tokens

    texts = (
        ("closed stream", closed_key, [r[1] for r in closed], True),
        ("open stream", open_key, [r[1] for r in open_text], True),
        ("closed control", closed_key,
         control(synth.CLOSED_STREAM, [r[0] for r in closed]), False),
        ("open control", open_key, control(synth.OPEN_STREAM, [r[0] for r in open_text]),
         False),
    )
    for name, key, tokens, expect in texts:
        report = detector.detect(key, tokens, synth.DETECT_DELTA)
        run.check(report.verdict == expect,
                  f"{name} of {len(tokens)} tokens: verdict {report.verdict}, "
                  f"statistic {report.statistic:.4f}, threshold {report.threshold:.4f}")

    cycle_s = [c[2] + o[2] for c, o in zip(closed, opened)]
    nominal_s = [p.nominal(c[2] + o[2], slice(i, i + 2)) for p in untraced
                 for i, (c, o) in enumerate(zip(p.report["closed"], p.report["open"]))]
    call_s = sum(cycle_s)
    tokens = len(closed) + len(opened)
    closed_ms = [r[2] * 1e3 for r in closed]
    open_ms = [r[2] * 1e3 for r in opened]
    result = {
        "processes": untraced,
        "setup_wall": [p.ready for p in untraced],
        "setup": [p.nominal(p.ready, slice(0, 1)) for p in untraced],
        "requests_ms": [s * 1e3 for s in cycle_s],
        "tokens_per_s": 2 / statistics.median(cycle_s),
        "norm_tokens_per_s": 2 / statistics.median(nominal_s),
        "busy_s": call_s,
        "detail": {
            "closed_step_ms.p50": metric(percentile(closed_ms, 50), "ms", len(closed_ms)),
            "closed_step_ms.p90": metric(percentile(closed_ms, 90), "ms", len(closed_ms)),
            "open_step_ms.p50": metric(percentile(open_ms, 50), "ms", len(open_ms)),
            "open_step_ms.p90": metric(percentile(open_ms, 90), "ms", len(open_ms)),
        },
        "counts": {"tokens_sampled": tokens, "tokens_scored": 0,
                   "closed_tokens": len(closed), "open_tokens": len(opened),
                   "open_tokens_untimed": len(open_text) - len(opened)},
    }
    if run.trace:
        same = [(r[0], r[1]) for p in traced for r in p.report["closed"] + p.report["open"]]
        run.check(same == [(r[0], r[1]) for p in untraced
                           for r in p.report["closed"] + p.report["open"]],
                  "traced stream tokens differ from the untraced run")
        result["traced"] = traced
        result["traced_busy_s"] = sum(r[2] for p in traced
                                      for r in p.report["closed"] + p.report["open"])
    return result


# --------------------------------------------------------------------------
# pipeline-8k


def pipeline_workload(run: Run) -> dict:
    from tokenmark import detector, keystream, textgen

    d = synth.PIPELINE_D
    model_path = run.work / "model.json"
    model_path.write_text(json.dumps(synth.pipeline_model(run.seed)))

    # Set-up: one fresh key per text slot, made with `tokenmark keygen`.
    keys, setup = {}, []
    for slot, (scheme, _, _) in enumerate(synth.PIPELINE_PASS):
        path = run.work / f"key-{slot}.json"
        args = ["keygen", "--scheme", scheme, "--d", d, "--out", path]
        if scheme == "open":
            args += ["--epsilon", synth.PIPELINE_EPSILON, "--k", synth.PIPELINE_K]
        proc = run.spawn(False, "cli", args)
        if child_failed(run, proc, f"keygen {scheme}"):
            return {}
        run.check(proc.code == 0 and path.exists(), f"keygen {scheme} exit {proc.code}")
        setup.append(proc)
        keys[slot] = path
    loaded = {slot: keystream.load_key(path) for slot, path in keys.items()}

    used_lengths = set()
    spot_rng = np.random.default_rng([run.seed, 4])

    def plan(index: int) -> list[dict]:
        texts = synth.pipeline_pass(run.seed, index)
        for text in texts:  # keep (key, length) pairs unique across passes
            while (text["slot"], text["n"]) in used_lengths:
                text["n"] += 1
            used_lengths.add((text["slot"], text["n"]))
        return texts

    def run_text(trace: bool, text: dict, tag: str) -> dict:
        slot, n = text["slot"], text["n"]
        record = run.work / f"{tag}-text-{slot}.json"
        report = run.work / f"{tag}-report-{slot}.json"
        args = ["generate", "--model-file", model_path, "--n", n,
                "--seed", text["gen_seed"], "--out", record]
        if text["watermarked"]:
            args += ["--key", keys[slot]]
        gen = run.spawn(trace, "cli", args)
        det = run.spawn(trace, "cli", ["detect", "--text", record, "--key", keys[slot],
                                       "--delta", synth.DETECT_DELTA, "--out", report])
        out = {"text": text, "gen": gen, "det": det, "tokens": None, "report": None}
        if not child_failed(run, gen, f"generate {tag}/{slot}") and \
                run.check(gen.code == 0, f"generate {tag}/{slot} exit {gen.code}"):
            out["tokens"] = textgen.load_record(record).tokens
        if not child_failed(run, det, f"detect {tag}/{slot}") and report.exists():
            out["report"] = detector.DetectionReport.from_dict(json.loads(report.read_text()))
        return out

    def check_text(done: dict) -> None:
        text, rep, tokens = done["text"], done["report"], done["tokens"]
        name = f"{'watermarked' if text['watermarked'] else 'control'} " \
               f"{text['scheme']} text of {text['n']} tokens"
        key = loaded[text["slot"]]
        if tokens is None or rep is None:
            run.check(False, f"{name}: no record or no report")
            return
        run.check(tokens.size == text["n"] and tokens.min() >= 0 and tokens.max() < d,
                  f"{name}: record has {tokens.size} tokens")
        expected_exit = 0 if text["watermarked"] else 1
        run.check(done["det"].code == expected_exit,
                  f"{name}: detect exit {done['det'].code}, expected {expected_exit}")
        run.check(rep.verdict == text["watermarked"],
                  f"{name}: verdict {rep.verdict}, statistic {rep.statistic:.4f}")
        run.check(rep.verdict == (rep.statistic >= rep.threshold) and rep.n_tokens == text["n"],
                  f"{name}: verdict does not follow statistic >= threshold")
        bound = math.sqrt(2.0 * math.log(1.0 / synth.DETECT_DELTA) / text["n"])
        if key.scheme == "open":
            bound *= key.epsilon
        run.check(math.isclose(rep.threshold, bound, rel_tol=1e-12),
                  f"{name}: threshold {rep.threshold} is not the closed form {bound}")
        # The key material the detect command used: the count-n batch from
        # step 0. It must give the reported statistic, and its rows must
        # match single-step derivation at two random steps.
        n, steps = text["n"], np.arange(text["n"])
        if key.scheme == "closed":
            batch = keystream.derive_closed_steps(key, n)
            scores = batch.colorings[steps, tokens].astype(np.float64) * batch.flips
            keystream.derive_closed_steps.cache_clear()
        else:
            scores = keystream.derive_open_gaussians(key, n)[steps, tokens]
            keystream.derive_open_gaussians.cache_clear()
        run.check(math.isclose(float(scores.mean()), rep.statistic, rel_tol=1e-9, abs_tol=1e-12),
                  f"{name}: statistic {rep.statistic} is not the mean {scores.mean()} "
                  f"of the batch key material")
        for step in spot_rng.choice(n, size=2, replace=False):
            step, token = int(step), int(tokens[step])
            if key.scheme == "closed":
                single = keystream.derive_closed_step(key, step)
                score = float(single.flip * single.coloring[token])
            else:
                score = float(keystream.derive_open_step(key, step).gaussian[token])
            run.check(float(scores[step]) == score, f"{name}: step {step} scores "
                      f"{scores[step]} in the count-{n} batch and {score} from "
                      f"single-step derivation")

    # With tracing on, each text is replayed traced right after it runs.
    passes, texts_done, replay, busy = [], [], [], 0.0
    while another(busy, len(passes), run.seconds) and not run.out_of_time():
        texts = plan(len(passes))
        passes.append(texts)
        for text in texts:
            texts_done.append(run_text(False, text, f"a{len(passes)}"))
            busy += texts_done[-1]["gen"].net + texts_done[-1]["det"].net
            if run.trace:
                replay.append(run_text(True, text, f"b{len(passes)}"))
    for done in texts_done:
        check_text(done)

    gens = [t["gen"] for t in texts_done]
    dets = [t["det"] for t in texts_done]
    gen_tokens = sum(t["text"]["n"] for t in texts_done)
    det_s = [p.net for p in dets]
    result = {
        "processes": gens + dets,
        "setup_wall": [p.net for p in setup],
        "setup": [p.nominal(p.net) for p in setup],
        "requests_ms": [p.net * 1e3 for p in gens + dets],
        # Texts differ in length, so the throughput is total over total.
        "tokens_per_s": 2 * gen_tokens / sum(p.net for p in gens + dets),
        "norm_tokens_per_s": 2 * gen_tokens / sum(p.nominal(p.net) for p in gens + dets),
        "busy_s": sum(p.net for p in gens + dets),
        "detail": {
            "generate_tokens_per_s": metric(gen_tokens / sum(p.net for p in gens),
                                            "tokens/s", len(gens)),
            "detect_tokens_per_s": metric(gen_tokens / sum(det_s), "tokens/s", len(dets)),
            "detect_s.p50": metric(percentile(det_s, 50), "s", len(dets)),
        },
        "counts": {"tokens_sampled": gen_tokens, "tokens_scored": gen_tokens,
                   "texts": len(texts_done), "passes": len(passes)},
    }
    if run.trace:
        for a, b in zip(texts_done, replay):
            same = (a["tokens"] is not None and b["tokens"] is not None
                    and np.array_equal(a["tokens"], b["tokens"])
                    and a["report"] is not None and b["report"] == a["report"])
            run.check(same, f"traced text {a['text']} differs from the untraced run")
        result["traced"] = [t[k] for t in replay for k in ("gen", "det")]
        result["traced_busy_s"] = sum(p.wall for p in result["traced"])
    return result


# --------------------------------------------------------------------------
# sweep


def sweep_workload(run: Run) -> dict:
    config = synth.sweep_config(run.seed)
    config_path = run.work / "sweep.json"
    config_path.write_text(json.dumps(config, indent=2))
    reference: dict[str, bytes] = {}

    def sweep(trace: bool, index: int) -> Proc:
        out_dir = run.work / f"sweep-{index}"
        proc = run.spawn(trace, "cli", ["experiment", "--config", config_path,
                                        "--out-dir", out_dir])
        if child_failed(run, proc, f"experiment run {index}"):
            return proc
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())} \
            if out_dir.exists() else {}
        if run.check(proc.code == 0 and len(files) == len(config["experiments"]) + 1,
                     f"experiment run {index}: exit {proc.code}, {len(files)} files"):
            if not reference:
                reference.update(files)
            run.check(files == reference,
                      f"experiment run {index}: CSV or manifest bytes differ from run 0")
        shutil.rmtree(out_dir, ignore_errors=True)
        return proc

    # With tracing on, a traced run follows each untraced one.
    procs, traced = [], []
    while another(sum(p.net for p in procs), len(procs), run.seconds, minimum=2) \
            and not run.out_of_time():
        procs.append(sweep(False, len(procs) + len(traced)))
        if run.trace:
            traced.append(sweep(True, len(procs) + len(traced)))
    work = synth.sweep_work(config)
    ok = [p for p in procs if p.report is not None]
    result = {
        "processes": ok,
        "setup_wall": [p.ready for p in ok],
        "setup": [p.nominal(p.ready, slice(0, 1)) for p in ok],
        "requests_ms": [p.net * 1e3 for p in procs],
        "tokens_per_s": (2 * work["tokens"]) / statistics.median(p.net for p in procs),
        "norm_tokens_per_s": (2 * work["tokens"]) / statistics.median(
            p.nominal(p.net) for p in ok),
        "busy_s": sum(p.net for p in procs),
        "detail": {"sweep_s": metric(percentile([p.net for p in procs], 50), "s",
                                     len(procs))},
        "counts": {"tokens_sampled": work["tokens"] * len(procs),
                   "tokens_scored": work["tokens"] * len(procs),
                   "texts": work["texts"] * len(procs), "experiment_runs": len(procs)},
    }
    if run.trace:
        result["traced"] = traced
        result["traced_busy_s"] = sum(p.wall for p in traced)
    return result


RUNNERS = {"stream-32k": stream_workload, "pipeline-8k": pipeline_workload,
           "sweep": sweep_workload}


# --------------------------------------------------------------------------
# Metrics


def end_to_end(run: Run, result: dict) -> tuple[dict, dict]:
    """The gated metrics, and the wall-clock figures they come from.

    The gated times are in seconds of a host at nominal speed (see
    ``calibrate.py``): host speed changes by more than the bounds within a
    run, so wall times of one run cannot be compared with another's.
    Request latency is detail too: a workload's requests differ too much
    in size for a steady median within one run."""
    requests = result["requests_ms"]
    kernels = [k for p in result["processes"] for k in p.kernels]
    metrics = {
        "setup_s": metric(statistics.median(result["setup"]), "s", len(result["setup"])),
        "peak_rss_mb": metric(run.peak_rss_kb / 1024.0, "MB", len(result["processes"])),
        "norm_tokens_per_s": metric(result["norm_tokens_per_s"], "tokens/s", len(requests)),
    }
    detail = {
        "setup_wall_s": metric(statistics.median(result["setup_wall"]), "s",
                               len(result["setup_wall"])),
        "tokens_per_s": metric(result["tokens_per_s"], "tokens/s", len(requests)),
        "calibration_kernel_ms.p50": metric(percentile(kernels, 50) * 1e3, "ms",
                                            len(kernels)),
        "request_ms.p50": metric(percentile(requests, 50), "ms", len(requests)),
        "request_ms.p90": metric(percentile(requests, 90), "ms", len(requests)),
    }
    for name, value in result["counts"].items():
        detail[f"work.{name}"] = metric(value, "count", value)
    return metrics, detail


def per_layer(result: dict) -> tuple[dict, dict]:
    """JSON per-layer metrics and the full per-entry-point detail."""
    traced = [p for p in result["traced"] if p.report is not None]
    if not traced:
        return {}, {}
    spans = [p.report["spans"] for p in traced]
    summary = tracing.summarize(spans)
    cache: dict[str, dict] = {}
    for proc in traced:
        for name, counts in proc.report["cache"].items():
            entry = cache.setdefault(name, {"hits": 0, "misses": 0})
            entry["hits"] += counts["hits"]
            entry["misses"] += counts["misses"]
    counts = result["counts"]
    work_tokens = counts["tokens_sampled"] + counts["tokens_scored"]
    key_bytes = sum(e.get("key_bytes", 0) for e in summary["spans"].values())
    startup = [p.startup for p in traced]
    overhead = (result["traced_busy_s"] / result["busy_s"] - 1.0) * 100.0
    metrics = {
        "cli.startup_s": metric(statistics.median(startup), "s", len(startup)),
        "keystream.key_bytes_per_token": metric(key_bytes / work_tokens, "B/token",
                                                work_tokens),
    }
    for layer in ("keystream", "closed_scheme", "open_scheme", "core"):
        calls = sum(e["calls"] for n, e in summary["spans"].items()
                    if n.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = metric(summary["layers"][layer], "s", calls)
    detail = {}
    for name, entry in sorted(summary["spans"].items()):
        detail[f"{name}.s"] = metric(entry["self_s"], "s", entry["calls"])
        detail[f"{name}.ms"] = metric(entry["self_ms_p50"], "ms", entry["calls"])
    for layer, seconds in summary["layers"].items():
        if f"{layer}.self_s" not in metrics:
            detail[f"{layer}.self_s"] = metric(seconds, "s", len(traced))
    for name, entry in cache.items():
        detail[f"{name}.cache_hits"] = metric(entry["hits"], "count",
                                             entry["hits"] + entry["misses"])
        detail[f"{name}.cache_misses"] = metric(entry["misses"], "count",
                                               entry["hits"] + entry["misses"])
    derive = [e for n, e in cache.items() if n.startswith("keystream.")]
    calls = sum(e["hits"] + e["misses"] for e in derive)
    detail["keystream.cache_hits"] = metric(sum(e["hits"] for e in derive), "count", calls)
    detail["keystream.cache_misses"] = metric(sum(e["misses"] for e in derive), "count", calls)
    detail["keystream.key_bytes"] = metric(key_bytes, "B", work_tokens)
    detail["sparsemean.calibration_draws"] = metric(tracing.calibration_draws(spans),
                                                    "count", len(traced))
    detail["sparsemean.subsets_scanned"] = metric(
        summary["spans"].get("sparsemean.scan_statistic", {}).get("subsets", 0), "count",
        summary["spans"].get("sparsemean.scan_statistic", {}).get("calls", 0))
    for name, value in counts.items():
        detail[f"work.{name}"] = metric(value, "count", value)
    # Accounting along the blocking steps: untraced busy time, traced busy
    # time, what the spans cover and what is left outside them.
    startup_s = sum(startup)
    detail["trace.overhead_pct"] = metric(overhead, "%", len(traced))
    detail["trace.untraced_busy_s"] = metric(result["busy_s"], "s", len(traced))
    detail["trace.traced_busy_s"] = metric(result["traced_busy_s"], "s", len(traced))
    detail["trace.root_spans_s"] = metric(summary["root_s"], "s", len(traced))
    detail["trace.parallel_overlap_s"] = metric(summary["parallel_s"], "s", len(traced))
    detail["trace.startup_s"] = metric(startup_s, "s", len(traced))
    return metrics, detail


def write_spans(workload: str, result: dict) -> Path:
    OUT_ROOT.mkdir(exist_ok=True)
    path = OUT_ROOT / f"spans-{workload}.json"
    rows = []
    for request, proc in enumerate(result["traced"]):
        if proc.report is None:
            continue
        for name, start, end, parent, cycle, extra in proc.report["spans"]:
            rows.append({"name": name, "start": start, "end": end, "parent": parent,
                         "request": [request, cycle], "extra": extra})
    path.write_text(json.dumps(rows) + "\n")
    return path


def run_workload(workload: str, args) -> tuple[Run, dict, dict]:
    work = WORK_ROOT / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = Run(workload=workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
              work=work, deadline=time.perf_counter() + RUN_LIMIT_S)
    cpus = os.sched_getaffinity(0)
    if workload in ONE_CPU:
        os.sched_setaffinity(0, {max(cpus)})  # children inherit it
    try:
        result = RUNNERS[workload](run)
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(work, ignore_errors=True)
    metrics, detail = {}, {}
    if result and result["processes"]:
        if run.trace:
            metrics, detail = per_layer(result)
            if metrics:
                detail["spans_file"] = str(write_spans(workload, result).relative_to(ROOT))
        else:
            metrics, detail = end_to_end(run, result)
        detail.update(result["detail"])
    run.check(bool(metrics), "no library process finished, so there are no metrics")
    return run, metrics, detail


def print_metrics(prefix: str, metrics: dict) -> None:
    for name, m in metrics.items():
        if isinstance(m, dict):
            print(f"{prefix}{name} = {m['value']:.6g} {m['unit']} (n={m['count']})")
        else:
            print(f"{prefix}{name} = {m}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*RUNNERS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tokenmark" / "__init__.py").is_file():
        print(f"error: no tokenmark package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tokenmark  # noqa: F401  (fail here, before any run, if it is broken)

    print(f"# tokenmark benchmark seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__}")
    workloads = list(RUNNERS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    all_metrics = {}
    for workload in workloads:
        run, metrics, detail = run_workload(workload, args)
        attempted += run.attempted
        failed += run.failed
        print(f"## {workload}")
        print_metrics("", metrics)
        print_metrics("detail ", detail)
        rate = run.failed / run.attempted
        print(f"error_rate = {rate:.6g} ({run.failed} failed of {run.attempted} attempted)")
        for what in run.failures[:20]:
            print(f"failure: {what}")
        prefix = f"{workload}." if args.workload == "all" else ""
        all_metrics.update({prefix + k: {"value": m["value"], "unit": m["unit"]}
                            for k, m in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
