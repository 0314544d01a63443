"""One library process of the benchmark.

    python3 child.py REPORT TRACE cli <tokenmark arguments...>
    python3 child.py REPORT TRACE stream PARAMS

``cli`` runs one ``tokenmark`` command exactly as ``python -m tokenmark``
does; ``stream`` runs stream-32k request cycles. With TRACE = 0 the
process times the calibration kernel (``calibrate.py``) right after its
set-up, then after the command or after every stream cycle; with TRACE = 1
it wraps the layer entry points before any library call instead. It writes its
timestamps (``time.perf_counter``, which on Linux reads the system-wide
monotonic clock the parent also reads), its results and its spans to the
JSON file REPORT when it ends.
"""

import json
import resource
import sys
import time

import calibrate


def _cli(argv: list[str], recorder, kernels: list[float] | None) -> dict:
    from tokenmark import cli

    t_ready = time.perf_counter()
    if kernels is not None:
        kernels.append(calibrate.measure())
    try:
        if recorder is None:
            code = cli.main(argv)
        else:
            with recorder.span(f"cli.{argv[0]}"):
                code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    if kernels is not None:
        kernels.append(calibrate.measure())
    return {"t_ready": t_ready, "exit": code}


def _stream(params_path: str, recorder, kernels: list[float] | None) -> dict:
    import synth
    from tokenmark import closed_scheme, keystream, open_scheme

    with open(params_path) as fh:
        params = json.load(fh)
    closed_key = keystream.load_key(params["closed_key"])
    open_key = keystream.load_key(params["open_key"])
    model = synth.StreamModel(params["seed"])
    t_ready = time.perf_counter()
    if kernels is not None:
        kernels.append(calibrate.measure())

    first = params["first_cycle"]
    stop = params.get("stop_cycle")
    min_cycles = params.get("min_cycles", 0)
    deadline = t_ready + params.get("budget_s", 0.0)
    closed, opened = [], []  # (step, token, call seconds, source probability)
    cycle = first
    spent = 0.0
    while True:
        if stop is not None:
            if cycle >= stop:
                break
        elif cycle - first >= min_cycles:
            # Start another cycle only if that ends nearer the deadline.
            mean = spent / (cycle - first)
            if time.perf_counter() + mean / 2 >= deadline:
                break
        if recorder is not None:
            recorder.request = cycle
        start = time.perf_counter()
        p = synth.softmax(model.logits(synth.CLOSED_STREAM, cycle))
        rng = model.rng(synth.CLOSED_STREAM, cycle)
        t0 = time.perf_counter()
        token = closed_scheme.closed_step(closed_key, cycle, p, rng)
        closed.append((cycle, int(token), time.perf_counter() - t0, float(p[token])))
        logits = model.logits(synth.OPEN_STREAM, cycle)
        rng = model.rng(synth.OPEN_STREAM, cycle)
        t0 = time.perf_counter()
        token = open_scheme.open_step(open_key, cycle, logits, rng)
        elapsed = time.perf_counter() - t0
        opened.append((cycle, int(token), elapsed, float(synth.softmax(logits)[token])))
        spent += time.perf_counter() - start
        if kernels is not None:
            kernels.append(calibrate.measure())
        cycle += 1
    return {"t_ready": t_ready, "exit": 0, "closed": closed, "open": opened,
            "stop_cycle": cycle}


def main() -> None:
    report_path, trace, mode = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    if mode == "cli":
        import tokenmark.cli  # noqa: F401  (what `python -m tokenmark` loads)
    else:
        import tokenmark  # noqa: F401

    t_import = time.perf_counter()
    recorder = originals = None
    kernels = None if trace else []
    if trace:
        import tracing

        recorder = tracing.Recorder()
        originals = tracing.install(recorder)
    if mode == "cli":
        report = _cli(sys.argv[4:], recorder, kernels)
    elif mode == "stream":
        report = _stream(sys.argv[4], recorder, kernels)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    report["t_import"] = t_import
    report["kernels"] = kernels or []
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    if recorder is not None:
        report["spans"] = recorder.spans
        report["cache"] = tracing.cache_counts(originals)
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    sys.exit(report["exit"])


if __name__ == "__main__":
    main()
