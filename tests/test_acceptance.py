"""The release gate: twelve numbered criteria, one test and one printed
verdict line each.

Every criterion fixes its seeds, so a verdict is reproducible run to run;
statistical criteria state their Monte-Carlo margins inline and the
stated runtime ceilings are asserted, not just reported. Run with ``-s``
to watch the lines print in order.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

from tokenmark.closed_scheme import watermark_distribution
from tokenmark.detector import (
    closed_statistics,
    closed_threshold,
    open_statistics,
    open_threshold,
)
from tokenmark.errors import CheckFailedError
from tokenmark.experiments import run_experiments
from tokenmark.keystream import CLOSED, FRESH_SUPPORT, OPEN, WatermarkKey
from tokenmark.oracles import (
    bias_bound_mc,
    lemma_maxima_exact,
    lemma_maxima_mc,
    psi1_bound_mc,
    tv_gaussians,
    undetectability_exact,
)
from tokenmark.sparsemean import (
    H0,
    SCAN_TEST,
    THRESHOLD_TEST,
    power_point,
    rejection_rate,
)
from tokenmark.textgen import (
    condition_lhs,
    generate,
    generate_many,
    powerlaw_source,
    uniform_source,
)

SEED32 = bytes(range(32))


def verdict(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def balanced_coloring(d: int, rng: np.random.Generator) -> np.ndarray:
    return rng.permutation(np.repeat(np.array([1, -1], dtype=np.int8), d // 2))


def pair_minima_sum(p: np.ndarray, coloring: np.ndarray) -> float:
    """Sum over tokens of each token's pair minimum: tokens by descending
    probability (ties by ascending index), the i-th +1 token paired with
    the i-th -1 token, each pair counted once per token."""
    order = np.lexsort((np.arange(p.size), -p)).tolist()
    pos = [t for t in order if coloring[t] == 1]
    neg = [t for t in order if coloring[t] == -1]
    return sum(2.0 * min(p[a], p[b]) for a, b in zip(pos, neg))


def test_criterion_01_validity_is_exact():
    """10^4 random (p, coloring, flip): q is a distribution, floating-point
    exactly on the low side."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_min, worst_sum = np.inf, 0.0
    for _ in range(10_000):
        d = int(rng.choice(np.arange(2, 65, 2)))
        conc = 1.0 if rng.random() < 0.5 else 0.1
        p = rng.dirichlet(np.full(d, conc))
        q = watermark_distribution(p, balanced_coloring(d, rng),
                                   1 if rng.random() < 0.5 else -1)
        worst_min = min(worst_min, float(q.min()))
        worst_sum = max(worst_sum, abs(float(q.sum()) - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst_min >= -1e-15 and worst_sum <= 1e-12 and elapsed < 5.0
    assert verdict(1, "validity", ok,
                   f"min entry {worst_min:.1e}, sum error {worst_sum:.1e}, "
                   f"{elapsed:.1f}s < 5s")


def test_criterion_02_undetectability_by_enumeration():
    """Averaging q over all balanced colorings and both flips recovers p."""
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for d in (2, 4, 6, 8):
        for _ in range(1000):
            worst = max(worst, undetectability_exact(rng.dirichlet(np.ones(d))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 30.0
    assert verdict(2, "undetectability", ok,
                   f"max deviation {worst:.2e}, {elapsed:.1f}s < 30s")


def test_criterion_03_closed_soundness():
    """2000 key-independent texts: false positive rate within the binomial
    band around delta."""
    start = time.perf_counter()
    key = WatermarkKey(master_seed=SEED32, d=64, scheme=CLOSED)
    texts = generate_many(uniform_source(64), 500, None, 2000,
                          np.random.default_rng(303))
    zs = closed_statistics(key, texts)
    fpr = float((zs >= closed_threshold(500, 0.05)).mean())
    cap = 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / 2000)
    elapsed = time.perf_counter() - start
    ok = fpr <= cap and elapsed < 120.0
    assert verdict(3, "closed soundness", ok,
                   f"fpr {fpr:.4f} <= {cap:.4f}, {elapsed:.1f}s < 120s")


def test_criterion_04_closed_completeness():
    """Uniform source, N = 10^4: the entropy condition holds with the
    predicted slack and every watermarked text is flagged."""
    start = time.perf_counter()
    key = WatermarkKey(master_seed=SEED32, d=64, scheme=CLOSED)
    model = uniform_source(64)
    record = generate(model, 10_000, key, np.random.default_rng(404))
    gamma = condition_lhs(record, 0.05)
    tokens = generate_many(model, 10_000, key, 200, np.random.default_rng(405))
    rate = float((closed_statistics(key, tokens)
                  >= closed_threshold(10_000, 0.05)).mean())
    elapsed = time.perf_counter() - start
    ok = (gamma > 0.0 and abs(gamma - 0.024741) < 1e-4 and rate >= 0.95
          and elapsed < 300.0)
    assert verdict(4, "closed completeness", ok,
                   f"slack {gamma:.6f}, rate {rate:.3f} >= 0.95, "
                   f"{elapsed:.1f}s < 300s")


def test_criterion_05_pair_minima_lemma():
    """Enumerated expectation sits inside [tail/20, tail] for every p, and
    the Monte-Carlo estimator lands within 3 standard errors of it."""
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    bounds_hold = mc_hits = mc_total = 0
    for d in (4, 6, 8, 10):
        for i in range(1000):
            p = np.sort(rng.dirichlet(np.ones(d)))[::-1]
            lower, expectation, upper = lemma_maxima_exact(p)
            bounds_hold += lower <= expectation <= upper
            if i < 5:
                est, se = lemma_maxima_mc(p, 20_000, seed=1000 * d + i)
                mc_hits += abs(est - expectation) <= 3.0 * se
                mc_total += 1
    elapsed = time.perf_counter() - start
    ok = bounds_hold == 4000 and mc_hits == mc_total and elapsed < 60.0
    assert verdict(5, "pair-minima lemma", ok,
                   f"bounds {bounds_hold}/4000, mc {mc_hits}/{mc_total}, "
                   f"{elapsed:.1f}s < 60s")


def test_criterion_06_conditional_bias_identity():
    """Exact summation of the flip-conditional detector bias equals the sum
    of pair shift magnitudes."""
    rng = np.random.default_rng(606)
    worst = 0.0
    for i in range(1000):
        d = int(rng.choice(np.arange(2, 17, 2)))
        p = rng.dirichlet(np.full(d, 0.7))
        if i % 10 == 0:
            # quantize to force probability ties through the tie-break path
            p = np.round(p, 2) + 1e-9
            p = p / p.sum()
        coloring = balanced_coloring(d, rng)
        q_up = watermark_distribution(p, coloring, 1)
        q_dn = watermark_distribution(p, coloring, -1)
        bias = 0.5 * (float(q_up @ coloring) - float(q_dn @ coloring))
        worst = max(worst, abs(bias - pair_minima_sum(p, coloring)))
    ok = worst <= 1e-12
    assert verdict(6, "conditional bias identity", ok,
                   f"max |bias - sum eps| = {worst:.2e}")


def test_criterion_07_open_soundness():
    """Key-independent texts under the open detector: FPR in band and the
    null statistic is N(0, eps^2/N) by Kolmogorov-Smirnov.

    Each text is scored over its own disjoint step window, so the 2000
    statistics are iid and exactly Gaussian under the null; reusing one
    window would correlate them through the key's per-step sample means."""
    start = time.perf_counter()
    key = WatermarkKey(master_seed=SEED32, d=64, scheme=OPEN, epsilon=0.5, k=8)
    texts = generate_many(uniform_source(64), 500, None, 2000,
                          np.random.default_rng(707))
    zs = np.array([open_statistics(key, texts[i:i + 1], start=500 * i)[0]
                   for i in range(2000)])
    fpr = float((zs >= open_threshold(500, 0.05, 0.5)).mean())
    cap = 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / 2000)
    ks = stats.kstest(zs, "norm", args=(0.0, 0.5 / math.sqrt(500)))
    elapsed = time.perf_counter() - start
    ok = fpr <= cap and ks.pvalue > 1e-3
    assert verdict(7, "open soundness", ok,
                   f"fpr {fpr:.4f} <= {cap:.4f}, ks p {ks.pvalue:.3f} > 0.001, "
                   f"{elapsed:.1f}s")


def test_criterion_08_open_completeness_two_stage():
    """Stage 1 measures the selection bias by Monte Carlo; stage 2 sizes N
    from the measurement and demands 90% detection."""
    start = time.perf_counter()
    try:
        est, bound, se = bias_bound_mc(np.zeros(64), 1.0, 1_000_000, k=8,
                                       seed=808)
        stage1 = est >= bound - 3.0 * se
    except CheckFailedError as exc:
        assert verdict(8, "open completeness", False, f"stage 1: {exc}")
        return
    n = math.ceil(16.0 * math.log(1.0 / 0.05) / (est * est))
    with pytest.warns(UserWarning, match="epsilon"):
        key = WatermarkKey(master_seed=SEED32, d=64, scheme=OPEN, epsilon=1.0,
                           k=8, support_mode=FRESH_SUPPORT)
    tokens = generate_many(uniform_source(64), n, key, 200,
                           np.random.default_rng(809))
    rate = float((open_statistics(key, tokens)
                  >= open_threshold(n, 0.05, 1.0)).mean())
    elapsed = time.perf_counter() - start
    ok = stage1 and rate >= 0.9 and elapsed < 600.0
    assert verdict(8, "open completeness", ok,
                   f"bias {est:.4f} >= {bound:.5f} - 3se, N {n}, "
                   f"rate {rate:.3f} >= 0.9, {elapsed:.1f}s < 600s")


def test_criterion_09_sub_exponential_moment():
    """E exp(|G(x)|/tau) stays at or under 2 for small and moderate epsilon
    on flat and power-law logit profiles."""
    settings = [("uniform d=16", np.zeros(16)),
                ("powerlaw d=64", powerlaw_source(64, 1.5).logits)]
    results, ok = [], True
    for eps in (0.1, 0.25, 0.5):
        for name, logits in settings:
            try:
                est, se = psi1_bound_mc(logits, eps, 100_000, seed=909)
                good = est <= 2.0 + 3.0 * se
            except CheckFailedError:
                est, good = float("nan"), False
            ok = ok and good
            results.append(f"{name} eps={eps}: {est:.3f}")
    assert verdict(9, "sub-exponential moment", ok,
                   "; ".join(results) + " all <= 2+3se")


def test_criterion_10_sparse_mean_gap():
    """Both tests hold their level; the exhaustive scan reaches 90% power at
    a strictly smaller sample size than thresholding, with separated CIs."""
    start = time.perf_counter()
    d, k, eps, alpha, seed = 32, 4, 1.0, 0.05, 1010
    levels, level_ok = [], True
    for test in (THRESHOLD_TEST, SCAN_TEST):
        hits, trials = rejection_rate(test, H0, 40, d, k, eps, alpha, 1000, seed)
        se = math.sqrt(alpha * (1.0 - alpha) / trials)
        level_ok = level_ok and abs(hits / trials - alpha) <= 3.0 * se
        levels.append(f"{test} {hits / trials:.3f}")
    # Each curve is power_point at each n, the cells `tokenmark experiment`
    # writes for a sparse-power grid.
    scan_pts = [power_point(SCAN_TEST, n, d, k, eps, alpha, 200, seed)
                for n in (10, 20, 40, 80, 160)]
    thr_pts = [power_point(THRESHOLD_TEST, n, d, k, eps, alpha, 200, seed)
               for n in (20, 40, 80, 160, 320)]

    def first_n(points):
        return min((pt.n for pt in points if pt.power >= 0.9), default=None)

    scan_n, thr_n = first_n(scan_pts), first_n(thr_pts)
    ordering = scan_n is not None and (thr_n is None or scan_n < thr_n)
    common = {pt.n for pt in scan_pts} & {pt.n for pt in thr_pts}
    scan_by_n = {pt.n: pt for pt in scan_pts}
    thr_by_n = {pt.n: pt for pt in thr_pts}
    separated = any(scan_by_n[n].ci_lo > thr_by_n[n].ci_hi for n in common)
    elapsed = time.perf_counter() - start
    ok = level_ok and ordering and separated
    assert verdict(10, "sparse-mean gap", ok,
                   f"levels {', '.join(levels)}; 90% power at n={scan_n} "
                   f"(scan) vs n={thr_n} (threshold); CIs separated: "
                   f"{separated}; {elapsed:.0f}s")


def test_criterion_11_tv_utility():
    """tv_gaussians agrees with direct numerical integration of the
    densities and vanishes at zero separation."""
    at_zero = tv_gaussians(0.0, 1.0)
    pinned = 0.19741265136584743
    worst_pin = worst_quad = 0.0
    for sigma in (1.0, 0.37):
        sep = sigma / 2.0
        lib = tv_gaussians(sep, sigma)
        diff = lambda x: abs(stats.norm.pdf(x, 0.0, sigma)
                             - stats.norm.pdf(x, sep, sigma))
        left, _ = integrate.quad(diff, -np.inf, sep / 2.0, epsabs=1e-14)
        right, _ = integrate.quad(diff, sep / 2.0, np.inf, epsabs=1e-14)
        worst_pin = max(worst_pin, abs(lib - pinned))
        worst_quad = max(worst_quad, abs(lib - 0.5 * (left + right)))
    ok = at_zero == 0.0 and worst_pin <= 1e-12 and worst_quad <= 1e-12
    assert verdict(11, "tv utility", ok,
                   f"tv(0)={at_zero}, |lib - 2Phi(1/4)+1| {worst_pin:.1e}, "
                   f"|lib - quadrature| {worst_quad:.1e}")


def test_criterion_12_reproducibility(tmp_path):
    """Running the same config twice yields byte-identical artifacts."""
    config = {
        "root_seed": 121212,
        "workers": 2,
        "experiments": [
            {"name": "soundness", "type": "closed-soundness", "d": 16,
             "n": 100, "texts": 100, "deltas": [0.05, 0.1]},
            {"name": "power", "type": "open-completeness", "d": 16,
             "n_grid": [200], "texts": 30, "delta": 0.05, "epsilon": 0.5,
             "k": 2},
        ],
    }
    first, second = tmp_path / "first", tmp_path / "second"
    manifest_a = run_experiments(config, first)
    manifest_b = run_experiments(config, second)
    names = sorted(path.name for path in first.iterdir())
    identical = (names == sorted(path.name for path in second.iterdir())
                 and all((first / name).read_bytes()
                         == (second / name).read_bytes() for name in names))
    ok = manifest_a == manifest_b and identical and len(names) >= 3
    assert verdict(12, "reproducibility", ok,
                   f"{len(names)} files byte-identical across reruns")
