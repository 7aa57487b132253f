"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with output visible:

    pytest tests/test_acceptance.py -s

Every threshold is pinned here, not configurable.  The statistical checks
use fixed base seeds, so results are reproducible bit for bit.
"""

import math
import pathlib
import time

import numpy as np

from gesp import spectrum
from gesp.baselines import diag_two_step_init, esp_init, truncated_power_init
from gesp.bench import AlgorithmSpec, BenchConfig, aggregate, load_config, run_sweep, write_csv
from gesp.measurement import measure, sample_sensing
from gesp.numerics import dist, p_objective, p_opt, structure_function, top_k_indices
from gesp.pursuit import PStrategy, gesp, step2_direction
from gesp.signals import SignalModelSpec, generate

from oracles import dense_expo_weights, dense_spectrum, dense_pursuit, phase_aligned_gap, topk_sorted

REPO = pathlib.Path(__file__).resolve().parents[1]


def _report(tag, ok, details):
    print(f"\n[{tag}] {'PASS' if ok else 'FAIL'} - {details}")
    return ok


def test_criterion_1_expectation_oracle():
    # n=16, k=4, unit-norm gaussian signal: frobenius error of the
    # empirical exponential spectrum against x x*/(4||x||^2) at m=50k and
    # m=200k over 20 seeds; median ratio in [1.4, 2.9], big-m median <= 0.02
    start = time.time()
    n, k = 16, 4
    full = np.arange(n)
    ratios, errs_big = [], []
    for seed in range(20):
        rng = np.random.default_rng(80_000 + seed)
        sig = generate(SignalModelSpec(model="gaussian", n=n, k=k), rng)
        expected = spectrum.expectation_oracle(sig)
        errs = []
        for m in (50_000, 200_000):
            meas = measure(sig, sample_sensing(n, m, rng))
            emp = spectrum.submatrix(spectrum.build(meas, "exponential"), full)
            errs.append(float(np.linalg.norm(emp - expected)))
        ratios.append(errs[0] / errs[1])
        errs_big.append(errs[1])
    med_ratio = float(np.median(ratios))
    med_err = float(np.median(errs_big))
    elapsed = time.time() - start
    ok = 1.4 <= med_ratio <= 2.9 and med_err <= 0.02 and elapsed <= 60
    assert _report(
        "criterion 1: expectation oracle",
        ok,
        f"median error ratio {med_ratio:.3f} (in [1.4, 2.9]), "
        f"median error at m=200k {med_err:.5f} (<= 0.02), {elapsed:.0f}s (<= 60s)",
    )


def test_criterion_2_structure_function_exactness():
    rng = np.random.default_rng(0)
    prof1 = generate(SignalModelSpec(model="example1", n=128, k=64), rng).profile
    prof2 = generate(SignalModelSpec(model="example2", n=32, k=16), rng).profile
    checks = [
        ("example1 s(1)", structure_function(prof1, 1), 8.0, 1e-12),
        ("example1 s(8)", structure_function(prof1, 8), 2.0, 1e-12),
        ("example1 s(64)", structure_function(prof1, 64), 1.0, 1e-12),
        ("example2 s(1)", structure_function(prof2, 1), 8.0, 1e-10),
        ("example2 s(2)", structure_function(prof2, 2), 4.0, 1e-10),
        ("example2 s(4)", structure_function(prof2, 4), 16.0 ** (1.0 / 3.0), 1e-10),
        ("example2 objective at optimum", p_objective(prof2, 16, 2, "global"), 64.0, 1e-9),
    ]
    bad = [name for name, got, want, tol in checks if abs(got - want) > tol]
    opt = p_opt(prof2, 16, "global")
    if opt != 2:
        bad.append(f"optimal width {opt} != 2")
    assert _report(
        "criterion 2: structure-function exactness",
        not bad,
        "all frozen values exact" if not bad else f"violations: {bad}",
    )


def test_criterion_3_bound_properties():
    # 1000 random sparse signals: 1 <= s(p) <= k/p, p <= p*s(p) <= k,
    # s non-increasing, p*s(p) non-decreasing; zero violations allowed
    rng = np.random.default_rng(31_000)
    violations = 0
    tol = 1e-12
    for _ in range(1000):
        n = int(rng.integers(16, 257))
        k = int(rng.integers(1, n // 4 + 1))
        sig = generate(SignalModelSpec(model="gaussian", n=n, k=k), rng)
        s_prev = None
        for p in range(1, k + 1):
            s = structure_function(sig.profile, p)
            if not (1.0 - tol <= s <= k / p + tol):
                violations += 1
            if not (p - tol <= p * s <= k + tol):
                violations += 1
            if s_prev is not None:
                if s > s_prev + tol:
                    violations += 1
                if p * s < (p - 1) * s_prev - tol:
                    violations += 1
            s_prev = s
    assert _report(
        "criterion 3: structure-function bounds",
        violations == 0,
        f"{violations} violations over 1000 signals (need 0)",
    )


def test_criterion_4_dense_oracle_equivalence():
    # 200 random small instances: diagonal, submatrix, matvec, and the
    # whole pipeline must match the materialized-spectrum reference with
    # the cyclic-Jacobi eigensolver
    rng = np.random.default_rng(20_250_808)
    op_mismatch = pipe_mismatch = 0
    worst_gap = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(2, min(5, n) + 1))
        m = int(rng.integers(16, 65))
        p = int(rng.integers(1, k + 1))
        sig = generate(SignalModelSpec(model="gaussian", n=n, k=k), rng)
        meas = measure(sig, sample_sensing(n, m, rng))
        op = spectrum.build(meas, "exponential")
        dense = dense_spectrum(meas.sensing, dense_expo_weights(meas.y))
        probe = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        sub_idx = np.arange(0, n, 2)
        if not (
            np.allclose(spectrum.diagonal(op), dense.diagonal().real, atol=1e-12)
            and np.allclose(spectrum.submatrix(op, sub_idx), dense[np.ix_(sub_idx, sub_idx)], atol=1e-12)
            and np.allclose(spectrum.matvec(op, probe), dense @ probe, atol=1e-12)
        ):
            op_mismatch += 1
        est = gesp(meas, k, PStrategy.fixed(p))
        s0, _e0, s1, z = dense_pursuit(meas.sensing, meas.y, k, p)
        gap = phase_aligned_gap(est.z, z)
        worst_gap = max(worst_gap, gap)
        if est.s0.tolist() != s0.tolist() or est.support.tolist() != s1.tolist() or gap > 1e-8:
            pipe_mismatch += 1
    ok = op_mismatch == 0 and pipe_mismatch == 0
    assert _report(
        "criterion 4: dense-oracle equivalence",
        ok,
        f"operator mismatches {op_mismatch}, pipeline mismatches {pipe_mismatch} "
        f"over 200 instances; worst vector gap {worst_gap:.2e} (<= 1e-8)",
    )


def test_criterion_5_width_one_equivalence():
    # gesp fixed(1) == esp on 100 instances, and the step-3 selection at
    # width 1 equals the top-k moduli of the anchor column of the
    # materialized spectrum on the n <= 8 instances
    rng = np.random.default_rng(5_100)
    esp_mismatch = column_mismatch = columns_checked = 0
    for _ in range(100):
        n = int(rng.integers(4, 13))
        k = int(rng.integers(2, min(6, n) + 1))
        m = int(rng.integers(16, 80))
        sig = generate(SignalModelSpec(model="gaussian", n=n, k=k), rng)
        meas = measure(sig, sample_sensing(n, m, rng))
        a = gesp(meas, k, PStrategy.fixed(1))
        b = esp_init(meas, k)
        if a.support.tolist() != b.support.tolist() or phase_aligned_gap(a.z, b.z) > 1e-8:
            esp_mismatch += 1
        if n <= 8:
            columns_checked += 1
            dense = dense_spectrum(meas.sensing, dense_expo_weights(meas.y))
            j_max = int(np.argmax(dense.diagonal().real))
            expected = topk_sorted(np.abs(dense[:, j_max]), k)
            if a.support.tolist() != expected.tolist():
                column_mismatch += 1
    ok = esp_mismatch == 0 and column_mismatch == 0
    assert _report(
        "criterion 5: width-one equivalence",
        ok,
        f"esp mismatches {esp_mismatch}/100, anchor-column mismatches "
        f"{column_mismatch}/{columns_checked}",
    )


def test_criterion_6_stage_statistics():
    # statistical behavior of the four pipeline stages at n=128, k=8,
    # 200 trials each, fixed seeds; thresholds are desk-scale calibrations
    n, k, trials = 128, 8, 200
    t0 = time.time()
    hits_a = hits_b = 0
    for trial in range(trials):
        rng = np.random.default_rng(60_000 + trial)
        sig = generate(SignalModelSpec(model="gaussian", n=n, k=k), rng)
        meas = measure(sig, sample_sensing(n, 2000, rng))
        p = p_opt(sig.profile, k, "global")
        op = spectrum.build(meas, "exponential")
        s0 = top_k_indices(spectrum.diagonal(op), p)
        captured = float(np.sum(np.abs(sig.vector[s0]) ** 2))
        hits_a += captured >= sig.norm_sq / (2.0 * structure_function(sig.profile, p))
        e0 = step2_direction(op, s0)
        hits_b += abs(np.vdot(sig.vector, e0)) >= 0.5 * math.sqrt(captured)
    t_ab = time.time() - t0

    t0 = time.time()
    hits_c = 0
    for trial in range(trials):
        rng = np.random.default_rng(61_000 + trial)
        sig = generate(SignalModelSpec(model="binary", n=n, k=k), rng)
        meas = measure(sig, sample_sensing(n, 3000, rng))
        est = gesp(meas, k, PStrategy.full_k())
        hits_c += set(sig.support.tolist()) <= set(est.support.tolist())
    t_c = time.time() - t0

    t0 = time.time()
    hits_d = 0
    for trial in range(trials):
        rng = np.random.default_rng(62_000 + trial)
        sig = generate(SignalModelSpec(model="gaussian", n=n, k=k), rng)
        meas = measure(sig, sample_sensing(n, 3000, rng))
        est = gesp(meas, k, PStrategy.known_structure(), true_profile=sig.profile)
        hits_d += dist(est.z, sig.vector) <= 0.9 * math.sqrt(sig.norm_sq)
    t_d = time.time() - t0

    ok = (
        hits_a >= 190 and hits_b >= 180 and hits_c >= 180 and hits_d >= 180
        and max(t_ab, t_c, t_d) <= 120
    )
    assert _report(
        "criterion 6: stage-wise statistics",
        ok,
        f"(a) energy capture {hits_a}/200 (>=190), (b) alignment {hits_b}/200 (>=180), "
        f"(c) support coverage {hits_c}/200 (>=180), (d) delta-neighborhood {hits_d}/200 "
        f"(>=180); slowest stage {max(t_ab, t_c, t_d):.0f}s (<= 120s)",
    )


RATIOS = tuple(round(0.1 * i, 1) for i in range(1, 11))


def _trend_sweep(model, algorithms, seed):
    config = BenchConfig(
        ratios=RATIOS, trials=200, base_seed=seed,
        signal=SignalModelSpec(model=model, n=200, k=10, decay=0.7),
        algorithms=algorithms, threads=2,
    )
    return aggregate(run_sweep(config))


def test_criterion_7a_trend_gaussian():
    agg = _trend_sweep("gaussian", (
        AlgorithmSpec(name="gesp", strategy=PStrategy.known_structure()),
        AlgorithmSpec(name="esp"),
        AlgorithmSpec(name="diag_two_step"),
    ), 710)
    violations = []
    for r in RATIOS:
        if r < 0.3:
            continue
        g = agg[("gesp", "known_structure", r)].mean_rel_err
        e = agg[("esp", "", r)].mean_rel_err
        d = agg[("diag_two_step", "", r)].mean_rel_err
        if not (g <= e <= d + 0.02):
            violations.append(f"ratio {r}: gesp {g:.4f}, esp {e:.4f}, two-step {d:.4f}")
    assert _report(
        "criterion 7a: gaussian trend",
        not violations,
        "structure-aware <= width-one <= two-step + 0.02 at every ratio >= 0.3"
        if not violations else "; ".join(violations),
    )


def test_criterion_7b_trend_binary():
    agg = _trend_sweep("binary", (
        AlgorithmSpec(name="gesp", strategy=PStrategy.full_k()),
        AlgorithmSpec(name="esp"),
        AlgorithmSpec(name="diag_two_step"),
        AlgorithmSpec(name="truncated_power"),
    ), 711)
    violations = []
    for r in RATIOS:
        if r < 0.3:
            continue
        g = agg[("gesp", "full_k", r)].mean_rel_err
        for baseline in ("esp", "diag_two_step", "truncated_power"):
            b = agg[(baseline, "", r)].mean_rel_err
            if g > b:
                violations.append(f"ratio {r}: gesp {g:.4f} > {baseline} {b:.4f}")
    assert _report(
        "criterion 7b: binary trend",
        not violations,
        "full-width pursuit <= every baseline at every ratio >= 0.3"
        if not violations else "; ".join(violations),
    )


def test_criterion_7c_trend_exp_decay():
    agg = _trend_sweep("exp_decay", (
        AlgorithmSpec(name="gesp", strategy=PStrategy.sqrt_k()),
        AlgorithmSpec(name="esp"),
    ), 712)
    violations = []
    for r in RATIOS:
        if r < 0.5:
            continue
        g = agg[("gesp", "sqrt_k", r)].mean_rel_err
        e = agg[("esp", "", r)].mean_rel_err
        if abs(g - e) > 0.1:
            violations.append(f"ratio {r}: |{g:.4f} - {e:.4f}| > 0.1")
    assert _report(
        "criterion 7c: exponential-decay trend",
        not violations,
        "sqrt-width pursuit within 0.1 of width-one at every ratio >= 0.5"
        if not violations else "; ".join(violations),
    )


def test_criterion_8_determinism(tmp_path):
    config = load_config(REPO / "configs" / "golden.json")
    blobs = {}
    for label, threads in (("run-a", 1), ("run-b", 1), ("run-c", 4)):
        from dataclasses import replace

        records = run_sweep(replace(config, threads=threads))
        path = tmp_path / f"{label}.csv"
        write_csv(records, path)
        blobs[label] = path.read_bytes()
    golden = (REPO / "tests" / "data" / "golden.csv").read_bytes()
    ok = blobs["run-a"] == blobs["run-b"] == blobs["run-c"] == golden
    assert _report(
        "criterion 8: determinism",
        ok,
        "byte-identical CSV across two runs, thread counts 1 and 4, and the committed golden file"
        if ok else "outputs differ",
    )
