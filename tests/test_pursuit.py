import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gesp import pursuit, spectrum
from gesp.measurement import MeasurementSet, measure, sample_sensing
from gesp.numerics import p_opt, relative_error, top_k_indices
from gesp.pursuit import (
    PStrategy,
    gesp,
    residual_score,
    step2_direction,
)
from gesp.signals import SignalModelSpec, generate

from oracles import (
    dense_expo_weights,
    dense_spectrum,
    jacobi_max_eigvec,
    per_width_pursuit,
    phase_aligned_gap,
    topk_sorted,
)


def _instance(seed, n=8, k=3, m=50, model="gaussian"):
    rng = np.random.default_rng(seed)
    sig = generate(SignalModelSpec(model=model, n=n, k=k), rng)
    meas = measure(sig, sample_sensing(n, m, rng))
    return sig, meas


class TestSteps:
    def test_step1_picks_largest_diagonal(self):
        assert top_k_indices([0.1, 0.5, 0.3], 2).tolist() == [1, 2]

    def test_step1_full_width(self):
        assert top_k_indices([0.1, 0.5, 0.3], 3).tolist() == [0, 1, 2]

    def test_step2_singleton_is_basis_vector(self):
        _, meas = _instance(0)
        op = spectrum.build(meas, "exponential")
        e0 = step2_direction(op, np.array([5]))
        expected = np.zeros(8, dtype=complex)
        expected[5] = 1.0
        assert np.array_equal(e0, expected)

    def test_step2_matches_jacobi_oracle(self):
        for seed in range(10):
            _, meas = _instance(seed)
            op = spectrum.build(meas, "exponential")
            s0 = top_k_indices(spectrum.diagonal(op), 3)
            e0 = step2_direction(op, s0)
            dense = dense_spectrum(meas.sensing, dense_expo_weights(meas.y))
            _, ref_local = jacobi_max_eigvec(dense[np.ix_(s0, s0)])
            ref = np.zeros(8, dtype=complex)
            ref[s0] = ref_local
            assert phase_aligned_gap(e0, ref) < 1e-8

    def test_step3_p1_equals_spectrum_column(self):
        # with a single anchor index, Z e0 is just that column of Z
        for seed in range(10):
            _, meas = _instance(seed, k=4)
            op = spectrum.build(meas, "exponential")
            diag = spectrum.diagonal(op)
            j_max = int(np.argmax(diag))
            e0 = step2_direction(op, np.array([j_max]))
            s1 = top_k_indices(np.abs(spectrum.matvec(op, e0)), 4)
            dense = dense_spectrum(meas.sensing, dense_expo_weights(meas.y))
            assert s1.tolist() == topk_sorted(np.abs(dense[:, j_max]), 4).tolist()

    def test_step3_constant_modulus_tie_break(self):
        # one all-ones measurement row makes |Z e_j| constant across entries
        x_row = np.ones((1, 6), dtype=complex)
        meas = MeasurementSet(sensing=x_row, y=np.array([2.0]))
        op = spectrum.build(meas, "exponential")
        e0 = np.zeros(6, dtype=complex)
        e0[3] = 1.0
        assert top_k_indices(np.abs(spectrum.matvec(op, e0)), 3).tolist() == [0, 1, 2]

    def test_step4_norm_and_support(self):
        for seed in range(10):
            _, meas = _instance(seed)
            op = spectrum.build(meas, "exponential")
            s1 = np.array([0, 2, 5])
            z = pursuit._finish(op, s1, 3, s1).z
            assert np.linalg.norm(z) ** 2 == pytest.approx(meas.lambda_sq, rel=1e-10)
            assert set(np.flatnonzero(z)) <= set(s1.tolist())


class TestResidualScore:
    def test_truth_scores_zero(self):
        sig, meas = _instance(20)
        assert residual_score(meas, sig.vector) == pytest.approx(0.0, abs=1e-28)

    def test_phase_rotation_scores_zero(self):
        sig, meas = _instance(21)
        assert residual_score(meas, np.exp(1.1j) * sig.vector) == pytest.approx(0.0, abs=1e-25)

    def test_zero_vector_scores_lambda_sq(self):
        _, meas = _instance(22)
        assert residual_score(meas, np.zeros(8, complex)) == meas.lambda_sq

    @pytest.mark.parametrize("z", [np.zeros(7, complex), np.zeros((8, 1), complex)], ids=["short", "column"])
    def test_length_mismatch_names_it(self, z):
        _, meas = _instance(22)
        with pytest.raises(ValueError, match=rf"^expected a length-8 vector, got shape {re.escape(str(z.shape))}$"):
            residual_score(meas, z)


class TestStrategies:
    def test_fixed_one_equals_esp_baseline(self):
        from gesp.baselines import esp_init

        for seed in range(5):
            _, meas = _instance(seed, n=16, k=5, m=80)
            a = gesp(meas, 5, PStrategy.fixed(1))
            b = esp_init(meas, 5)
            assert a.support.tolist() == b.support.tolist()
            assert np.array_equal(a.z, b.z)
            assert b.p_used == 1

    def test_sqrt_k_width(self):
        _, meas = _instance(30, n=40, k=16, m=200)
        est = gesp(meas, 16, PStrategy("sqrt_k"))
        assert est.p_used == 4
        _, meas = _instance(31, n=40, k=10, m=200)
        assert gesp(meas, 10, PStrategy("sqrt_k")).p_used == 4  # ceil(sqrt(10))

    def test_full_k_width(self):
        _, meas = _instance(32, n=20, k=6, m=100)
        assert gesp(meas, 6, PStrategy("full_k")).p_used == 6

    def test_known_structure_on_example2(self):
        sig, meas = _instance(33, n=40, k=16, m=300, model="example2")
        est = gesp(meas, 16, PStrategy("known_structure", variant="global"), true_profile=sig.profile)
        assert est.p_used == 2

    def test_known_structure_requires_profile(self):
        _, meas = _instance(34)
        with pytest.raises(ValueError):
            gesp(meas, 3, PStrategy("known_structure"))

    @pytest.mark.parametrize("k", [0, 9])
    def test_k_outside_range_rejected(self, k):
        _, meas = _instance(35)
        with pytest.raises(ValueError, match=f"^need 1 <= k <= n, got k={k}, n=8$"):
            gesp(meas, k)

    def test_fixed_p_above_k_rejected(self):
        _, meas = _instance(35)
        with pytest.raises(ValueError):
            gesp(meas, 3, PStrategy.fixed(4))

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            PStrategy(kind="widest")
        with pytest.raises(ValueError):
            PStrategy.fixed(0)
        with pytest.raises(ValueError):
            PStrategy(kind="sqrt_k", p=2)
        with pytest.raises(ValueError):
            PStrategy("known_structure", variant="corollary")

    @pytest.mark.parametrize("p", [1.5, 2.0, True, "2", None])
    def test_fixed_p_value_must_be_an_integer(self, p):
        # 1.5 used to build and raise at solve time; True ran width 1
        message = f"fixed strategy needs a positive integer p, got {p!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PStrategy.fixed(p)
        assert PStrategy.fixed(np.int64(2)).p == 2

    @pytest.mark.parametrize("kind, p", [("fixed", 2), ("sqrt_k", None), ("full_k", None), ("ensemble", None)])
    def test_variant_rejected_where_ignored(self, kind, p):
        # only known_structure reads the variant; "capped" used to be accepted and ignored
        with pytest.raises(ValueError, match="variant is only valid for the known_structure strategy"):
            PStrategy(kind, p, "capped")
        assert PStrategy(kind, p).variant == "global"

    def test_ensemble_dominates_every_fixed_width(self):
        for seed in range(5):
            _, meas = _instance(seed + 40, n=16, k=5, m=64)
            ens = gesp(meas, 5, PStrategy("ensemble"))
            runs = [gesp(meas, 5, PStrategy.fixed(p)) for p in range(1, 6)]
            scores = [run.residual_score for run in runs]
            assert ens.residual_score == min(scores)
            # smallest p wins ties
            assert ens.p_used == 1 + scores.index(min(scores))
            # the ensemble's estimate is the winning width's run, bit for bit
            win = runs[ens.p_used - 1]
            assert ens.z.tobytes() == win.z.tobytes()
            assert ens.support.tolist() == win.support.tolist()
            assert ens.s0.tolist() == win.s0.tolist()

    def test_one_diagonal_per_call(self, monkeypatch):
        # every width of one gesp call shares one lookup of the set's diagonal
        sig, meas = _instance(36, n=16, k=5, m=80)
        diagonal, calls = spectrum.diagonal, []
        monkeypatch.setattr(spectrum, "diagonal", lambda op: calls.append(op) or diagonal(op))
        for strat in (PStrategy.fixed(2), PStrategy("known_structure"), PStrategy("sqrt_k"),
                      PStrategy("full_k"), PStrategy("ensemble")):
            calls.clear()
            gesp(meas, 5, strat, true_profile=sig.profile)
            assert len(calls) == 1, strat.kind


    def test_each_distinct_s1_finished_once(self, monkeypatch):
        # step 4 and the residual depend on S1 alone: widths that select the
        # same S1 share one finish
        _, meas = _instance(38, n=16, k=5, m=80)
        est = gesp(meas, 5, PStrategy("ensemble"))
        op = spectrum.build(meas, "exponential")
        diag = spectrum.diagonal(op)
        supports = {
            top_k_indices(np.abs(spectrum.matvec(op, step2_direction(op, top_k_indices(diag, p)))), 5).tobytes()
            for p in range(1, 6)
        }
        finished = []
        finish = pursuit._finish
        monkeypatch.setattr(
            pursuit, "_finish", lambda op, s1, *rest: finished.append(s1.tobytes()) or finish(op, s1, *rest)
        )
        assert gesp(meas, 5, PStrategy("ensemble")).z.tobytes() == est.z.tobytes()
        assert sorted(finished) == sorted(supports) and len(supports) < 5


def _widths(strategy, k, profile):
    """The widths gesp scans for a strategy."""
    if strategy.kind == "ensemble":
        return range(1, k + 1)
    return [{
        "fixed": strategy.p,
        "known_structure": p_opt(profile, k, strategy.variant),
        "sqrt_k": math.isqrt(k - 1) + 1,
        "full_k": k,
    }[strategy.kind]]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(edge=st.sampled_from(("random", "k=n", "tied")), n=st.integers(2, 14), seed=st.integers(0, 2**32 - 1))
def test_scan_matches_per_width_loop(edge, n, seed):
    # the one scan (steps 1-3 per width, each distinct S1 finished once) returns,
    # bit for bit, what the per-width loop returns, for every strategy;
    # "tied" uses all-ones sensing rows, so every diagonal entry is equal
    rng = np.random.default_rng(seed)
    k = n if edge == "k=n" else int(rng.integers(1, n + 1))
    m = int(rng.integers(1, 4 * n + 1))
    sig = generate(SignalModelSpec(model="gaussian", n=n, k=k), rng)
    sensing = np.ones((m, n), dtype=complex) if edge == "tied" else sample_sensing(n, m, rng)
    meas = measure(sig, sensing)
    for strat in (PStrategy.fixed((k + 1) // 2), PStrategy("known_structure"),
                  PStrategy("known_structure", variant="capped"), PStrategy("sqrt_k"), PStrategy("full_k"),
                  PStrategy("ensemble")):
        got = gesp(meas, k, strat, true_profile=sig.profile)
        want = per_width_pursuit(meas, k, _widths(strat, k, sig.profile))
        assert got.z.tobytes() == want.z.tobytes(), strat
        assert got.support.tolist() == want.support.tolist(), strat
        assert got.p_used == want.p_used, strat
        assert got.s0.tolist() == want.s0.tolist(), strat
        assert got.residual_score == want.residual_score, strat


def test_ensemble_is_its_winning_widths_run_on_exact_ties():
    # all-ones sensing ties entries of |Z e0| exactly, so the ensemble is the
    # fixed run at its winning width only if both take S1 from one product
    rng = np.random.default_rng(0)
    n = 9
    k = int(rng.integers(1, n + 1))
    m = int(rng.integers(1, 4 * n + 1))
    sig = generate(SignalModelSpec(model="gaussian", n=n, k=k), rng)
    meas = measure(sig, np.ones((m, n), dtype=complex))
    got = gesp(meas, k, PStrategy("ensemble"))
    want = gesp(meas, k, PStrategy.fixed(got.p_used))
    assert got.support.tolist() == want.support.tolist()
    assert got.z.tobytes() == want.z.tobytes()


def test_ensemble_is_its_winning_widths_run_with_binary_sensing():
    # +-1 sensing makes exact ties in |Z e0| common on unconstructed input,
    # so an S1 from any other product than the fixed width's can differ
    for seed in range(200):
        rng = np.random.default_rng(seed)
        sig = generate(SignalModelSpec("gaussian", 30, 2), rng)
        meas = measure(sig, rng.choice([-1.0, 1.0], size=(62, 30)).astype(complex))
        got = gesp(meas, 2, PStrategy("ensemble"))
        want = gesp(meas, 2, PStrategy.fixed(got.p_used))
        assert got.support.tolist() == want.support.tolist(), seed
        assert got.z.tobytes() == want.z.tobytes(), seed


class TestPipelineInvariants:
    def test_cardinalities(self):
        for seed in range(5):
            _, meas = _instance(seed + 50, n=24, k=7, m=120)
            for strat in (PStrategy.fixed(3), PStrategy("sqrt_k"), PStrategy("full_k")):
                est = gesp(meas, 7, strat)
                assert est.support.size == 7
                assert est.s0.size == est.p_used

    def test_estimate_norm(self):
        _, meas = _instance(60, n=24, k=7, m=120)
        est = gesp(meas, 7, PStrategy("full_k"))
        assert np.linalg.norm(est.z) ** 2 == pytest.approx(meas.lambda_sq, rel=1e-10)

    def test_metric_invariant_to_signal_phase(self):
        # rotating the true signal before measuring leaves the moduli, and
        # hence the whole pipeline output metric, unchanged
        rng = np.random.default_rng(61)
        sig = generate(SignalModelSpec(model="gaussian", n=16, k=4), rng)
        sensing = sample_sensing(16, 90, rng)
        rotated_vec = np.exp(0.7j) * sig.vector
        from gesp.signals import SparseSignal

        rotated = SparseSignal(vector=rotated_vec)
        est_a = gesp(measure(sig, sensing), 4, PStrategy("full_k"))
        est_b = gesp(measure(rotated, sensing), 4, PStrategy("full_k"))
        assert est_a.support.tolist() == est_b.support.tolist()
        err_a = relative_error(est_a.z, sig.vector)
        err_b = relative_error(est_b.z, rotated.vector)
        assert err_a == pytest.approx(err_b, abs=1e-9)

    def test_more_samples_help(self):
        # mean relative error at m=1024 beats m=128 (gaussian, n=128, k=8)
        errs = {128: [], 1024: []}
        for trial in range(200):
            rng = np.random.default_rng(10_000 + trial)
            sig = generate(SignalModelSpec(model="gaussian", n=128, k=8), rng)
            for m in (128, 1024):
                meas = measure(sig, sample_sensing(128, m, rng))
                est = gesp(meas, 8, PStrategy("known_structure"), true_profile=sig.profile)
                errs[m].append(relative_error(est.z, sig.vector))
        assert np.mean(errs[1024]) < np.mean(errs[128])


@pytest.mark.parametrize("name", ["signal", "profile", "measurements", "spectrum", "estimate"])
def test_array_dataclasses_compare_and_hash_by_identity(name):
    # the generated __eq__ compared the arrays and raised ValueError on two instances, __hash__ TypeError
    sig, meas = _instance(40)
    objects = dict(signal=sig, profile=sig.profile, measurements=meas, spectrum=spectrum.build(meas),
                   estimate=gesp(meas, 3))
    obj = objects[name]
    twin = dataclasses.replace(obj)
    assert obj == obj and obj != twin
    assert len({obj, twin, obj}) == 2
