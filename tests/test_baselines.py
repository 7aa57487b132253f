import functools
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gesp import spectrum
from gesp.baselines import diag_two_step_init, esp_init, truncated_power_init
from gesp.bench import build_trial_instance, load_config
from gesp.measurement import MeasurementSet, measure, sample_sensing
from gesp.numerics import magnitude_profile, relative_error
from gesp.pursuit import PStrategy, gesp, residual_score, step4_estimate
from gesp.signals import SignalModelSpec, SparseSignal, generate, sample_support

from oracles import jacobi_max_eigvec, phase_aligned_gap, topk_sorted

REPO = pathlib.Path(__file__).resolve().parents[1]


def _instance(seed, n=24, k=6, m=120, model="gaussian"):
    rng = np.random.default_rng(seed)
    sig = generate(SignalModelSpec(model=model, n=n, k=k), rng)
    meas = measure(sig, sample_sensing(n, m, rng))
    return sig, meas


def _reordered_matvec(op, v):
    """spectrum.matvec with the rank-one accumulation run on a contiguous
    copy of A^T: the same sum, in a different BLAS summation order."""
    a = op.meas.sensing
    v = np.asarray(v, dtype=complex)
    nz = np.flatnonzero(v)
    coeffs = a[:, nz].conj() @ v[nz]
    return np.ascontiguousarray(a.T) @ (op.weights * coeffs) / op.meas.m


def _spike_signal(rng, n=128, k=8, dominant=0.999):
    """One entry carries almost all the energy; s(1) is close to 1."""
    sup = sample_support(n, k, rng)
    small = rng.standard_normal(k - 1) + 1j * rng.standard_normal(k - 1)
    small *= np.sqrt((1.0 - dominant) / np.sum(np.abs(small) ** 2))
    vals = np.concatenate(([np.sqrt(dominant) * np.exp(2j * np.pi * rng.random())], small))
    x = np.zeros(n, dtype=complex)
    x[sup] = vals[rng.permutation(k)]
    return SparseSignal(vector=x)


class TestEsp:
    def test_is_width_one_pursuit(self):
        for seed in range(5):
            _, meas = _instance(seed)
            a = esp_init(meas, 6)
            b = gesp(meas, 6, PStrategy.fixed(1))
            assert a.support.tolist() == b.support.tolist()
            assert np.array_equal(a.z, b.z)

    def test_p_used_always_one(self):
        _, meas = _instance(9)
        assert esp_init(meas, 6).p_used == 1

    def test_close_to_structure_aware_pursuit_on_spike_signals(self):
        # for a single-dominant-entry signal the width barely matters, so
        # the width-1 pursuit should track the structure-aware one closely
        e_esp, e_gesp = [], []
        for trial in range(200):
            rng = np.random.default_rng(4_000 + trial)
            sig = _spike_signal(rng)
            meas = measure(sig, sample_sensing(128, 1024, rng))
            e_esp.append(relative_error(esp_init(meas, 8).z, sig.vector))
            est = gesp(meas, 8, PStrategy.known_structure(), true_profile=sig.profile)
            e_gesp.append(relative_error(est.z, sig.vector))
        assert abs(np.mean(e_esp) - np.mean(e_gesp)) <= 0.05


class TestDiagTwoStep:
    def test_support_matches_direct_loop_oracle(self):
        for seed in range(8):
            _, meas = _instance(seed + 10)
            est = diag_two_step_init(meas, 6)
            # independent per-index accumulation of (1/m) sum y^2 |a_ij|^2
            diag = np.array([
                sum(meas.y[i] ** 2 * abs(meas.sensing[i, j]) ** 2 for i in range(meas.m)) / meas.m
                for j in range(meas.n)
            ])
            assert est.support.tolist() == topk_sorted(diag, 6).tolist()

    def test_norm_and_cardinality(self):
        _, meas = _instance(20)
        est = diag_two_step_init(meas, 6)
        assert est.support.size == 6
        assert np.linalg.norm(est.z) ** 2 == pytest.approx(meas.lambda_sq, rel=1e-10)

    @pytest.mark.parametrize("k", [0, 25])
    def test_k_outside_range_rejected(self, k):
        _, meas = _instance(21)
        with pytest.raises(ValueError, match=f"^need 1 <= k <= n, got k={k}, n=24$"):
            diag_two_step_init(meas, k)

    def test_estimate_supported_on_selection(self):
        _, meas = _instance(21)
        est = diag_two_step_init(meas, 6)
        assert set(np.flatnonzero(est.z)) <= set(est.support.tolist())


class TestTruncatedPower:
    def test_zero_iters_keeps_two_step_support(self):
        _, meas = _instance(30)
        tp = truncated_power_init(meas, 6, iters=0)
        dt = diag_two_step_init(meas, 6)
        assert tp.support.tolist() == dt.support.tolist()

    def test_starts_from_two_step_estimate_at_unit_norm(self, monkeypatch):
        _, meas = _instance(30)
        dt = diag_two_step_init(meas, 6)
        builds, starts = [], []
        build, matvec = spectrum.build, spectrum.matvec
        monkeypatch.setattr(spectrum, "build", lambda meas, kind: builds.append(kind) or build(meas, kind))
        monkeypatch.setattr(spectrum, "matvec", lambda op, v: starts.append(v) or matvec(op, v))
        tp = truncated_power_init(meas, 6, iters=1)
        assert builds == ["quadratic", "exponential"]
        assert starts[0].tobytes() == (dt.z / np.linalg.norm(dt.z)).tobytes()
        assert tp.s0.tolist() == dt.support.tolist()

    def test_output_sparsity_and_norm(self):
        for seed in range(5):
            _, meas = _instance(seed + 31)
            est = truncated_power_init(meas, 6, iters=25)
            assert np.count_nonzero(est.z) <= 6
            assert est.support.size == 6
            assert np.linalg.norm(est.z) ** 2 == pytest.approx(meas.lambda_sq, rel=1e-10)

    def test_error_within_sanity_band_of_two_step(self):
        # self-calibrated band: with 50 refinement sweeps the truncated
        # power method lands well below 1.2x the two-step error in this
        # regime (pilot runs put the ratio near 0.28)
        r_tp, r_dt = [], []
        for trial in range(200):
            rng = np.random.default_rng(3_000 + trial)
            sig = generate(SignalModelSpec(model="gaussian", n=128, k=8), rng)
            meas = measure(sig, sample_sensing(128, 1024, rng))
            r_dt.append(relative_error(diag_two_step_init(meas, 8).z, sig.vector))
            r_tp.append(relative_error(truncated_power_init(meas, 8, 50).z, sig.vector))
        assert np.mean(r_tp) <= 1.2 * np.mean(r_dt)

    def test_negative_iters_rejected(self):
        _, meas = _instance(40)
        with pytest.raises(ValueError):
            truncated_power_init(meas, 6, iters=-1)

    def test_vanishing_product_finishes_the_start_support(self, monkeypatch):
        # rows 0-1 are zero with y = 1, rows 2-3 are zero on columns 0-1 with y = 0: every diagonal
        # entry ties at zero, so the start support is [0, 1], and Z v is exactly zero on the first step
        sensing = np.zeros((4, 6), dtype=complex)
        sensing[2:, 2:] = 1.0
        meas = MeasurementSet(sensing=sensing, y=np.array([1.0, 1.0, 0.0, 0.0]))
        products, matvec = [], spectrum.matvec
        monkeypatch.setattr(spectrum, "matvec", lambda op, v: products.append(matvec(op, v)) or products[-1])
        est = truncated_power_init(meas, 2)
        assert len(products) == 1 and not products[0].any()
        assert est.support.tolist() == est.s0.tolist() == [0, 1]
        finished = step4_estimate(spectrum.build(meas, "exponential"), np.array([0, 1]))
        assert est.z.tobytes() == finished.tobytes()
        assert np.linalg.norm(est.z) ** 2 == pytest.approx(meas.lambda_sq, rel=1e-12) and meas.lambda_sq == 0.5

    @staticmethod
    def _cycling_instance():
        # golden.json, ratio index 2, trial 3: from iteration 2 on the
        # iterate alternates between two supports up to any cap
        config = load_config(REPO / "configs" / "golden.json")
        _, _, meas = build_trial_instance(config, 2, 3)
        return meas, config.k

    def test_cycling_instance_settles_on_a_support(self, monkeypatch):
        # the answer has to come from a settled support, not from the
        # float iterate the cap lands on
        meas, k = self._cycling_instance()
        est = truncated_power_init(meas, k, 50)

        # summation order in the matvec must not reach the output
        monkeypatch.setattr(spectrum, "matvec", _reordered_matvec)
        again = truncated_power_init(meas, k, 50)
        assert again.support.tolist() == est.support.tolist()
        assert again.z.tobytes() == est.z.tobytes()

        # the estimate is the maximal eigenvector on the returned support
        op = spectrum.build(meas, "exponential")
        _, vec = jacobi_max_eigvec(spectrum.submatrix(op, est.support))
        ref = np.zeros(meas.n, dtype=complex)
        ref[est.support] = vec * np.sqrt(meas.lambda_sq)
        assert phase_aligned_gap(est.z, ref) <= 1e-8

    def test_two_cycle_keeps_smaller_residual(self):
        meas, k = self._cycling_instance()
        cycle = ([9, 35, 52, 54, 58, 60], [9, 22, 24, 32, 52, 54])
        est = truncated_power_init(meas, k, 50)
        assert est.support.tolist() in cycle
        op = spectrum.build(meas, "exponential")
        scores = [residual_score(meas, step4_estimate(op, np.array(c))) for c in cycle]
        assert est.residual_score == min(scores)

    def test_three_cycle_stops_and_keeps_smaller_residual(self, monkeypatch):
        # a stand-in Z v whose top-1 entry moves start -> a -> b -> c -> a:
        # the iteration has to stop on the repeat of a, not run to the cap
        _, meas = _instance(42)
        op = spectrum.build(meas, "exponential")
        start = int(diag_two_step_init(meas, 1).support[0])
        others = [j for j in range(meas.n) if j != start][:3]
        scores = {
            j: residual_score(meas, step4_estimate(op, np.array([j]))) for j in others
        }
        worst, middle, best = sorted(others, key=scores.get, reverse=True)
        a, b, c = worst, best, middle  # the best support is neither first nor last in the cycle
        step = {start: a, a: b, b: c, c: a}
        calls = []

        def rotating_matvec(op, v):
            calls.append(v)
            w = np.full(meas.n, 0.1, dtype=complex)
            w[step[int(np.flatnonzero(v)[0])]] = 1.0
            return w

        monkeypatch.setattr(spectrum, "matvec", rotating_matvec)
        est = truncated_power_init(meas, 1, iters=50)
        assert len(calls) <= 5
        assert est.support.tolist() == [b]
        assert est.residual_score == scores[b]


def _initializers(k, profile):
    """Every initializer as a function of (meas, k), keyed by name."""
    strategies = (
        PStrategy.fixed((k + 1) // 2), PStrategy.known_structure(), PStrategy.sqrt_k(),
        PStrategy.full_k(), PStrategy.ensemble(),
    )
    inits = {f"gesp-{s.kind}": functools.partial(gesp, strategy=s, true_profile=profile) for s in strategies}
    inits.update(esp=esp_init, diag_two_step=diag_two_step_init, truncated_power=truncated_power_init)
    return inits


@pytest.mark.parametrize("name", list(_initializers(4, None)))
def test_all_zero_observations_raise(name):
    # lambda_sq = 0: no estimate can have ||z||^2 = lambda_sq and k nonzeros
    rng = np.random.default_rng(70)
    meas = MeasurementSet(sensing=sample_sensing(20, 30, rng), y=np.zeros(30))
    init = _initializers(4, magnitude_profile(np.ones(4)))[name]
    with pytest.raises(ValueError, match="lambda_sq is zero"):
        init(meas, 4)


@pytest.mark.parametrize("k", [0, 25])
@pytest.mark.parametrize("name", list(_initializers(4, None)))
def test_k_outside_range_rejected(name, k):
    # every initializer refuses k before any work, with the one shared message
    _, meas = _instance(21)
    with pytest.raises(ValueError, match=f"^need 1 <= k <= n, got k={k}, n=24$"):
        _initializers(4, None)[name](meas, k)


EDGES = ("k=n", "k=1", "m<k", "m=1", "tied")


@settings(max_examples=50, deadline=None, derandomize=True)
@given(edge=st.sampled_from(EDGES), n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
def test_invariants_at_pipeline_edges(edge, n, seed):
    # every estimate is finite, has exactly k nonzeros on its support and
    # ||z||^2 = lambda_sq; "tied" uses all-ones sensing rows, so every
    # diagonal entry of either spectrum is the same number
    rng = np.random.default_rng(seed)
    k = {"k=n": n, "k=1": 1, "m<k": n}.get(edge) or int(rng.integers(1, n + 1))
    if edge == "m<k":
        m = int(rng.integers(1, k))
    else:
        m = 1 if edge == "m=1" else int(rng.integers(1, 3 * n + 1))
    sig = generate(SignalModelSpec(model="gaussian", n=n, k=k), rng)
    sensing = np.ones((m, n), dtype=complex) if edge == "tied" else sample_sensing(n, m, rng)
    meas = measure(sig, sensing)
    for name, init in _initializers(k, sig.profile).items():
        est = init(meas, k)
        assert np.all(np.isfinite(est.z)), name
        assert np.flatnonzero(est.z).tolist() == sorted(est.support.tolist()), name
        assert abs(np.vdot(est.z, est.z).real - meas.lambda_sq) <= 1e-9 * meas.lambda_sq, name


class TestOrderingOnBinarySignals:
    def test_full_width_pursuit_beats_two_step(self):
        # flat-magnitude signals are the regime where the exponential
        # pursuit has the largest margin over the quadratic two-step
        errs_gesp, errs_dt = [], []
        for trial in range(200):
            rng = np.random.default_rng(5_000 + trial)
            sig = generate(SignalModelSpec(model="binary", n=128, k=8), rng)
            meas = measure(sig, sample_sensing(128, 512, rng))
            errs_gesp.append(relative_error(gesp(meas, 8, PStrategy.full_k()).z, sig.vector))
            errs_dt.append(relative_error(diag_two_step_init(meas, 8).z, sig.vector))
        assert np.mean(errs_gesp) <= np.mean(errs_dt)
