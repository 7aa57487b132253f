import dataclasses
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gesp import bench, eigensolver, spectrum
from gesp.eigensolver import SOLVE_MIN, TOL, max_eigvec
from gesp.pursuit import PStrategy, gesp

from oracles import jacobi_eigh, jacobi_max_eigvec, phase_aligned_gap

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def _random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def _rayleigh(m, v):
    """The Rayleigh quotient tau = v* M v and the residual ||M v - tau v||."""
    mv = m @ v
    tau = float(np.vdot(v, mv).real)
    return tau, float(np.linalg.norm(mv - tau * v))


class TestSmallCases:
    @pytest.mark.parametrize("c", [2.5, 0.0, -5.0])
    def test_one_by_one(self, c):
        m = np.array([[c]], dtype=complex)
        v = max_eigvec(m)
        tau, residual = _rayleigh(m, v)
        assert tau == pytest.approx(c, abs=1e-12)
        assert v[0] == pytest.approx(1.0, abs=1e-12)
        assert residual <= 1e-10

    def test_largest_algebraic_not_largest_magnitude(self):
        # diag(3, 1, -5): the magnitude-dominant eigenvalue is -5, but the
        # maximal one is 3; the shift must route the iteration to it
        m = np.diag([3.0, 1.0, -5.0]).astype(complex)
        v = max_eigvec(m)
        assert _rayleigh(m, v)[0] == pytest.approx(3.0, abs=1e-10)
        assert phase_aligned_gap(v, np.array([1, 0, 0], complex)) < 1e-8

    def test_negative_definite(self):
        m = np.diag([-1.0, -2.0, -3.0]).astype(complex)
        assert _rayleigh(m, max_eigvec(m))[0] == pytest.approx(-1.0, abs=1e-10)


class TestOracleAgreement:
    def test_random_hermitian_d6(self):
        rng = np.random.default_rng(40)
        for _ in range(25):
            m = _random_hermitian(rng, 6)
            v = max_eigvec(m)
            ref_val, ref_vec = jacobi_max_eigvec(m)
            assert _rayleigh(m, v)[0] == pytest.approx(ref_val, abs=1e-8)
            assert phase_aligned_gap(v, ref_vec) < 1e-8

    def test_jacobi_oracle_on_diagonal_matrices(self):
        # sanity for the oracle itself
        rng = np.random.default_rng(41)
        for _ in range(10):
            diag = rng.standard_normal(5)
            evals, evecs = jacobi_eigh(np.diag(diag).astype(complex))
            assert np.allclose(np.sort(evals), np.sort(diag), atol=1e-12)
            assert np.allclose(np.abs(evecs), np.eye(5), atol=1e-12)

    def test_rank_one_plus_noise(self):
        rng = np.random.default_rng(42)
        for d in (2, 4, 9):
            x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            m = np.outer(x, x.conj()) + 0.05 * _random_hermitian(rng, d)
            v = max_eigvec(m)
            ref_val, ref_vec = jacobi_max_eigvec(m)
            assert _rayleigh(m, v)[0] == pytest.approx(ref_val, abs=1e-8)
            assert phase_aligned_gap(v, ref_vec) < 1e-8


class TestContracts:
    def test_unit_norm_and_residual_bound(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            m = _random_hermitian(rng, 7)
            v = max_eigvec(m)
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
            tau, residual = _rayleigh(m, v)
            assert residual <= 1e-10 * max(1.0, abs(tau))

    def test_rayleigh_dominates_diagonal(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            m = _random_hermitian(rng, 6)
            assert _rayleigh(m, max_eigvec(m))[0] >= np.max(m.diagonal().real) - 1e-10

    def test_determinism(self):
        rng = np.random.default_rng(45)
        m = _random_hermitian(rng, 8)
        assert max_eigvec(m).tobytes() == max_eigvec(m).tobytes()

    def test_phase_canonical(self):
        rng = np.random.default_rng(46)
        for _ in range(20):
            v = max_eigvec(_random_hermitian(rng, 5))
            j = int(np.argmax(np.abs(v)))
            assert v[j].imag == 0.0
            assert v[j].real >= 0.0

    def test_output_invariant_to_internal_phase(self):
        # conjugating by a diagonal phase matrix rotates the eigenvector;
        # canonicalization must undo exactly the global part
        rng = np.random.default_rng(47)
        m = _random_hermitian(rng, 5)
        v = max_eigvec(m)
        _, ref_vec = jacobi_max_eigvec(m)
        assert phase_aligned_gap(v, ref_vec) < 1e-8
        # re-canonicalizing an already canonical vector is a no-op
        j = int(np.argmax(np.abs(v)))
        assert v[j].real == np.abs(v)[j]

    def test_degenerate_top_pair_still_meets_residual(self):
        m = np.diag([2.0, 2.0, -1.0]).astype(complex)
        tau, residual = _rayleigh(m, max_eigvec(m))
        assert tau == pytest.approx(2.0, abs=1e-9)
        assert residual <= 1e-10 * 2

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            max_eigvec(np.zeros((2, 3)))

    def test_result_type(self):
        v = max_eigvec(np.eye(3, dtype=complex))
        assert isinstance(v, np.ndarray) and v.dtype == complex and v.shape == (3,)

    @pytest.mark.parametrize("m", [
        np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),  # not Hermitian
        np.array([[1.0, 1j], [1j, 1.0]]),  # symmetric, but not Hermitian
        np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex),
    ])
    def test_residual_check_rejects_bad_input(self, m):
        with pytest.raises(np.linalg.LinAlgError, match="residual"):
            max_eigvec(m)


class TestNearTies:
    """Cases on which an iterative solver contracts slowly."""

    def test_top_pair_tied_to_1e_12(self):
        rng = np.random.default_rng(50)
        d = 12
        q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        evals = np.concatenate([[1.0, 1.0 - 1e-12], rng.uniform(-1.0, 0.9, d - 2)])
        m = (q * evals) @ q.conj().T
        m = (m + m.conj().T) / 2
        tau, residual = _rayleigh(m, max_eigvec(m))
        assert residual <= 1e-10 * max(1.0, abs(tau))
        assert tau == pytest.approx(np.linalg.eigvalsh(m)[-1], rel=1e-12, abs=1e-12)

    def test_example1_s1_submatrix_k64(self):
        # Z_{S1} of the first example1 trial, at order 64 on the eigvalsh-and-solve route
        config = bench.load_config(CONFIGS / "example1.json")
        _, _, meas = bench.build_trial_instance(config, 0, 0)
        est = gesp(meas, config.k, PStrategy("full_k"))
        sub = spectrum.submatrix(spectrum.build(meas, "exponential"), est.support)
        assert sub.shape == (64, 64)
        v = max_eigvec(sub)
        ref_val, ref_vec = jacobi_max_eigvec(sub)
        assert _rayleigh(sub, v)[0] == pytest.approx(ref_val, abs=1e-10)
        assert phase_aligned_gap(v, ref_vec) < 1e-8


def _example1_s1_submatrix():
    """Z_{S1} of the first example1 trial, 64 x 64."""
    config = bench.load_config(CONFIGS / "example1.json")
    _, _, meas = bench.build_trial_instance(config, 0, 0)
    est = gesp(meas, config.k, PStrategy("full_k"))
    return spectrum.submatrix(spectrum.build(meas, "exponential"), est.support)


class TestSolveRoute:
    """From order SOLVE_MIN on, the vector comes from eigvalsh plus one shifted solve."""

    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
        return calls

    def _assert_matches_eigh(self, m, eigh_calls):
        ref = np.linalg.eigh(m)[1][:, -1]
        v = max_eigvec(m)
        assert eigh_calls == [ref.shape * 2]  # only the reference above called eigh
        tau, residual = _rayleigh(m, v)
        assert residual <= TOL * max(1.0, abs(tau))
        assert phase_aligned_gap(v, ref) <= 1e-12

    @pytest.mark.parametrize("d", [12, 24, 48, 64])
    def test_matches_eigh_on_random_hermitian(self, d, eigh_calls):
        rng = np.random.default_rng(60 + d)
        for _ in range(5):
            eigh_calls.clear()
            self._assert_matches_eigh(_random_hermitian(rng, d), eigh_calls)

    @pytest.mark.parametrize("d", [12, 24, 48, 64])
    def test_matches_eigh_on_example1_s1_submatrix(self, d, eigh_calls):
        sub = _example1_s1_submatrix()[:d, :d]
        eigh_calls.clear()
        self._assert_matches_eigh(sub, eigh_calls)

    def test_singular_shift_falls_back_to_eigh(self, eigh_calls):
        # the shifted diagonal matrix has an exact zero pivot, so the solve raises
        entries = np.random.default_rng(61).permutation(SOLVE_MIN).astype(float)
        v = max_eigvec(np.diag(entries).astype(complex))
        assert eigh_calls == [(SOLVE_MIN, SOLVE_MIN)]
        assert np.array_equal(v, np.eye(SOLVE_MIN)[int(np.argmax(entries))])


def test_solve_route_keeps_every_discrete_output(monkeypatch):
    # example1 (k = 64) with the ensemble, once as shipped and once with eigh at every order
    config = bench.load_config(CONFIGS / "example1.json")
    config = dataclasses.replace(
        config, trials=2, algorithms=(*config.algorithms, bench.AlgorithmSpec("gesp", PStrategy("ensemble")))
    )
    solved = bench.run_sweep(config)
    monkeypatch.setattr(eigensolver, "SOLVE_MIN", config.k + 1)
    eigh_only = bench.run_sweep(config)
    assert len(solved) == len(eigh_only) == 2 * 2 * 3
    for a, b in zip(solved, eigh_only):
        assert (a.algorithm, a.strategy, a.m, a.trial_index) == (b.algorithm, b.strategy, b.m, b.trial_index)
        assert (a.p_used, a.support_fraction, a.error_flag) == (b.p_used, b.support_fraction, b.error_flag)
        assert a.relative_error == pytest.approx(b.relative_error, rel=0, abs=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@example(d=SOLVE_MIN - 1, seed=0, scale=1.0)  # the largest order on eigh alone
@example(d=SOLVE_MIN, seed=0, scale=1.0)  # the smallest order on the shifted solve
@given(d=st.integers(1, 64), seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_contract_on_random_hermitian(d, seed, scale):
    m = scale * _random_hermitian(np.random.default_rng(seed), d)
    v = max_eigvec(m)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    tau, residual = _rayleigh(m, v)
    assert residual <= 1e-10 * max(1.0, abs(tau))
    j = int(np.argmax(np.abs(v)))
    assert v[j].imag == 0.0 and v[j].real >= 0.0
    assert max_eigvec(m).tobytes() == v.tobytes()
