import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gesp.measurement import MeasurementSet, measure, sample_sensing
from gesp.spectrum import build, diagonal, expectation_oracle, matvec, submatrix
from gesp.signals import SignalModelSpec, generate

from oracles import dense_spectrum


def _instance(seed, n=8, k=3, m=50):
    rng = np.random.default_rng(seed)
    sig = generate(SignalModelSpec(model="gaussian", n=n, k=k), rng)
    meas = measure(sig, sample_sensing(n, m, rng))
    return sig, meas


class TestBuild:
    def test_zero_modulus_weight(self):
        meas = MeasurementSet(sensing=np.ones((2, 3), dtype=complex), y=np.array([0.0, 1.0]))
        op = build(meas, "exponential")
        assert op.weights[0] == pytest.approx(-0.5, abs=1e-15)

    def test_log2_crossing(self):
        # y^2 = lambda_sq * ln 2 makes the weight vanish: y^2 = [ln 2, 2 - ln 2]
        # has mean square lambda_sq = 1
        y = np.sqrt([np.log(2.0), 2.0 - np.log(2.0)])
        meas = MeasurementSet(sensing=np.ones((2, 2), dtype=complex), y=y)
        assert build(meas, "exponential").weights[0] == pytest.approx(0.0, abs=1e-15)

    def test_large_modulus_limit(self):
        # y = 40 among 49 zeros: lambda_sq = 32, so y_0^2 / lambda_sq = 50
        y = np.zeros(50)
        y[0] = 40.0
        meas = MeasurementSet(sensing=np.ones((50, 2), dtype=complex), y=y)
        assert build(meas, "exponential").weights[0] == pytest.approx(0.5, abs=1e-12)

    def test_weight_ranges(self):
        _, meas = _instance(0, m=200)
        expo = build(meas, "exponential").weights
        quad = build(meas, "quadratic").weights
        assert np.all(expo > -0.5) and np.all(expo < 0.5)
        assert np.all(quad >= 0)
        assert np.allclose(quad, meas.y**2)

    def test_unknown_weighting_rejected(self):
        _, meas = _instance(1)
        with pytest.raises(ValueError, match="^unknown weighting 'cubic'; expected one of "):
            build(meas, "cubic")

    def test_degenerate_measurements_rejected(self):
        meas = MeasurementSet(sensing=np.ones((2, 2), dtype=complex), y=np.zeros(2))
        with pytest.raises(ValueError):
            build(meas, "exponential")


class TestDenseOracleAgreement:
    def test_constant_row(self):
        # single all-ones row: every diagonal entry equals the weight
        meas = MeasurementSet(sensing=np.ones((1, 4), dtype=complex), y=np.array([2.0]))
        op = build(meas, "exponential")
        w = 0.5 - np.exp(-1.0)
        assert np.allclose(diagonal(op), w, rtol=1e-14)

    def test_diagonal_matches_dense(self):
        for seed in range(10):
            _, meas = _instance(seed)
            op = build(meas, "exponential")
            dense = dense_spectrum(meas.sensing, op.weights)
            assert np.allclose(diagonal(op), dense.diagonal().real, atol=1e-12)

    def test_submatrix_matches_dense(self):
        for seed in range(10):
            _, meas = _instance(seed)
            op = build(meas, "exponential")
            dense = dense_spectrum(meas.sensing, op.weights)
            s = np.array([1, 3, 5, 6])
            assert np.allclose(submatrix(op, s), dense[np.ix_(s, s)], atol=1e-12)

    def test_full_index_set_is_dense_spectrum(self):
        _, meas = _instance(11)
        op = build(meas, "exponential")
        dense = dense_spectrum(meas.sensing, op.weights)
        assert np.allclose(submatrix(op, np.arange(8)), dense, atol=1e-12)

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(12)
        for seed in range(10):
            _, meas = _instance(seed)
            op = build(meas, "exponential")
            dense = dense_spectrum(meas.sensing, op.weights)
            v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            assert np.allclose(matvec(op, v), dense @ v, atol=1e-12)

    def test_single_index_submatrix_is_diagonal_entry(self):
        _, meas = _instance(13)
        op = build(meas, "exponential")
        d = diagonal(op)
        for j in (0, 3, 7):
            sub = submatrix(op, [j])
            assert sub.shape == (1, 1)
            assert sub[0, 0] == pytest.approx(d[j], abs=1e-12)


class TestOperatorProperties:
    def test_submatrix_exactly_hermitian(self):
        _, meas = _instance(20, n=12, k=4, m=70)
        op = build(meas, "exponential")
        s = np.array([0, 2, 5, 9, 11])
        sub = submatrix(op, s)
        assert np.array_equal(sub, sub.conj().T)

    def test_path_consistency(self):
        # diagonal, 1x1 submatrix, and matvec on a basis vector agree
        _, meas = _instance(21)
        op = build(meas, "exponential")
        d = diagonal(op)
        for j in range(8):
            e = np.zeros(8, dtype=complex)
            e[j] = 1.0
            assert matvec(op, e)[j].real == pytest.approx(d[j], abs=1e-12)
            assert submatrix(op, [j])[0, 0].real == pytest.approx(d[j], abs=1e-12)

    def test_diagonal_is_the_sets_stored_vector(self):
        # the O(mn) sum is done once, when the set is built; a call looks it up
        _, meas = _instance(27)
        abs_sq = meas.sensing.real**2 + meas.sensing.imag**2
        for kind in ("exponential", "quadratic"):
            op = build(meas, kind)
            assert op.weights is meas.weights[kind]
            assert diagonal(op) is meas.diagonals[kind]
            assert np.array_equal(diagonal(op), (op.weights @ abs_sq) / meas.m)

    def test_matvec_zero_vector(self):
        _, meas = _instance(22)
        op = build(meas, "exponential")
        assert np.array_equal(matvec(op, np.zeros(8, complex)), np.zeros(8, complex))

    def test_matvec_dimension_mismatch(self):
        _, meas = _instance(23)
        op = build(meas, "exponential")
        with pytest.raises(ValueError):
            matvec(op, np.zeros(5, complex))
        with pytest.raises(ValueError):
            matvec(op, np.zeros((5, 2), complex))
        with pytest.raises(ValueError, match=r"^expected a length-8 vector, got shape \(8, 2\)$"):
            matvec(op, np.zeros((8, 2), complex))
        with pytest.raises(ValueError):
            matvec(op, np.zeros((8, 2, 1), complex))

    def test_empty_submatrix_rejected(self):
        _, meas = _instance(24)
        op = build(meas, "exponential")
        with pytest.raises(ValueError):
            submatrix(op, [])


class TestExpectationOracle:
    def test_basis_signal(self):
        from gesp.signals import SparseSignal

        x = np.zeros(4, dtype=complex)
        x[0] = 1.0
        basis = SparseSignal(vector=x)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 0.25
        assert np.array_equal(expectation_oracle(basis), expected)

    def test_trace_quarter(self):
        for seed in range(5):
            sig, _ = _instance(seed, n=10, k=4)
            oracle = expectation_oracle(sig)
            assert np.trace(oracle).real == pytest.approx(0.25, abs=1e-14)
            assert abs(np.trace(oracle).imag) < 1e-15

    def test_diagonal_entries(self):
        sig, _ = _instance(30, n=10, k=4)
        oracle = expectation_oracle(sig)
        expected = np.abs(sig.vector) ** 2 / (4.0 * sig.norm_sq)
        assert np.allclose(oracle.diagonal().real, expected, rtol=1e-13)

    def test_empirical_convergence_rate(self):
        # frobenius error to the expectation should shrink like 1/sqrt(m):
        # comparing m and 4m, the median ratio over 20 seeds is near 2
        n, k, m = 16, 4, 2000
        sig = generate(SignalModelSpec(model="gaussian", n=n, k=k), np.random.default_rng(555))
        expected = expectation_oracle(sig)
        full = np.arange(n)
        ratios = []
        for seed in range(20):
            rng = np.random.default_rng(9_000 + seed)
            errs = []
            for rows in (m, 4 * m):
                meas = measure(sig, sample_sensing(n, rows, rng))
                emp = submatrix(build(meas, "exponential"), full)
                errs.append(np.linalg.norm(emp - expected))
            ratios.append(errs[0] / errs[1])
        assert 1.4 <= float(np.median(ratios)) <= 2.9


def _entries(rng, shape, kind):
    """Complex entries; "real" and "sparse" put signed zeros into the products."""
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if kind == "real":
        return z.real + 0j
    if kind == "sparse":
        return np.where(rng.random(shape) < 0.3, 0j, z)
    return z


class TestBitForBitPins:
    """The kernels against the formulas they replaced, compared bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(d=st.integers(1, 64), m=st.integers(1, 130), extra=st.integers(0, 6),
           kind=st.sampled_from(["gaussian", "real", "sparse"]),
           weighting=st.sampled_from(["exponential", "quadratic"]), seed=st.integers(0, 2**32 - 1))
    def test_submatrix_is_triu_mirror_formula(self, d, m, extra, kind, weighting, seed):
        rng = np.random.default_rng(seed)
        sensing = _entries(rng, (m, d + extra), kind)
        op = build(MeasurementSet(sensing=sensing, y=np.abs(rng.standard_normal(m)) + 0.1), weighting)
        idx = rng.permutation(d + extra)[:d]
        b = op.meas.sensing[:, idx]
        raw = (b * op.weights[:, None]).T @ b.conj() / op.meas.m
        # entry by entry: the GEMM's plus conj(0) above, 0 plus the conjugate below, the real part
        # on the diagonal; those additions set the signs of zero parts, as from real or sparse sensing
        expected = np.where(np.tri(d, k=-1, dtype=bool), 0 + raw.T.conj(), raw + np.conj(0j))
        expected[np.diag_indices_from(expected)] = raw.diagonal().real
        got = submatrix(op, idx)
        assert got.flags.c_contiguous
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("kind", ["gaussian", "real", "sparse"])
    def test_matvec_is_any_row_selection_formula(self, kind):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n, m = int(rng.integers(1, 40)), int(rng.integers(1, 90))
            sensing = _entries(rng, (m, n), kind)
            op = build(MeasurementSet(sensing=sensing, y=np.abs(rng.standard_normal(m)) + 0.1))
            v = _entries(rng, n, "sparse")
            v[rng.random(n) < 0.5] = 0
            v[rng.random(n) < 0.1] = -0.0  # a signed zero is not a nonzero
            nz = np.flatnonzero(v)
            expected = sensing.T @ (op.weights * (sensing[:, nz].conj() @ v[nz])) / m
            if nz.size == 0:
                expected = np.zeros(n, dtype=complex)
            got = matvec(op, v)
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
