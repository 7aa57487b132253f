import re
import tracemalloc
import warnings

import numpy as np
import pytest

from gesp import spectrum
from gesp.measurement import (
    WEIGHTINGS, MeasurementSet, load_measurements, measure, sample_sensing, save_measurements,
)
from gesp.signals import SignalModelSpec, SparseSignal, generate


def _block_rows(n):
    # MeasurementSet squares, and sample_sensing draws, this many rows at a time
    return max(1, 2**17 // n)


def _two_blocks(n):
    return 2 * _block_rows(n) * n * 8


def _one_product_diagonals(meas):
    """Each weighting's diagonal as one product with the whole m x n |a_ij|^2."""
    abs_sq = meas.sensing.real**2 + meas.sensing.imag**2
    return {kind: (meas.weights[kind] @ abs_sq) / meas.m for kind in WEIGHTINGS}


def _peak_bytes(build):
    """What `build()` returns, and the most memory it held at once."""
    tracemalloc.start()
    try:
        out = build()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _signal_from_vector(x):
    return SparseSignal(vector=np.asarray(x, dtype=complex))


class TestSampleSensing:
    def test_second_moment(self):
        # E|a_ij|^2 = 1; the mean over 10^6 draws has sd 1e-3
        rng = np.random.default_rng(100)
        a = sample_sensing(1, 10**6, rng)
        assert 0.99 <= np.mean(np.abs(a) ** 2) <= 1.01

    def test_column_independence(self):
        rng = np.random.default_rng(101)
        a = sample_sensing(2, 10**6, rng)
        cross = np.mean(a[:, 0] * a[:, 1].conj())
        assert abs(cross) < 0.01

    def test_zero_m_rejected(self):
        with pytest.raises(ValueError):
            sample_sensing(4, 0, np.random.default_rng(0))

    @pytest.mark.parametrize("n, m", [
        (1, 1), (7, 3), (200, 37), (64, 256),
        (64, _block_rows(64) - 1), (64, _block_rows(64)), (64, 2 * _block_rows(64) + 1), (2**17 + 3, 3),
    ])
    def test_same_draws_as_scaled_complex_sum(self, n, m):
        # the in-place draws equal sqrt(1/2) (A + iB) on the same stream, bit for bit
        a = sample_sensing(n, m, np.random.default_rng(102))
        rng = np.random.default_rng(102)
        b = np.sqrt(0.5) * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
        assert a.dtype == complex and a.shape == (m, n)
        assert np.array_equal(a.view(np.float64), b.view(np.float64))

    def test_memory_is_sensing_plus_one_float_buffer(self):
        # the buffer of draws is one block of rows; an m x n one was 3.2 MB here
        n, m = 400, 1000
        rng = np.random.default_rng(109)
        sensing, peak = _peak_bytes(lambda: sample_sensing(n, m, rng))
        assert peak <= sensing.nbytes + _two_blocks(n) + 64 * 1024


class TestAbsSq:
    """|a_ij|^2 is squared a block of rows at a time and reduced into one diagonal per weighting."""

    @pytest.mark.parametrize("n, m", [
        (64, 1), (64, _block_rows(64) - 1), (64, _block_rows(64)), (64, _block_rows(64) + 1), (2**17 + 3, 3),
    ])
    def test_bitwise_equal_to_sum_of_squares(self, n, m):
        # re^2 + im^2 per block, each block's product added in row order; one
        # product over all of |A|^2 when the set is a single block
        sensing = sample_sensing(n, m, np.random.default_rng(110))
        meas = MeasurementSet(sensing=sensing, y=np.random.default_rng(116).random(m))
        rows = _block_rows(n)
        for kind in WEIGHTINGS:
            w = meas.weights[kind]
            expected = None
            for start in range(0, m, rows):
                block = sensing[start:start + rows]
                term = w[start:start + rows] @ (block.real**2 + block.imag**2)
                expected = term if expected is None else expected + term
            expected = expected / m
            assert meas.diagonals[kind].shape == (n,)
            assert np.array_equal(meas.diagonals[kind].view(np.uint64), expected.view(np.uint64))
            if m <= rows:
                one = _one_product_diagonals(meas)[kind]
                assert np.array_equal(meas.diagonals[kind].view(np.uint64), one.view(np.uint64))

    @pytest.mark.parametrize("n, m", [
        (64, _block_rows(64) - 1), (64, _block_rows(64)), (64, _block_rows(64) + 1), (64, 3 * _block_rows(64) + 5),
        (2**17 + 3, 3),
    ])
    def test_within_1e_12_of_one_product(self, n, m):
        # a sum of m products of either sign is judged against the sum of their magnitudes
        rng = np.random.default_rng(117)
        sensing = sample_sensing(n, m, rng)
        meas = MeasurementSet(sensing=sensing, y=rng.random(m))
        abs_sq = sensing.real**2 + sensing.imag**2
        for kind, one in _one_product_diagonals(meas).items():
            scale = (np.abs(meas.weights[kind]) @ abs_sq) / m
            assert np.all(np.abs(meas.diagonals[kind] - one) <= 1e-12 * scale)

    def test_real_sensing_gives_the_diagonals_of_its_complex_cast(self):
        rng = np.random.default_rng(118)
        n, m = 64, 2 * _block_rows(64) + 3
        real, y = rng.standard_normal((m, n)), rng.random(m)
        meas, cast = MeasurementSet(sensing=real, y=y), MeasurementSet(sensing=real.astype(complex), y=y)
        for kind in WEIGHTINGS:
            assert np.array_equal(meas.diagonals[kind].view(np.uint64), cast.diagonals[kind].view(np.uint64))

    def test_stored_arrays_are_read_only(self):
        meas = measure(SparseSignal(vector=np.array([1.0, 1j, 0.0])), sample_sensing(3, 5, np.random.default_rng(119)))
        for kind in WEIGHTINGS:
            for array in (meas.weights[kind], meas.diagonals[kind], spectrum.diagonal(spectrum.build(meas, kind))):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1.0

    def test_memory_is_abs_sq_plus_one_block(self):
        # one block of |a_ij|^2 and one of imaginary squares; the whole m x n
        # |A|^2 (3.2 MB here) used to be held besides the sensing matrix
        n, m = 400, 1000
        rng, y = np.random.default_rng(111), np.ones(m)
        meas, peak = _peak_bytes(lambda: MeasurementSet(sensing=sample_sensing(n, m, rng), y=y))
        assert peak <= meas.sensing.nbytes + _two_blocks(n) + 64 * 1024


class TestMeasure:
    def test_unit_signal_single_row(self):
        x = _signal_from_vector([1.0, 0.0, 0.0])
        sensing = np.array([[2j, 0.0, 0.0]])
        meas = measure(x, sensing)
        assert meas.y[0] == pytest.approx(2.0, abs=1e-15)

    def test_zero_row_gives_zero(self):
        x = _signal_from_vector([1 + 1j, -2.0, 0.5j])
        sensing = np.zeros((1, 3), dtype=complex)
        assert measure(x, sensing).y[0] == 0.0

    def test_lambda_sq_concentrates(self):
        # mean of m = 2e5 squared moduli sits within 3% of ||x||^2
        rng = np.random.default_rng(102)
        sig = SparseSignal(vector=1.7 * generate(SignalModelSpec(model="gaussian", n=16, k=16), rng).vector)
        meas = measure(sig, sample_sensing(16, 200_000, rng))
        assert 0.97 * sig.norm_sq <= meas.lambda_sq <= 1.03 * sig.norm_sq

    def test_lambda_sq_concentration_rate(self):
        # |lambda^2/||x||^2 - 1| <= 0.1 in at least 95 of 100 seeded ensembles
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            sig = generate(SignalModelSpec(model="gaussian", n=16, k=4), rng)
            meas = measure(sig, sample_sensing(16, 5000, rng))
            hits += abs(meas.lambda_sq / sig.norm_sq - 1.0) <= 0.1
        assert hits >= 95

    def test_phase_invariance_of_moduli(self):
        rng = np.random.default_rng(103)
        sig = generate(SignalModelSpec(model="gaussian", n=12, k=5), rng)
        sensing = sample_sensing(12, 40, rng)
        rotated = _signal_from_vector(np.exp(0.4j) * sig.vector)
        assert np.allclose(measure(sig, sensing).y, measure(rotated, sensing).y, rtol=1e-13)

    def test_lambda_sq_is_mean_square(self):
        rng = np.random.default_rng(104)
        sig = generate(SignalModelSpec(model="binary", n=10, k=3), rng)
        meas = measure(sig, sample_sensing(10, 25, rng))
        assert meas.lambda_sq == float(np.mean(meas.y**2))

    def test_dimension_mismatch(self):
        x = _signal_from_vector([1.0, 2.0])
        with pytest.raises(ValueError):
            measure(x, np.zeros((3, 5), dtype=complex))

    def test_y_matches_inner_products(self):
        rng = np.random.default_rng(105)
        sig = generate(SignalModelSpec(model="gaussian", n=20, k=6), rng)
        sensing = sample_sensing(20, 30, rng)
        meas = measure(sig, sensing)
        direct = np.abs(sensing.conj() @ sig.vector)
        assert np.allclose(meas.y, direct, rtol=1e-12)


class TestBinaryDump:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(106)
        sig = generate(SignalModelSpec(model="gaussian", n=9, k=4), rng)
        meas = measure(sig, sample_sensing(9, 17, rng))
        path = tmp_path / "meas.bin"
        save_measurements(meas, path)
        loaded = load_measurements(path)
        assert loaded.n == 9 and loaded.m == 17
        assert np.array_equal(loaded.sensing, meas.sensing)
        assert np.array_equal(loaded.y, meas.y)
        assert loaded.lambda_sq == meas.lambda_sq

    def test_layout(self, tmp_path):
        # magic, two u64 dims, then row-major (re, im) f64 pairs, then y
        x = _signal_from_vector([1.0, 1j])
        sensing = np.array([[1.0 + 2.0j, 3.0 - 4.0j]])
        meas = measure(x, sensing)
        path = tmp_path / "meas.bin"
        save_measurements(meas, path)
        blob = path.read_bytes()
        assert blob[:5] == b"SPRM1"
        assert int.from_bytes(blob[5:13], "little") == 2  # n
        assert int.from_bytes(blob[13:21], "little") == 1  # m
        floats = np.frombuffer(blob[21:], dtype="<f8")
        assert floats.tolist() == [1.0, 2.0, 3.0, -4.0, meas.y[0]]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE!" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_measurements(path)

    def _dump_20x15(self, tmp_path):
        rng = np.random.default_rng(107)
        sig = generate(SignalModelSpec(model="gaussian", n=15, k=4), rng)
        meas = measure(sig, sample_sensing(15, 20, rng))
        path = tmp_path / "meas.bin"
        save_measurements(meas, path)
        return path, path.read_bytes()

    def test_truncated_inside_sensing(self, tmp_path):
        path, blob = self._dump_20x15(tmp_path)
        expected = 21 + 16 * 20 * 15 + 8 * 20
        assert len(blob) == expected
        cut = 21 + 16 * 150 + 3  # mid-entry, inside the sensing block
        path.write_bytes(blob[:cut])
        with pytest.raises(ValueError, match=rf"meas\.bin: truncated file: expected {expected} bytes .* got {cut}"):
            load_measurements(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path, blob = self._dump_20x15(tmp_path)
        path.write_bytes(blob + b"\x00" * 8)
        with pytest.raises(ValueError, match=r"meas\.bin: 8 trailing bytes after y"):
            load_measurements(path)

    def test_empty_dimension_rejected(self, tmp_path):
        path = tmp_path / "meas.bin"
        path.write_bytes(b"SPRM1" + (0).to_bytes(8, "little") + (3).to_bytes(8, "little") + b"\x00" * 24)
        with pytest.raises(ValueError, match=r"meas\.bin: header gives n=0, m=3"):
            load_measurements(path)

    def test_shorter_than_header(self, tmp_path):
        path = tmp_path / "meas.bin"
        path.write_bytes(b"SPRM1" + b"\x00" * 4)
        with pytest.raises(ValueError, match=r"meas\.bin: truncated file: expected at least 21 bytes of header, got 9$"):
            load_measurements(path)

    def test_load_holds_one_sensing_matrix(self, tmp_path):
        # the whole file as bytes plus a converted copy used to be held at
        # once, and then the set's m x n |A|^2
        n, m = 400, 1000
        rng = np.random.default_rng(112)
        sig = generate(SignalModelSpec(model="gaussian", n=n, k=4), rng)
        path = tmp_path / "meas.bin"
        save_measurements(measure(sig, sample_sensing(n, m, rng)), path)
        meas, peak = _peak_bytes(lambda: load_measurements(path))
        assert peak <= meas.sensing.nbytes + _two_blocks(n) + 64 * 1024

    def test_save_copies_nothing(self, tmp_path):
        # .astype("<c16").tobytes() held two copies of the sensing matrix (5.12 MB here)
        n = m = 400
        rng = np.random.default_rng(113)
        meas = measure(generate(SignalModelSpec(model="gaussian", n=n, k=4), rng), sample_sensing(n, m, rng))
        path = tmp_path / "meas.bin"
        _, peak = _peak_bytes(lambda: save_measurements(meas, path))
        assert peak <= 64 * 1024
        assert path.stat().st_size == 21 + 16 * m * n + 8 * m


class TestMeasurementSetChecks:
    def _parts(self):
        return np.ones((3, 2), dtype=complex), np.array([1.0, 0.5, 2.0])

    def test_valid_set_accepted(self):
        sensing, y = self._parts()
        assert MeasurementSet(sensing=sensing, y=y).m == 3

    def test_bad_lambda_sq(self):
        # y is finite, but its mean square overflows
        with pytest.raises(ValueError, match="lambda_sq"):
            MeasurementSet(sensing=np.ones((1, 2), dtype=complex), y=np.array([1e200]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_bad_y(self, bad):
        sensing, y = self._parts()
        y[1] = bad
        with pytest.raises(ValueError, match="^y has"):
            MeasurementSet(sensing=sensing, y=y)

    @pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.inf)])
    def test_non_finite_sensing(self, bad):
        sensing, y = self._parts()
        sensing[2, 1] = bad
        with pytest.raises(ValueError, match="^sensing has non-finite"):
            MeasurementSet(sensing=sensing, y=y)

    def test_non_finite_sensing_in_a_later_block(self):
        n = 64
        sensing, y = np.ones((2 * _block_rows(n) + 1, n), dtype=complex), np.ones(2 * _block_rows(n) + 1)
        sensing[-1, 3] = complex(0.0, np.nan)
        with pytest.raises(ValueError, match="^sensing has non-finite"):
            MeasurementSet(sensing=sensing, y=y)

    @pytest.mark.parametrize("bad_y", [np.nan, -1.0, 1e200], ids=["nan", "negative", "overflowing-square"])
    def test_sensing_error_comes_before_y_error(self, bad_y):
        sensing, y = self._parts()
        sensing[0, 0], y[0] = complex(np.nan, 0.0), bad_y
        with pytest.raises(ValueError, match="^sensing has non-finite"):
            MeasurementSet(sensing=sensing, y=y)

    def test_finite_sensing_that_squares_to_inf_accepted(self):
        sensing, y = self._parts()
        sensing[1, 0] = 1e200
        with np.errstate(over="ignore"):
            meas = MeasurementSet(sensing=sensing, y=y)
        assert meas.diagonals["quadratic"][0] == np.inf

    @pytest.mark.parametrize("y", [np.zeros(3), np.array([2.5e-162, 0.0, 0.0])], ids=["zeros", "subnormal-mean"])
    def test_zero_lambda_sq_builds_without_warning(self, y):
        # the second y squares to the smallest subnormal, whose mean over 3 rounds to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            meas = MeasurementSet(sensing=np.ones((3, 2), dtype=complex), y=y)
        assert meas.lambda_sq == 0.0
        with pytest.raises(ValueError, match="^degenerate measurements: "):
            spectrum.build(meas, "exponential")

    @pytest.mark.parametrize("sensing, y, message", [
        # y**2 wrapped in int64: lambda_sq came out 0.5, not the true mean square 9.2e18
        (np.ones((2, 2), complex), np.array([2**32, 1]), "^y must be floating, got dtype int64"),
        (np.ones((2, 2), complex), np.array([True, False]), "^y must be floating, got dtype bool"),
        (np.ones((2, 2), int), np.array([1.0, 2.0]), "^sensing must be floating or complex, got dtype int64"),
        (np.ones((2, 2), bool), np.array([1.0, 2.0]), "^sensing must be floating or complex, got dtype bool"),
    ], ids=["int-y", "bool-y", "int-sensing", "bool-sensing"])
    def test_non_float_dtype_rejected(self, sensing, y, message):
        with pytest.raises(ValueError, match=message):
            MeasurementSet(sensing, y)

    @pytest.mark.parametrize("y", [np.ones(2), np.ones(4), np.ones((3, 1))], ids=["short", "long", "column"])
    def test_y_shape_must_match_rows(self, y):
        sensing, _ = self._parts()
        message = f"y must have shape (3,), one modulus per sensing row, got {y.shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MeasurementSet(sensing=sensing, y=y)

    def test_zero_n_rejected_by_name(self):
        # the block size 2**17 // n used to raise ZeroDivisionError here
        with pytest.raises(ValueError, match=r"^sensing must be an m x n array with m, n >= 1, got shape \(3, 0\)$"):
            MeasurementSet(np.ones((3, 0), complex), np.ones(3))

    def test_zero_m_rejected_by_name_without_warning(self):
        # the mean of an empty y used to warn "Mean of empty slice" first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^sensing must be an m x n array with m, n >= 1, got shape \(0, 3\)$"):
                MeasurementSet(np.ones((0, 3), complex), np.ones(0))


class TestDerivedLambdaSq:
    @staticmethod
    def _bits(value):
        return np.float64(value).tobytes()

    def test_bit_equal_to_mean_square_after_measure_and_load(self, tmp_path):
        rng = np.random.default_rng(114)
        sig = generate(SignalModelSpec(model="exp_decay", n=30, k=7), rng)
        meas = measure(sig, sample_sensing(30, 45, rng))
        assert self._bits(meas.lambda_sq) == self._bits(np.mean(meas.y**2))
        path = tmp_path / "meas.bin"
        save_measurements(meas, path)
        loaded = load_measurements(path)
        assert self._bits(loaded.lambda_sq) == self._bits(np.mean(loaded.y**2))

    def test_lambda_sq_cannot_be_passed(self):
        # a lambda_sq that disagreed with y used to be accepted and scaled every estimate
        with pytest.raises(TypeError, match="unexpected keyword argument 'lambda_sq'"):
            MeasurementSet(sensing=np.ones((1, 2), dtype=complex), y=np.array([1.0]), lambda_sq=5.0)
