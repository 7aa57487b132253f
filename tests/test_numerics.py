import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gesp.numerics import (
    MagnitudeProfile,
    ceil_sqrt,
    dist,
    magnitude_profile,
    p_objective,
    p_opt,
    relative_error,
    structure_function,
    top_k_indices,
)
from gesp.signals import SignalModelSpec, generate

from oracles import grid_dist, topk_sorted

# frozen from the 10^6-point phase-grid oracle: min ||u - e^{j phi} v||
# for u=(3, 4j), v=(1, 1) is 4.12310562562116 (= sqrt(17) up to grid error)
GRID_DIST_3_4J = 4.12310562562116


class TestDist:
    def test_global_phase_rotation_is_zero(self):
        assert dist([1, 0], [1j, 0]) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_unit_vectors(self):
        assert dist([1, 0], [0, 1]) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_matches_phase_grid_oracle_on_frozen_example(self):
        value = dist([3, 4j], [1, 1])
        assert value == pytest.approx(GRID_DIST_3_4J, abs=1e-6)
        assert value == pytest.approx(math.sqrt(17), abs=1e-12)

    def test_matches_phase_grid_oracle_on_random_inputs(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            n = rng.integers(2, 65)
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert dist(u, v) == pytest.approx(grid_dist(u, v), abs=1e-6)

    def test_phase_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = rng.integers(1, 20)
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            phi = rng.uniform(0, 2 * np.pi)
            bound = 1e-10 * (np.linalg.norm(u) + np.linalg.norm(v))
            assert abs(dist(np.exp(1j * phi) * u, v) - dist(u, v)) <= bound

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            u = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            assert dist(u, v) == dist(v, u)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            dist([1, 2], [1, 2, 3])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dist([np.nan, 0], [1, 0])
        with pytest.raises(ValueError, match="v contains non-finite entries"):
            dist([1, 0], [1, complex(0, -np.inf)])


class TestRelativeError:
    def test_exact_match(self):
        x = np.array([1 + 2j, 3.0, 0])
        assert relative_error(x, x) == 0.0

    def test_phase_invariance(self):
        x = np.array([1 + 2j, 3.0, -1j])
        z = np.exp(1j * np.pi / 3) * x
        assert relative_error(z, x) == pytest.approx(0.0, abs=1e-12)

    def test_zero_estimate_gives_one(self):
        x = np.array([3.0, 4.0j])
        assert relative_error(np.zeros(2, complex), x) == pytest.approx(1.0, abs=1e-12)

    def test_zero_truth_raises(self):
        with pytest.raises(ValueError):
            relative_error(np.ones(2), np.zeros(2))

    def test_is_dist_over_norm_bit_for_bit(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 10, 200, 1000):
            for scale in (1e-150, 1.0, 1e150):
                x = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
                z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                z[rng.random(n) < 0.5] = 0
                for est in (z, x, -0.0 * x, np.exp(0.3j) * x):
                    expected = np.float64(dist(est, x) / np.linalg.norm(x))
                    assert np.float64(relative_error(est, x)).view(np.uint64) == expected.view(np.uint64)

    @pytest.mark.parametrize("z, x, message", [
        ([1, complex(0, np.nan)], [1, 0], "z contains non-finite entries"),
        ([1, 0], [np.inf, 1], "x contains non-finite entries"),
        ([1, 0, 0], [1, 0], "dimension mismatch: 3 vs 2"),
        ([1, 0, 0], [0, 0], "ground-truth vector has zero norm"),  # checked before the lengths
        ([[1, 0]], [1, 0], "z must be a non-empty 1-d vector"),
    ])
    def test_each_check_raises_its_message(self, z, x, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            relative_error(z, x)


class TestMagnitudeProfile:
    def test_simple(self):
        prof = magnitude_profile([1, 2, 0])
        assert prof.sorted_sq_mags.tolist() == [4.0, 1.0, 0.0]
        assert prof.total_energy == 5.0

    def test_complex_entries(self):
        prof = magnitude_profile([3j, -4])
        assert prof.sorted_sq_mags.tolist() == [16.0, 9.0]
        assert prof.total_energy == 25.0

    def test_example1_top_entry(self):
        sig = generate(
            SignalModelSpec(model="example1", n=128, k=64),
            np.random.default_rng(0),
        )
        # dominant squared magnitude is ||x||^2 / sqrt(k) = 1/8
        assert sig.profile.sorted_sq_mags[0] == pytest.approx(1.0 / 8.0, rel=1e-12)

    def test_zero_vector_raises(self):
        with pytest.raises(ValueError):
            magnitude_profile(np.zeros(3))

    def test_rejects_inconsistent_profile(self):
        with pytest.raises(ValueError):
            MagnitudeProfile(np.array([2.0, 1.0]), total_energy=4.0)
        with pytest.raises(ValueError):
            MagnitudeProfile(np.array([1.0, 2.0]), total_energy=3.0)

    @pytest.mark.parametrize("mags, total, message", [
        ([], 1.0, "profile must be a non-empty 1-d sequence"),
        ([[1.0]], 1.0, "profile must be a non-empty 1-d sequence"),
        ([1.0, -0.5], 0.5, "squared magnitudes must be finite and non-negative"),
        ([1.0, np.nan], 1.0, "squared magnitudes must be finite and non-negative"),
        ([0.0], 0.0, "total energy must be positive and finite, got 0.0"),
        ([1.0], np.inf, "total energy must be positive and finite, got inf"),
        ([2.0, 1.0], 4.0, "profile sums to 3.0, not the stated total energy 4.0"),
    ], ids=["empty", "2-d", "negative", "nan", "zero-total", "infinite-total", "wrong-total"])
    def test_each_check_raises_its_message(self, mags, total, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MagnitudeProfile(np.array(mags), total_energy=total)


class TestStructureFunction:
    def test_example1_k64(self):
        sig = generate(SignalModelSpec(model="example1", n=70, k=64), np.random.default_rng(1))
        prof = sig.profile
        assert structure_function(prof, 1) == pytest.approx(8.0, abs=1e-12)
        assert structure_function(prof, 8) == pytest.approx(2.0, abs=1e-12)
        assert structure_function(prof, 64) == pytest.approx(1.0, abs=1e-12)

    def test_full_p_is_one(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        assert structure_function(magnitude_profile(x), 10) == pytest.approx(1.0, abs=1e-12)

    def test_example2_k16_frozen_values(self):
        # frozen from explicit summation of the piecewise tier table
        sig = generate(SignalModelSpec(model="example2", n=30, k=16), np.random.default_rng(3))
        prof = sig.profile
        assert structure_function(prof, 1) == pytest.approx(8.0, abs=1e-10)
        assert structure_function(prof, 2) == pytest.approx(4.0, abs=1e-10)
        assert structure_function(prof, 4) == pytest.approx(2.5198420997897464, abs=1e-10)

    def test_out_of_range_raises(self):
        prof = magnitude_profile([1.0, 2.0])
        with pytest.raises(ValueError):
            structure_function(prof, 0)
        with pytest.raises(ValueError):
            structure_function(prof, 3)

    def test_range_and_monotonicity_properties(self):
        # 1 <= s(p) <= k/p and p <= p*s(p) <= k; s decreasing, p*s(p) increasing
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(8, 64))
            k = int(rng.integers(1, n // 2 + 1))
            sig = generate(SignalModelSpec(model="gaussian", n=n, k=k), rng)
            s_vals = [structure_function(sig.profile, p) for p in range(1, k + 1)]
            for p, s in enumerate(s_vals, start=1):
                assert 1.0 - 1e-12 <= s <= k / p + 1e-12
                assert p - 1e-12 <= p * s <= k + 1e-12
            for p in range(1, k):
                assert s_vals[p] <= s_vals[p - 1] + 1e-12
                assert (p + 1) * s_vals[p] >= p * s_vals[p - 1] - 1e-12


class TestTopK:
    def test_tie_broken_by_smaller_index(self):
        assert top_k_indices([0.3, 0.9, 0.9, 0.1], 2).tolist() == [1, 2]

    def test_single(self):
        assert top_k_indices([5, 1, 4], 1).tolist() == [0]

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(6)
        values = rng.standard_normal(1000)
        assert top_k_indices(values, 10).tolist() == topk_sorted(values, 10).tolist()

    def test_matches_sort_oracle_with_ties(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            values = rng.integers(0, 5, size=30).astype(float)
            k = int(rng.integers(1, 30))
            assert top_k_indices(values, k).tolist() == topk_sorted(values, k).tolist()

    @pytest.mark.parametrize("rows, n, k", [(64, 128, 64), (10, 1000, 10), (10, 200, 10)])
    def test_block_ranks_each_row_as_a_vector(self, rows, n, k):
        # each row of a block, ranked as a vector; few distinct values, so
        # most rows have ties at the k-th place
        values = np.random.default_rng(8).integers(0, 4, size=(rows, n)).astype(float)
        for row in values:
            assert np.array_equal(top_k_indices(row, k), topk_sorted(row, k))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 40), tied=st.booleans())
    def test_is_the_stable_argsort_selection(self, data, n, tied):
        # tied draws integer-valued entries, -0.0 beside 0.0
        entries = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 3.0]) if tied else st.floats(-1e6, 1e6)
        values = np.array(data.draw(st.lists(entries, min_size=n, max_size=n)))
        k = data.draw(st.sampled_from([1, n]) | st.integers(1, n))
        expected = np.sort(np.argsort(-values, kind="stable")[:k])
        assert np.array_equal(top_k_indices(values, k), expected)

    @pytest.mark.parametrize("values", [[1.0, np.nan], [np.inf, 1.0], [-np.inf, 0.0]])
    def test_non_finite_values_rejected(self, values):
        with pytest.raises(ValueError, match="values must be finite"):
            top_k_indices(values, 1)

    def test_scalar_rejected(self):
        with pytest.raises(ValueError, match=r"^values must be a 1-d vector, got shape \(\)$"):
            top_k_indices(3.0, 1)

    def test_block_rejected_naming_its_shape(self):
        with pytest.raises(ValueError, match=r"^values must be a 1-d vector, got shape \(5, 2\)$"):
            top_k_indices(np.ones((5, 2)), 1)

    def test_k_too_large_raises(self):
        with pytest.raises(ValueError):
            top_k_indices([1.0, 2.0], 3)

    @pytest.mark.parametrize("k", [True, 2.0])
    def test_k_must_be_an_integer(self, k):
        # True used to keep one index, 2.0 to fail as a bare TypeError from the slice
        with pytest.raises(ValueError, match=rf"^k must be in \[1, 3\], got {k}$"):
            top_k_indices([1.0, 3.0, 2.0], k)
        assert top_k_indices([1.0, 3.0, 2.0], np.int64(2)).tolist() == [1, 2]


class TestCeilSqrt:
    def test_least_c_with_square_at_least_k(self):
        # 2^54 + 1: a float np.ceil(np.sqrt(k)) rounds down to 2^27 there
        for k in [*range(1, 10**5 + 1), 2**54 + 1]:
            c = ceil_sqrt(k)
            assert c * c >= k and (c - 1) ** 2 < k, k


def _example2_profile():
    sig = generate(SignalModelSpec(model="example2", n=30, k=16), np.random.default_rng(11))
    return sig.profile


class TestPObjective:
    def test_example2_frozen_scan(self):
        # frozen from the hand summation of the k=16 tier table:
        # s(1)=8, s(2)=4, s(4)=16^(1/3)
        prof = _example2_profile()
        assert p_objective(prof, 16, 1, "global") == pytest.approx(128.0, rel=1e-10)
        assert p_objective(prof, 16, 2, "global") == pytest.approx(64.0, rel=1e-10)
        assert p_objective(prof, 16, 4, "global") == pytest.approx(101.59366732596474, rel=1e-9)

    def test_flat_profile_constant_objective(self):
        k = 8
        prof = MagnitudeProfile(np.full(k, 1.0 / k), 1.0)
        for p in range(1, k + 1):
            assert p_objective(prof, k, p, "global") == pytest.approx(k * k, rel=1e-12)

    def test_one_spike_profile(self):
        k = 9
        prof = MagnitudeProfile(np.array([1.0] + [0.0] * (k - 1)), 1.0)
        for p in range(1, k + 1):
            assert p_objective(prof, k, p, "global") == pytest.approx(max(p * p, k), rel=1e-12)

    def test_range_validation(self):
        prof = _example2_profile()
        with pytest.raises(ValueError):
            p_objective(prof, 16, 17, "global")
        with pytest.raises(ValueError):
            p_objective(prof, 16, 5, "capped")  # ceil(sqrt(16)) = 4
        with pytest.raises(ValueError):
            p_objective(prof, 16, 1, "minimax")


class TestPOpt:
    def test_example2_optimum(self):
        # exhaustive scan of p in [16] gives p=2 with objective 64 = k^(3/2)
        prof = _example2_profile()
        assert p_opt(prof, 16, "global") == 2
        assert p_objective(prof, 16, 2, "global") == pytest.approx(64.0, rel=1e-10)

    def test_one_spike_tie_break(self):
        prof = MagnitudeProfile(np.array([1.0] + [0.0] * 8), 1.0)
        assert p_opt(prof, 9, "global") == 1

    def test_flat_profile_tie_break(self):
        k = 8
        prof = MagnitudeProfile(np.full(k, 1.0 / k), 1.0)
        assert p_opt(prof, k, "global") == 1

    @pytest.mark.parametrize("variant", ["global", "capped"])
    @pytest.mark.parametrize("k", [0, 31])
    def test_k_outside_range_raises(self, k, variant):
        # k = 0 used to return p = 1 without a word
        with pytest.raises(ValueError, match=r"k must be in \[1, 30\]"):
            p_opt(_example2_profile(), k, variant)

    def test_attains_minimum_of_independent_rescan(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            n = int(rng.integers(8, 40))
            k = int(rng.integers(1, n // 2 + 1))
            sig = generate(SignalModelSpec(model="gaussian", n=n, k=k), rng)
            for variant in ("global", "capped"):
                best = p_opt(sig.profile, k, variant)
                p_max = k if variant == "global" else math.isqrt(k - 1) + 1
                objs = [p_objective(sig.profile, k, p, variant) for p in range(1, p_max + 1)]
                assert p_objective(sig.profile, k, best, variant) == min(objs)
                # smallest-p tie break
                assert best == 1 + objs.index(min(objs))
