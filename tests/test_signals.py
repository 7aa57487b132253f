import numpy as np
import pytest

from gesp.numerics import magnitude_profile, structure_function
from gesp.signals import SignalModelSpec, SparseSignal, _int_root, generate, sample_support

# frozen from explicit evaluation of the k=16 three-tier table
# (2 entries, 2 entries, 12 entries; unit total energy)
EXAMPLE2_K16_TIERS = (0.125, 0.07342513149602495, 0.050262478083995844)


class TestSampleSupport:
    def test_full_support(self):
        rng = np.random.default_rng(0)
        assert sample_support(5, 5, rng).tolist() == [0, 1, 2, 3, 4]

    def test_deterministic_given_seed(self):
        a = sample_support(100, 1, np.random.default_rng(123))
        b = sample_support(100, 1, np.random.default_rng(123))
        assert a.tolist() == b.tolist()
        assert a.size == 1

    def test_sorted_distinct(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            sup = sample_support(30, 7, rng)
            assert np.all(np.diff(sup) > 0)

    def test_uniform_marginals(self):
        # n=20, k=5: each index should land in the support about 1/4 of the time
        rng = np.random.default_rng(2)
        counts = np.zeros(20)
        draws = 100_000
        for _ in range(draws):
            counts[sample_support(20, 5, rng)] += 1
        freqs = counts / draws
        assert np.all(np.abs(freqs - 0.25) < 0.02)

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            sample_support(3, 4, np.random.default_rng(0))


class TestSpecValidation:
    def test_unknown_model(self):
        with pytest.raises(ValueError):
            SignalModelSpec(model="sparse", n=10, k=2)

    def test_example1_k_constraint(self):
        SignalModelSpec(model="example1", n=128, k=64)
        with pytest.raises(ValueError):
            SignalModelSpec(model="example1", n=128, k=8)  # k^(1/6) not integral

    def test_example2_k_constraint(self):
        SignalModelSpec(model="example2", n=32, k=16)
        with pytest.raises(ValueError):
            SignalModelSpec(model="example2", n=32, k=8)

    def test_decay_range(self):
        with pytest.raises(ValueError):
            SignalModelSpec(model="exp_decay", n=16, k=4, decay=1.0)

    @pytest.mark.parametrize("k, decay, norm", [
        (200, 1e-5, 1.0), (3000, 0.7, 1.0), (2088, 0.7, 1.0), (2000, 0.7, 1e-10),
    ])
    def test_exp_decay_underflow_rejected(self, k, decay, norm):
        # decay^(k-1) is 0 in the first two cases: generate used to give 65 and
        # 2090 nonzeros, not k; in the last two it is nonzero, but scaled to
        # target_norm its square is 0: the profile used to hold 1 and 43 zero
        # energies inside the support
        with pytest.raises(ValueError, match=f"decay={decay} at k={k} underflows"):
            SignalModelSpec(model="exp_decay", n=k, k=k, decay=decay, target_norm=norm)

    def test_exp_decay_largest_k_kept(self):
        # the default decay's largest accepted k keeps a positive energy in every entry
        sig = generate(SignalModelSpec(model="exp_decay", n=2087, k=2087), np.random.default_rng(0))
        assert sig.k == 2087 and np.all(sig.profile.sorted_sq_mags > 0)

    @pytest.mark.parametrize("norm", [float("nan"), float("inf"), 0.0, -1.0])
    def test_target_norm_finite_and_positive(self, norm):
        # NaN and inf used to be accepted and fail later in generate
        with pytest.raises(ValueError, match="target_norm must be finite and positive"):
            SignalModelSpec(model="gaussian", n=16, k=4, target_norm=norm)


def test_int_root_returns_root_or_none():
    assert [_int_root(64, r) for r in (1, 2, 3, 6)] == [64, 8, 4, 2]
    assert _int_root(16, 4) == 2 and _int_root(1, 6) == 1
    assert _int_root(8, 2) is None and _int_root(63, 6) is None and _int_root(65, 2) is None


class TestGenerate:
    @pytest.mark.parametrize("model,n,k", [
        ("gaussian", 50, 7),
        ("binary", 50, 7),
        ("exp_decay", 50, 7),
        ("example1", 80, 64),
        ("example2", 40, 16),
    ])
    def test_norm_and_sparsity(self, model, n, k):
        rng = np.random.default_rng(10)
        for norm in (1.0, 3.5):
            sig = generate(SignalModelSpec(model=model, n=n, k=k, target_norm=norm), rng)
            assert np.linalg.norm(sig.vector) == pytest.approx(norm, rel=1e-12)
            assert np.count_nonzero(sig.vector) == k
            outside = np.delete(sig.vector, sig.support)
            assert np.all(outside == 0)

    @pytest.mark.parametrize("model,n,k", [
        ("gaussian", 50, 7),
        ("binary", 50, 7),
        ("exp_decay", 50, 7),
        ("example1", 80, 64),
        ("example2", 40, 16),
    ])
    def test_support_and_profile_derived_from_vector(self, model, n, k):
        # generate draws the support first, so a generator on the same seed redraws it
        for seed in range(3):
            sig = generate(SignalModelSpec(model=model, n=n, k=k), np.random.default_rng(seed))
            drawn = sample_support(n, k, np.random.default_rng(seed))
            assert np.array_equal(sig.support, drawn)
            profile = magnitude_profile(sig.vector)
            assert np.array_equal(sig.profile.sorted_sq_mags, profile.sorted_sq_mags)
            assert sig.profile.total_energy == profile.total_energy

    @pytest.mark.parametrize("name", ["support", "profile"])
    def test_derived_values_cannot_be_passed(self, name):
        x = np.array([0.0, 1.0 + 1.0j, 0.0])
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            SparseSignal(vector=x, **{name: getattr(SparseSignal(vector=x), name)})

    def test_profile_consistent_with_vector(self):
        rng = np.random.default_rng(11)
        sig = generate(SignalModelSpec(model="gaussian", n=64, k=9), rng)
        recomputed = magnitude_profile(sig.vector)
        assert np.allclose(recomputed.sorted_sq_mags, sig.profile.sorted_sq_mags, rtol=1e-12)
        assert recomputed.total_energy == pytest.approx(sig.profile.total_energy, rel=1e-12)

    def test_binary_magnitudes(self):
        sig = generate(SignalModelSpec(model="binary", n=8, k=4), np.random.default_rng(12))
        assert np.allclose(np.abs(sig.vector[sig.support]), 0.5, rtol=1e-12)

    def test_example1_structure_values(self):
        for k in (1, 64):
            sig = generate(SignalModelSpec(model="example1", n=128, k=k), np.random.default_rng(13))
            assert structure_function(sig.profile, 1) == pytest.approx(np.sqrt(k), abs=1e-10)
            r = round(np.sqrt(k))
            assert structure_function(sig.profile, r) == pytest.approx(k ** (1 / 6), abs=1e-10)

    def test_example2_structure_values(self):
        for k in (16, 81):
            sig = generate(SignalModelSpec(model="example2", n=128, k=k), np.random.default_rng(14))
            r4 = round(k ** 0.25)
            r2 = round(np.sqrt(k))
            assert structure_function(sig.profile, r4) == pytest.approx(k ** 0.75 / r4, abs=1e-10)
            assert structure_function(sig.profile, r2) == pytest.approx(k ** (1 / 3), abs=1e-10)

    def test_example2_k16_tier_table(self):
        sig = generate(SignalModelSpec(model="example2", n=20, k=16), np.random.default_rng(15))
        mags = sig.profile.sorted_sq_mags
        t1, t2, t3 = EXAMPLE2_K16_TIERS
        assert np.allclose(mags[:2], t1, rtol=1e-10)
        assert np.allclose(mags[2:4], t2, rtol=1e-10)
        assert np.allclose(mags[4:16], t3, rtol=1e-10)
        assert np.all(mags[16:] == 0)
        assert mags.sum() == pytest.approx(1.0, rel=1e-12)

    def test_exp_decay_geometric_energy(self):
        # top-p energy fraction of a decay-b profile is (1-b^p)/(1-b^k)
        for decay in (0.5, 0.7, 0.9):
            sig = generate(
                SignalModelSpec(model="exp_decay", n=64, k=12, decay=decay),
                np.random.default_rng(16),
            )
            csum = np.cumsum(sig.profile.sorted_sq_mags)
            for p in range(1, 13):
                expected = (1 - decay**p) / (1 - decay**12)
                assert csum[p - 1] / sig.profile.total_energy == pytest.approx(expected, abs=1e-10)

    def test_phases_vary_on_structured_models(self):
        sig = generate(SignalModelSpec(model="example2", n=40, k=16), np.random.default_rng(17))
        phases = np.angle(sig.vector[sig.support])
        assert np.std(phases) > 0.1
