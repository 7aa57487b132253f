import re

import numpy as np
import pytest

from gesp.numerics import magnitude_profile, structure_function
from gesp.signals import SignalModelSpec, SparseSignal, _int_root, _tiered_sq_mags, generate, sample_support

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

    @pytest.mark.parametrize("n, k", [(3, 4), (3, 0), (0, 1)])
    def test_size_out_of_range(self, n, k):
        with pytest.raises(ValueError, match=f"^need 1 <= k <= n, got k={k}, n={n}$"):
            SignalModelSpec(model="gaussian", n=n, k=k)

    @pytest.mark.parametrize("n, k, field", [(True, True, "n"), (24.0, 4, "n"), (24, 4.0, "k"), (24, "4", "k")])
    def test_size_must_be_an_integer(self, n, k, field):
        # (True, True) and n=24.0 used to build a config whose run_sweep failed inside numpy
        value = n if field == "n" else k
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {re.escape(repr(value))}$"):
            SignalModelSpec(model="gaussian", n=n, k=k)
        assert SignalModelSpec(model="gaussian", n=np.int64(24), k=np.int32(4)) == SignalModelSpec("gaussian", 24, 4)

    @pytest.mark.parametrize("model", ["exp_decay", "gaussian"])
    @pytest.mark.parametrize("decay", ["0.5", None, True, 0.5j])
    def test_decay_must_be_a_real_number(self, model, decay):
        # "0.5" used to raise a bare TypeError beside exp_decay
        with pytest.raises(ValueError, match=f"^decay must be a real number, got {re.escape(repr(decay))}$"):
            SignalModelSpec(model=model, n=16, k=4, decay=decay)
        assert SignalModelSpec(model="exp_decay", n=16, k=4, decay=np.float32(0.5)).decay == 0.5

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

    @pytest.mark.parametrize("k, decay", [(200, 1e-5), (3000, 0.7), (2088, 0.7)])
    def test_exp_decay_underflow_rejected(self, k, decay):
        # decay^(k-1) is 0 in the first two cases: generate used to give 65 and
        # 2090 nonzeros, not k; in the last it is nonzero, but scaled to unit
        # norm its square is 0: the profile used to hold a zero energy inside
        # the support
        with pytest.raises(ValueError, match=f"decay={decay} at k={k} underflows"):
            SignalModelSpec(model="exp_decay", n=k, k=k, decay=decay)

    def test_exp_decay_largest_k_kept(self):
        # the default decay's largest accepted k keeps a positive energy in every entry
        sig = generate(SignalModelSpec(model="exp_decay", n=2087, k=2087), np.random.default_rng(0))
        assert sig.k == 2087 and np.all(sig.profile.sorted_sq_mags > 0)

    @pytest.mark.parametrize("model, k", [("gaussian", 4), ("binary", 4), ("example1", 64), ("example2", 16)])
    def test_decay_of_another_model_rejected(self, model, k):
        # generate ignores decay outside exp_decay; 0.3 used to draw the same signals as 0.7
        with pytest.raises(ValueError, match=f"decay is only valid for the exp_decay model, not '{model}'"):
            SignalModelSpec(model=model, n=64, k=k, decay=0.3)
        assert SignalModelSpec(model=model, n=64, k=k, decay=0.7) == SignalModelSpec(model=model, n=64, k=k)


def test_int_root_returns_root_or_none():
    assert [_int_root(64, r) for r in (1, 2, 3, 6)] == [64, 8, 4, 2]
    assert _int_root(16, 4) == 2 and _int_root(1, 6) == 1
    assert _int_root(8, 2) is None and _int_root(63, 6) is None and _int_root(65, 2) is None


def _example1_tiers(k):
    """example1's squared magnitudes as generate built them before the shared tier builder."""
    r, r6 = _int_root(k, 2), _int_root(k, 6)
    tiers = [1.0 / r]
    if r > 1:
        tiers += [(1.0 / (r - 1)) * (1.0 / r6 - 1.0 / r)] * (r - 1)
    if k > r:
        tiers += [(1.0 / (k - r)) * (1.0 - 1.0 / r6)] * (k - r)
    return np.array(tiers)


def _example2_tiers(k):
    """example2's squared magnitudes as generate built them before the shared tier builder."""
    r2, r4 = _int_root(k, 2), _int_root(k, 4)
    tiers = [1.0 / k**0.75] * r4
    if r2 > r4:
        tiers += [(1.0 / (r2 - r4)) * (k ** (-1.0 / 3.0) - 1.0 / r2)] * (r2 - r4)
    if k > r2:
        tiers += [(1.0 / (k - r2)) * (1.0 - k ** (-1.0 / 3.0))] * (k - r2)
    return np.array(tiers)


@pytest.mark.parametrize("model, k", [
    *(("example1", k) for k in (1, 64, 729, 4096)),
    *(("example2", k) for k in (1, 16, 81, 256, 625, 1296)),
])
def test_tier_builder_matches_each_models_formula(model, k):
    if model == "example1":
        old, params = _example1_tiers(k), (1, 1.0 / _int_root(k, 2), 1.0 / _int_root(k, 6))
    else:
        old, params = _example2_tiers(k), (_int_root(k, 4), 1.0 / k**0.75, k ** (-1.0 / 3.0))
    assert np.array_equal(_tiered_sq_mags(k, *params).view(np.uint64), old.view(np.uint64))
    # and generate's signal is the one drawn from the written-out formula
    rng = np.random.default_rng(k)
    support = sample_support(k, k, rng)
    vals = (np.sqrt(old) * np.exp(2j * np.pi * rng.random(k)))[rng.permutation(k)]
    vals *= 1.0 / np.linalg.norm(vals)
    x = np.zeros(k, dtype=complex)
    x[support] = vals
    sig = generate(SignalModelSpec(model=model, n=k, k=k), np.random.default_rng(k))
    assert np.array_equal(sig.vector.view(np.uint64), x.view(np.uint64))


class TestGenerate:
    @pytest.mark.parametrize("model,n,k", [
        ("gaussian", 50, 7),
        ("binary", 50, 7),
        ("exp_decay", 50, 7),
        ("example1", 80, 64),
        ("example2", 40, 16),
    ])
    def test_norm_and_sparsity(self, model, n, k):
        # generate draws at unit norm; another norm is the scaled vector's signal
        rng = np.random.default_rng(10)
        for norm in (1.0, 3.5):
            sig = SparseSignal(vector=norm * generate(SignalModelSpec(model=model, n=n, k=k), rng).vector)
            assert np.linalg.norm(sig.vector) == pytest.approx(norm, rel=1e-12)
            assert sig.k == k and sig.norm_sq == pytest.approx(norm**2, rel=1e-12)
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
