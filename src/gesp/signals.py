"""Generators for k-sparse ground-truth signals.

Three stochastic models (gaussian / binary / exp_decay) and two structured
ones (example1 / example2), whose squared-magnitude tiers realize prescribed
structure-function values, drawn reproducibly from a numpy Generator at
unit norm: every quantity the harness reports is invariant to ||x||, and a
signal of norm c is SparseSignal(vector=c * x).  A SparseSignal derives
support and profile from x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import MagnitudeProfile, magnitude_profile

SIGNAL_MODELS = ("gaussian", "binary", "exp_decay", "example1", "example2")


@dataclass(frozen=True)
class SignalModelSpec:
    model: str
    n: int
    k: int
    decay: float = 0.7  # squared-magnitude ratio, exp_decay only

    def __post_init__(self):
        if self.model not in SIGNAL_MODELS:
            raise ValueError(f"unknown signal model {self.model!r}; expected one of {SIGNAL_MODELS}")
        for name, value in (("n", self.n), ("k", self.k)):  # numpy integers too, not bools
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if isinstance(self.decay, bool) or not isinstance(self.decay, (int, float, np.integer, np.floating)):
            raise ValueError(f"decay must be a real number, got {self.decay!r}")
        if self.n < 1 or self.k < 1 or self.k > self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.model != "exp_decay":
            if self.decay != SignalModelSpec.decay:  # generate would ignore it
                raise ValueError(f"decay is only valid for the exp_decay model, not {self.model!r}")
        elif not 0.0 < self.decay < 1.0:
            raise ValueError(f"decay must be in (0, 1), got {self.decay}")
        elif self.decay ** (self.k - 1) * (1 - self.decay) == 0:  # bounds the smallest square generate gives
            raise ValueError(f"decay={self.decay} at k={self.k} underflows: decay^(k-1) scaled to unit norm is 0")
        if self.model == "example1" and not (_int_root(self.k, 2) and _int_root(self.k, 6)):
            raise ValueError(f"example1 requires integer sqrt(k) and k^(1/6), got k={self.k}")
        if self.model == "example2" and not (_int_root(self.k, 2) and _int_root(self.k, 4)):
            raise ValueError(f"example2 requires integer sqrt(k) and k^(1/4), got k={self.k}")


@dataclass(frozen=True, eq=False)
class SparseSignal:
    """A k-sparse complex signal; its support is its nonzero entries' indices."""

    vector: np.ndarray
    support: np.ndarray = field(init=False)
    profile: MagnitudeProfile = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "support", np.flatnonzero(self.vector))
        object.__setattr__(self, "profile", magnitude_profile(self.vector))

    @property
    def n(self) -> int:
        return self.vector.size

    @property
    def k(self) -> int:
        return self.support.size

    @property
    def norm_sq(self) -> float:
        return self.profile.total_energy


def _int_root(k: int, r: int) -> int | None:
    t = round(k ** (1.0 / r))
    return next((c for c in (t - 1, t, t + 1) if c >= 1 and c**r == k), None)


def sample_support(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random size-k subset of [0, n), sorted ascending."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return np.sort(rng.choice(n, size=k, replace=False))


def _tiered_sq_mags(k: int, head: int, head_sq: float, c: float) -> np.ndarray:
    """Squared-magnitude tiers (unit total energy): `head` dominant entries of
    head_sq (1/sqrt(k) in all), a middle band that brings the energy of the
    sqrt(k) largest entries to c, and a flat tail."""
    r = _int_root(k, 2)
    tiers = [head_sq] * head
    if r > head:
        tiers += [(1.0 / (r - head)) * (c - 1.0 / r)] * (r - head)
    if k > r:
        tiers += [(1.0 / (k - r)) * (1.0 - c)] * (k - r)
    return np.array(tiers)


def _nonzero_values(spec: SignalModelSpec, rng: np.random.Generator) -> np.ndarray:
    k = spec.k
    if spec.model == "gaussian":
        return math.sqrt(0.5) * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
    if spec.model == "binary":
        return np.ones(k, dtype=complex)
    if spec.model == "exp_decay":
        sq = spec.decay ** np.arange(k, dtype=float)
    elif spec.model == "example1":
        sq = _tiered_sq_mags(k, 1, 1.0 / _int_root(k, 2), 1.0 / _int_root(k, 6))
    else:
        sq = _tiered_sq_mags(k, _int_root(k, 4), 1.0 / k**0.75, k ** (-1.0 / 3.0))
    # descending magnitudes assigned to support slots in random order,
    # with independent uniform phases
    mags = np.sqrt(sq)
    phases = np.exp(2j * np.pi * rng.random(k))
    return (mags * phases)[rng.permutation(k)]


def generate(spec: SignalModelSpec, rng: np.random.Generator) -> SparseSignal:
    """Draw one k-sparse signal: random support, model-specific nonzeros,
    rescaled to unit norm."""
    support = sample_support(spec.n, spec.k, rng)
    vals = _nonzero_values(spec, rng)
    vals *= 1.0 / np.linalg.norm(vals)  # not /=, which rounds differently
    x = np.zeros(spec.n, dtype=complex)
    x[support] = vals
    return SparseSignal(vector=x)
