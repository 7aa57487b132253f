"""Complex-vector numerics shared by every initializer.

Everything here is a pure function of its arguments: the phase-invariant
distance between complex vectors, the descending energy profile of a signal,
the structure function s(p) that measures how concentrated the signal energy
is, and the minmax objective used to pick the pursuit width p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Objective variants for selecting the pursuit width p:
#   "global" scans every p in [k] and minimizes max{p^2 s^2(p), k s(p)}.
#   "capped" scans p in [ceil(sqrt(k))] and minimizes
#            max{p^2 s^2(p), sqrt(k) s^2(p), k s(p)}.
P_VARIANTS = ("global", "capped")


@dataclass(frozen=True, eq=False)
class MagnitudeProfile:
    """Squared entry magnitudes of a signal, sorted in descending order.

    sorted_sq_mags[i] is the (i+1)-th largest |x_j|^2; total_energy is
    ||x||^2.  The cumulative sums of this profile define s(p).
    """

    sorted_sq_mags: np.ndarray
    total_energy: float

    def __post_init__(self):
        mags = np.asarray(self.sorted_sq_mags, dtype=float)
        object.__setattr__(self, "sorted_sq_mags", mags)
        if mags.ndim != 1 or mags.size == 0:
            raise ValueError("profile must be a non-empty 1-d sequence")
        if np.any(mags < 0) or not np.all(np.isfinite(mags)):
            raise ValueError("squared magnitudes must be finite and non-negative")
        if np.any(np.diff(mags) > 0):
            raise ValueError("squared magnitudes must be non-increasing")
        if self.total_energy <= 0 or not math.isfinite(self.total_energy):
            raise ValueError(f"total energy must be positive and finite, got {self.total_energy}")
        if abs(mags.sum() - self.total_energy) > 1e-12 * self.total_energy:
            raise ValueError(f"profile sums to {mags.sum()}, not the stated total energy {self.total_energy}")

    @property
    def n(self) -> int:
        return self.sorted_sq_mags.size


def _as_complex_vec(x, name="vector"):
    arr = np.asarray(x, dtype=complex)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d vector")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def dist(u, v) -> float:
    """Distance between complex vectors modulo a global phase.

    Equals min over phi of ||u - exp(j*phi) v||, computed in closed form as
    sqrt(||u||^2 + ||v||^2 - 2|u* v|).  The radicand is clamped at zero to
    absorb floating-point cancellation (it is mathematically non-negative).
    """
    return _dist(_as_complex_vec(u, "u"), _as_complex_vec(v, "v"))


def _dist(u: np.ndarray, v: np.ndarray) -> float:  # u and v come from _as_complex_vec
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.size} vs {v.size}")
    nu = float(np.sum(u.real**2 + u.imag**2))
    nv = float(np.sum(v.real**2 + v.imag**2))
    inner = abs(complex(np.vdot(u, v)))
    return math.sqrt(max(0.0, nu + nv - 2.0 * inner))


def relative_error(z, x) -> float:
    """Phase-aligned relative error dist(z, x) / ||x||."""
    z = _as_complex_vec(z, "z")
    x = _as_complex_vec(x, "x")
    nx = float(np.linalg.norm(x))
    if nx == 0.0:
        raise ValueError("ground-truth vector has zero norm")
    return _dist(z, x) / nx


def magnitude_profile(x) -> MagnitudeProfile:
    """Descending squared-magnitude profile of x; requires ||x|| > 0."""
    x = _as_complex_vec(x, "x")
    sq = x.real**2 + x.imag**2
    total = float(sq.sum())
    if total == 0.0:
        raise ValueError("cannot profile the zero vector")
    return MagnitudeProfile(np.sort(sq)[::-1].copy(), total)


def structure_function(profile: MagnitudeProfile, p: int) -> float:
    """s(p) = ||x||^2 / (energy of the p largest-magnitude entries).

    Always >= 1, and equals 1 once p covers the whole support.
    """
    if not 1 <= p <= profile.n:
        raise ValueError(f"p must be in [1, {profile.n}], got {p}")
    top = float(profile.sorted_sq_mags[:p].sum())
    return profile.total_energy / top


def top_k_indices(values, k: int) -> np.ndarray:
    """Indices of the k largest entries of a vector, smaller index first on ties.

    Returned sorted ascending, so the result is a canonical index set.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1:
        raise ValueError(f"values must be a 1-d vector, got shape {vals.shape}")
    if not np.isfinite(vals).all():
        raise ValueError("values must be finite")
    if not 1 <= k <= vals.size:
        raise ValueError(f"k must be in [1, {vals.size}], got {k}")
    return np.sort(np.argsort(-vals, kind="stable")[:k])


def ceil_sqrt(k: int) -> int:
    """ceil(sqrt(k)) for an integer k >= 1, exact where a float sqrt can round past an integer."""
    return math.isqrt(k - 1) + 1


def _p_max(profile: MagnitudeProfile, k: int, variant: str) -> int:
    """The widest p the variant scans: k for "global", ceil(sqrt(k)) for
    "capped".  Rejects an unknown variant and k outside [1, n]."""
    if variant not in P_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {P_VARIANTS}")
    if not 1 <= k <= profile.n:
        raise ValueError(f"k must be in [1, {profile.n}], got {k}")
    return k if variant == "global" else ceil_sqrt(k)


def p_objective(profile: MagnitudeProfile, k: int, p: int, variant: str = "global") -> float:
    """Minmax objective that scores a candidate pursuit width p.

    "global" scores max{p^2 s^2(p), k s(p)} for p in [k]; "capped" adds the
    sqrt(k) s^2(p) term and restricts p to [ceil(sqrt(k))].
    """
    p_max = _p_max(profile, k, variant)
    if not 1 <= p <= p_max:
        raise ValueError(f"p must be in [1, {p_max}] for variant {variant!r}, got {p}")
    s = structure_function(profile, p)
    if variant == "global":
        return max(p * p * s * s, k * s)
    return max(p * p * s * s, math.sqrt(k) * s * s, k * s)


def p_opt(profile: MagnitudeProfile, k: int, variant: str = "global") -> int:
    """Exhaustive argmin of p_objective over the variant's range.

    Ties go to the smallest p, so the result is deterministic.
    """
    return min(range(1, _p_max(profile, k, variant) + 1), key=lambda p: p_objective(profile, k, p, variant))
