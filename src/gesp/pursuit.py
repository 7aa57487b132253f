"""The gESP initializer: four pipeline steps plus p-selection strategies.

Given phaseless measurements of a k-sparse signal, the pipeline

  1. picks the p largest diagonal entries of the exponential spectrum (S0),
  2. takes the unit maximal eigenvector of the S0 principal submatrix (e0),
  3. keeps the k largest-modulus entries of Z e0 (S1),
  4. returns the maximal eigenvector of the S1 submatrix rescaled so that
     ||z||^2 equals lambda_sq.

Every strategy resolves to a range of widths: fixed, known_structure
(derived from the true energy profile, an oracle regime), sqrt_k and full_k
give one width, ensemble gives all of [k].  gesp scans the range once over
one spectrum and diagonal: steps 1-3 per width, step 4 once per distinct S1,
and keeps the estimate most consistent with the measurements, so the
ensemble's estimate is its winning width's run bit for bit.  The baselines
finish their own supports with the same step 4 and residual_score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectrum
from .eigensolver import max_eigvec
from .measurement import MeasurementSet
from .numerics import MagnitudeProfile, P_VARIANTS, ceil_sqrt, p_opt, top_k_indices

STRATEGY_KINDS = ("fixed", "known_structure", "sqrt_k", "full_k", "ensemble")


@dataclass(frozen=True)
class PStrategy:
    """How the pursuit width p is chosen at solve time."""

    kind: str
    p_value: int | None = None  # fixed only
    variant: str = "global"     # known_structure only

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy {self.kind!r}; expected one of {STRATEGY_KINDS}")
        if self.kind == "fixed":
            if self.p_value is None or self.p_value < 1:
                raise ValueError("fixed strategy needs a positive p_value")
        elif self.p_value is not None:
            raise ValueError(f"p_value is only valid for the fixed strategy, not {self.kind!r}")
        if self.variant not in P_VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {P_VARIANTS}")
        if self.kind != "known_structure" and self.variant != PStrategy.variant:
            raise ValueError(f"variant is only valid for the known_structure strategy, not {self.kind!r}")

    @classmethod
    def fixed(cls, p: int) -> "PStrategy":
        return cls(kind="fixed", p_value=p)

    @classmethod
    def known_structure(cls, variant: str = "global") -> "PStrategy":
        return cls(kind="known_structure", variant=variant)

    @classmethod
    def sqrt_k(cls) -> "PStrategy":
        return cls(kind="sqrt_k")

    @classmethod
    def full_k(cls) -> "PStrategy":
        return cls(kind="full_k")

    @classmethod
    def ensemble(cls) -> "PStrategy":
        return cls(kind="ensemble")


@dataclass(frozen=True, eq=False)
class InitEstimate:
    z: np.ndarray          # length-n estimate with ||z||^2 = lambda_sq
    support: np.ndarray    # S1, the k estimated support indices
    p_used: int
    s0: np.ndarray         # the p_used indices selected in step 1
    residual_score: float  # measurement consistency of z


def step2_direction(op: spectrum.SpectrumOperator, s0) -> np.ndarray:
    """Unit maximal eigenvector of Z_{S0}, embedded into n dimensions."""
    s0 = np.asarray(s0, dtype=int)
    e0 = np.zeros(op.meas.n, dtype=complex)
    e0[s0] = max_eigvec(spectrum.submatrix(op, s0))
    return e0


def step3_select_s1(op: spectrum.SpectrumOperator, e0, k: int) -> np.ndarray:
    """Indices of the k largest-modulus entries of Z e0, sorted ascending."""
    return top_k_indices(np.abs(spectrum.matvec(op, e0)), k)


def step4_estimate(op: spectrum.SpectrumOperator, s1) -> np.ndarray:
    """Step 2's direction on S1, scaled to ||z||^2 = the measurements' lambda_sq."""
    return step2_direction(op, s1) * math.sqrt(op.meas.lambda_sq)


def residual_score(meas: MeasurementSet, z) -> float:
    """(1/m) sum_i (y_i - |a_i* z|)^2: zero iff z explains every modulus."""
    z = np.asarray(z, dtype=complex)
    if z.shape != (meas.n,):
        raise ValueError(f"vector length {z.size} does not match n={meas.n}")
    nz = np.flatnonzero(z)
    moduli = np.abs(meas.sensing[:, nz].conj() @ z[nz])
    return float(np.mean((meas.y - moduli) ** 2))


def _finish(op: spectrum.SpectrumOperator, s1, p_used: int, s0) -> InitEstimate:
    """Step 4 on the support s1, scored against the measurements."""
    z = step4_estimate(op, s1)
    return InitEstimate(z=z, support=s1, p_used=p_used, s0=s0, residual_score=residual_score(op.meas, z))


def gesp(
    meas: MeasurementSet,
    k: int,
    strategy: PStrategy = PStrategy.full_k(),
    true_profile: MagnitudeProfile | None = None,
) -> InitEstimate:
    """Run the pursuit at every width the strategy allows and keep the
    estimate with the smallest residual_score, the smallest p on ties.

    ensemble allows every p in [k], each other strategy one p.  The
    exponential spectrum and its diagonal are computed once and shared by
    all widths, and steps 1-3 run per width, so each width's S1 is the one
    a fixed run at that width selects.  Step 4 and the residual depend on
    S1 alone, so each distinct S1 is finished once, at the smallest width
    that selects it.  known_structure needs the true signal's
    MagnitudeProfile (an oracle input: it reproduces the regime where the
    energy structure is known).
    """
    if not 1 <= k <= meas.n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={meas.n}")
    if strategy.kind == "fixed":
        p = strategy.p_value
        if p > k:
            raise ValueError(f"fixed p={p} exceeds k={k}")
    elif strategy.kind == "known_structure":
        if true_profile is None:
            raise ValueError("known_structure strategy requires the true magnitude profile")
        p = p_opt(true_profile, k, strategy.variant)
    elif strategy.kind == "sqrt_k":
        p = ceil_sqrt(k)
    else:  # full_k, and the widest width of ensemble
        p = k
    widths = range(1 if strategy.kind == "ensemble" else p, p + 1)
    op = spectrum.build(meas, "exponential")
    diag = spectrum.diagonal(op)
    finished = {}  # S1 bytes -> its estimate at the smallest width selecting it
    for w in widths:
        s0 = top_k_indices(diag, w)  # step 1
        s1 = step3_select_s1(op, step2_direction(op, s0), k)
        if s1.tobytes() not in finished:
            finished[s1.tobytes()] = _finish(op, s1, w, s0)
    return min(finished.values(), key=lambda est: est.residual_score)
