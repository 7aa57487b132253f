"""Comparison initializers.

esp            the width-1 special case of the pursuit (single anchor index)
diag_two_step  support from the top-k diagonal of the quadratic spectrum,
               direction from that submatrix's maximal eigenvector
truncated_power  the truncated power method of Yuan & Zhang (JMLR 2013):
               power iterations on the exponential spectrum with hard top-k
               truncation, warm-started from diag_two_step, run until the
               support settles (a fixed point or a 2-cycle), then finished
               with the maximal eigenvector on the settled support

All three return the same InitEstimate type as the pursuit, with
||z||^2 = lambda_sq and a k-sparse estimate.
"""

from __future__ import annotations

import math

import numpy as np

from . import spectrum
from .eigensolver import max_eigvec
from .measurement import MeasurementSet
from .numerics import top_k_indices
from .pursuit import InitEstimate, PStrategy, gesp, residual_score, step4_estimate

BASELINE_KINDS = ("esp", "diag_two_step", "truncated_power")


def esp_init(meas: MeasurementSet, k: int) -> InitEstimate:
    """Single-anchor pursuit: identical to gesp with fixed p = 1."""
    return gesp(meas, k, PStrategy.fixed(1))


def diag_two_step_init(meas: MeasurementSet, k: int) -> InitEstimate:
    """Two-step baseline on the quadratic spectrum (weights y_i^2): sort the
    diagonal, keep the top k as the support, then take the maximal
    eigenvector there, scaled to ||z||^2 = lambda_sq."""
    if not 1 <= k <= meas.n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={meas.n}")
    op = spectrum.build(meas, "quadratic")
    s = top_k_indices(spectrum.diagonal(op), k)
    res = max_eigvec(spectrum.submatrix(op, s))
    z = np.zeros(meas.n, dtype=complex)
    z[s] = res.eigenvector * math.sqrt(meas.lambda_sq)
    return InitEstimate(
        z=z,
        support=s,
        p_used=k,
        s0=s,
        residual_score=residual_score(meas, z),
    )


def truncated_power_init(meas: MeasurementSet, k: int, iters: int = 50) -> InitEstimate:
    """Truncated power method (Yuan & Zhang, "Truncated power method for
    sparse eigenvalue problems", JMLR 14, 2013) on the exponential spectrum.

    Starts from the diag_two_step direction and repeats
    v <- normalize(truncate_top_k(Z v)), stopping as soon as the support
    repeats: the same support twice in a row is a fixed point, the same
    support as two steps before is a 2-cycle.  The estimate is then the
    maximal eigenvector of the principal submatrix on the settled support,
    scaled to ||z||^2 = lambda_sq, as in the pursuit's step 4.  On a 2-cycle
    both supports are finished that way and the estimate with the smaller
    residual_score is kept (the current support on ties), the rule the
    ensemble strategy uses.

    The exponential spectrum is indefinite on finite samples, so the
    unshifted iteration can follow a negative eigenvalue of large modulus
    and alternate between two supports instead of converging.  Stopping on
    a repeated support rather than on a float change test means rounding
    in the matvec reaches the answer only if it flips a top-k choice.
    `iters` bounds the number of iterations; if the cap is reached without
    a repeat (or Z v vanishes on its top k), the last support is finished
    as above.
    """
    if iters < 0:
        raise ValueError("iters must be non-negative")
    start = diag_two_step_init(meas, k)
    op = spectrum.build(meas, "exponential")
    v = start.z / np.linalg.norm(start.z)
    support, previous = start.support, None
    cycle = None
    for _ in range(iters):
        w = spectrum.matvec(op, v)
        keep = top_k_indices(np.abs(w), k)
        norm = np.linalg.norm(w[keep])
        if norm == 0.0:
            break
        v = np.zeros(meas.n, dtype=complex)
        v[keep] = w[keep] / norm
        if np.array_equal(keep, support):
            break
        if np.array_equal(keep, previous):
            cycle = (keep, support)
            break
        previous, support = support, keep
    candidates = cycle or (support,)
    estimates = [step4_estimate(op, s, meas.lambda_sq) for s in candidates]
    scores = [residual_score(meas, z) for z in estimates]
    best = scores.index(min(scores))
    return InitEstimate(
        z=estimates[best],
        support=candidates[best],
        p_used=k,
        s0=start.s0,
        residual_score=scores[best],
    )
