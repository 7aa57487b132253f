"""Comparison initializers.

esp            the width-1 special case of the pursuit (single anchor index)
diag_two_step  support from the top-k diagonal of the quadratic spectrum,
               finished with the pursuit's step 4 on that spectrum
truncated_power  the truncated power method of Yuan & Zhang (JMLR 2013):
               power iterations on the exponential spectrum with hard top-k
               truncation, started from the diag_two_step estimate scaled
               to unit norm, run until the support repeats, then finished
               with the pursuit's step 4 on the supports of the cycle it
               entered

All three return the same InitEstimate type as the pursuit, with
||z||^2 = lambda_sq and a k-sparse estimate.
"""

from __future__ import annotations

import numpy as np

from . import spectrum
from .measurement import MeasurementSet
from .numerics import top_k_indices
from .pursuit import InitEstimate, PStrategy, _finish, gesp

BASELINE_KINDS = ("esp", "diag_two_step", "truncated_power")
TPM_ITERS = 50  # truncated_power's default iteration cap


def esp_init(meas: MeasurementSet, k: int) -> InitEstimate:
    """Single-anchor pursuit: identical to gesp with fixed p = 1."""
    return gesp(meas, k, PStrategy.fixed(1))


def diag_two_step_init(meas: MeasurementSet, k: int) -> InitEstimate:
    """Two-step baseline on the quadratic spectrum (weights y_i^2): sort the
    diagonal, keep the top k as the support, then take the maximal
    eigenvector there, scaled to ||z||^2 = lambda_sq."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 1 <= k <= meas.n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={meas.n}")
    op = spectrum.build(meas, "quadratic")
    s = top_k_indices(spectrum.diagonal(op), k)
    return _finish(op, s, k, s)


def truncated_power_init(meas: MeasurementSet, k: int, iters: int = TPM_ITERS) -> InitEstimate:
    """Truncated power method (Yuan & Zhang, "Truncated power method for
    sparse eigenvalue problems", JMLR 14, 2013) on the exponential spectrum.

    Starts from the diag_two_step estimate, scaled to unit norm, and repeats
    v <- normalize(truncate_top_k(Z v)), stopping as soon as a support
    repeats.  The supports from its first occurrence up to now are the
    cycle the iteration entered (one support at a fixed point, two on a
    2-cycle).  Each is finished as in the pursuit's step 4: the maximal
    eigenvector of the principal submatrix on it, scaled to
    ||z||^2 = lambda_sq.  The estimate with the smallest residual_score is
    kept, the earliest in the cycle on ties, the rule the ensemble strategy
    uses.

    The exponential spectrum is indefinite on finite samples, so the
    unshifted iteration can follow a negative eigenvalue of large modulus
    and cycle between supports instead of converging.  Stopping on a
    repeated support rather than on a float change test means rounding in
    the matvec reaches the answer only if it flips a top-k choice.  `iters`
    bounds the number of iterations; if the cap is reached without a repeat
    (or Z v vanishes on its top k), the last support is finished as above.
    """
    if isinstance(iters, bool) or not isinstance(iters, (int, np.integer)) or iters < 0:
        raise ValueError(f"iters must be a non-negative integer, got {iters!r}")
    start = diag_two_step_init(meas, k)
    s0, v = start.support, start.z / np.linalg.norm(start.z)
    op = spectrum.build(meas, "exponential")
    key = s0.tobytes()
    visited = {key: s0}  # support bytes -> support, in the order visited
    for _ in range(iters):
        w = spectrum.matvec(op, v)
        keep = top_k_indices(np.abs(w), k)
        norm = np.linalg.norm(w[keep])
        if norm == 0.0 or (key := keep.tobytes()) in visited:
            break
        visited[key] = keep
        v = np.zeros(meas.n, dtype=complex)
        v[keep] = w[keep] / norm
    # the supports from key's first visit on: the cycle after a repeat, else the last support alone
    cycle = list(visited.values())[list(visited).index(key):]
    return min((_finish(op, s, k, s0) for s in cycle), key=lambda est: est.residual_score)
