"""Maximal eigenvector of a small Hermitian matrix via one dense LAPACK solve.

"Maximal" means the largest *algebraic* eigenvalue, not the largest in
magnitude: the mean spectrum is positive semidefinite rank-one, so the
signal direction always sits at the algebraic top, while a negative
eigenvalue may dominate in modulus on finite samples.  The principal
submatrices solved here are at most k x k, so a full Hermitian
eigendecomposition (`np.linalg.eigh`) is cheap and, unlike an iterative
method, does not slow down when the top eigenvalues nearly tie.

The routine is deterministic: LAPACK's Hermitian solver plus a fixed phase
canonicalization give bit-identical output for identical input on one
numpy/BLAS build.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-10  # the largest accepted residual ||M v - tau v|| / max(1, |tau|)


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rotate v so its largest-modulus entry (smallest index on ties) is
    real and non-negative."""
    mods = np.abs(v)
    j = int(np.argmax(mods))
    if mods[j] == 0.0:
        return v
    out = v * (v[j].conj() / mods[j])
    out[j] = mods[j]  # exact realness; rounding residue is ~1 ulp
    return out


def max_eigvec(mat) -> np.ndarray:
    """Unit, phase-canonical eigenvector of the largest algebraic eigenvalue
    of a Hermitian matrix.

    One `np.linalg.eigh` call on the matrix (its lower triangle is read);
    eigh sorts eigenvalues in ascending order, so the last column is the
    maximal eigenvector, rotated to a canonical global phase.  With tau its
    Rayleigh quotient, the residual norm sqrt(r* r), r = M v - tau v, must be
    at most TOL * max(1, |tau|), or np.linalg.LinAlgError is raised: a larger
    residual means the input was not Hermitian or not finite.
    """
    m = np.asarray(mat, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")

    _, vectors = np.linalg.eigh(m)  # ascending order
    v = _canonical_phase(vectors[:, -1])
    mv = m @ v
    tau = float(np.vdot(v, mv).real)
    r = mv - tau * v
    residual = float(np.sqrt(np.vdot(r, r).real))
    if not residual <= TOL * max(1.0, abs(tau)):
        raise np.linalg.LinAlgError(f"eigenpair residual {residual:.3e} exceeds tolerance {TOL:.1e} * max(1, |{tau:.6g}|)")
    return v
