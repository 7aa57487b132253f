"""Maximal eigenvector of a small Hermitian matrix.

"Maximal" means the largest *algebraic* eigenvalue, not the largest in
magnitude: the mean spectrum is positive semidefinite rank-one, so the
signal direction always sits at the algebraic top, while a negative
eigenvalue may dominate in modulus on finite samples.  From order SOLVE_MIN
on, `np.linalg.eigvalsh` gives the top eigenvalue and one inverse-iteration
step shifted there (one `np.linalg.solve`) its vector; below that, or if
that vector fails the residual check, `np.linalg.eigh` does.  Neither slows
down on near ties; with a fixed phase, both are deterministic on one build.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-10  # the largest accepted residual ||M v - tau v|| / max(1, |tau|)
SOLVE_MIN = 12  # the smallest order whose vector comes from the shifted solve


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rotate the unit vector v so its largest-modulus entry (smallest index
    on ties) is real and non-negative."""
    mods = np.abs(v)
    j = int(np.argmax(mods))
    out = v * (v[j].conj() / mods[j])
    out[j] = mods[j]  # exact realness; rounding residue is ~1 ulp
    return out


def _candidates(m: np.ndarray):
    """The shifted solve's unit vector (order >= SOLVE_MIN), then eigh's top one."""
    d = m.shape[0]
    if d >= SOLVE_MIN:
        try:
            x = np.linalg.solve(m - np.linalg.eigvalsh(m)[-1] * np.eye(d), np.ones(d))
        except np.linalg.LinAlgError:  # an exactly singular shift, as for a diagonal matrix
            x = np.zeros(d)  # no candidate
        norm = np.linalg.norm(x)
        if 0.0 < norm < np.inf:
            yield x / norm
    yield np.linalg.eigh(m)[1][:, -1]  # ascending order


def max_eigvec(mat) -> np.ndarray:
    """Unit, phase-canonical eigenvector of the largest algebraic eigenvalue
    of a Hermitian matrix.

    With tau its Rayleigh quotient, the residual norm ||M v - tau v|| must be
    at most TOL * max(1, |tau|).  The first candidate that passes is returned;
    if eigh's fails too, np.linalg.LinAlgError is raised: a larger residual
    means the input was not Hermitian or not finite.
    """
    m = np.asarray(mat, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    for v in map(_canonical_phase, _candidates(m)):
        mv = m @ v
        tau = float(np.vdot(v, mv).real)
        residual = float(np.linalg.norm(mv - tau * v))
        if residual <= TOL * max(1.0, abs(tau)):
            return v
    raise np.linalg.LinAlgError(f"eigenpair residual {residual:.3e} exceeds tolerance {TOL:.1e} * max(1, |{tau:.6g}|)")
