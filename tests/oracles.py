"""Independent reference implementations used only to check the package.

Everything here is written from the defining formulas, on purpose sharing
no code with the package: a cyclic Jacobi eigensolver for Hermitian
matrices, an explicitly materialized dense spectrum, a dense four-step
pursuit, a phase-grid distance minimizer, a sort-based top-k, and a
streaming (Welford) mean/variance.  The one exception is
per_width_pursuit, the reference for gesp's width scan, written with the
package's own steps: gesp's own loop over the widths, one vector product
per width, except that it finishes every width's S1 where gesp finishes
each distinct S1 once.
"""

import numpy as np


def grid_dist(u, v, points=10**6, chunk=50_000):
    """min over a phase grid of ||u - exp(j*phi) v||, by explicit differences."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    best = np.inf
    phis = 2.0 * np.pi * np.arange(points) / points
    for lo in range(0, points, chunk):
        ph = np.exp(1j * phis[lo:lo + chunk])
        diffs = u[None, :] - ph[:, None] * v[None, :]
        norms = np.sqrt(np.sum(diffs.real**2 + diffs.imag**2, axis=1))
        best = min(best, float(norms.min()))
    return best


def topk_sorted(values, k):
    """Top-k indices by full sort on (-value, index), returned ascending."""
    vals = list(map(float, values))
    order = sorted(range(len(vals)), key=lambda i: (-vals[i], i))
    return np.array(sorted(order[:k]), dtype=int)


def jacobi_eigh(mat, tol=1e-13, max_sweeps=100):
    """Cyclic Jacobi diagonalization of a Hermitian matrix.

    Each (p, q) step absorbs the phase of a_pq and applies the classical
    real rotation, zeroing that entry.  Returns (eigenvalues, eigenvectors)
    with eigenvectors in columns, unsorted.
    """
    a = np.array(mat, dtype=complex)
    d = a.shape[0]
    v = np.eye(d, dtype=complex)
    scale = max(1.0, float(np.linalg.norm(a)))
    for _ in range(max_sweeps):
        off = np.linalg.norm(a - np.diag(a.diagonal()))
        if off <= tol * scale:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p, q]
                if abs(apq) <= tol * scale * 1e-3:
                    continue
                ph = apq / abs(apq)
                tau = (a[q, q].real - a[p, p].real) / (2.0 * abs(apq))
                if tau >= 0:
                    t = 1.0 / (tau + np.hypot(1.0, tau))
                else:
                    t = -1.0 / (-tau + np.hypot(1.0, tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # columns: [p q] <- [c*p - s*conj(ph)*q,  s*p + c*conj(ph)*q]
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * np.conj(ph) * cq
                a[:, q] = s * cp + c * np.conj(ph) * cq
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * ph * rq
                a[q, :] = s * rp + c * ph * rq
                a[p, q] = 0.0
                a[q, p] = 0.0
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * np.conj(ph) * vq
                v[:, q] = s * vp + c * np.conj(ph) * vq
    return a.diagonal().real.copy(), v


def jacobi_max_eigvec(mat):
    """Eigenpair of the largest algebraic eigenvalue, via jacobi_eigh."""
    evals, evecs = jacobi_eigh(mat)
    i = int(np.argmax(evals))
    return float(evals[i]), evecs[:, i]


def dense_expo_weights(y):
    y = np.asarray(y, dtype=float)
    return 0.5 - np.exp(-(y**2) / float(np.mean(y**2)))


def dense_spectrum(sensing, weights):
    """Explicit n x n spectrum (1/m) sum_i w_i a_i a_i*, from the definition."""
    a = np.asarray(sensing, dtype=complex)
    return np.einsum("i,iu,iv->uv", np.asarray(weights, float), a, a.conj()) / a.shape[0]


def dense_pursuit(sensing, y, k, p):
    """Four-step pursuit computed entirely on the materialized spectrum,
    with the Jacobi eigensolver.  Returns (s0, e0, s1, z)."""
    a = np.asarray(sensing, dtype=complex)
    n = a.shape[1]
    z_dense = dense_spectrum(a, dense_expo_weights(y))
    s0 = topk_sorted(z_dense.diagonal().real, p)
    _, e0_local = jacobi_max_eigvec(z_dense[np.ix_(s0, s0)])
    e0 = np.zeros(n, dtype=complex)
    e0[s0] = e0_local
    f = z_dense @ e0
    s1 = topk_sorted(np.abs(f), k)
    _, z_local = jacobi_max_eigvec(z_dense[np.ix_(s1, s1)])
    z = np.zeros(n, dtype=complex)
    z[s1] = z_local * np.sqrt(np.mean(np.asarray(y) ** 2))
    return s0, e0, s1, z


def per_width_pursuit(meas, k, widths):
    """gesp as a loop over the widths: steps 1-3 with one matvec per width,
    step 4 and the residual at every width, and the smallest residual kept,
    the smallest width on ties."""
    from gesp import spectrum
    from gesp.numerics import top_k_indices
    from gesp.pursuit import _finish, step2_direction, step3_select_s1

    op = spectrum.build(meas, "exponential")
    diag = spectrum.diagonal(op)

    def run_with_p(p):
        s0 = top_k_indices(diag, p)
        e0 = step2_direction(op, s0)
        return _finish(op, step3_select_s1(op, e0, k), p, s0)

    return min((run_with_p(p) for p in widths), key=lambda est: est.residual_score)


def phase_aligned_gap(u, v):
    """Distance modulo global phase, by aligning v to u explicitly."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    inner = np.vdot(v, u)
    if abs(inner) > 0:
        v = v * (inner / abs(inner))
    return float(np.linalg.norm(u - v))


class StreamingMoments:
    """Welford running mean/variance, the independent aggregation check."""

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, x):
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)

    @property
    def population_sd(self):
        return 0.0 if self.count == 0 else (self.m2 / self.count) ** 0.5
