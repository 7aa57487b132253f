"""Correctness checks on a workload's outputs, made apart from the program.

The reference here materialises the n x n spectrum Z = (1/m) sum_i w_i a_i a_i*
and takes eigenvectors with numpy.linalg.eigh; the program never forms Z and
uses its own power iteration.  Nothing is compared with stored output: every
expected value is computed from the trial's inputs.  A check is one
operation; `Checks` counts the ones attempted and the ones that failed.
"""

from __future__ import annotations

import math

import numpy as np

from gesp import bench, spectrum
from gesp.pursuit import PStrategy, gesp, step2_direction

# ||z||^2 = lambda_sq, the invariant every estimate must meet.
NORM_RTOL = 1e-9
# The program's relative_error is the closed form sqrt(|z|^2 + |x|^2 - 2|z*x|),
# which loses up to sqrt(eps)*|x| (about 1.5e-8 at |x| = 1) to cancellation;
# the benchmark's distance aligns the phase first and subtracts directly.
DIST_ATOL = 1e-7
# Top-k sets may differ only where the values at the cut agree to this
# share; the program's BLAS products and the dense reference round apart.
TIE_RTOL = 1e-9
# The power iteration stops at a residual of 1e-10 * max(1, |eigenvalue|);
# an eigenvector check allows 100 times that against the matrix's scale.
EIG_RTOL = 1e-8
# Two residual scores of the same width agree to the eigenvectors' accuracy.
RESIDUAL_RTOL = 1e-7


class Checks:
    """Counts checks and keeps the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


# ---- the dense reference ---------------------------------------------------

def dense_spectrum(meas, kind: str) -> tuple[np.ndarray, float]:
    """Materialised Z for the exponential or quadratic weighting, and lambda^2."""
    a, y = meas.sensing, meas.y
    lam_sq = float(np.mean(y**2))
    w = y**2 if kind == "quadratic" else 0.5 - np.exp(-(y**2) / lam_sq)
    z = (a.T * w) @ a.conj() / a.shape[0]
    return (z + z.conj().T) / 2, lam_sq


def top_indices(values: np.ndarray, k: int) -> np.ndarray:
    """The k largest values, smaller index first on ties, sorted ascending."""
    order = np.lexsort((np.arange(values.size), -values))
    return np.sort(order[:k])


def same_top_set(values: np.ndarray, k: int, got) -> bool:
    """`got` is the top-k set of `values`, up to values tied at the cut."""
    want = top_indices(values, k)
    diff = np.setxor1d(want, np.asarray(got))
    if diff.size == 0:
        return True
    cut = np.sort(values)[::-1][k - 1]
    return bool(np.all(np.abs(values[diff] - cut) <= TIE_RTOL * abs(cut)))


def top_eigvec(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    vals, vecs = np.linalg.eigh(mat)
    return vals, vecs[:, -1]


def is_top_eigvec(mat: np.ndarray, v: np.ndarray) -> bool:
    """v is a maximal eigenvector of Hermitian `mat`: its Rayleigh quotient
    reaches the top eigenvalue, its residual is small, and (Davis-Kahan) its
    angle to eigh's top eigenvector is within residual / gap."""
    vals, top = top_eigvec(mat)
    scale = max(abs(vals[0]), abs(vals[-1]), 1e-300)
    u = v / np.linalg.norm(v)
    mu = u.conj() @ mat @ u
    rq = float(mu.real)
    resid = float(np.linalg.norm(mat @ u - rq * u))
    if vals[-1] - rq > EIG_RTOL * scale or resid > EIG_RTOL * scale:
        return False
    if vals.size == 1:
        return True
    gap = vals[-1] - vals[-2]
    inner = complex(np.vdot(top, u))
    phase = inner.conjugate() / abs(inner) if inner != 0 else 1.0
    sin_err = float(np.linalg.norm(u * phase - top))
    return gap <= 0 or sin_err <= 2 * resid / gap + EIG_RTOL


def reference_residual(zmat, lam_sq, a, y, p, k) -> float:
    """Residual score of the four pursuit steps at width p, run on the dense Z."""
    n = zmat.shape[0]
    s0 = top_indices(zmat.diagonal().real, p)
    e0 = np.zeros(n, complex)
    e0[s0] = top_eigvec(zmat[np.ix_(s0, s0)])[1]
    s1 = top_indices(np.abs(zmat @ e0), k)
    z = np.zeros(n, complex)
    z[s1] = top_eigvec(zmat[np.ix_(s1, s1)])[1] * math.sqrt(lam_sq)
    return residual(a, y, z)


def residual(a, y, z) -> float:
    return float(np.mean((y - np.abs(a.conj() @ z)) ** 2))


def aligned_distance(z, x) -> float:
    """min over phi of ||z e^{i phi} - x||, with phi = arg(z* x)."""
    inner = complex(np.vdot(z, x))
    phase = inner / abs(inner) if inner != 0 else 1.0
    return float(np.linalg.norm(z * phase - x))


# ---- the checks ------------------------------------------------------------

def _label(row) -> str:
    return f"{row['algorithm']}-{row['strategy']}" if row["strategy"] else row["algorithm"]


def check_rows(checks: Checks, rows: list[dict], k: int, where: str) -> None:
    """Invariants of every CSV row."""
    for row in rows:
        rel, raw = float(row["relative_error"]), float(row["raw_error"])
        frac, p = float(row["support_fraction"]), int(row["p_used"])
        label = _label(row)
        if label == "esp":
            p_ok = p == 1
        elif label in ("gesp-full_k", "diag_two_step", "truncated_power"):
            p_ok = p == k
        else:
            p_ok = 1 <= p <= k
        checks.check(
            int(row["error_flag"]) == 0
            and raw >= rel - DIST_ATOL
            and 0.0 <= frac <= 1.0
            and abs(frac * k - round(frac * k)) <= 1e-9
            and p_ok,
            f"{where}: row {label} ratio {row['ratio']} trial {row['trial_index']}: "
            f"error_flag={row['error_flag']} raw={raw} rel={rel} support_fraction={frac} p_used={p}",
        )


def check_sampled_trials(checks: Checks, config, rows: list[dict], seed: int, where: str) -> None:
    """Re-run one trial per ratio and check every algorithm's estimate."""
    by_key = {(float(r["ratio"]), int(r["trial_index"]), _label(r)): r for r in rows}
    k = config.k
    for ri, (ratio, _m) in enumerate(config.resolved_ratios()):
        ti = (seed + ri) % config.trials
        _, sig, meas = bench.build_trial_instance(config, ri, ti)
        x, a, y = sig.vector, meas.sensing, meas.y
        zmat, lam_sq = dense_spectrum(meas, "exponential")
        at = f"{where}: ratio {ratio} trial {ti}"
        ests = {}
        for algo in config.algorithms:
            est = bench.run_algorithm(algo, meas, k, sig)
            label = f"{algo.name}-{algo.strategy_label}" if algo.strategy_label else algo.name
            ests[label] = est
            z = est.z
            nonzero = np.flatnonzero(z)
            checks.check(
                bool(np.all(np.isfinite(z)))
                and np.array_equal(nonzero, np.sort(est.support))
                and nonzero.size == k
                and abs(float(np.vdot(z, z).real) - lam_sq) <= NORM_RTOL * lam_sq,
                f"{at} {label}: z not finite, k-sparse on its support, with ||z||^2 = lambda^2",
            )
            row = by_key.get((ratio, ti, label))
            nx = float(np.linalg.norm(x))
            overlap = np.intersect1d(est.support, sig.support).size
            checks.check(
                row is not None
                and abs(float(row["relative_error"]) - aligned_distance(z, x) / nx) <= DIST_ATOL
                and abs(float(row["raw_error"]) - float(np.linalg.norm(z - x)) / nx) <= DIST_ATOL
                and int(row["p_used"]) == est.p_used
                and float(row["support_fraction"]) == overlap / k,
                f"{at} {label}: the CSV row does not match the re-run estimate",
            )
            if algo.name == "gesp" and algo.strategy.kind != "ensemble":
                _check_pursuit(checks, meas, zmat, est, k, f"{at} {label}")
            if algo.name == "gesp" and algo.strategy.kind == "ensemble":
                ref = min(reference_residual(zmat, lam_sq, a, y, p, k) for p in range(1, k + 1))
                checks.check(
                    abs(est.residual_score - ref) <= RESIDUAL_RTOL * max(ref, 1e-300)
                    and abs(residual(a, y, est.z) - est.residual_score) <= RESIDUAL_RTOL * max(ref, 1e-300),
                    f"{at} {label}: residual {est.residual_score} is not the minimum {ref} over widths",
                )
        if "esp" in ests:
            want = gesp(meas, k, PStrategy.fixed(1))
            got = ests["esp"]
            checks.check(
                np.array_equal(got.z, want.z) and np.array_equal(got.support, want.support)
                and got.p_used == want.p_used == 1,
                f"{at} esp: differs from gesp with fixed p = 1",
            )
        if "diag_two_step" in ests:
            qmat, _ = dense_spectrum(meas, "quadratic")
            checks.check(
                same_top_set(qmat.diagonal().real, k, ests["diag_two_step"].support),
                f"{at} diag_two_step: support is not the top k of the quadratic diagonal",
            )


def _check_pursuit(checks: Checks, meas, zmat, est, k: int, at: str) -> None:
    """S0 is the top p of the dense diagonal, the program's e0 is a maximal
    eigenvector of Z_S0, S1 is the top k of |Z e0|, and z is a maximal
    eigenvector of Z_S1."""
    s0, s1 = est.s0, est.support
    e0 = step2_direction(spectrum.build(meas, "exponential"), s0)
    checks.check(
        same_top_set(zmat.diagonal().real, est.p_used, s0)
        and is_top_eigvec(zmat[np.ix_(s0, s0)], e0[s0])
        and same_top_set(np.abs(zmat @ e0), k, s1)
        and is_top_eigvec(zmat[np.ix_(s1, s1)], est.z[s1]),
        f"{at}: S0, e0, S1 or z disagree with the dense reference",
    )


def check_error_falls_with_ratio(checks: Checks, rows: list[dict], where: str) -> None:
    """gesp's mean error at the highest ratio is below that at the lowest."""
    gesp_rows = [r for r in rows if r["algorithm"] == "gesp"]
    ratios = sorted({float(r["ratio"]) for r in gesp_rows})

    def mean_at(ratio):
        return float(np.mean([float(r["relative_error"]) for r in gesp_rows if float(r["ratio"]) == ratio]))

    low, high = mean_at(ratios[0]), mean_at(ratios[-1])
    checks.check(high < low, f"{where}: gesp mean error {high} at ratio {ratios[-1]} not below {low} at {ratios[0]}")
