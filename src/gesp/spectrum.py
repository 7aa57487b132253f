"""Matrix-free weighted outer-product spectrum Z = (1/m) sum_i w_i a_i a_i*.

The weights are a MeasurementSet's, one vector per weighting: exponential,
w_i = 1/2 - exp(-y_i^2 / lambda_sq), for the pursuit, and quadratic,
w_i = y_i^2, for the prior two-step method.  Z is never an n x n array on
the algorithm path: the solver needs only its diagonal (the set's sum of one
product per block of sensing rows), small principal submatrices, and products
with sparse vectors or blocks of them.  Results are bit-identical across runs
on one numpy/BLAS build and BLAS thread count; the summation order (and so
the last bit) depends on the build, its CPU kernel, the operands' memory
layout and, for products as large as n = 1000, that count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measurement import WEIGHTINGS, MeasurementSet
from .signals import SparseSignal


@dataclass(frozen=True, eq=False)
class SpectrumOperator:
    meas: MeasurementSet
    weights: np.ndarray  # the set's weights and diagonal for one weighting
    diag: np.ndarray


def build(meas: MeasurementSet, kind: str = "exponential") -> SpectrumOperator:
    """The spectrum of `meas` under one weighting.  Either weighting rejects
    a zero lambda_sq: no estimate with ||z||^2 = lambda_sq = 0 has k nonzeros."""
    if kind not in WEIGHTINGS:
        raise ValueError(f"unknown weighting {kind!r}; expected one of {WEIGHTINGS}")
    if meas.lambda_sq <= 0.0:
        raise ValueError("degenerate measurements: lambda_sq is zero, all observations vanish")
    return SpectrumOperator(meas=meas, weights=meas.weights[kind], diag=meas.diagonals[kind])


def diagonal(op: SpectrumOperator) -> np.ndarray:
    """Diagonal of Z, read-only: entry j = (1/m) sum_i w_i |a_ij|^2, summed when the set was built."""
    return op.diag


def submatrix(op: SpectrumOperator, indices) -> np.ndarray:
    """Principal submatrix Z_S for the index set S, exactly Hermitian.

    Entry (u, v) = (1/m) sum_i w_i a_{i,S[u]} conj(a_{i,S[v]}), from one GEMM.
    Its upper triangle plus conj(0) is kept, the lower is 0 plus the upper's
    conjugate, and the diagonal is forced real: Hermitian to the last bit.
    """
    idx = np.asarray(indices, dtype=int)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("index set must be non-empty")
    b = op.meas.sensing[:, idx]
    raw = (b * op.weights[:, None]).T @ b.conj()
    raw /= op.meas.m
    out = np.add(raw.T.conj(), 0, order="C")
    pos = np.arange(idx.size)
    np.add(raw, np.conj(raw.dtype.type()), out=out, where=pos[:, None] < pos)
    np.fill_diagonal(out, raw.diagonal().real)
    return out


def matvec(op: SpectrumOperator, v) -> np.ndarray:
    """Z v = (1/m) sum_i w_i (a_i* v) a_i, exploiting the sparsity of v.

    Cost O(m (||v||_0 + n)): the inner products touch only the nonzero
    coordinates of v, the rank-one accumulation is a dense m x n product.
    An n x c block v costs one such pass, as two GEMMs, for all c columns.
    """
    v = np.asarray(v, dtype=complex)
    a = op.meas.sensing
    if v.ndim not in (1, 2) or v.shape[0] != op.meas.n:
        raise ValueError(f"expected a length-{op.meas.n} vector or n x c block, got shape {v.shape}")
    nz = np.flatnonzero(v if v.ndim == 1 else v.any(axis=1))
    coeffs = a[:, nz].conj() @ v[nz]
    weights = op.weights if v.ndim == 1 else op.weights[:, None]
    return a.T @ (weights * coeffs) / op.meas.m


def expectation_oracle(x: SparseSignal) -> np.ndarray:
    """Mean of the exponential spectrum built with true-norm weights:
    x x* / (4 ||x||^2), a rank-one Hermitian matrix with trace 1/4.

    Test-only helper; intended for small n.
    """
    return np.outer(x.vector, x.vector.conj()) / (4.0 * x.norm_sq)
