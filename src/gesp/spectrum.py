"""Matrix-free weighted outer-product spectrum Z = (1/m) sum_i w_i a_i a_i*.

The weights are a MeasurementSet's, one vector per weighting: exponential,
w_i = 1/2 - exp(-y_i^2 / lambda_sq), for the pursuit, and quadratic,
w_i = y_i^2, for the prior two-step method.  Z is never an n x n array on
the algorithm path: the solver needs only its diagonal (the set's sum of one
product per block of sensing rows), small principal submatrices, and products
with sparse vectors.  Results are bit-identical across runs on one numpy/BLAS
build and BLAS thread count; the summation order (and so the last bit)
depends on the build, its CPU kernel, the operands' memory layout and, for
products as large as n = 1000, that count.
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
    Its strict upper triangle (`triu`) plus that triangle's conjugate transpose,
    with the diagonal forced real, is Hermitian to the last bit.
    """
    idx = np.asarray(indices, dtype=int)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("index set must be non-empty")
    b = op.meas.sensing[:, idx]
    raw = (b * op.weights[:, None]).T @ b.conj()
    raw /= op.meas.m
    out = np.triu(raw, 1)
    out += out.T.conj()
    np.fill_diagonal(out, raw.diagonal().real)
    return out


def matvec(op: SpectrumOperator, v) -> np.ndarray:
    """Z v = (1/m) sum_i w_i (a_i* v) a_i, exploiting the sparsity of v.

    Cost O(m (||v||_0 + n)): the inner products touch only the nonzero
    coordinates of v, the rank-one accumulation is a dense m x n product.
    """
    v = np.asarray(v, dtype=complex)
    a = op.meas.sensing
    if v.shape != (op.meas.n,):
        raise ValueError(f"expected a length-{op.meas.n} vector, got shape {v.shape}")
    nz = np.flatnonzero(v)
    return a.T @ (op.weights * (a[:, nz].conj() @ v[nz])) / op.meas.m


def expectation_oracle(x: SparseSignal) -> np.ndarray:
    """Mean of the exponential spectrum built with true-norm weights:
    x x* / (4 ||x||^2), a rank-one Hermitian matrix with trace 1/4.

    Dense n x n, so intended for small n: `gesp oracle` and the tests use it.
    """
    return np.outer(x.vector, x.vector.conj()) / (4.0 * x.norm_sq)
