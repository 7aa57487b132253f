"""Complex Gaussian sensing ensembles and phaseless observations.

A MeasurementSet is built from the sensing rows a_i and the moduli
y_i = |a_i* x| alone; it derives lambda_sq = mean(y^2) and, per spectrum
weighting, the weights w_i and the diagonal (1/m) sum_i w_i |a_ij|^2.  It
holds its 16*m*n-byte sensing matrix plus O(m + n); building or sampling one
adds two blocks of about 1 MB.  Sets are immutable and thread-safe.  A binary
little-endian dump, for debugging, loads into one copy and saves from none.
row_products is the one map v -> (a_i* v)_i: measure, residual_score, matvec.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .signals import SparseSignal

_MAGIC = b"SPRM1"
WEIGHTINGS = ("exponential", "quadratic")


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    sensing: np.ndarray  # m x n complex, row i = a_i
    y: np.ndarray        # m non-negative moduli |a_i* x|
    lambda_sq: float = field(init=False)  # mean of y^2
    weights: dict[str, np.ndarray] = field(init=False, repr=False)    # kind -> m w_i, read-only
    diagonals: dict[str, np.ndarray] = field(init=False, repr=False)  # kind -> n entries, read-only

    def __post_init__(self):
        if not np.issubdtype(self.sensing.dtype, np.inexact):
            raise ValueError(f"sensing must be floating or complex, got dtype {self.sensing.dtype}")
        if not np.issubdtype(self.y.dtype, np.floating):  # an integer y**2 wraps, not overflows
            raise ValueError(f"y must be floating, got dtype {self.y.dtype}")
        if self.sensing.ndim != 2 or 0 in self.sensing.shape:  # before any arithmetic on m or n
            raise ValueError(f"sensing must be an m x n array with m, n >= 1, got shape {self.sensing.shape}")
        if self.y.shape != (self.sensing.shape[0],):
            raise ValueError(f"y must have shape ({self.m},), one modulus per sensing row, got {self.y.shape}")
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below and in spectrum.build
            y_sq = self.y**2
            object.__setattr__(self, "lambda_sq", float(np.mean(y_sq)))
            weights = {"exponential": 0.5 - np.exp(-y_sq / self.lambda_sq), "quadratic": y_sq}
        rows = max(1, 2**17 // self.n)  # a block of about 1 MB
        sq = np.empty((min(rows, self.m), self.n), dtype=self.sensing.real.dtype)
        im_sq = np.empty_like(sq)
        diagonals = {kind: np.zeros(self.n, np.result_type(w, sq)) for kind, w in weights.items()}
        for start in range(0, self.m, rows):
            block = self.sensing[start:start + rows]
            part = np.square(block.real, out=sq[:len(block)])
            part += np.square(block.imag, out=im_sq[:len(block)])  # the roundings of re^2 + im^2
            if not np.isfinite(part.max()) and not np.isfinite(block).all():  # a finite entry can square to inf
                raise ValueError("sensing has non-finite entries")  # checked before y
            for kind, w in weights.items():
                diagonals[kind] += w[start:start + rows] @ part
        if not np.isfinite(self.y).all():
            raise ValueError("y has non-finite entries")
        if (self.y < 0).any():
            raise ValueError("y has negative entries; moduli must be non-negative")
        if not math.isfinite(self.lambda_sq):
            raise ValueError(f"lambda_sq = mean(y^2) must be finite, got {self.lambda_sq}")
        diagonals = {kind: d / self.m for kind, d in diagonals.items()}
        for array in (*weights.values(), *diagonals.values()):
            array.flags.writeable = False
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "diagonals", diagonals)

    @property
    def m(self) -> int:
        return self.sensing.shape[0]

    @property
    def n(self) -> int:
        return self.sensing.shape[1]


def sample_sensing(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """m x n i.i.d. standard complex Gaussian rows, E|a_ij|^2 = 1: independent N(0, 1/2)
    real then imaginary parts, the stream of one m x n draw each, drawn a block at a time."""
    if n < 1 or m < 1:
        raise ValueError(f"need m, n >= 1, got m={m}, n={n}")
    sensing = np.empty((m, n), dtype=complex)
    rows = max(1, 2**17 // n)  # a block of about 1 MB, reused
    draws = np.empty((min(rows, m), n))
    for part in (sensing.real, sensing.imag):
        for out in (part[start:start + rows] for start in range(0, m, rows)):
            np.multiply(rng.standard_normal(out=draws[:len(out)]), math.sqrt(0.5), out=out)
    return sensing


def row_products(sensing: np.ndarray, v) -> np.ndarray:
    """The m products a_i* v, over the nonzero coordinates of the length-n vector v."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (sensing.shape[1],):
        raise ValueError(f"expected a length-{sensing.shape[1]} vector, got shape {v.shape}")
    nz = np.flatnonzero(v)
    return sensing[:, nz].conj() @ v[nz]


def measure(x: SparseSignal, sensing: np.ndarray) -> MeasurementSet:
    """Phaseless observations y_i = |a_i* x|."""
    sensing = np.asarray(sensing, dtype=complex)
    if sensing.ndim != 2 or sensing.shape[1] != x.n:
        raise ValueError(f"sensing must be m x {x.n}, got {sensing.shape}")
    return MeasurementSet(sensing=sensing, y=np.abs(row_products(sensing, x.vector)))


def sensing_layout(sensing) -> np.ndarray:
    """The sensing matrix as a dump stores it (row-major <c16), uncopied if it is so already."""
    return np.ascontiguousarray(sensing, dtype="<c16")


def save_measurements(meas: MeasurementSet, path) -> None:
    """Binary dump: magic "SPRM1", n and m as little-endian u64, then the
    sensing rows in row-major (re, im) f64 pairs, then y as f64."""
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<QQ", meas.n, meas.m))
        f.write(sensing_layout(meas.sensing))
        f.write(np.ascontiguousarray(meas.y, dtype="<f8"))


def load_measurements(path) -> MeasurementSet:
    """Read a dump written by save_measurements.  The file must be exactly
    the size its header declares: a shorter one is a truncated file, a
    longer one has trailing bytes after y.  The arrays are read straight
    into aligned buffers, so the sensing matrix is held once."""
    header = len(_MAGIC) + 16
    with open(path, "rb") as f:
        head = f.read(header)
        size = os.fstat(f.fileno()).st_size
        magic = head[:len(_MAGIC)]
        if magic != _MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {_MAGIC!r}")
        if size < header:
            raise ValueError(f"{path}: truncated file: expected at least {header} bytes of header, got {size}")
        n, m = struct.unpack_from("<QQ", head, len(_MAGIC))
        if n < 1 or m < 1:
            raise ValueError(f"{path}: header gives n={n}, m={m}; both must be >= 1")
        expected = header + 16 * m * n + 8 * m
        if size < expected:
            raise ValueError(f"{path}: truncated file: expected {expected} bytes for n={n}, m={m}, got {size}")
        if size > expected:
            raise ValueError(
                f"{path}: {size - expected} trailing bytes after y: "
                f"expected {expected} bytes for n={n}, m={m}, got {size}"
            )
        sensing, y = np.empty((m, n), dtype="<c16"), np.empty(m, dtype="<f8")
        if f.readinto(sensing) + f.readinto(y) != expected - header:
            raise ValueError(f"{path}: truncated file: it shrank while being read")
    return MeasurementSet(sensing=sensing, y=y)
