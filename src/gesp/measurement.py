"""Complex Gaussian sensing ensembles and phaseless observations.

A MeasurementSet bundles the m sensing rows a_i, the moduli y_i = |a_i* x|,
the energy estimate lambda_sq = mean(y^2), and the entrywise |a_ij|^2 that
every spectrum diagonal reads.  Sets are immutable after construction and
safe to share across threads.  An optional little-endian binary dump/load
exists for reproducibility debugging.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .signals import SparseSignal

_MAGIC = b"SPRM1"


@dataclass(frozen=True)
class MeasurementSet:
    sensing: np.ndarray  # m x n complex, row i = a_i
    y: np.ndarray        # m non-negative moduli |a_i* x|
    lambda_sq: float     # mean of y^2
    abs_sq: np.ndarray = field(init=False, repr=False, compare=False)  # m x n |a_ij|^2

    def __post_init__(self):
        if self.sensing.ndim != 2:
            raise ValueError("sensing must be an m x n array")
        if self.y.shape != (self.sensing.shape[0],):
            raise ValueError("y length must match the sensing row count")
        if not np.isfinite(self.sensing).all():
            raise ValueError("sensing has non-finite entries")
        if not np.isfinite(self.y).all():
            raise ValueError("y has non-finite entries")
        if (self.y < 0).any():
            raise ValueError("y has negative entries; moduli must be non-negative")
        if not (math.isfinite(self.lambda_sq) and self.lambda_sq >= 0):
            raise ValueError(f"lambda_sq must be finite and non-negative, got {self.lambda_sq}")
        object.__setattr__(self, "abs_sq", self.sensing.real**2 + self.sensing.imag**2)

    @property
    def m(self) -> int:
        return self.sensing.shape[0]

    @property
    def n(self) -> int:
        return self.sensing.shape[1]


def sample_sensing(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """m x n i.i.d. standard complex Gaussian rows: real and imaginary
    parts independent N(0, 1/2), drawn in that order, so E|a_ij|^2 = 1."""
    if n < 1 or m < 1:
        raise ValueError(f"need m, n >= 1, got m={m}, n={n}")
    sensing = np.empty((m, n), dtype=complex)
    for part in (sensing.real, sensing.imag):
        np.multiply(rng.standard_normal((m, n)), math.sqrt(0.5), out=part)
    return sensing


def measure(x: SparseSignal, sensing: np.ndarray) -> MeasurementSet:
    """Phaseless observations y_i = |a_i* x| and their mean square."""
    sensing = np.asarray(sensing, dtype=complex)
    if sensing.ndim != 2 or sensing.shape[1] != x.n:
        raise ValueError(f"sensing must be m x {x.n}, got {sensing.shape}")
    y = np.abs(sensing[:, x.support].conj() @ x.vector[x.support])
    return MeasurementSet(sensing=sensing, y=y, lambda_sq=float(np.mean(y**2)))


def save_measurements(meas: MeasurementSet, path) -> None:
    """Binary dump: magic "SPRM1", n and m as little-endian u64, then the
    sensing rows in row-major (re, im) f64 pairs, then y as f64."""
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<QQ", meas.n, meas.m))
        f.write(np.ascontiguousarray(meas.sensing).astype("<c16").tobytes())
        f.write(np.ascontiguousarray(meas.y).astype("<f8").tobytes())


def load_measurements(path) -> MeasurementSet:
    """Read a dump written by save_measurements.  The file must be exactly
    the size its header declares: a shorter one is a truncated file, a
    longer one has trailing bytes after y."""
    with open(path, "rb") as f:
        blob = f.read()
    magic = blob[:len(_MAGIC)]
    if magic != _MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}, expected {_MAGIC!r}")
    header = len(_MAGIC) + 16
    if len(blob) < header:
        raise ValueError(f"{path}: truncated file: expected at least {header} bytes of header, got {len(blob)}")
    n, m = struct.unpack_from("<QQ", blob, len(_MAGIC))
    if n < 1 or m < 1:
        raise ValueError(f"{path}: header gives n={n}, m={m}; both must be >= 1")
    expected = header + 16 * m * n + 8 * m
    if len(blob) < expected:
        raise ValueError(f"{path}: truncated file: expected {expected} bytes for n={n}, m={m}, got {len(blob)}")
    if len(blob) > expected:
        raise ValueError(
            f"{path}: {len(blob) - expected} trailing bytes after y: "
            f"expected {expected} bytes for n={n}, m={m}, got {len(blob)}"
        )
    sensing = np.frombuffer(blob, dtype="<c16", count=m * n, offset=header).reshape(m, n).astype(complex)
    y = np.frombuffer(blob, dtype="<f8", count=m, offset=header + 16 * m * n).astype(float)
    return MeasurementSet(sensing=sensing, y=y, lambda_sq=float(np.mean(y**2)))
