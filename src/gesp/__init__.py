"""Sparse phase retrieval initialization via a generalized exponential
spectrum, with baseline initializers and a Monte Carlo benchmark harness."""

from .baselines import diag_two_step_init, esp_init, truncated_power_init
from .bench import (
    AlgorithmSpec,
    BenchConfig,
    TrialRecord,
    aggregate,
    load_config,
    run_sweep,
    write_csv,
    write_plot_data,
)
from .eigensolver import max_eigvec
from .measurement import MeasurementSet, load_measurements, measure, sample_sensing, save_measurements
from .numerics import (
    MagnitudeProfile,
    dist,
    magnitude_profile,
    p_objective,
    p_opt,
    relative_error,
    structure_function,
    top_k_indices,
)
from .pursuit import InitEstimate, PStrategy, gesp, residual_score
from .signals import SignalModelSpec, SparseSignal, generate, sample_support
from .spectrum import (
    SpectrumOperator,
    build as build_spectrum,
    diagonal,
    expectation_oracle,
    matvec,
    submatrix,
)

__version__ = "0.1.0"
