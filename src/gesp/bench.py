"""Deterministic Monte Carlo benchmark harness.

A sweep walks a grid of sampling ratios; every trial derives its own RNG
stream from (base_seed, ratio_index, trial_index) via splitmix64, generates
one signal and one measurement set, and feeds the *same* measurements to
every configured algorithm (paired comparison).  Records come out in
(ratio_index, trial_index, algorithm order), so on one numpy/BLAS build the
output is byte-identical whatever the `threads` setting, with BLAS pinned to
one thread at `threads: 1` (float columns can differ in the last bit between
builds and BLAS thread counts; see spectrum).

Wall-clock timing is off by default for exactly that reason; set
record_runtime in the config to populate the runtime_ms column (which then
breaks byte-for-byte reproducibility between runs).
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from dataclasses import dataclass, fields
from itertools import product

import numpy as np

from .baselines import BASELINE_KINDS, TPM_ITERS, diag_two_step_init, esp_init, truncated_power_init
from .measurement import MeasurementSet, measure, sample_sensing
from .numerics import relative_error
from .pursuit import STRATEGY_KINDS, InitEstimate, PStrategy, gesp
from .signals import SignalModelSpec, SparseSignal, generate

SCHEMA_VERSION = 1

_MASK64 = (1 << 64) - 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")  # read as numpy loads
_ENVIRON_LOCK = threading.Lock()  # held while a threaded sweep has BLAS_THREAD_VARS at 1 in os.environ


class ConfigError(ValueError):
    """Invalid benchmark configuration (maps to CLI exit code 1)."""


def splitmix64(x: int) -> int:
    """First output of the splitmix64 generator seeded at x."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def trial_seed(base_seed: int, ratio_index: int, trial_index: int) -> int:
    """Per-trial stream seed; indices only, so scheduling cannot matter."""
    h = splitmix64(base_seed & _MASK64)
    h = splitmix64((h + ratio_index) & _MASK64)
    return splitmix64((h + trial_index) & _MASK64)


@dataclass(frozen=True)
class AlgorithmSpec:
    """One configured algorithm: the pursuit with a strategy, or a baseline."""

    name: str                        # gesp | esp | diag_two_step | truncated_power
    strategy: PStrategy | None = None  # gesp only
    iters: int = TPM_ITERS           # truncated_power only

    def __post_init__(self):
        if self.name != "gesp" and self.name not in BASELINE_KINDS:
            raise ConfigError(f"unknown algorithm {self.name!r}")
        if (self.strategy is None) == (self.name == "gesp"):
            raise ConfigError(f"a strategy is for gesp only, and gesp needs one; got {self.strategy} for {self.name!r}")
        if self.iters != TPM_ITERS and self.name != "truncated_power":  # it would be ignored
            raise ConfigError(f"iters is only valid for truncated_power, not {self.name!r}")
        if isinstance(self.iters, bool) or not isinstance(self.iters, (int, np.integer)) or self.iters < 1:
            raise ConfigError(f"iters must be an integer >= 1, got {self.iters!r}")

    @property
    def strategy_label(self) -> str:
        return self.strategy.kind if self.name == "gesp" else ""


def entry_label(algorithm: str, strategy) -> str:
    """How messages, `gesp single` and the plot data name an entry: `gesp fixed`, or a baseline's name."""
    return f"{algorithm} {strategy}" if algorithm == "gesp" else algorithm


@dataclass(frozen=True)
class BenchConfig:
    """One sweep's settings, checked and resolved to ratio_grid on construction: n and k come from the signal,
    `ratios` and `algorithms` are read once into tuples (not from a str or dict), numbers may be numpy scalars."""

    ratios: tuple[float, ...]
    trials: int
    base_seed: int
    signal: SignalModelSpec
    algorithms: tuple[AlgorithmSpec, ...]
    threads: int = 1
    out_path: str = "results.csv"
    record_runtime: bool = False

    def __post_init__(self):
        for name in ("trials", "base_seed", "threads"):  # an integral float becomes its int
            object.__setattr__(self, name, _int(getattr(self, name), name))
        if not isinstance(self.record_runtime, bool):
            raise ConfigError(f"record_runtime must be true or false, got {self.record_runtime!r}")
        if not isinstance(self.out_path, str):
            raise ConfigError(f"out_path must be a string, got {self.out_path!r}")
        if not 0 <= self.base_seed <= _MASK64:
            raise ConfigError(f"base_seed {self.base_seed} outside [0, 2^64)")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        if not isinstance(self.signal, SignalModelSpec):
            raise ConfigError(f"signal must be a SignalModelSpec, got {self.signal!r}")
        for name, noun in (("ratios", "ratio"), ("algorithms", "algorithm")):  # each read once: an iterator is spent
            try:  # tuple() splits a string and keeps a dict's keys: both are refused as if it could not iterate them
                if isinstance(value := getattr(self, name), (str, dict)):
                    raise TypeError
                object.__setattr__(self, name, tuple(value))
            except TypeError as exc:
                raise ConfigError(f"{name} must be a JSON array, got {value!r}") from exc
            if not getattr(self, name):
                raise ConfigError(f"at least one {noun} is required")
        object.__setattr__(self, "ratios", tuple(_float(r, f"ratios[{i}]") for i, r in enumerate(self.ratios)))
        grid, labels = {}, {}  # m -> its first ratio; the entry_label of (name, strategy_label) -> its index
        for ratio in self.ratios:
            if not 0.0 < ratio <= 2.0:
                raise ConfigError(f"ratio {ratio} outside (0, 2]")
            if (m := round(ratio * self.n)) < 1:
                raise ConfigError(f"ratio {ratio} resolves to m = 0 at n = {self.n}")
            grid.setdefault(m, ratio)
        object.__setattr__(self, "ratio_grid", tuple((r, m) for m, r in grid.items()))  # not a field: outside eq, repr
        for i, algo in enumerate(self.algorithms):
            if not isinstance(algo, AlgorithmSpec):
                raise ConfigError(f"algorithms[{i}] must be an AlgorithmSpec, got {algo!r}")
            if algo.strategy and (algo.strategy.p or 0) > self.k:  # gesp would flag every record of the entry
                raise ConfigError(f"algorithms[{i}].p = {algo.strategy.p} exceeds k = {self.k}")
            if (first := labels.setdefault(label := entry_label(algo.name, algo.strategy_label), i)) != i:
                raise ConfigError(f"algorithms[{first}] and algorithms[{i}] are both {label}")

    @property
    def n(self) -> int:
        return self.signal.n

    @property
    def k(self) -> int:
        return self.signal.k

    def grid_index(self, ratio: float) -> int:  # where a configured ratio runs: a repeated m as its first ratio
        if ratio not in self.ratios:
            raise ConfigError(f"ratio {ratio} is not one of the config's ratios")
        return [m for _, m in self.ratio_grid].index(round(ratio * self.n))

    def resolved_ratios(self) -> list[tuple[float, int]]:
        """The ratio grid as a list."""
        return list(self.ratio_grid)


@dataclass(frozen=True)
class TrialRecord:
    signal_model: str
    algorithm: str
    strategy: str
    n: int
    k: int
    m: int
    ratio: float
    trial_index: int
    seed: int
    p_used: int
    relative_error: float
    raw_error: float
    support_fraction: float
    runtime_ms: float
    error_flag: int


CSV_COLUMNS = tuple(field.name for field in fields(TrialRecord))  # declaration order


@dataclass(frozen=True)
class AggregateStats:
    mean_rel_err: float
    sd_rel_err: float
    mean_support_frac: float
    count: int


# n and k sit at the top level, not in the signal object
_TOP_KEYS = ("schema_version", "n", "k", *(field.name for field in fields(BenchConfig)))
_SIGNAL_KEYS = tuple(field.name for field in fields(SignalModelSpec) if field.name not in ("n", "k"))
# The keys an algorithm entry may carry, by the label the loader's messages print; see _parse_algorithm's default.
_ENTRY_KEYS = {
    "gesp fixed": ("algorithm", "strategy", "p"),
    "gesp known_structure": ("algorithm", "strategy", "variant"),
    "truncated_power": ("algorithm", "iters"),
}


def _check_keys(raw, allowed, where: str) -> None:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object, got {raw!r}")
    unknown = [key for key in raw if key not in allowed]
    if unknown:
        raise ConfigError(
            f"unknown key {', '.join(map(repr, unknown))} in {where}; expected one of {', '.join(allowed)}"
        )


def _int(value, where: str) -> int:
    """An integer, a numpy one or an integral float: a bool or a non-integral number is not one."""
    integral = isinstance(value, (int, np.integer)) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _float(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return float(value)


def _parse_algorithm(entry, where: str) -> AlgorithmSpec:
    if not isinstance(entry, dict) or "algorithm" not in entry:
        raise ConfigError(f"{where} must be an object with an 'algorithm' key: {entry!r}")
    name, kind = entry["algorithm"], entry.get("strategy")
    if name != "gesp" and name not in BASELINE_KINDS:
        raise ConfigError(f"unknown algorithm {name!r} in {where}")
    label = entry_label(name, kind)  # a string, whatever JSON type the strategy has
    default = ("algorithm", "strategy") if name == "gesp" else ("algorithm",)
    if name != "gesp" or kind in STRATEGY_KINDS:  # an unknown strategy: PStrategy names it, whatever its keys
        _check_keys(entry, _ENTRY_KEYS.get(label, default), f"{where} ({label})")
    try:
        p = _int(entry["p"], f"{where}.p") if "p" in entry else None
        strategy = PStrategy(kind, p, entry.get("variant", PStrategy.variant)) if name == "gesp" else None
        iters = _int(entry.get("iters", AlgorithmSpec.iters), f"{where}.iters")
        return AlgorithmSpec(name=name, strategy=strategy, iters=iters)
    except ValueError as exc:  # ConfigError is one too
        raise ConfigError(f"bad algorithm entry {where} {entry!r}: {exc}") from exc


def load_config(path) -> BenchConfig:
    """Parse and validate a JSON benchmark configuration."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> BenchConfig:
    """Validate a parsed config.  Every key must be known where it sits (the top level, `signal`,
    `algorithms[i]`) and `signal.decay` beside exp_decay only; the constructors check the values, and the
    shape of `ratios` and `algorithms`, as they check a hand-built config's.  Each error names the offending
    key.  `n` and `k` go to the signal; a missing optional key takes the default of its dataclass field."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    version = raw.get("schema_version")
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r}; expected {SCHEMA_VERSION}")
    _check_keys(raw, _TOP_KEYS, "the top level")
    try:
        n = _int(raw["n"], "n")
        k = _int(raw["k"], "k")
        sig_raw = raw["signal"]
        _check_keys(sig_raw, _SIGNAL_KEYS, "signal")
        model = sig_raw["model"]
        if "decay" in sig_raw and model != "exp_decay":  # even at its default, which generate would ignore
            raise ConfigError(f"signal.decay is only valid for the exp_decay model, not {model!r}")
        signal = SignalModelSpec(model, n, k, _float(sig_raw.get("decay", SignalModelSpec.decay), "signal.decay"))
        return BenchConfig(
            ratios=raw["ratios"],
            trials=raw["trials"],
            base_seed=raw["base_seed"],
            signal=signal,
            algorithms=[_parse_algorithm(a, f"algorithms[{i}]") for i, a in enumerate(raw["algorithms"])]
            if isinstance(raw["algorithms"], list) else raw["algorithms"],  # BenchConfig refuses any other by name
            **{key: raw[key] for key in ("threads", "out_path", "record_runtime") if key in raw},
        )
    except KeyError as exc:
        raise ConfigError(f"config is missing required key {exc}") from exc
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc


def build_trial_instance(
    config: BenchConfig, ratio_index: int, trial_index: int
) -> tuple[int, SparseSignal, MeasurementSet]:
    """Signal and measurements for one trial, shared by all algorithms."""
    if not (0 <= ratio_index < len(config.ratio_grid) and 0 <= trial_index < config.trials):
        raise ConfigError(f"ratio index {ratio_index} and trial index {trial_index}: the sweep has ratio "
                          f"indices [0, {len(config.ratio_grid)}) and trial indices [0, {config.trials})")
    ratio, m = config.ratio_grid[ratio_index]
    seed = trial_seed(config.base_seed, ratio_index, trial_index)
    rng = np.random.default_rng(seed)
    sig = generate(config.signal, rng)
    meas = measure(sig, sample_sensing(config.n, m, rng))
    return seed, sig, meas


def run_algorithm(algo: AlgorithmSpec, meas: MeasurementSet, k: int, sig: SparseSignal) -> InitEstimate:
    if algo.name == "gesp":
        return gesp(meas, k, algo.strategy, true_profile=sig.profile)
    if algo.name == "esp":
        return esp_init(meas, k)
    if algo.name == "diag_two_step":
        return diag_two_step_init(meas, k)
    return truncated_power_init(meas, k, algo.iters)


def run_entry(algo: AlgorithmSpec, meas: MeasurementSet, sig: SparseSignal,
              record_runtime: bool = False) -> tuple[dict, InitEstimate | None]:
    """One entry's TrialRecord columns past the trial's seven shared ones, and its
    estimate: error_flag 1, NaN scores and None if it raised.  Timed if record_runtime."""
    clock = time.perf_counter if record_runtime else lambda: 0.0
    columns = dict(algorithm=algo.name, strategy=algo.strategy_label)
    start = clock()
    try:
        est = run_algorithm(algo, meas, sig.k, sig)
        columns["runtime_ms"] = (clock() - start) * 1e3
        overlap = np.intersect1d(est.support, sig.support, assume_unique=True).size  # two index sets
        columns.update(p_used=est.p_used, relative_error=relative_error(est.z, sig.vector), error_flag=0,
                       raw_error=float(np.linalg.norm(est.z - sig.vector)) / float(np.linalg.norm(sig.vector)),
                       support_fraction=overlap / sig.k)
        return columns, est
    except Exception:
        columns.update(runtime_ms=(clock() - start) * 1e3, p_used=0, relative_error=math.nan, raw_error=math.nan,
                       support_fraction=math.nan, error_flag=1)
        return columns, None


def _run_trial(config: BenchConfig, ratio_index: int, trial_index: int) -> list[TrialRecord]:
    seed, sig, meas = build_trial_instance(config, ratio_index, trial_index)
    shared = dict(signal_model=config.signal.model, n=config.n, k=config.k, m=meas.m,
                  ratio=config.ratio_grid[ratio_index][0], trial_index=trial_index, seed=seed)
    return [TrialRecord(**shared, **run_entry(algo, meas, sig, config.record_runtime)[0])
            for algo in config.algorithms]


def run_sweep(config: BenchConfig) -> list[TrialRecord]:
    """All (ratio, trial, algorithm) records in deterministic order.  With
    `threads` above 1 the trials run in that many spawned processes, which
    start with SIGINT blocked (or ignored) and BLAS_THREAD_VARS at 1: os.environ
    holds those until the pool is done, so threaded sweeps run one at a time."""
    tasks = product(range(len(config.ratio_grid)), range(config.trials))
    if config.threads == 1:  # _run_trial is looked up per call, so a patched one is the one run
        return [record for task in tasks for record in _run_trial(config, *task)]  # algorithms in config order
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
    from multiprocessing import get_context
    import signal
    sigmask = getattr(signal, "pthread_sigmask", None)  # where it is missing, a worker ignores SIGINT once initialised
    with _ENVIRON_LOCK:  # via os.environ: a worker re-runs a script caller's imports before any initializer
        caller = {var: os.environ[var] for var in BLAS_THREAD_VARS if var in os.environ}
        try:  # a Ctrl-C reaches the caller alone, which lets the running trials finish
            os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
            with ProcessPoolExecutor(config.threads, get_context("spawn"), signal.signal,
                                     (signal.SIGINT, signal.SIG_IGN)) as pool:
                futures = []
                for task in tasks:  # a worker spawned by a submit inherits its SIGINT block, as in resource_tracker
                    caller_mask = sigmask and sigmask(signal.SIG_BLOCK, {signal.SIGINT})
                    try:
                        futures.append(pool.submit(_run_trial, config, *task))
                    finally:
                        if sigmask:
                            sigmask(signal.SIG_SETMASK, caller_mask)
                    if len(futures) > config.threads + 1:  # at most threads + 2 out, so a raise or Ctrl-C stops soon
                        futures[-config.threads - 2].result()  # raises if that trial did
                return [record for future in futures for record in future.result()]
        except BrokenProcessPool as exc:
            raise RuntimeError("a sweep worker exited early; one cause is a script that starts a threaded sweep "
                               "outside `if __name__ == \"__main__\":`, as each worker imports it again") from exc
        finally:
            for var in BLAS_THREAD_VARS:
                os.environ.pop(var, None)
            os.environ.update(caller)


def aggregate(records) -> dict[tuple[str, str, float], AggregateStats]:
    """Per-(algorithm, strategy, ratio) statistics over non-error records.

    Standard deviations are population style (a single record gives 0).
    """
    records = list(records)
    if not records:
        raise ValueError("cannot aggregate an empty record list")
    groups: dict[tuple[str, str, float], list[TrialRecord]] = {}
    for rec in records:
        if rec.error_flag:
            continue
        groups.setdefault((rec.algorithm, rec.strategy, rec.ratio), []).append(rec)
    out = {}
    for key, recs in groups.items():
        rel = np.array([r.relative_error for r in recs])
        sup = np.array([r.support_fraction for r in recs])
        out[key] = AggregateStats(
            mean_rel_err=float(rel.mean()),
            sd_rel_err=float(rel.std()),
            mean_support_frac=float(sup.mean()),
            count=len(recs),
        )
    return out


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_csv(records, path) -> None:
    """Records CSV with one column per TrialRecord field, 17-significant-digit
    floats, and LF newlines."""
    try:
        with open(path, "w", newline="\n") as f:
            f.write(",".join(CSV_COLUMNS) + "\n")
            for rec in records:
                values = (getattr(rec, name) for name in CSV_COLUMNS)
                f.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in values) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing records to {path}: {exc}") from exc


def write_plot_data(agg: dict[tuple[str, str, float], AggregateStats], path) -> None:
    """Gnuplot-style blocks, one per entry (algorithm and strategy), headed by
    its entry_label: columns are ratio, mean relative error, its sd, and mean
    support fraction; ratios ascending; blocks separated by blank lines."""
    blocks: dict[tuple[str, str], list[tuple[float, AggregateStats]]] = {}
    for (algorithm, strategy, ratio), stats in agg.items():
        blocks.setdefault((algorithm, strategy), []).append((ratio, stats))
    try:
        with open(path, "w", newline="\n") as f:
            for bi, ((algorithm, strategy), rows) in enumerate(blocks.items()):
                if bi:
                    f.write("\n")
                f.write(f"# {entry_label(algorithm, strategy)}: ratio mean_rel_err sd_rel_err mean_support_frac\n")
                for ratio, stats in sorted(rows, key=lambda item: item[0]):
                    f.write(" ".join((
                        _fmt(ratio), _fmt(stats.mean_rel_err),
                        _fmt(stats.sd_rel_err), _fmt(stats.mean_support_frac),
                    )) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing plot data to {path}: {exc}") from exc
