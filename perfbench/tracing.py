"""Spans around calls into gesp's modules, recorded from outside the program.

`Tracer.install()` replaces each traced function with a wrapper in every
gesp module that binds it (`from ... import` copies a binding into the
importing module, so wrapping the defining module alone would miss calls);
`uninstall()` puts the originals back.  A span's self time is its duration
minus the durations of the wrapped calls made inside it on the same thread.
Spans are aggregated in memory as they close.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict

from gesp import baselines, bench, eigensolver, measurement, numerics, pursuit, signals, spectrum

TRIAL = "bench._run_trial"
SWEEP = "bench.run_sweep"

# span name -> (module, attribute).  bench._run_trial is the one private
# name: run_sweep hands each (ratio, trial) task to it, serially or on a
# pool thread, so its spans are the trials.
TARGETS = {
    SWEEP: (bench, "run_sweep"),
    TRIAL: (bench, "_run_trial"),
    "bench.build_trial_instance": (bench, "build_trial_instance"),
    "bench.run_algorithm": (bench, "run_algorithm"),
    "signals.generate": (signals, "generate"),
    "measurement.sample_sensing": (measurement, "sample_sensing"),
    "measurement.measure": (measurement, "measure"),
    "spectrum.build": (spectrum, "build"),
    "spectrum.diagonal": (spectrum, "diagonal"),
    "spectrum.submatrix": (spectrum, "submatrix"),
    "spectrum.matvec": (spectrum, "matvec"),
    "eigensolver.max_eigvec": (eigensolver, "max_eigvec"),
    "numerics.top_k_indices": (numerics, "top_k_indices"),
    "numerics.relative_error": (numerics, "relative_error"),
    "pursuit.gesp": (pursuit, "gesp"),
    "pursuit.residual_score": (pursuit, "residual_score"),
    "baselines.esp_init": (baselines, "esp_init"),
    "baselines.diag_two_step_init": (baselines, "diag_two_step_init"),
    "baselines.truncated_power_init": (baselines, "truncated_power_init"),
}

ALGORITHM_LABELS = (
    "gesp-known_structure", "gesp-sqrt_k", "gesp-full_k", "gesp-ensemble",
    "esp", "diag_two_step", "truncated_power",
)


def algorithm_label(algo) -> str:
    return f"gesp-{algo.strategy.kind}" if algo.name == "gesp" else algo.name


class Tracer:
    """Per-name call counts, total and self seconds, and layer counters."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for table in (self.calls, self.total_s, self.self_s, self.counters):
            table.clear()

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "gesp" or name.startswith("gesp.")]
        for name, (module, attr) in TARGETS.items():
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    def _wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            frame = [name, 0.0]  # [span name, seconds in wrapped children]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
            tracer._record(name, args, result, duration, duration - frame[1], stack)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _record(self, name, args, result, duration, self_time, stack) -> None:
        extra = {}
        if name == "bench.run_algorithm":
            extra[f"{name}.{algorithm_label(args[0])}"] = duration
        counts = {}
        if name == "eigensolver.max_eigvec":
            # a solver that reports no iteration count counts as 0 iterations
            iterations = getattr(result, "iterations", 0)
            counts["eigensolver.max_eigvec.iterations"] = iterations
            # the power iteration runs to its cap of 10 d + 500 before it calls eigh
            counts["eigensolver.max_eigvec.fallbacks"] = int(iterations >= 10 * len(args[0]) + 500)
        elif name == "spectrum.diagonal":
            counts["spectrum.diagonal.bytes"] = args[0].meas.sensing.nbytes
        elif name == "measurement.sample_sensing":
            counts["measurement.sample_sensing.bytes"] = result.nbytes
        elif name == "spectrum.matvec" and any(f[0] == "baselines.truncated_power_init" for f in stack):
            counts["baselines.truncated_power_init.matvecs"] = 1
        with self._lock:
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += self_time
            for key, value in extra.items():
                self.total_s[key] += value
            for key, value in counts.items():
                self.counters[key] += value


def per_layer(tracer: Tracer, trials: int, threads: int) -> dict[str, float]:
    """The per-layer metrics of one traced round, per trial unless named."""
    calls, self_s, total_s, counters = tracer.calls, tracer.self_s, tracer.total_s, tracer.counters

    def ms(name):
        return self_s[name] * 1e3 / trials

    def per_trial(value):
        return value / trials

    eig_calls = calls["eigensolver.max_eigvec"]
    tpm_calls = calls["baselines.truncated_power_init"]
    thread_s = threads * total_s[SWEEP]
    layers_s = sum(v for k, v in self_s.items() if k not in (SWEEP, TRIAL))
    out = {
        "eigensolver.max_eigvec.ms": ms("eigensolver.max_eigvec"),
        "eigensolver.max_eigvec.calls": per_trial(eig_calls),
        "eigensolver.max_eigvec.iterations_mean":
            counters["eigensolver.max_eigvec.iterations"] / eig_calls if eig_calls else 0.0,
        "eigensolver.max_eigvec.fallback_share":
            counters["eigensolver.max_eigvec.fallbacks"] / eig_calls if eig_calls else 0.0,
        "spectrum.diagonal.ms": ms("spectrum.diagonal"),
        "spectrum.diagonal.calls": per_trial(calls["spectrum.diagonal"]),
        "spectrum.diagonal.mb": per_trial(counters["spectrum.diagonal.bytes"]) / 1e6,
        "spectrum.matvec.ms": ms("spectrum.matvec"),
        "spectrum.matvec.calls": per_trial(calls["spectrum.matvec"]),
        "spectrum.submatrix.ms": ms("spectrum.submatrix"),
        "spectrum.submatrix.calls": per_trial(calls["spectrum.submatrix"]),
        "spectrum.build.calls": per_trial(calls["spectrum.build"]),
        "measurement.sample_sensing.ms": ms("measurement.sample_sensing"),
        "measurement.sample_sensing.mb": per_trial(counters["measurement.sample_sensing.bytes"]) / 1e6,
        "measurement.measure.ms": ms("measurement.measure"),
        "signals.generate.ms": ms("signals.generate"),
        "bench.build_trial_instance.ms": ms("bench.build_trial_instance"),
        "bench.run_sweep.parallel_efficiency": total_s[TRIAL] / thread_s,
        "numerics.top_k_indices.ms": ms("numerics.top_k_indices"),
        "numerics.top_k_indices.calls": per_trial(calls["numerics.top_k_indices"]),
        "numerics.relative_error.ms": ms("numerics.relative_error"),
        "pursuit.gesp.self_ms": ms("pursuit.gesp"),
        "pursuit.residual_score.ms": ms("pursuit.residual_score"),
        "pursuit.residual_score.calls": per_trial(calls["pursuit.residual_score"]),
        "baselines.truncated_power_init.self_ms": ms("baselines.truncated_power_init"),
        "baselines.truncated_power_init.matvecs":
            counters["baselines.truncated_power_init.matvecs"] / tpm_calls if tpm_calls else 0.0,
        # the share of the sweep's thread-time spent inside traced layer calls
        "trace.coverage": layers_s / thread_s,
    }
    for label in ALGORITHM_LABELS:
        out[f"bench.run_algorithm.{label}.ms"] = total_s[f"bench.run_algorithm.{label}"] * 1e3 / trials
    return out


# Metrics that count work: they must repeat exactly between traced rounds.
EXACT = (
    "eigensolver.max_eigvec.calls", "eigensolver.max_eigvec.iterations_mean",
    "eigensolver.max_eigvec.fallback_share", "spectrum.diagonal.calls", "spectrum.diagonal.mb",
    "spectrum.matvec.calls", "spectrum.submatrix.calls", "spectrum.build.calls",
    "measurement.sample_sensing.mb", "numerics.top_k_indices.calls",
    "pursuit.residual_score.calls", "baselines.truncated_power_init.matvecs",
)
