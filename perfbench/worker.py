"""One fresh process of a benchmark run; run.py starts it.

    worker.py probe CONFIG...                                set up, report, exit
    worker.py sweep|trace WORKLOAD SEED SECONDS CONFIG...    set up, time rounds, check

Set-up is what `gesp run` does before its sweep: start the interpreter,
import numpy and gesp, load the configs.  The process reports the
CLOCK_MONOTONIC time at which set-up ended; run.py read the same clock just
before starting it.  Then `sweep` runs whole rounds, one `bench.run_sweep` +
`bench.write_csv` per config, until SECONDS have passed (at least two), and
`trace` alternates traced and untraced rounds (at least two traced, one untraced).  Every
round runs the same inputs.  The correctness checks run after the last
round, outside the timing.  The last line of stdout is one JSON object.
"""

import csv
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

import checks
import tracing
from gesp import bench

MIN_ROUNDS = 2
MIN_TRACED_ROUNDS = 2
# The traced layers' self times must account for this share of the traced
# sweep's wall time (times its threads); the rest is untraced glue.
MIN_COVERAGE = 0.9


def cpu_seconds() -> float:
    """User + system CPU of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs from /proc/stat, if it is readable."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def run_round(configs) -> dict:
    trials = sum(len(c.resolved_ratios()) * c.trials for c in configs)
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    records = errors = 0
    for config in configs:
        recs = bench.run_sweep(config)
        bench.write_csv(recs, config.out_path)
        records += len(recs)
        errors += sum(1 for r in recs if r.error_flag)
    wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
    digest = hashlib.sha256(b"".join(Path(c.out_path).read_bytes() for c in configs)).hexdigest()
    return {"wall": wall, "cpu": cpu, "trials": trials, "records": records, "errors": errors, "digest": digest}


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})".strip(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def steal_share(before, after) -> float | None:
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def timed_rounds(configs, seconds: float) -> tuple[list[dict], dict]:
    deadline = time.perf_counter() + seconds
    rounds = []
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        rounds.append(run_round(configs))
    return rounds, {
        "trials_per_s": median(r["trials"] / r["wall"] for r in rounds),
        "cpu_ms_per_trial": median(r["cpu"] * 1e3 / r["trials"] for r in rounds),
        # ru_maxrss is in KiB on Linux; read before the checks, which hold dense spectra
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def traced_rounds(configs, seconds: float) -> tuple[list[dict], dict, checks.Checks]:
    """Alternate traced and untraced rounds, starting traced, until at least
    two traced rounds ran; the per-layer timings are medians over traced
    rounds, and every work count must repeat exactly."""
    deadline = time.perf_counter() + seconds
    threads = configs[0].threads
    tracer = tracing.Tracer()
    plain, traced, layers = [], [], []
    while len(traced) < MIN_TRACED_ROUNDS or time.perf_counter() < deadline:
        if len(plain) < len(traced):
            plain.append(run_round(configs))
            continue
        tracer.reset()
        tracer.install()
        try:
            traced.append(run_round(configs))
        finally:
            tracer.uninstall()
        layers.append(tracing.per_layer(tracer, traced[-1]["trials"], threads))
    found = checks.Checks()
    for name in tracing.EXACT:
        values = {layer[name] for layer in layers}
        found.check(len(values) == 1, f"trace: {name} differs between traced rounds: {sorted(values)}")
    metrics = {name: median(layer[name] for layer in layers) for name in layers[0]}
    found.check(metrics["trace.coverage"] >= MIN_COVERAGE,
                f"trace: layers account for {metrics['trace.coverage']:.3f} of the sweep, under {MIN_COVERAGE}")
    metrics["trace.overhead"] = median(r["wall"] for r in traced) / median(r["wall"] for r in plain)
    return plain + traced, metrics, found


def correctness(configs, workload: str, rounds: list[dict], seed: int, found: checks.Checks) -> float:
    """Run every check on the last round's CSVs; returns rel_err_mean."""
    for i, r in enumerate(rounds[1:], 1):
        found.check(r["digest"] == rounds[0]["digest"], f"round {i} wrote other CSV bytes than round 0")
    errors = []
    for config in configs:
        with open(config.out_path, newline="") as f:
            rows = list(csv.DictReader(f))
        where = Path(config.out_path).name
        checks.check_rows(found, rows, config.k, where)
        checks.check_sampled_trials(found, config, rows, seed, where)
        if workload == "full_scale":
            checks.check_error_falls_with_ratio(found, rows, where)
        errors.extend(float(r["relative_error"]) for r in rows)
    return float(np.mean(errors))


def main() -> None:
    mode = sys.argv[1]
    paths = sys.argv[2:] if mode == "probe" else sys.argv[5:]
    configs = [bench.load_config(path) for path in paths]
    result = {"ready": time.monotonic()}
    if mode != "probe":
        workload, seed, seconds = sys.argv[2], int(sys.argv[3]), float(sys.argv[4])
        ticks0 = cpu_ticks()
        if mode == "trace":
            rounds, metrics, found = traced_rounds(configs, seconds)
        else:
            rounds, metrics = timed_rounds(configs, seconds)
            found = checks.Checks()
        ticks1 = cpu_ticks()
        metrics["rel_err_mean"] = correctness(configs, workload, rounds, seed, found)
        result.update(
            metrics=metrics,
            rounds=len(rounds),
            trials_per_round=rounds[0]["trials"],
            round_walls=[r["wall"] for r in rounds],
            round_cpus=[r["cpu"] for r in rounds],
            attempted=sum(r["records"] for r in rounds) + found.attempted,
            failed=sum(r["errors"] for r in rounds) + found.failed,
            check_failures=found.failed,
            messages=found.messages,
            steal_share=steal_share(ticks0, ticks1),
            environment=environment(),
            gesp_file=bench.__file__,
        )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
