"""gesp's benchmark: one run of one workload, from the root of a checkout.

    python3 perfbench/run.py --workload desk|full_scale|large_k --seed N \
        --seconds S --trace 0|1

The program is the checkout's `src/gesp`, imported from source.  A run
writes the workload's sweep configs under perfbench/out/, times set-up in
fresh processes (`--trace 0` only), then starts one fresh worker process
that runs the sweep rounds for S seconds and checks their outputs (see
worker.py).  BLAS and OpenMP pools are pinned to one thread.  Information
lines come first; the last line of stdout is the JSON result, with the
end-to-end metrics of BENCHMARK.json under `--trace 0` and its per-layer
metrics under `--trace 1`.  Exits non-zero, without a result, when the
program is missing or a process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from workloads import WORKLOADS, sweep_configs

HERE = Path(__file__).resolve().parent
# Set-up probes before and after the worker, so that a disturbance at either
# end of the run moves the median of the 9 samples (with the worker's) less.
SETUP_PROBES = 4
DEADLINE_S = 170  # a run must end within 180 s


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def start(args: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Run the worker with `args`; returns (monotonic start, its JSON line)."""
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"worker {args[0]} ran past the {DEADLINE_S} s limit")
    if proc.returncode != 0:
        fail(f"worker {args[0]} exited with code {proc.returncode}")
    return t0, json.loads(out.strip().splitlines()[-1])


def probe_setups(paths: list[str], env: dict, deadline: float) -> list[float]:
    """Set-up seconds of SETUP_PROBES fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0, probe = start(["probe", *paths], env, deadline)
        samples.append(probe["ready"] - t0)
    return samples


def main() -> None:
    deadline = time.monotonic() + DEADLINE_S
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "gesp" / "__init__.py").is_file():
        fail(f"no program at {src / 'gesp'}; run from the root of a gesp checkout")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = HERE / "out" / f"{args.workload}-{args.seed}-{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for config in sweep_configs(args.workload, args.seed):
        config["out_path"] = str(out_dir / config["out_path"])
        path = out_dir / Path(config["out_path"]).with_suffix(".json").name
        path.write_text(json.dumps(config, indent=1))
        paths.append(str(path))

    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    setups = []
    if not args.trace:
        start(["probe", *paths], env, deadline)  # compiles gesp's bytecode; not counted
        setups += probe_setups(paths, env, deadline)
    mode = "trace" if args.trace else "sweep"
    t0, res = start([mode, args.workload, str(args.seed), str(args.seconds), *paths], env, deadline)
    setups.append(res["ready"] - t0)
    if not args.trace:
        setups += probe_setups(paths, env, deadline)
    if not Path(res["gesp_file"]).resolve().is_relative_to(src.resolve()):
        fail(f"gesp was imported from {res['gesp_file']}, not from {src}")

    metrics = dict(res["metrics"], setup_s=median(setups))
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail(f"the run measured no {', '.join(missing)}")

    env_info = res["environment"]
    steal = res["steal_share"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} rounds={res['rounds']} "
          f"trials_per_round={res['trials_per_round']}")
    print("round_wall_s=" + ",".join(format(w, ".3f") for w in res["round_walls"])
          + " round_cpu_s=" + ",".join(format(c, ".3f") for c in res["round_cpus"]))
    print(f"steal_share={'n/a' if steal is None else format(steal, '.4f')} "
          f"setup_samples_s={','.join(format(s, '.4f') for s in setups)}")
    print(f"python={env_info['python']} numpy={env_info['numpy']} blas={env_info['blas']} "
          f"nproc={env_info['nproc']} threads_env={json.dumps(env_info['threads_env'])}")
    print(f"attempted={res['attempted']} failed={res['failed']}")
    for message in res["messages"]:
        print(f"FAILED: {message}")
    if args.trace:
        for name in ("trace.coverage", "trace.overhead", "rel_err_mean"):
            print(f"{name}={metrics[name]:.6g}")
    print(json.dumps({
        "correct": res["check_failures"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()
