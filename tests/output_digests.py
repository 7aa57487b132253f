"""SHA-256 digests of the outputs that "every output byte unchanged" is checked on.

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python tests/output_digests.py SRC [--only NAME ...]

imports gesp from SRC (a checkout's `src` directory) and prints one
`<sha256>  <output>` line per output, so two checkouts compare with one diff:

    python tests/output_digests.py ../parent/src > parent.txt
    python tests/output_digests.py src > change.txt
    diff parent.txt change.txt

Every sweep runs in this process at `threads` 1 and writes its records CSV
(`.csv`) and plot data (`.plot`), through run_sweep, write_csv, aggregate and
write_plot_data:
  golden                    configs/golden.json as shipped; its CSV is tests/data/golden.csv
  desk_binary, example1,    those configs at 3 trials per ratio
  full_scale
  perfbench-s<seed>-<name>  the sweep configs of perfbench's desk, full_scale
                            and large_k workloads at seeds 7 and 501
The `single-golden-<ratio>` outputs are the stdout of `gesp single --verbose`
on golden at each of its ratios, trial 0.  `--only NAME` runs just the named
sweeps or single runs.

The configs and workloads are read from the checkout that holds this script,
so both sides run the same inputs.  It refuses to run unless every
bench.BLAS_THREAD_VARS is 1: the float columns' last bits depend on the BLAS
thread count, and an unpinned run at n = 1000 can write other bytes with no
code change.  Not a test module: pytest collects test_*.py files only.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import os
import pathlib
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = ("desk_binary", "example1", "full_scale")
TRIALS = 3  # per ratio, for CONFIGS
WORKLOADS = ("desk", "full_scale", "large_k")
SEEDS = (7, 501)


def _units(bench, cli) -> dict:
    """Output-unit name -> a function returning its {output name: bytes}, in print order."""
    sys.path.insert(0, str(REPO / "perfbench"))
    from workloads import sweep_configs  # perfbench's own, read only

    golden_path = REPO / "configs" / "golden.json"
    configs = {"golden": bench.load_config(golden_path)}
    for name in CONFIGS:
        config = bench.load_config(REPO / "configs" / f"{name}.json")
        configs[name] = dataclasses.replace(config, trials=TRIALS, threads=1)
    for seed in SEEDS:
        for workload in WORKLOADS:
            for raw in sweep_configs(workload, seed):
                name = f"perfbench-s{seed}-{raw['out_path'].removesuffix('.csv')}"
                configs[name] = dataclasses.replace(bench.config_from_dict(raw), threads=1)

    def sweep(name, config):
        records = bench.run_sweep(config)
        with tempfile.TemporaryDirectory() as tmp:
            csv, plot = pathlib.Path(tmp, "records.csv"), pathlib.Path(tmp, "plot.dat")
            bench.write_csv(records, csv)
            bench.write_plot_data(bench.aggregate(records), plot)
            return {f"{name}.csv": csv.read_bytes(), f"{name}.plot": plot.read_bytes()}

    def single(name, ratio):
        out = io.StringIO()
        argv = ["single", "--config", str(golden_path), "--ratio", repr(ratio), "--trial", "0", "--verbose"]
        with contextlib.redirect_stdout(out):
            code = cli.cli_main(argv)
        if code:
            raise RuntimeError(f"gesp {' '.join(argv)} exited with {code}")
        return {name: out.getvalue().encode()}

    units = {name: (lambda name=name, config=config: sweep(name, config)) for name, config in configs.items()}
    for ratio in configs["golden"].ratios:
        name = f"single-golden-{ratio:g}"
        units[name] = lambda name=name, ratio=ratio: single(name, ratio)
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("src", type=pathlib.Path, help="the directory that holds the gesp package to run")
    parser.add_argument("--only", action="append", metavar="NAME", help="run only this sweep or single run")
    args = parser.parse_args(argv)
    package = (args.src / "gesp").resolve()
    sys.path.insert(0, str(args.src.resolve()))
    import gesp
    from gesp import bench, cli

    if pathlib.Path(gesp.__file__).resolve().parent != package:
        parser.error(f"gesp was imported from {gesp.__file__}, not from {package}")
    unpinned = [var for var in bench.BLAS_THREAD_VARS if os.environ.get(var) != "1"]
    if unpinned:
        parser.error(f"set {', '.join(unpinned)} to 1: the output bytes depend on the BLAS thread count")
    units = _units(bench, cli)
    unknown = sorted(set(args.only or ()) - units.keys())
    if unknown:
        parser.error(f"unknown output {', '.join(unknown)}; expected one of {', '.join(units)}")
    for name, run in units.items():
        if args.only is None or name in args.only:
            for output, blob in run().items():
                print(f"{hashlib.sha256(blob).hexdigest()}  {output}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
