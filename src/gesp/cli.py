"""Command-line front end.

Subcommands:

  run     execute a sweep (in worker processes when threads > 1), write its CSV
  single  run one trial with step-by-step diagnostics
  signal  print the structure-function table and width-selection scan
  oracle  empirical-vs-expected spectrum convergence report

Exit codes: 0 success, 1 configuration/usage error, 2 runtime error, 130 Ctrl-C.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import replace

import numpy as np

from . import bench, spectrum
from .bench import ConfigError, load_config
from .measurement import measure, sample_sensing, sensing_layout
from .numerics import ceil_sqrt, dist, p_objective, p_opt, structure_function
from .pursuit import step2_direction
from .signals import SignalModelSpec, generate


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gesp", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a Monte Carlo sweep")
    p_run.add_argument("--config", required=True, help="path to the JSON benchmark config")
    p_run.add_argument("--out", help="records CSV path (overrides the config's out_path)")
    p_run.add_argument("--seed", type=int, help="base seed override, in [0, 2^64)")
    p_run.add_argument("--threads", type=int, help="worker count override; above 1, BLAS-pinned worker processes")
    p_run.add_argument("--plot-out", help="also write aggregated plot data to this path")
    p_run.set_defaults(func=_cmd_run, parser=p_run)

    p_single = sub.add_parser("single", help="run one trial with diagnostics")
    p_single.add_argument("--config", required=True)
    p_single.add_argument("--ratio", type=float, required=True, help="one of the config's ratios")
    p_single.add_argument("--trial", type=int, required=True, help="trial index")
    p_single.add_argument("--verbose", action="store_true", help="print per-step pursuit internals")
    p_single.set_defaults(func=_cmd_single, parser=p_single)

    p_signal = sub.add_parser("signal", help="structure-function calculator for the configured signal")
    p_signal.add_argument("--config", required=True)
    p_signal.set_defaults(func=_cmd_signal, parser=p_signal)

    p_oracle = sub.add_parser("oracle", help="spectrum-vs-expectation convergence report")
    p_oracle.add_argument("--n", type=int, required=True)
    p_oracle.add_argument("--k", type=int, required=True)
    p_oracle.add_argument("--m", type=int, required=True)
    p_oracle.add_argument("--seed", type=int, required=True, help="in [0, 2^64)")
    p_oracle.set_defaults(func=_cmd_oracle, parser=p_oracle)

    return parser


def _cmd_run(args) -> int:
    # each flag given replaces its config field; BenchConfig rejects a seed outside [0, 2^64)
    overrides = dict(out_path=args.out, base_seed=args.seed, threads=args.threads)
    config = replace(load_config(args.config), **{key: v for key, v in overrides.items() if v is not None})
    records = bench.run_sweep(config)
    bench.write_csv(records, config.out_path)
    print(f"wrote {len(records)} records to {config.out_path}")
    errors = sum(rec.error_flag for rec in records)
    if errors:
        print(f"{errors} of {len(records)} records have error_flag 1", file=sys.stderr)
    if args.plot_out:
        bench.write_plot_data(bench.aggregate(records), args.plot_out)
        print(f"wrote plot data to {args.plot_out}")
    return 0


def _cmd_single(args) -> int:
    config = load_config(args.config)
    ri = config.grid_index(args.ratio)  # a repeated m runs as its grid ratio
    seed, sig, meas = bench.build_trial_instance(config, ri, args.trial)
    x = sig.vector
    print(f"trial seed={seed} model={config.signal.model} n={config.n} k={config.k} "
          f"m={meas.m} ratio={config.ratio_grid[ri][0]:g} lambda_sq={meas.lambda_sq:.6g}")
    if args.verbose:
        digest = hashlib.sha256(sensing_layout(meas.sensing)).hexdigest()
        print(f"sensing sha256={digest}")
        print(f"true support: {sig.support.tolist()}")
    for algo in config.algorithms:
        columns, est = bench.run_entry(algo, meas, sig)  # the columns of the trial's CSV row
        label = bench.entry_label(columns["algorithm"], columns["strategy"])
        if est is None:
            print(f"[{label}] error_flag=1")
            continue
        print(f"[{label}] p_used={columns['p_used']} |S1 ∩ supp|={round(columns['support_fraction'] * sig.k)}/{sig.k} "
              f"dist={dist(est.z, x):.6g} rel_err={columns['relative_error']:.6g} residual={est.residual_score:.3g}")
        if args.verbose and algo.name == "gesp":
            op = spectrum.build(meas, "exponential")
            e0 = step2_direction(op, est.s0)
            captured = float(np.sum(np.abs(x[est.s0]) ** 2)) / sig.norm_sq
            overlap = np.intersect1d(est.support, sig.support, assume_unique=True)
            print(f"    S0={est.s0.tolist()}")
            print(f"    ||x_S0||^2/||x||^2={captured:.6g}  |x* e0|={abs(complex(np.vdot(x, e0))):.6g}")
            print(f"    S1={est.support.tolist()}  S1∩supp={overlap.tolist()}")
    return 0


def _cmd_signal(args) -> int:
    config = load_config(args.config)
    profile = bench.build_trial_instance(config, 0, 0)[1].profile  # trial (0, 0)'s signal
    k = config.k
    print(f"model={config.signal.model} n={config.n} k={k} ||x||^2={profile.total_energy:.6g}")
    print("  p    s(p)          obj_global     obj_capped")
    for p in range(1, k + 1):
        s = structure_function(profile, p)
        og = p_objective(profile, k, p, "global")
        oc = f"{p_objective(profile, k, p, 'capped'):<14.6g}" if p <= ceil_sqrt(k) else "-"
        print(f"  {p:<4d} {s:<13.6g} {og:<14.6g} {oc}")
    for variant in ("global", "capped"):
        best = p_opt(profile, k, variant)
        print(f"p_opt[{variant}] = {best} (objective {p_objective(profile, k, best, variant):.6g})")
    return 0


def _cmd_oracle(args) -> int:
    if args.n < 1 or not 1 <= args.k <= args.n or args.m < 1:
        raise ConfigError(f"need n >= 1, 1 <= k <= n, m >= 1; got n={args.n} k={args.k} m={args.m}")
    if not 0 <= args.seed < 1 << 64:
        raise ConfigError(f"seed {args.seed} outside [0, 2^64)")
    rng = np.random.default_rng(args.seed)
    sig = generate(SignalModelSpec(model="gaussian", n=args.n, k=args.k), rng)
    expected = spectrum.expectation_oracle(sig)
    full = np.arange(args.n)
    print(f"gaussian signal n={args.n} k={args.k}, expected spectrum trace=0.25")
    errors = {}
    for m in (args.m, 4 * args.m):
        meas = measure(sig, sample_sensing(args.n, m, rng))
        op = spectrum.build(meas, "exponential")
        emp = spectrum.submatrix(op, full)
        errors[m] = float(np.linalg.norm(emp - expected))
        print(f"m={m}: frobenius error {errors[m]:.6g}")
    ratio = errors[args.m] / errors[4 * args.m]
    print(f"error ratio m -> 4m: {ratio:.4g} (inverse-sqrt scaling predicts about 2)")
    return 0


def cli_main(argv) -> int:
    try:
        args, extra = _build_parser().parse_known_args(argv)
        if extra:  # reported by the subcommand's own parser, so its usage is the one printed
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:  # argparse has printed the help, or the failing command's usage and error
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures: I/O, non-convergence, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # one line instead of a traceback; 130 is the shell's 128 + SIGINT
        print("interrupted", file=sys.stderr)
        return 130


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
