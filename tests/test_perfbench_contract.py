"""The names the benchmark reaches in gesp, exercised in Tier-1.

`perfbench/tracing.py` wraps 19 gesp functions by name,
`perfbench/checks.py` re-runs trials through `bench` and `pursuit`, and
`perfbench/worker.py` times rounds of `load_config`'s configs through
`resolved_ratios`, `run_sweep` and `write_csv`, and `perfbench/workloads.py`
writes those configs.  All four are loaded here from `perfbench/`, as the
benchmark loads them, so that a change to gesp that breaks a name they reach
or a config they write fails here and not only in a benchmark run.
"""

import csv
import importlib.util
import pathlib
import sys

from gesp import bench
from gesp.bench import config_from_dict

REPO = pathlib.Path(__file__).resolve().parents[1]


SWEEP = {
    "schema_version": 1, "n": 24, "k": 4, "ratios": [0.5, 1.0], "trials": 2, "base_seed": 7,
    "signal": {"model": "gaussian"},
    "algorithms": [
        {"algorithm": "gesp", "strategy": "known_structure"}, {"algorithm": "gesp", "strategy": "ensemble"},
        {"algorithm": "esp"}, {"algorithm": "diag_two_step"}, {"algorithm": "truncated_power"},
    ],
}


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", REPO / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _gesp_bindings() -> dict:
    modules = {name: m for name, m in sys.modules.items() if name == "gesp" or name.startswith("gesp.")}
    return {(name, key): value for name, m in modules.items() for key, value in vars(m).items()}


def test_traced_sweep_calls_every_name_and_passes_the_checks(tmp_path):
    tracing, checks = _load("tracing"), _load("checks")
    config = config_from_dict(SWEEP)
    before = _gesp_bindings()
    tracer = tracing.Tracer()
    tracer.install()  # getattr on every traced name
    try:
        records = bench.run_sweep(config)
    finally:
        tracer.uninstall()
    assert sorted(name for name in tracing.TARGETS if not tracer.calls[name]) == []
    after = _gesp_bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []

    path = tmp_path / "sweep.csv"
    bench.write_csv(records, path)
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    found = checks.Checks()
    checks.check_rows(found, rows, config.k, "rows")
    checks.check_sampled_trials(found, config, rows, 7, "trials")
    assert (found.failed, found.messages) == (0, [])
    # one check per row; per ratio, two per algorithm and one each for known_structure's pursuit,
    # the ensemble's residual, esp against fixed p = 1 and diag_two_step's support
    assert found.attempted == len(rows) + 2 * (2 * len(config.algorithms) + 4) == 48


def test_worker_rounds_repeat_and_pass_the_checks(tmp_path, monkeypatch):
    # run.py starts worker.py as a script, so perfbench/ leads its import path
    monkeypatch.syspath_prepend(REPO / "perfbench")
    worker = importlib.import_module("worker")
    configs = [config_from_dict({**SWEEP, "out_path": str(tmp_path / "sweep.csv")})]
    rounds = [worker.run_round(configs) for _ in range(2)]
    assert [(r["trials"], r["records"], r["errors"]) for r in rounds] == [(4, 20, 0)] * 2
    assert rounds[0]["digest"] == rounds[1]["digest"]
    found = worker.checks.Checks()
    worker.correctness(configs, "desk", rounds, 7, found)
    assert (found.failed, found.messages) == (0, [])


def test_benchmark_sweeps_load_with_a_traced_label():
    # the sweeps above carry no "variant" or "iters" key, and the benchmark's configs carry both
    tracing, workloads = _load("tracing"), _load("workloads")
    for workload in workloads.WORKLOADS:  # desk, full_scale and large_k
        for raw in workloads.sweep_configs(workload, 7):
            labels = [tracing.algorithm_label(algo) for algo in config_from_dict(raw).algorithms]
            assert set(labels) <= set(tracing.ALGORITHM_LABELS), (workload, labels)
