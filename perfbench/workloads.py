"""The benchmark's three sweep workloads, as `gesp run` config dicts.

Each workload is a list of sweep configs in the program's own JSON form; one
round of a run is one `bench.run_sweep` + `bench.write_csv` per config.  The
configs depend on nothing but the workload name and the seed, so the same
seed gives the same inputs.  See README.md for why each workload exists.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1

DESK_ALGORITHMS = [  # the six algorithms of configs/desk_*.json
    {"algorithm": "gesp", "strategy": "known_structure", "variant": "global"},
    {"algorithm": "gesp", "strategy": "sqrt_k"},
    {"algorithm": "gesp", "strategy": "full_k"},
    {"algorithm": "esp"},
    {"algorithm": "diag_two_step"},
    {"algorithm": "truncated_power", "iters": 50},
]

FULL_SCALE_ALGORITHMS = [  # configs/full_scale.json plus the ensemble strategy
    {"algorithm": "gesp", "strategy": "known_structure", "variant": "global"},
    {"algorithm": "esp"},
    {"algorithm": "diag_two_step"},
    {"algorithm": "truncated_power", "iters": 50},
    {"algorithm": "gesp", "strategy": "ensemble"},
]

LARGE_K_ALGORITHMS = [
    {"algorithm": "gesp", "strategy": "known_structure", "variant": "global"},
    {"algorithm": "gesp", "strategy": "ensemble"},
    {"algorithm": "esp"},
]

# (name, signal, n, k, ratios, trials per ratio, threads, algorithms)
_SWEEPS = {
    "desk": [
        (model, signal, 200, 10, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0], 4, 1, DESK_ALGORITHMS)
        for model, signal in (
            ("gaussian", {"model": "gaussian"}),
            ("binary", {"model": "binary"}),
            ("exp_decay", {"model": "exp_decay", "decay": 0.7}),
        )
    ],
    "full_scale": [
        ("gaussian", {"model": "gaussian"}, 1000, 10,
         [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0], 3, 1, FULL_SCALE_ALGORITHMS),
    ],
    "large_k": [
        ("example1", {"model": "example1"}, 128, 64, [0.5, 1.0], 14, 1, LARGE_K_ALGORITHMS),
    ],
}

WORKLOADS = tuple(_SWEEPS)


def base_seed(seed: int, sweep_index: int) -> int:
    """The sweep's base_seed: a fixed odd multiplier spreads nearby --seed
    values apart, and the sweep index separates the desk signal models."""
    return (seed * 0x9E3779B97F4A7C15 + sweep_index) & _MASK64


def sweep_configs(workload: str, seed: int) -> list[dict]:
    """The config dicts of one round of `workload`, with their out_path
    left for the caller to fill in."""
    if workload not in _SWEEPS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return [
        {
            "schema_version": 1,
            "n": n,
            "k": k,
            "ratios": ratios,
            "trials": trials,
            "base_seed": base_seed(seed, i),
            "threads": threads,
            "out_path": f"{workload}-{name}.csv",
            "signal": signal,
            "algorithms": algorithms,
        }
        for i, (name, signal, n, k, ratios, trials, threads, algorithms) in enumerate(_SWEEPS[workload])
    ]
