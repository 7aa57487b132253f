import json
import math
import pathlib
import re
from dataclasses import fields

import numpy as np
import pytest

from gesp import bench
from gesp.bench import (
    AlgorithmSpec,
    BenchConfig,
    ConfigError,
    TrialRecord,
    aggregate,
    build_trial_instance,
    config_from_dict,
    load_config,
    run_sweep,
    splitmix64,
    trial_seed,
    write_csv,
    write_plot_data,
)
from gesp.pursuit import STRATEGY_KINDS, PStrategy, gesp
from gesp.signals import SIGNAL_MODELS, SignalModelSpec

from oracles import StreamingMoments
import sweep_tasks

REPO = pathlib.Path(__file__).resolve().parents[1]


def _mini_config(**overrides) -> BenchConfig:
    base = dict(
        ratios=(0.5, 1.0),
        trials=3,
        base_seed=99,
        signal=SignalModelSpec(model="gaussian", n=24, k=4),
        algorithms=(
            AlgorithmSpec(name="gesp", strategy=PStrategy.full_k()),
            AlgorithmSpec(name="esp"),
        ),
    )
    base.update(overrides)
    return BenchConfig(**base)


class TestSeeding:
    def test_splitmix64_published_vectors(self):
        # the first three outputs of the reference generator seeded at 0
        state, outs = 0, []
        for _ in range(3):
            outs.append(splitmix64(state))
            state = (state + 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
        assert outs == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    def test_trial_seeds_distinct(self):
        seeds = {trial_seed(5, ri, ti) for ri in range(20) for ti in range(200)}
        assert len(seeds) == 20 * 200

    def test_trial_seed_deterministic(self):
        assert trial_seed(123, 4, 5) == trial_seed(123, 4, 5)


class TestConfig:
    def test_load_shipped_golden_config(self):
        config = load_config(REPO / "configs" / "golden.json")
        assert config.n == 64 and config.k == 6
        assert len(config.algorithms) == 8
        assert config.record_runtime is False

    def test_schema_version_enforced(self):
        with pytest.raises(ConfigError):
            config_from_dict({"schema_version": 2})

    def test_missing_key(self):
        with pytest.raises(ConfigError):
            config_from_dict({"schema_version": 1, "n": 8})

    def test_ratio_range(self):
        with pytest.raises(ConfigError):
            _mini_config(ratios=(2.5,))
        with pytest.raises(ConfigError):
            _mini_config(ratios=(0.0,))

    def test_ratio_resolving_to_zero_m(self):
        with pytest.raises(ConfigError):
            _mini_config(ratios=(0.01,))

    def test_duplicate_m_deduplicated(self):
        config = _mini_config(ratios=(0.5, 0.51, 1.0))  # 0.5 and 0.51 both give m=12
        assert config.resolved_ratios() == [(0.5, 12), (1.0, 24)]

    def test_ratio_grid_built_once_per_config(self, monkeypatch):
        # the sweep and each trial used to rebuild the (ratio, m) list, three times per trial;
        # the grid is now built by the constructor, with one rounding per configured ratio
        config = _mini_config(ratios=(0.5, 0.51, 1.0))
        assert config.ratio_grid is config.ratio_grid == ((0.5, 12), (1.0, 24))
        config.resolved_ratios().clear()  # a caller's list is its own
        assert config.resolved_ratios() == [(0.5, 12), (1.0, 24)]
        rounds = []
        monkeypatch.setattr(bench, "round", lambda x: rounds.append(x) or round(x), raising=False)
        fresh = _mini_config(ratios=(0.5, 0.51, 1.0))
        assert len(rounds) == 3  # one per configured ratio, at construction
        assert len(run_sweep(fresh)) == 2 * 3 * 2
        assert len(rounds) == 3  # and none while the sweep runs

    def test_grid_index_runs_a_repeated_m_as_its_first_ratio(self):
        config = _mini_config(ratios=(0.5, 0.51, 1.0))
        assert [config.grid_index(ratio) for ratio in (0.5, 0.51, 1.0, 1)] == [0, 0, 1, 1]
        with pytest.raises(ConfigError, match=r"^ratio 0\.33 is not one of the config's ratios$"):
            config.grid_index(0.33)

    def test_integer_ratio_runs_as_its_float(self, tmp_path):
        # the grid holds floats whatever number type a hand-built config passes
        paths = []
        for ratios in ((1,), (1.0,)):
            config = _mini_config(ratios=ratios)
            assert config.ratios == (1.0,) and type(config.ratios[0]) is float
            assert [type(ratio) for ratio, _m in config.ratio_grid] == [float]
            paths.append(tmp_path / f"{ratios[0]!r}.csv")
            write_csv(run_sweep(config), paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("path", sorted((REPO / "configs").glob("*.json")), ids=lambda path: path.stem)
    def test_shipped_config_entries_have_distinct_labels(self, path):
        # aggregate and the plot data group records by (algorithm, strategy, ratio), so two entries
        # with one label (gesp fixed at two p, known_structure global and capped) would merge
        labels = [(algo.name, algo.strategy_label) for algo in load_config(path).algorithms]
        assert len(set(labels)) == len(labels)

    @pytest.mark.parametrize("ratio_index, trial_index", [(-1, 0), (0, -1), (0, 10), (3, 0)])
    def test_trial_outside_the_sweep_rejected(self, ratio_index, trial_index):
        # the first three used to draw a trial whose seed no sweep draws; (3, 0) raised a bare IndexError
        config = load_config(REPO / "configs" / "golden.json")
        assert (len(config.ratio_grid), config.trials) == (3, 10)
        message = (rf"^ratio index {ratio_index} and trial index {trial_index}: the sweep has ratio indices "
                   r"\[0, 3\) and trial indices \[0, 10\)$")
        with pytest.raises(ConfigError, match=message):
            build_trial_instance(config, ratio_index, trial_index)
        assert build_trial_instance(config, 2, 9)[0] == trial_seed(config.base_seed, 2, 9)  # the last trial drawn

    @pytest.mark.parametrize("first, second, entries, label", [
        (AlgorithmSpec(name="gesp", strategy=PStrategy.fixed(1)), AlgorithmSpec(name="gesp", strategy=PStrategy.fixed(2)),
         ({"algorithm": "gesp", "strategy": "fixed", "p": 1}, {"algorithm": "gesp", "strategy": "fixed", "p": 2}),
         "('gesp', 'fixed')"),
        (AlgorithmSpec(name="gesp", strategy=PStrategy.known_structure("global")),
         AlgorithmSpec(name="gesp", strategy=PStrategy.known_structure("capped")),
         ({"algorithm": "gesp", "strategy": "known_structure", "variant": "global"},
          {"algorithm": "gesp", "strategy": "known_structure", "variant": "capped"}),
         "('gesp', 'known_structure')"),
        (AlgorithmSpec(name="truncated_power", tpm_iters=5), AlgorithmSpec(name="truncated_power"),
         ({"algorithm": "truncated_power", "iters": 5}, {"algorithm": "truncated_power"}),
         "('truncated_power', '')"),
    ], ids=["fixed", "known_structure", "truncated_power"])
    def test_entries_with_one_label_rejected(self, first, second, entries, label):
        # a record names its entry by (algorithm, strategy): gesp fixed at two p used to merge into one
        # ('gesp', 'fixed', ratio) aggregate group of twice the trials, and known_structure global and
        # capped to write rows that no reader could tell apart
        message = rf"^algorithms\[0\] and algorithms\[2\] are both {re.escape(label)}$"
        with pytest.raises(ConfigError, match=message):
            _mini_config(algorithms=(first, AlgorithmSpec(name="esp"), second))
        with pytest.raises(ConfigError, match=message):
            config_from_dict(_raw_config(algorithms=[entries[0], {"algorithm": "esp"}, entries[1]]))

    @pytest.mark.parametrize("overrides, message", [
        ({"signal": "gaussian"}, "signal must be a SignalModelSpec, got 'gaussian'"),
        ({"algorithms": ("esp",)}, "algorithms[0] must be an AlgorithmSpec, got 'esp'"),
        ({"algorithms": (AlgorithmSpec(name="esp"), None)}, "algorithms[1] must be an AlgorithmSpec, got None"),
        ({"ratios": "0.5"}, "ratios must be a JSON array, got '0.5'"),
        ({"algorithms": "esp"}, "algorithms must be a JSON array, got 'esp'"),
        ({"ratios": {0.5: 1}}, "ratios must be a JSON array, got {0.5: 1}"),
        ({"algorithms": {"esp": 1}}, "algorithms must be a JSON array, got {'esp': 1}"),
        ({"ratios": iter(())}, "at least one ratio is required"),
        ({"algorithms": iter(())}, "at least one algorithm is required"),
        ({"trials": np.True_}, f"trials must be an integer, got {np.True_!r}"),
        ({"base_seed": np.False_}, f"base_seed must be an integer, got {np.False_!r}"),
        ({"ratios": (np.True_,)}, f"ratios[0] must be a number, got {np.True_!r}"),
        ({"ratios": 5}, "ratios must be a JSON array, got 5"),
        ({"algorithms": None}, "algorithms must be a JSON array, got None"),
    ], ids=["signal-string", "algorithm-string", "algorithm-none", "ratios-str", "algorithms-str", "ratios-dict",
            "algorithms-dict", "ratios-empty-iterator", "algorithms-empty-iterator", "trials-np-bool",
            "base_seed-np-bool", "ratio-np-bool", "ratios-int", "algorithms-none"])
    def test_hand_built_parts_must_have_their_types(self, overrides, message):
        # signal="gaussian" used to raise a bare AttributeError, and ("esp",) to build and fail in run_sweep;
        # "0.5" failed as ratios[0] must be a number, got '0', and "esp" as algorithms[0] ... got 'e'; a dict
        # ran over its keys; an empty iterator is truthy and passed the emptiness check. np.bool_ is no
        # np.integer, so it stays refused like True. 5 and None raised a bare TypeError from tuple()
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            _mini_config(**overrides)

    @pytest.mark.parametrize("overrides", [
        {"algorithms": (algo for algo in (AlgorithmSpec(name="gesp", strategy=PStrategy.full_k()),
                                          AlgorithmSpec(name="esp")))},
        {"ratios": np.array([0.5, 1.0])},
        {"ratios": [0.5, 1.0], "algorithms": [AlgorithmSpec(name="gesp", strategy=PStrategy.full_k()),
                                              AlgorithmSpec(name="esp")]},
    ], ids=["algorithms-generator", "ratios-array", "lists"])
    def test_hand_built_sequence_read_once_into_a_tuple(self, overrides):
        # validation used to spend a generator, so the sweep wrote 0 records; an array raised numpy's
        # "truth value ... is ambiguous"; a list stayed a list and left the frozen config unhashable
        config = _mini_config(**overrides)
        assert type(config.ratios) is tuple and type(config.algorithms) is tuple
        assert config == _mini_config() and hash(config) == hash(_mini_config())
        assert len(run_sweep(config)) == 2 * 3 * 2

    @pytest.mark.parametrize("overrides, plain", [
        ({"trials": np.int64(2)}, {"trials": 2}),
        ({"base_seed": np.uint64(7)}, {"base_seed": 7}),
        ({"threads": np.int64(1)}, {"threads": 1}),
        ({"ratios": (np.float32(0.5),)}, {"ratios": (0.5,)}),
        ({"ratios": (np.int32(1), 0.5)}, {"ratios": (1.0, 0.5)}),
        ({"ratios": np.arange(1, 3)}, {"ratios": (1.0, 2.0)}),
    ], ids=["trials-int64", "base_seed-uint64", "threads-int64", "ratio-float32", "ratio-int32", "ratios-arange"])
    def test_numpy_scalars_accepted(self, overrides, plain):
        # np.int64(2) used to fail as trials must be an integer, np.float32(0.5) as ratios[0] must be a number
        config = _mini_config(**overrides)
        assert config == _mini_config(**plain)
        values = (config.trials, config.base_seed, config.threads, *config.ratios)
        assert [type(value) for value in values] == [int] * 3 + [float] * len(config.ratios)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({
                "schema_version": 1, "n": 8, "k": 2, "ratios": [1.0], "trials": 1,
                "base_seed": 0, "signal": {"model": "gaussian"},
                "algorithms": [{"algorithm": "copram"}],
            })

    def test_unknown_algorithm_rejected_by_constructor(self):
        with pytest.raises(ConfigError, match="^unknown algorithm 'copram'$"):
            AlgorithmSpec(name="copram")

    def test_truncated_power_iters_checked_by_constructor(self):
        # the loader rejected "iters": 0, the constructor used to accept it
        with pytest.raises(ConfigError, match="^tpm_iters must be an integer >= 1, got 0$"):
            AlgorithmSpec(name="truncated_power", tpm_iters=0)

    @pytest.mark.parametrize("iters", [2.5, 2.0, True, "3", None])
    def test_truncated_power_iters_must_be_an_integer(self, iters):
        # 2.5 used to build and flag every record of the entry; True ran one iteration
        with pytest.raises(ConfigError, match=f"^tpm_iters must be an integer >= 1, got {re.escape(repr(iters))}$"):
            AlgorithmSpec(name="truncated_power", tpm_iters=iters)
        assert AlgorithmSpec(name="truncated_power", tpm_iters=np.int64(3)).tpm_iters == 3

    @pytest.mark.parametrize("name, strategy, iters", [
        ("esp", None, 5), ("diag_two_step", None, 3), ("gesp", PStrategy.full_k(), 7),
    ])
    def test_tpm_iters_only_for_truncated_power(self, name, strategy, iters):
        # esp with tpm_iters=5 used to build and write the default's records
        with pytest.raises(ConfigError, match=f"tpm_iters is only valid for truncated_power, not '{name}'"):
            AlgorithmSpec(name=name, strategy=strategy, tpm_iters=iters)

    @pytest.mark.parametrize("name, strategy", [
        ("esp", PStrategy.full_k()), ("diag_two_step", PStrategy.sqrt_k()),
        ("truncated_power", PStrategy.fixed(1)),
    ])
    def test_strategy_only_for_gesp(self, name, strategy):
        # esp with a strategy used to build, run esp and ignore the strategy
        with pytest.raises(ConfigError, match="a strategy is for gesp only, and gesp needs one"):
            AlgorithmSpec(name=name, strategy=strategy)

    def test_gesp_without_strategy_rejected_by_constructor(self):
        with pytest.raises(ConfigError, match="gesp needs one"):
            AlgorithmSpec(name="gesp")

    def test_gesp_needs_strategy(self):
        with pytest.raises(ConfigError):
            config_from_dict({
                "schema_version": 1, "n": 8, "k": 2, "ratios": [1.0], "trials": 1,
                "base_seed": 0, "signal": {"model": "gaussian"},
                "algorithms": [{"algorithm": "gesp"}],
            })


def _raw_config(**overrides) -> dict:
    raw = {
        "schema_version": 1, "n": 8, "k": 2, "ratios": [1.0], "trials": 1,
        "base_seed": 0, "signal": {"model": "gaussian"},
        "algorithms": [
            {"algorithm": "gesp", "strategy": "fixed", "p": 1},
            {"algorithm": "esp"},
            {"algorithm": "truncated_power", "iters": 5},
        ],
    }
    raw.update(overrides)
    return raw


def _algorithms(index, **entry):
    algorithms = _raw_config()["algorithms"]
    algorithms[index] = {**algorithms[index], **entry}
    return algorithms


class TestStrictConfig:
    def test_reference_config_loads(self):
        config = config_from_dict(_raw_config())
        assert config.algorithms[0].strategy.p_value == 1 and config.algorithms[2].tpm_iters == 5

    @pytest.mark.parametrize("path", sorted((REPO / "configs").glob("*.json")), ids=lambda p: p.name)
    def test_every_shipped_config_loads(self, path):
        assert load_config(path).trials >= 1

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_record_runtime_must_be_a_bool(self, value):
        # "false" used to load as True and fill runtime_ms
        with pytest.raises(ConfigError, match="record_runtime"):
            config_from_dict(_raw_config(record_runtime=value))

    @pytest.mark.parametrize("key", ["n", "k", "trials", "threads"])
    def test_non_integral_top_level_int_rejected(self, key):
        # 20.7 used to load as 20
        with pytest.raises(ConfigError, match=f"^{key} must be an integer, got 2.7"):
            config_from_dict(_raw_config(**{key: 2.7}))

    def test_non_integral_p_rejected(self):
        with pytest.raises(ConfigError, match=r"algorithms\[0\]\.p"):
            config_from_dict(_raw_config(algorithms=_algorithms(0, p=1.5)))

    def test_non_integral_iters_rejected(self):
        with pytest.raises(ConfigError, match=r"algorithms\[2\]\.iters"):
            config_from_dict(_raw_config(algorithms=_algorithms(2, iters=4.5)))

    @pytest.mark.parametrize("key", ["n", "k", "trials", "threads", "base_seed"])
    def test_bool_is_not_an_int(self, key):
        # "threads": true used to load as 1
        with pytest.raises(ConfigError, match=f"^{key} must be an integer, got True"):
            config_from_dict(_raw_config(**{key: True}))

    def test_bool_p_and_iters_rejected(self):
        with pytest.raises(ConfigError, match=r"algorithms\[0\]\.p"):
            config_from_dict(_raw_config(algorithms=_algorithms(0, p=True)))
        with pytest.raises(ConfigError, match=r"algorithms\[2\]\.iters"):
            config_from_dict(_raw_config(algorithms=_algorithms(2, iters=True)))

    def test_integral_float_is_an_int(self):
        config = config_from_dict(_raw_config(n=8.0, trials=2.0))
        assert config.n == 8 and isinstance(config.n, int) and config.trials == 2
        config = _mini_config(trials=2.0, base_seed=5.0, threads=3.0)
        assert [type(value) for value in (config.trials, config.base_seed, config.threads)] == [int] * 3

    @pytest.mark.parametrize("overrides, message", [
        ({"record_runtime": "false"}, "record_runtime must be true or false, got 'false'"),
        ({"out_path": 5}, "out_path must be a string, got 5"),
        ({"threads": True}, "threads must be an integer, got True"),
        ({"trials": 2.5}, "trials must be an integer, got 2.5"),
        ({"ratios": (1.0, "0.5")}, "ratios[1] must be a number, got '0.5'"),
        ({"ratios": (True,)}, "ratios[0] must be a number, got True"),
    ], ids=["record_runtime-string", "out_path-int", "threads-bool", "trials-float", "ratio-string", "ratio-bool"])
    def test_library_config_rejects_what_the_loader_rejects(self, overrides, message):
        # a hand-built "false" used to record wall times, trials=2.5 to fail mid-sweep inside range(),
        # ratios=(True,) to run as ratio 1 and write True, and "0.5" to raise a bare TypeError
        for build in (lambda: _mini_config(**overrides), lambda: config_from_dict(_raw_config(**overrides))):
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                build()

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="'trails' in the top level"):
            config_from_dict(_raw_config(trails=5))

    def test_unknown_signal_key(self):
        # a misspelt decay used to fall back to 0.7 silently
        with pytest.raises(ConfigError, match="'decya' in signal"):
            config_from_dict(_raw_config(signal={"model": "exp_decay", "decya": 0.5}))

    def test_unknown_truncated_power_key(self):
        # "iter" used to run the default 50 iterations silently
        with pytest.raises(ConfigError, match=r"'iter' in algorithms\[2\] \(truncated_power\)"):
            config_from_dict(_raw_config(algorithms=_algorithms(2, iter=5)))

    def test_unknown_esp_key(self):
        with pytest.raises(ConfigError, match=r"'p' in algorithms\[1\] \(esp\)"):
            config_from_dict(_raw_config(algorithms=_algorithms(1, p=2)))

    def test_key_of_another_strategy_rejected(self):
        with pytest.raises(ConfigError, match=r"'p' in algorithms\[0\] \(gesp sqrt_k\)"):
            config_from_dict(_raw_config(algorithms=_algorithms(0, strategy="sqrt_k")))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_base_seed_outside_64_bits(self, seed):
        # -1 used to wrap to 2^64 - 1
        with pytest.raises(ConfigError, match="base_seed"):
            config_from_dict(_raw_config(base_seed=seed))

    def test_base_seed_edges_accepted(self):
        assert config_from_dict(_raw_config(base_seed=2**64 - 1)).base_seed == 2**64 - 1
        assert config_from_dict(_raw_config(base_seed=0)).base_seed == 0

    @pytest.mark.parametrize("norm", [float("nan"), float("inf")])
    def test_non_finite_target_norm_rejected(self, norm):
        # JSON loads NaN and Infinity; signals are drawn at unit norm, so target_norm is no key at all
        with pytest.raises(ConfigError, match="^unknown key 'target_norm' in signal; expected one of model, decay$"):
            config_from_dict(_raw_config(signal={"model": "gaussian", "target_norm": norm}))

    @pytest.mark.parametrize("model, k", [("gaussian", 2), ("binary", 2), ("example1", 1), ("example2", 1)])
    def test_decay_beside_another_model_rejected(self, model, k):
        # {"model": "gaussian", "decay": 0.3} used to load and draw the same signals as without the key
        for decay in (0.3, 0.7):
            with pytest.raises(ConfigError, match=f"^signal.decay is only valid for the exp_decay model, not '{model}'$"):
                config_from_dict(_raw_config(k=k, signal={"model": model, "decay": decay}))
        assert config_from_dict(_raw_config(k=k, signal={"model": "exp_decay", "decay": 0.3})).signal.decay == 0.3

    @pytest.mark.parametrize("value", [None, 5, ["a"]], ids=["null", "5", "list"])
    def test_out_path_must_be_a_string(self, value):
        # null used to load as the file name "None", 5 as "5"
        with pytest.raises(ConfigError, match="^out_path must be a string, got "):
            config_from_dict(_raw_config(out_path=value))

    @pytest.mark.parametrize("overrides, message", [
        ({"trials": 0}, "trials must be >= 1, got 0"),
        ({"threads": 0}, "threads must be >= 1, got 0"),
        ({"algorithms": []}, "at least one algorithm is required"),
        ({"ratios": []}, "at least one ratio is required"),
        ({"signal": "gaussian"}, "signal must be a JSON object, got 'gaussian'"),
        ({"algorithms": ["esp"]}, "algorithms[0] must be an object with an 'algorithm' key: 'esp'"),
        ({"ratios": [1.0, "0.5"]}, "ratios[1] must be a number, got '0.5'"),
        ({"algorithms": [{"algorithm": "gesp", "strategy": "truncated_power", "iters": 5}]},
         "unknown key 'iters' in algorithms[0] (gesp truncated_power); expected one of algorithm, strategy"),
        ({"algorithms": [{"algorithm": "gesp", "strategy": "truncated_power"}]}, "bad algorithm entry algorithms[0] "
         f"{{'algorithm': 'gesp', 'strategy': 'truncated_power'}}: unknown strategy 'truncated_power'; "
         f"expected one of {STRATEGY_KINDS}"),
        ({"algorithms": [{"algorithm": "gesp", "strategy": ["fixed"]}]}, "bad algorithm entry algorithms[0] "
         f"{{'algorithm': 'gesp', 'strategy': ['fixed']}}: unknown strategy ['fixed']; "
         f"expected one of {STRATEGY_KINDS}"),
        ({"algorithms": [{"algorithm": "gesp", "strategy": {"kind": "fixed"}}]}, "bad algorithm entry algorithms[0] "
         f"{{'algorithm': 'gesp', 'strategy': {{'kind': 'fixed'}}}}: unknown strategy {{'kind': 'fixed'}}; "
         f"expected one of {STRATEGY_KINDS}"),
        ({"signal": {"model": "foo"}},
         f"invalid config value: unknown signal model 'foo'; expected one of {SIGNAL_MODELS}"),
    ], ids=["trials", "threads", "no-algorithms", "no-ratios", "signal-string", "algorithm-string", "ratio-string",
            "strategy-baseline-with-its-key", "strategy-baseline", "strategy-array", "strategy-object", "signal-model"])
    def test_bad_value_rejected_by_name(self, overrides, message):
        # a gesp strategy named like a baseline used to take that baseline's keys, and was told it may not carry
        # strategy; an array or object failed its key lookup as invalid config value: unhashable type. A
        # constructor's plain ValueError, as for an unknown signal model, is wrapped by the loader
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config_from_dict(_raw_config(**overrides))

    @pytest.mark.parametrize("key, value", [
        ("ratios", "0.5"), ("ratios", {"0.5": 1}), ("algorithms", "esp"), ("algorithms", {"algorithm": "esp"}),
    ])
    def test_string_or_object_for_an_array_rejected(self, key, value):
        # "ratios": "0.5" used to report ratios[0] must be a number, got '0'
        with pytest.raises(ConfigError, match=f"^{key} must be a JSON array, got {re.escape(repr(value))}$"):
            config_from_dict(_raw_config(**{key: value}))

    def test_type_error_is_wrapped(self):
        # the loader used to wrap tuple()'s TypeError as invalid config value: 'int' object is not iterable;
        # BenchConfig now names the field, and the loader keeps its wrap for any TypeError that gets past it
        with pytest.raises(ConfigError, match="^ratios must be a JSON array, got 5$") as info:
            config_from_dict(_raw_config(ratios=5))
        assert isinstance(info.value.__cause__, TypeError)

    def test_top_level_must_be_an_object(self):
        with pytest.raises(ConfigError, match="^config must be a JSON object, got list$"):
            config_from_dict([_raw_config()])

    def test_invalid_json_names_the_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(_raw_config())[:-1])
        with pytest.raises(ConfigError, match=f"^config {re.escape(str(path))} is not valid JSON: "):
            load_config(path)

    def test_non_finite_target_norm_rejected_from_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(_raw_config()).replace('"gaussian"}', '"gaussian", "target_norm": NaN}'))
        with pytest.raises(ConfigError, match="target_norm"):
            load_config(path)


class TestOneSource:
    def test_missing_optional_keys_take_the_dataclass_defaults(self):
        raw = _raw_config(algorithms=[
            {"algorithm": "gesp", "strategy": "known_structure"},
            {"algorithm": "truncated_power"},
        ])
        assert config_from_dict(raw) == BenchConfig(
            ratios=(1.0,), trials=1, base_seed=0,
            signal=SignalModelSpec(model="gaussian", n=8, k=2),
            algorithms=(
                AlgorithmSpec(name="gesp", strategy=PStrategy(kind="known_structure")),
                AlgorithmSpec(name="truncated_power"),
            ),
        )

    def test_n_and_k_are_the_signals(self):
        config = _mini_config(signal=SignalModelSpec(model="gaussian", n=30, k=5))
        assert (config.n, config.k) == (30, 5)
        loaded = config_from_dict(_raw_config(n=12, k=3))
        assert (loaded.n, loaded.k) == (loaded.signal.n, loaded.signal.k) == (12, 3)
        assert len(fields(BenchConfig)) == 8 and {"n", "k"}.isdisjoint(f.name for f in fields(BenchConfig))

    def test_size_cannot_disagree_with_the_signal(self):
        # n=10 beside the signal's n=24 used to build and fail inside run_sweep
        with pytest.raises(TypeError):
            _mini_config(n=10, k=2)

    @pytest.mark.parametrize("strategy", [
        PStrategy.fixed(2), PStrategy.sqrt_k(), PStrategy.full_k(), PStrategy.ensemble(),
    ], ids=lambda s: s.kind)
    def test_run_algorithm_profile_unread_outside_known_structure(self, strategy):
        config = _mini_config()
        _seed, sig, meas = build_trial_instance(config, 1, 0)
        got = bench.run_algorithm(AlgorithmSpec(name="gesp", strategy=strategy), meas, config.k, sig)
        ref = gesp(meas, config.k, strategy)
        assert got.z.tobytes() == ref.z.tobytes() and got.p_used == ref.p_used
        assert np.array_equal(got.support, ref.support) and np.array_equal(got.s0, ref.s0)


class TestRunSweep:
    def test_record_cardinality(self):
        records = run_sweep(_mini_config())
        assert len(records) == 2 * 3 * 2  # ratios x trials x algorithms

    def test_deterministic_across_runs_and_threads(self):
        a = run_sweep(_mini_config(threads=1))
        for threads in (1, 2, 4, 8):
            assert run_sweep(_mini_config(threads=threads)) == a
        # (ratio, trial) order, the algorithms in config order within a trial
        assert [(r.ratio, r.trial_index, r.algorithm) for r in a] == [
            (ratio, ti, name) for ratio in (0.5, 1.0) for ti in range(3) for name in ("gesp", "esp")
        ]

    def test_failing_trial_stops_threaded_sweep(self, monkeypatch, tmp_path):
        # every queued trial used to run after the first one raised
        log = tmp_path / "started.log"
        monkeypatch.setenv(sweep_tasks.STARTED_LOG, str(log))  # the workers inherit it
        monkeypatch.setattr(bench, "_run_trial", sweep_tasks.failing_trial)
        config = _mini_config(trials=20, threads=2)  # 2 ratios x 20 trials = 40 tasks
        with pytest.raises(RuntimeError, match="trial failed"):
            run_sweep(config)
        assert len(log.read_text().splitlines()) <= config.threads + 2

    def test_paired_measurements_within_trial(self):
        records = run_sweep(_mini_config())
        by_trial = {}
        for rec in records:
            by_trial.setdefault((rec.ratio, rec.trial_index), set()).add(rec.seed)
        assert all(len(seeds) == 1 for seeds in by_trial.values())

    def test_instance_rebuild_is_identical(self):
        config = _mini_config()
        seed_a, sig_a, meas_a = build_trial_instance(config, 1, 2)
        seed_b, sig_b, meas_b = build_trial_instance(config, 1, 2)
        assert seed_a == seed_b
        assert np.array_equal(sig_a.vector, sig_b.vector)
        assert np.array_equal(meas_a.sensing, meas_b.sensing)

    def test_algorithm_error_flags_record_and_continues(self):
        config = _mini_config(algorithms=(
            AlgorithmSpec(name="gesp", strategy=PStrategy.fixed(99)),  # p > k at solve time
            AlgorithmSpec(name="esp"),
        ))
        records = run_sweep(config)
        bad = [r for r in records if r.algorithm == "gesp"]
        good = [r for r in records if r.algorithm == "esp"]
        assert all(r.error_flag == 1 and math.isnan(r.relative_error) for r in bad)
        assert all(r.error_flag == 0 for r in good)

    def test_support_fraction_and_errors_in_range(self):
        for rec in run_sweep(_mini_config()):
            assert 0.0 <= rec.support_fraction <= 1.0
            assert rec.relative_error >= 0.0
            assert rec.raw_error >= 0.0


class TestAggregate:
    def _record(self, rel, supp=1.0, algorithm="esp", ratio=0.5, error=0):
        return TrialRecord(
            signal_model="gaussian", algorithm=algorithm, strategy="",
            n=8, k=2, m=4, ratio=ratio, trial_index=0, seed=1, p_used=1,
            relative_error=rel, raw_error=rel, support_fraction=supp,
            runtime_ms=0.0, error_flag=error,
        )

    def test_single_record(self):
        agg = aggregate([self._record(0.3)])
        stats = agg[("esp", "", 0.5)]
        assert stats.mean_rel_err == 0.3
        assert stats.sd_rel_err == 0.0
        assert stats.count == 1

    def test_two_records_mean(self):
        agg = aggregate([self._record(0.2), self._record(0.4)])
        assert agg[("esp", "", 0.5)].mean_rel_err == pytest.approx(0.3, abs=1e-15)

    def test_error_records_excluded(self):
        agg = aggregate([self._record(0.2), self._record(float("nan"), error=1)])
        assert agg[("esp", "", 0.5)].count == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_matches_streaming_oracle(self):
        rng = np.random.default_rng(77)
        records = [self._record(float(x)) for x in rng.random(500)]
        stats = aggregate(records)[("esp", "", 0.5)]
        stream = StreamingMoments()
        for rec in records:
            stream.add(rec.relative_error)
        assert abs(stats.mean_rel_err - stream.mean) <= 1e-12
        assert abs(stats.sd_rel_err - stream.population_sd) <= 1e-12


class TestWriteCsv:
    HEADER = ("signal_model,algorithm,strategy,n,k,m,ratio,trial_index,seed,"
              "p_used,relative_error,raw_error,support_fraction,runtime_ms,error_flag")

    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], path)
        assert path.read_text() == self.HEADER + "\n"

    def test_single_record_round_trip(self, tmp_path):
        records = run_sweep(_mini_config(trials=1, ratios=(1.0,)))
        path = tmp_path / "one.csv"
        write_csv(records[:1], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "gaussian"
        assert float(fields[10]) == records[0].relative_error  # 17 sig digits round-trips

    def test_lf_newlines(self, tmp_path):
        path = tmp_path / "lf.csv"
        write_csv(run_sweep(_mini_config(trials=1)), path)
        blob = path.read_bytes()
        assert b"\r" not in blob

    def test_golden_file(self, tmp_path):
        # frozen output of the shipped golden config, audited once
        config = load_config(REPO / "configs" / "golden.json")
        path = tmp_path / "golden.csv"
        write_csv(run_sweep(config), path)
        assert path.read_bytes() == (REPO / "tests" / "data" / "golden.csv").read_bytes()


class TestWritePlotData:
    def test_single_algorithm_block(self, tmp_path):
        records = run_sweep(_mini_config(
            ratios=(1.0, 0.5, 0.75),
            algorithms=(AlgorithmSpec(name="esp"),),
        ))
        path = tmp_path / "plot.dat"
        write_plot_data(aggregate(records), path)
        lines = path.read_text().splitlines()
        data = [ln for ln in lines if ln and not ln.startswith("#")]
        assert len(data) == 3
        assert all(len(ln.split()) == 4 for ln in data)
        ratios = [float(ln.split()[0]) for ln in data]
        assert ratios == sorted(ratios)

    def test_blocks_blank_separated(self, tmp_path):
        records = run_sweep(_mini_config())
        path = tmp_path / "plot.dat"
        write_plot_data(aggregate(records), path)
        text = path.read_text()
        blocks = [b for b in text.split("\n\n") if b.strip()]
        assert len(blocks) == 2  # one per algorithm

    def test_unwritable_path_names_it(self, tmp_path):
        path = tmp_path / "no_such_dir" / "plot.dat"
        with pytest.raises(OSError, match=f"^failed writing plot data to {re.escape(str(path))}: "):
            write_plot_data({}, path)


class TestRuntimeRecording:
    def test_disabled_by_default(self):
        records = run_sweep(_mini_config(trials=1))
        assert all(rec.runtime_ms == 0.0 for rec in records)

    def test_enabled_measures_time(self):
        records = run_sweep(_mini_config(trials=1, record_runtime=True))
        assert any(rec.runtime_ms > 0.0 for rec in records)


class TestSweepMonotonicity:
    def test_mean_error_non_increasing_in_ratio(self):
        # harness-level statistical check: per algorithm, the mean relative
        # error should not rise with the sampling ratio beyond one bootstrap
        # standard error of the difference
        config = BenchConfig(
            ratios=tuple(round(0.1 * i, 1) for i in range(1, 11)),
            trials=100, base_seed=808,
            signal=SignalModelSpec(model="gaussian", n=200, k=10),
            algorithms=(
                AlgorithmSpec(name="gesp", strategy=PStrategy.known_structure()),
                AlgorithmSpec(name="esp"),
                AlgorithmSpec(name="diag_two_step"),
            ),
            threads=2,
        )
        records = run_sweep(config)
        boot_rng = np.random.default_rng(1)
        by_algo: dict = {}
        for rec in records:
            by_algo.setdefault((rec.algorithm, rec.strategy), {}).setdefault(rec.ratio, []).append(
                rec.relative_error
            )
        for key, per_ratio in by_algo.items():
            ratios = sorted(per_ratio)
            for lo, hi in zip(ratios, ratios[1:]):
                # trials are paired across ratios only through the base
                # seed, so bootstrap the two means independently
                a = np.array(per_ratio[lo])
                b = np.array(per_ratio[hi])
                boots = [
                    boot_rng.choice(b, b.size).mean() - boot_rng.choice(a, a.size).mean()
                    for _ in range(200)
                ]
                assert np.mean(b) - np.mean(a) <= np.std(boots), (key, lo, hi)


def test_config_json_round_trip(tmp_path):
    raw = {
        "schema_version": 1, "n": 16, "k": 3, "ratios": [0.5], "trials": 2,
        "base_seed": 11, "signal": {"model": "exp_decay", "decay": 0.6},
        "algorithms": [{"algorithm": "gesp", "strategy": "sqrt_k"}],
        "out_path": "x.csv", "threads": 2,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    config = load_config(path)
    assert config.signal.decay == 0.6
    assert config.algorithms[0].strategy.kind == "sqrt_k"
    assert config.threads == 2
