import csv
import hashlib
import json
import os
import pathlib
import re
import runpy
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from gesp import bench, cli
from gesp.bench import BLAS_THREAD_VARS, build_trial_instance, load_config
from gesp.cli import cli_main
from gesp.measurement import save_measurements
from gesp.numerics import p_objective, p_opt

import sweep_tasks

REPO = pathlib.Path(__file__).resolve().parents[1]


def _cli_env() -> dict:
    """This environment, with the package importable by `python -m gesp`."""
    path = os.pathsep.join(filter(None, (str(REPO / "src"), os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


def _spawned_workers(session: int) -> list[int]:
    """Pids of the live multiprocessing workers in the given session."""
    pids = []
    for stat in pathlib.Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()  # state, ppid, pgrp, session, ...
            cmdline = (stat.parent / "cmdline").read_bytes()
        except (OSError, IndexError):  # the process has exited
            continue
        if int(fields[3]) == session and fields[0] != "Z" and b"spawn_main" in cmdline:
            pids.append(int(stat.parent.name))
    return pids


def _small_config(tmp_path, **overrides):
    raw = {
        "schema_version": 1, "n": 24, "k": 4,
        "ratios": [0.5, 1.0], "trials": 2, "base_seed": 321,
        "signal": {"model": "gaussian"},
        "algorithms": [
            {"algorithm": "gesp", "strategy": "full_k"},
            {"algorithm": "esp"},
        ],
        "out_path": str(tmp_path / "out.csv"),
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def _full_scale_config(tmp_path, **overrides):
    """configs/full_scale.json (n = 1000) with the given keys replaced."""
    raw = json.loads((REPO / "configs" / "full_scale.json").read_text())
    path = tmp_path / "full_scale.json"
    path.write_text(json.dumps(dict(raw, **overrides)))
    return path


def test_import_leaves_pool_machinery_out():
    # bench used to import concurrent.futures whatever the threads setting
    code = "import sys, gesp; print(sorted({'concurrent.futures', 'multiprocessing'} & sys.modules.keys()))"
    run = subprocess.run([sys.executable, "-c", code], env=_cli_env(), capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


class TestRun:
    def test_sweep_writes_csv(self, tmp_path, capsys):
        config = _small_config(tmp_path)
        assert cli_main(["run", "--config", str(config)]) == 0
        out = (tmp_path / "out.csv").read_text().splitlines()
        assert len(out) == 1 + 2 * 2 * 2
        assert "wrote" in capsys.readouterr().out

    def test_out_override_and_plot(self, tmp_path):
        config = _small_config(tmp_path)
        out = tmp_path / "other.csv"
        plot = tmp_path / "plot.dat"
        assert cli_main(["run", "--config", str(config), "--out", str(out), "--plot-out", str(plot)]) == 0
        assert out.exists() and plot.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_rejected(self, tmp_path, capsys, seed):
        # --seed -1 used to wrap to 2^64 - 1
        config = _small_config(tmp_path)
        assert cli_main(["run", "--config", str(config), "--seed", seed]) == 1
        assert "base_seed" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_workers_start_with_blas_pinned(self, tmp_path, monkeypatch):
        # a threaded sweep used to leave BLAS threads to the caller's environment
        for var in BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        config = load_config(_small_config(tmp_path, trials=4, threads=2))
        before = dict(os.environ)
        monkeypatch.setattr(bench, "_run_trial", sweep_tasks.environment_trial)
        seen = bench.run_sweep(config)
        assert len(seen) == 2 * 4
        assert all(env == ("1", "1", "1") for _pid, env, _ in seen), seen
        assert all(ignores_sigint for *_, ignores_sigint in seen)  # a Ctrl-C is the caller's to handle
        assert dict(os.environ) == before
        monkeypatch.setenv(sweep_tasks.STARTED_LOG, str(tmp_path / "started.log"))
        monkeypatch.setattr(bench, "_run_trial", sweep_tasks.failing_trial)
        before = dict(os.environ)
        with pytest.raises(RuntimeError, match="trial failed"):
            bench.run_sweep(config)
        assert dict(os.environ) == before

    def test_overlapping_threaded_sweeps_restore_environ(self, tmp_path, monkeypatch):
        # a sweep that starts while another has the variables at 1, and ends after it,
        # must neither save those as the caller's values nor start its workers unpinned
        for var in BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        short, long = (load_config(_small_config(tmp_path, trials=trials, threads=2)) for trials in (2, 20))
        monkeypatch.setattr(bench, "_run_trial", sweep_tasks.environment_trial)
        before = dict(os.environ)
        with ThreadPoolExecutor(2) as callers:
            first = callers.submit(bench.run_sweep, short)
            while os.environ.get("OPENBLAS_NUM_THREADS") != "1":  # until the first sweep has pinned them
                assert not first.done()
                time.sleep(0.001)
            second = callers.submit(bench.run_sweep, long)
            sweeps = [first.result(), second.result()]
        assert [len(seen) for seen in sweeps] == [2 * 2, 2 * 20]
        assert all(env == ("1", "1", "1") for seen in sweeps for _pid, env, _ in seen), sweeps
        assert dict(os.environ) == before

    def test_threaded_run_matches_pinned_serial_run(self, tmp_path):
        # at n = 1000 the BLAS thread count moves the last bits of the float columns
        config = _full_scale_config(tmp_path, trials=2)
        unpinned = {key: value for key, value in _cli_env().items() if key not in BLAS_THREAD_VARS}
        for threads, env in (("1", dict(unpinned, **dict.fromkeys(BLAS_THREAD_VARS, "1"))), ("2", unpinned)):
            out = tmp_path / f"threads{threads}.csv"
            argv = [sys.executable, "-m", "gesp", "run", "--config", str(config), "--out", str(out), "--threads", threads]
            subprocess.run(argv, env=env, check=True, capture_output=True, timeout=300)
        assert (tmp_path / "threads1.csv").read_bytes() == (tmp_path / "threads2.csv").read_bytes()

    @pytest.mark.skipif(not pathlib.Path("/proc/self/stat").exists(), reason="reads the process table from /proc")
    def test_interrupt_stops_threaded_run(self, tmp_path):
        config = _full_scale_config(tmp_path, trials=100, out_path=str(tmp_path / "out.csv"))  # about a minute
        argv = [sys.executable, "-m", "gesp", "run", "--config", str(config), "--threads", "2"]
        # SIGINT at its default in the child, even where pytest was started with it ignored
        proc = subprocess.Popen(argv, env=_cli_env(), start_new_session=True,
                                preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.monotonic() + 60
            while not _spawned_workers(proc.pid):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
            os.killpg(proc.pid, signal.SIGINT)  # as soon as a worker exists, while it may still be starting
            try:
                _, err = proc.communicate(timeout=5)
            except subprocess.TimeoutExpired:  # show what the run was doing when the budget ran out
                os.killpg(proc.pid, signal.SIGKILL)
                _, err = proc.communicate()
                pytest.fail(f"gesp run did not exit within 5 s of SIGINT; killed with return code "
                            f"{proc.returncode}, stderr:\n{err}")
            assert proc.returncode == 130
            assert err == "interrupted\n"  # the workers ignore SIGINT, so no traceback of theirs either
            assert _spawned_workers(proc.pid) == []
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()

    @pytest.mark.skipif(not pathlib.Path("/proc/self/stat").exists(), reason="reads the process table from /proc")
    def test_spawned_workers_never_take_sigint(self, tmp_path):
        # a worker used to start with SIGINT live until its initializer ignored it, so a Ctrl-C
        # in that window printed the worker's traceback
        config = _full_scale_config(tmp_path, trials=100, out_path=str(tmp_path / "out.csv"))
        argv = [sys.executable, "-m", "gesp", "run", "--config", str(config), "--threads", "2"]
        proc = subprocess.Popen(argv, env=_cli_env(), start_new_session=True,
                                preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        observations, live = {}, set()  # pid -> times seen; the pids seen with SIGINT live
        try:
            deadline = time.monotonic() + 60
            while len(observations) < 2 or min(observations.values()) < 100:
                assert proc.poll() is None and time.monotonic() < deadline
                for pid in _spawned_workers(proc.pid):
                    try:
                        status = pathlib.Path(f"/proc/{pid}/status").read_text()
                    except OSError:  # the worker has exited
                        continue
                    masks = dict(line.split(":", 1) for line in status.splitlines() if line.startswith("Sig"))
                    if not any(int(masks[key], 16) >> (signal.SIGINT - 1) & 1 for key in ("SigBlk", "SigIgn")):
                        live.add(pid)
                    observations[pid] = observations.get(pid, 0) + 1
            assert live == set()
        finally:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()

    def test_unguarded_script_names_the_main_guard(self, tmp_path):
        # each spawned worker re-runs the script, fails at once, and the caller got a bare BrokenProcessPool
        script = tmp_path / "unguarded.py"
        script.write_text(
            "from gesp.bench import config_from_dict, run_sweep\n"
            "run_sweep(config_from_dict({'schema_version': 1, 'n': 8, 'k': 2, 'ratios': [1.0], 'trials': 2,\n"
            "    'base_seed': 0, 'threads': 2, 'signal': {'model': 'gaussian'}, 'algorithms': [{'algorithm': 'esp'}]}))\n"
        )
        run = subprocess.run([sys.executable, str(script)], env=_cli_env(), capture_output=True, text=True, timeout=120)
        assert run.returncode != 0
        # the terminated workers' nested pools can leave a resource_tracker warning after the caller's error
        last = [line for line in run.stderr.strip().splitlines() if "resource_tracker" not in line][-1]
        assert last.startswith("RuntimeError: a sweep worker exited early") and 'if __name__ == "__main__":' in last
        assert "BrokenProcessPool" in run.stderr and "was the direct cause of the following exception" in run.stderr

    def test_seed_override_changes_results(self, tmp_path):
        config = _small_config(tmp_path)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(["run", "--config", str(config), "--out", str(out_a), "--seed", "1"]) == 0
        assert cli_main(["run", "--config", str(config), "--out", str(out_b), "--seed", "2"]) == 0
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_byte_identical_across_thread_counts(self, tmp_path):
        config = _small_config(tmp_path)
        out_a, out_b = tmp_path / "t1.csv", tmp_path / "t4.csv"
        assert cli_main(["run", "--config", str(config), "--out", str(out_a), "--threads", "1"]) == 0
        assert cli_main(["run", "--config", str(config), "--out", str(out_b), "--threads", "4"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_missing_config_exits_1(self, tmp_path, capsys):
        assert cli_main(["run", "--config", str(tmp_path / "nope.json")]) == 1
        assert "config" in capsys.readouterr().err

    def test_empty_out_is_applied(self, tmp_path, capsys):
        # an empty --out used to be ignored in favour of the config's out_path
        config = _small_config(tmp_path)
        assert cli_main(["run", "--config", str(config), "--out", ""]) == 2
        assert "failed writing records to :" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_non_finite_target_norm_exits_1(self, tmp_path, capsys):
        config = _small_config(tmp_path)
        config.write_text(config.read_text().replace('"gaussian"}', '"gaussian", "target_norm": Infinity}'))
        assert cli_main(["run", "--config", str(config)]) == 1
        assert "target_norm" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_target_norm_key_exits_1(self, tmp_path, capsys):
        # signals are drawn at unit norm; the key used to load and change no reported column
        config = _small_config(tmp_path, signal={"model": "gaussian", "target_norm": 1.0})
        assert cli_main(["run", "--config", str(config)]) == 1
        assert "config error: unknown key 'target_norm' in signal" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_decay_beside_gaussian_exits_1(self, tmp_path, capsys):
        # it used to load and draw the same signals as without the key
        config = _small_config(tmp_path, signal={"model": "gaussian", "decay": 0.3})
        assert cli_main(["run", "--config", str(config)]) == 1
        assert "signal.decay is only valid for the exp_decay model, not 'gaussian'" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_null_out_path_exits_1(self, tmp_path, capsys):
        # it used to write the records to a file named "None"
        config = _small_config(tmp_path, out_path=None)
        assert cli_main(["run", "--config", str(config)]) == 1
        assert "out_path must be a string, got None" in capsys.readouterr().err
        assert not (pathlib.Path.cwd() / "None").exists()

    def test_fixed_p_above_k_exits_1(self, tmp_path, capsys):
        # it used to load and run, and every record of the entry came out NaN with error_flag 1
        fixed = {"algorithm": "gesp", "strategy": "fixed", "p": 99}
        config = _small_config(tmp_path, n=20, k=3, algorithms=[fixed, {"algorithm": "esp"}])
        assert cli_main(["run", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert "algorithms[0].p = 99 exceeds k = 3" in captured.err and captured.out == ""
        assert not (tmp_path / "out.csv").exists()
        fixed["p"] = 3  # p = k is the widest width and loads
        assert load_config(_small_config(tmp_path, n=20, k=3, algorithms=[fixed])).algorithms[0].strategy.p == 3

    def test_error_rows_counted_on_stderr(self, tmp_path, capsys, monkeypatch):
        config = _small_config(tmp_path)
        assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / "clean.csv")]) == 0
        clean = capsys.readouterr()
        assert clean.err == ""
        real = bench.run_algorithm

        def esp_raises(algo, *args):
            if algo.name == "esp":
                raise RuntimeError("esp failed")
            return real(algo, *args)

        monkeypatch.setattr(bench, "run_algorithm", esp_raises)
        assert cli_main(["run", "--config", str(config)]) == 0
        flagged = capsys.readouterr()
        assert flagged.err == "4 of 8 records have error_flag 1\n"
        assert flagged.out == clean.out.replace("clean.csv", "out.csv")
        rows = (tmp_path / "out.csv").read_text().splitlines()
        clean_rows = (tmp_path / "clean.csv").read_text().splitlines()
        for row, clean_row in zip(rows, clean_rows, strict=True):
            if ",esp," in row:
                assert row.endswith(",nan,nan,nan,0,1"), row
            else:
                assert row == clean_row

    def test_unwritable_output_exits_2(self, tmp_path):
        config = _small_config(tmp_path)
        bad = tmp_path / "no_such_dir" / "out.csv"
        assert cli_main(["run", "--config", str(config), "--out", str(bad)]) == 2


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert cli_main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert cli_main(["benchmark"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self, tmp_path, capsys):
        config = _small_config(tmp_path)
        assert cli_main(["run", "--config", str(config), "--parallel", "8"]) == 1
        err = capsys.readouterr().err
        assert "usage" in err and "--parallel" in err

    @pytest.mark.parametrize("argv", [
        ["run", "--config", "c.json"], ["oracle", "--n", "4", "--k", "2", "--m", "9", "--seed", "1"],
    ], ids=lambda argv: argv[0])
    def test_unknown_flag_reported_by_the_subcommand(self, argv, capsys):
        # the top-level parser used to report it, with `usage: gesp [-h] {run,single,signal,oracle} ...`
        assert cli_main([*argv, "--parallel", "8"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: gesp {argv[0]} ")
        assert err.endswith(f"gesp {argv[0]}: error: unrecognized arguments: --parallel 8\n")

    def test_missing_required_flag(self, capsys):
        assert cli_main(["run"]) == 1
        assert "--config" in capsys.readouterr().err

    def test_bad_int_value(self, capsys):
        # the usage printed is the failing subcommand's, not the top-level one
        assert cli_main(["oracle", "--n", "x"]) == 1
        assert "usage: gesp oracle" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]], ids=" ".join)
def test_help_exits_0(argv, capsys):
    # --help used to escape cli_main as SystemExit(0)
    assert cli_main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: gesp")


class TestEntryPoints:
    # the `gesp` script, `python -m gesp` and `python -m gesp.cli` run here in process, not only in subprocesses
    ARGV = ["gesp", "oracle", "--n", "4", "--k", "1", "--m", "8", "--seed", "0"]

    def _exits_0(self, run, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", self.ARGV)
        with pytest.raises(SystemExit) as info:
            run()
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("gaussian signal n=4 k=1")

    def test_main_exits_with_cli_main_status(self, monkeypatch, capsys):
        self._exits_0(cli.main, monkeypatch, capsys)

    def test_python_m_gesp(self, monkeypatch, capsys):
        self._exits_0(lambda: runpy.run_module("gesp", run_name="__main__"), monkeypatch, capsys)

    def test_cli_main_guard(self, monkeypatch, capsys):
        # runpy warns that it runs gesp.cli again, as it is imported already
        with pytest.warns(RuntimeWarning, match="found in sys.modules"):
            self._exits_0(lambda: runpy.run_module("gesp.cli", run_name="__main__"), monkeypatch, capsys)

    def test_ctrl_c_exits_130_with_one_line(self, monkeypatch, capsys):
        def interrupted(args):
            raise KeyboardInterrupt
        monkeypatch.setattr(cli, "_cmd_signal", interrupted)
        assert cli_main(["signal", "--config", "unread.json"]) == 130
        assert capsys.readouterr().err == "interrupted\n"


class TestSingle:
    def test_reproducible_diagnostics(self, tmp_path, capsys):
        config = _small_config(tmp_path)
        args = ["single", "--config", str(config), "--ratio", "0.5", "--trial", "1", "--verbose"]
        assert cli_main(args) == 0
        first = capsys.readouterr().out
        assert cli_main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "sensing sha256=" in first
        assert "S0=" in first and "S1=" in first
        assert "||x_S0||^2/||x||^2=" in first

    def test_sensing_digest_is_the_dumps_sensing_bytes(self, tmp_path, capsys):
        config = _small_config(tmp_path)
        assert cli_main(["single", "--config", str(config), "--ratio", "0.5", "--trial", "1", "--verbose"]) == 0
        printed = re.search(r"^sensing sha256=([0-9a-f]{64})$", capsys.readouterr().out, re.M).group(1)
        _, _, meas = build_trial_instance(load_config(config), 0, 1)
        save_measurements(meas, tmp_path / "meas.bin")
        sensing_bytes = (tmp_path / "meas.bin").read_bytes()[21:21 + 16 * meas.m * meas.n]
        assert printed == hashlib.sha256(sensing_bytes).hexdigest()

    def test_ratio_must_be_configured(self, tmp_path, capsys):
        config = _small_config(tmp_path)
        assert cli_main(["single", "--config", str(config), "--ratio", "0.33", "--trial", "0"]) == 1
        assert "ratio" in capsys.readouterr().err

    def test_ratio_of_a_repeated_m_runs_as_its_grid_ratio(self, tmp_path, capsys):
        # at n = 20, 0.52 and 0.5 both give m = 10; the sweep runs that m once, as ratio 0.5,
        # and single used to reject 0.52 as not one of the config's ratios
        config = _small_config(tmp_path, n=20, ratios=[0.5, 0.52, 1.0])
        headers = []
        for ratio in ("0.5", "0.52"):
            assert cli_main(["single", "--config", str(config), "--ratio", ratio, "--trial", "0"]) == 0
            headers.append(capsys.readouterr().out.splitlines()[0])
        assert headers[0] == headers[1]
        assert " m=10 ratio=0.5 " in headers[0]

    def test_algorithm_lines_match_the_run_csv(self, tmp_path, capsys):
        # p_used, the support overlap and rel_err of each line are those of the trial's CSV row
        config = _small_config(tmp_path, algorithms=[
            {"algorithm": "gesp", "strategy": "known_structure"}, {"algorithm": "gesp", "strategy": "sqrt_k"},
            {"algorithm": "gesp", "strategy": "full_k"}, {"algorithm": "gesp", "strategy": "ensemble"},
            {"algorithm": "esp"}, {"algorithm": "diag_two_step"}, {"algorithm": "truncated_power"},
        ])
        assert cli_main(["run", "--config", str(config)]) == 0
        with open(tmp_path / "out.csv", newline="") as f:
            rows = [row for row in csv.DictReader(f) if row["ratio"] == "1" and row["trial_index"] == "1"]
        capsys.readouterr()
        assert cli_main(["single", "--config", str(config), "--ratio", "1.0", "--trial", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert len(lines) == len(rows) == 7
        for line, row in zip(lines, rows):
            fields = re.match(r"\[(.+)\] p_used=(\d+) \|S1 ∩ supp\|=(\d+)/4 dist=\S+ rel_err=(\S+) ", line)
            assert fields, line
            assert fields.group(1) == f"{row['algorithm']} {row['strategy']}".strip()
            assert int(fields.group(2)) == int(row["p_used"])
            assert int(fields.group(3)) == round(float(row["support_fraction"]) * 4)
            assert fields.group(4) == format(float(row["relative_error"]), ".6g")

    def test_flagged_entry_prints_its_error_flag_and_continues(self, tmp_path, capsys, monkeypatch):
        # single used to exit 2 at the first entry that raised, printing nothing for the entries after it
        config = _small_config(tmp_path, algorithms=[
            {"algorithm": "gesp", "strategy": "full_k"}, {"algorithm": "esp"}, {"algorithm": "diag_two_step"},
        ])
        args = ["single", "--config", str(config), "--ratio", "1.0", "--trial", "1"]
        assert cli_main(args) == 0
        clean = capsys.readouterr().out.splitlines()
        real = bench.run_algorithm

        def esp_raises(algo, *args):
            if algo.name == "esp":
                raise RuntimeError("esp failed")
            return real(algo, *args)

        monkeypatch.setattr(bench, "run_algorithm", esp_raises)
        assert cli_main(args) == 0
        flagged = capsys.readouterr()
        assert flagged.out.splitlines() == [*clean[:2], "[esp] error_flag=1", clean[3]]
        assert flagged.err == ""

    def test_trial_index_validated(self, tmp_path):
        config = _small_config(tmp_path)
        assert cli_main(["single", "--config", str(config), "--ratio", "0.5", "--trial", "7"]) == 1


class TestSignal:
    def test_example1_table(self, capsys):
        # the k=64 construction has s(1) = 8 and s(8) = 2
        assert cli_main(["signal", "--config", str(REPO / "configs" / "example1.json")]) == 0
        out = capsys.readouterr().out
        rows = {}
        for line in out.splitlines():
            m = re.match(r"\s+(\d+)\s+([0-9.eE+-]+)", line)
            if m:
                rows[int(m.group(1))] = float(m.group(2))
        assert rows[1] == pytest.approx(8.0, abs=1e-9)
        assert rows[8] == pytest.approx(2.0, abs=1e-9)
        assert rows[64] == pytest.approx(1.0, abs=1e-9)
        assert "p_opt[global]" in out and "p_opt[capped]" in out

    @pytest.mark.parametrize("path", sorted((REPO / "configs").glob("*.json")), ids=lambda path: path.stem)
    def test_signal_is_first_trials_signal(self, path, capsys):
        assert cli_main(["signal", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        config = load_config(path)
        profile, k = build_trial_instance(config, 0, 0)[1].profile, config.k
        assert lines[0] == f"model={config.signal.model} n={config.n} k={k} ||x||^2={profile.total_energy:.6g}"
        best = {variant: p_opt(profile, k, variant) for variant in ("global", "capped")}
        assert lines[-2:] == [f"p_opt[{v}] = {p} (objective {p_objective(profile, k, p, v):.6g})" for v, p in best.items()]


class TestOracle:
    def test_report(self, capsys):
        assert cli_main(["oracle", "--n", "8", "--k", "3", "--m", "4000", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "frobenius error" in out
        ratio = float(out.rsplit("error ratio m -> 4m:", 1)[1].split()[0])
        assert 1.2 <= ratio <= 3.5

    def test_bad_dimensions(self, capsys):
        assert cli_main(["oracle", "--n", "4", "--k", "9", "--m", "10", "--seed", "1"]) == 1

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_rejected(self, capsys, seed):
        # --seed -1 used to be masked to 2^64 - 1 and exit 0
        assert cli_main(["oracle", "--n", "4", "--k", "2", "--m", "10", "--seed", seed]) == 1
        assert f"seed {seed} outside [0, 2^64)" in capsys.readouterr().err


class TestOutputDigests:
    """tests/output_digests.py, the parent-against-change byte comparison, run as a script."""

    def _run(self, env, *args):
        script = REPO / "tests" / "output_digests.py"
        return subprocess.run([sys.executable, str(script), str(REPO / "src"), *args], env=env,
                              capture_output=True, text=True, timeout=300)

    def test_golden_csv_digest_is_the_golden_file(self):
        run = self._run(dict(_cli_env(), **dict.fromkeys(BLAS_THREAD_VARS, "1")), "--only", "golden")
        assert run.returncode == 0, run.stderr
        digests = {name: digest for digest, name in (line.split("  ") for line in run.stdout.splitlines())}
        assert list(digests) == ["golden.csv", "golden.plot"]
        assert digests["golden.csv"] == hashlib.sha256((REPO / "tests" / "data" / "golden.csv").read_bytes()).hexdigest()

    def test_unpinned_blas_refused_by_name(self):
        env = {key: value for key, value in _cli_env().items() if key not in BLAS_THREAD_VARS}
        run = self._run(dict(env, OMP_NUM_THREADS="1", MKL_NUM_THREADS="2"))
        assert run.returncode == 2 and run.stdout == ""
        assert run.stderr.endswith("error: set OPENBLAS_NUM_THREADS, MKL_NUM_THREADS to 1: "
                                   "the output bytes depend on the BLAS thread count\n")
