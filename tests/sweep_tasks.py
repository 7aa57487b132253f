"""Stand-ins for `bench._run_trial` that a spawned sweep worker can import.

A test patches one in as `bench._run_trial`; `run_sweep` then pickles it by
its module path, so the workers run it where they would not see a closure.
"""

import os
import signal
import time

from gesp.bench import BLAS_THREAD_VARS

# Names the file that failing_trial appends one line to as each trial starts.
STARTED_LOG = "SWEEP_TASKS_STARTED_LOG"


def failing_trial(config, ratio_index, trial_index):
    """Log the start, take 10 ms, and raise on task (0, 0)."""
    with open(os.environ[STARTED_LOG], "a") as log:
        log.write(f"{ratio_index} {trial_index}\n")
    time.sleep(0.01)
    if (ratio_index, trial_index) == (0, 0):
        raise RuntimeError("trial failed")
    return []


def environment_trial(config, ratio_index, trial_index):
    """One entry per task, after 10 ms: the worker's pid, its BLAS thread
    variables and whether it ignores SIGINT."""
    time.sleep(0.01)
    env = tuple(os.environ.get(var) for var in BLAS_THREAD_VARS)
    return [(os.getpid(), env, signal.getsignal(signal.SIGINT) == signal.SIG_IGN)]


def exiting_trial(config, ratio_index, trial_index):
    """End the worker process at once with status 3, as a crash would."""
    os._exit(3)
