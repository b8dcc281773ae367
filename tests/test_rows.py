import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gapbeam
from gapbeam.rows import RowWorkerError, map_rows
from gapbeam.spectral import DimensionCapExceeded
from gapbeam.timestep import NewtonDivergence

# weights of the five jobs below: dealt longest-first to two bins, jobs 1, 2
# and 0 (weights 5 + 2 + 1) stay in the caller, jobs 3 and 4 (4 + 3) go to
# one worker
WEIGHTS = [1, 5, 2, 4, 3]


def pid_row(i):
    return i, os.getpid()


def diverging_row(i):
    if i == 3:
        raise NewtonDivergence(0.5, 2e-3, 25)
    return i


def test_input_order_and_longest_first_bins():
    out = map_rows(pid_row, [(i,) for i in range(5)], WEIGHTS, workers=2)
    assert [i for i, _ in out] == list(range(5))
    pids = [pid for _, pid in out]
    assert [pid == os.getpid() for pid in pids] == [True, True, True, False,
                                                     False]
    assert pids[3] == pids[4]


def test_one_bin_is_a_plain_loop():
    jobs = [(i,) for i in range(3)]
    assert map_rows(pid_row, jobs, workers=1) == [(i, os.getpid()) for i in
                                                  range(3)]
    assert map_rows(pid_row, jobs[:1], workers=4) == [(0, os.getpid())]


def test_worker_exception_reaches_caller():
    with pytest.raises(NewtonDivergence) as err:
        map_rows(diverging_row, [(i,) for i in range(5)], WEIGHTS, workers=2)
    assert (err.value.t, err.value.residual, err.value.iterations) == \
        (0.5, 2e-3, 25)


def exiting_row(i):
    if i == 3:
        os._exit(3)
    return i


def slow_failing_row(i):
    if i == 1:
        raise ValueError("bin 0 failed")
    time.sleep(0.2)
    return i


def megabyte_row(i):
    return i, np.full(1 << 17, float(i))


@pytest.fixture
def deadline():
    """Turn a map_rows that hangs on its pipes into a failure after 30 s."""
    def expire(signum, frame):
        raise TimeoutError("map_rows did not return within 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_worker_that_exits_without_a_result_is_named(deadline):
    with pytest.raises(RowWorkerError, match="exit status 3"):
        map_rows(exiting_row, [(i,) for i in range(5)], WEIGHTS, workers=2)


def test_bin_zero_error_waits_for_every_child(deadline):
    # job 1 is the heaviest, so it runs in the caller and fails at once while
    # the two workers are still asleep
    with pytest.raises(ValueError, match="bin 0 failed"):
        map_rows(slow_failing_row, [(i,) for i in range(5)], WEIGHTS,
                 workers=3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_results_larger_than_a_pipe_buffer_come_back_intact(deadline):
    out = map_rows(megabyte_row, [(i,) for i in range(6)], workers=3)
    assert [i for i, _ in out] == list(range(6))
    for i, arr in out:
        assert arr.nbytes == 1 << 20 and (arr == float(i)).all()


def test_no_pool_module_without_a_second_bin():
    # with one bin or two: a second bin is a bare fork, not a pool
    code = ("import sys, gapbeam.cli\n"
            "from gapbeam.rows import map_rows\n"
            "map_rows(abs, [(-1,), (-2,)], workers=1)\n"
            "map_rows(abs, [(-1,)], workers=4)\n"
            "assert map_rows(abs, [(-1,), (-2,)], workers=2) == [1, 2]\n"
            "print([m for m in ('multiprocessing', 'concurrent.futures')\n"
            "       if m in sys.modules])\n")
    env = dict(os.environ, PYTHONPATH=str(Path(gapbeam.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("exc, fields", [
    (NewtonDivergence(1.0, 2e-3, 25), ("t", "residual", "iterations")),
    (DimensionCapExceeded(4004), ("n",)),
])
def test_solver_errors_survive_pickling(exc, fields):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert [getattr(back, f) for f in fields] == [getattr(exc, f) for f in fields]
    assert str(back) == str(exc)
