import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import gapbeam
from gapbeam.rows import map_rows
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


def test_no_pool_module_without_a_second_bin():
    code = ("import sys, gapbeam.cli\n"
            "from gapbeam.rows import map_rows\n"
            "map_rows(abs, [(-1,), (-2,)], workers=1)\n"
            "map_rows(abs, [(-1,)], workers=4)\n"
            "print('concurrent.futures.process' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(gapbeam.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("exc, fields", [
    (NewtonDivergence(1.0, 2e-3, 25), ("t", "residual", "iterations")),
    (DimensionCapExceeded(4004), ("n",)),
])
def test_solver_errors_survive_pickling(exc, fields):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert [getattr(back, f) for f in fields] == [getattr(exc, f) for f in fields]
    assert str(back) == str(exc)
