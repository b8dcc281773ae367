"""Independent rows of a study, spread over processes.

Every row of a sweep is a pure function of its inputs, so rows can run in any
process and in any order; map_rows hands the results back in input order, and
the artifacts built from them do not depend on the number of workers.  A
worker is a bare os.fork child that pickles its rows into its own pipe.
"""

from __future__ import annotations

import os
import pickle
from collections.abc import Callable, Sequence


class RowWorkerError(RuntimeError):
    """A forked worker ended without handing back its rows."""


def map_rows(fn: Callable, jobs: Sequence[tuple],
             weights: Sequence[float] | None = None, workers: int = 1) -> list:
    """[fn(*job) for job in jobs], computed on up to `workers` processes.

    The jobs are dealt longest-first by weight (equal weights when None), each
    to the bin with the least weight so far, into min(workers, len(jobs))
    bins.  Bin 0 runs in the calling process, so its share of the work stays
    visible to in-process profilers; every other bin runs in a forked child.
    Every child is reaped before an exception reaches the caller: bin 0's
    first, then the children's in bin order.  Results must pickle.
    """
    n_bins = min(workers, len(jobs))
    if n_bins <= 1:
        return [fn(*job) for job in jobs]
    bins = _deal(weights or [1] * len(jobs), n_bins)
    children, outcomes = [], []
    try:
        for b in bins[1:]:
            children.append(_fork_bin(fn, [jobs[i] for i in b]))
        outcomes.append((True, [fn(*jobs[i]) for i in bins[0]]))
    finally:
        for pid, read_end in children:
            with open(read_end, "rb") as pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            outcomes.append(pickle.loads(data) if status == 0 and data else (
                False, RowWorkerError(f"row worker {pid} ended with exit "
                                      f"status {status} and no result")))
    results = [None] * len(jobs)
    for b, (ok, part) in zip(bins, outcomes):
        if not ok:
            raise part
        for i, result in zip(b, part):
            results[i] = result
    return results


def _deal(weights: Sequence[float], n_bins: int) -> list[list[int]]:
    """Job indices per bin: heaviest first, each to the least-loaded bin.

    Ties go to the lower index, both among jobs and among bins, so the deal is
    a function of the weights alone.
    """
    bins: list[list[int]] = [[] for _ in range(n_bins)]
    load = [0] * n_bins
    for i in sorted(range(len(weights)), key=lambda i: -weights[i]):
        b = load.index(min(load))
        bins[b].append(i)
        load[b] += weights[i]
    return bins


def _fork_bin(fn: Callable, jobs: list[tuple]) -> tuple[int, int]:
    """Fork a child that pickles (ok, its rows or exception) into a pipe."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1  # os._exit: the cleanup and buffers are the parent's
        try:
            try:
                outcome = (True, [fn(*job) for job in jobs])
            except Exception as exc:
                outcome = (False, exc)
            with open(write_end, "wb") as pipe:
                pickle.dump(outcome, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)  # before the next fork: EOF means this child is gone
    return pid, read_end
