"""Independent rows of a study, spread over processes.

Every row of a sweep is a pure function of its inputs, so rows can run in any
process and in any order; map_rows hands the results back in input order, and
the artifacts built from them do not depend on the number of workers.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence


def map_rows(fn: Callable, jobs: Sequence[tuple],
             weights: Sequence[float] | None = None, workers: int = 1) -> list:
    """[fn(*job) for job in jobs], computed on up to `workers` processes.

    The jobs are dealt longest-first by weight (equal weights when None), each
    to the bin with the least weight so far, into min(workers, len(jobs))
    bins.  Bin 0 runs in the calling process, so its share of the work stays
    visible to in-process profilers; every other bin is one task of a forked
    process pool.  An exception raised by any bin reaches the caller.  fn must
    be a module-level function, and jobs and results must pickle.
    """
    n_bins = min(workers, len(jobs))
    if n_bins <= 1:
        return [fn(*job) for job in jobs]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    bins = _deal(weights or [1] * len(jobs), n_bins)
    # fork, not spawn: a worker inherits the imported package and numpy
    # instead of importing them again
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(n_bins - 1, mp_context=fork) as pool:
        futures = [pool.submit(_run_bin, fn, [jobs[i] for i in b])
                   for b in bins[1:]]
        parts = [_run_bin(fn, [jobs[i] for i in bins[0]])]
        parts += [future.result() for future in futures]
    results = [None] * len(jobs)
    for b, part in zip(bins, parts):
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


def _run_bin(fn: Callable, jobs: list[tuple]) -> list:
    return [fn(*job) for job in jobs]
