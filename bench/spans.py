"""Outside-in timing spans around the public functions of gapbeam.

The wrappers are installed on module attributes, under the name through which
each caller reaches the function (``gapbeam.cli.simulate``,
``gapbeam.artifacts.energy_series``, ...), so nothing in the package changes.
Spans nest: a span's self time is its duration minus the time of the wrapped
calls made inside it.  The ``model`` laws are counted, not timed, because they
run several times per Newton iteration and their own time belongs to the step.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import Counter, defaultdict
from time import perf_counter

TIMED = "timed"
COUNTED = "counted"


def _steps(tracer, args, result):
    # simulate(system, state0, laws, cfg, t_final, ...)
    cfg, t_final = args[3], args[4]
    tracer.counts["timestep.steps"] += int(round(t_final / cfg.dt))
    tracer.counts["timestep.samples"] += len(result)


def _operator_bytes(tracer, args, result):
    # computed, not measured: every array the assembled system holds
    arrays = [v for v in vars(result).values() if hasattr(v, "nbytes")]
    arrays.append(result.mesh.nodes)
    total = sum(a.nbytes for a in arrays)
    tracer.counts["discretize.operator_bytes"] = max(
        tracer.counts["discretize.operator_bytes"], total)


def _pencil_dim(tracer, args, result):
    tracer.counts["spectral.pencil_dim_max"] = max(
        tracer.counts["spectral.pencil_dim_max"], int(args[0].n))


def _bytes_written(tracer, args, result):
    tracer.counts["artifacts.bytes_written"] += os.path.getsize(args[0])


# (module the caller looks the name up in, attribute, span name, kind, hook);
# only the bindings the two workloads reach.  Hooks see positional arguments,
# which is how every caller in the package passes them.
BINDINGS = (
    ("gapbeam.cli", "load_config", "config.load_config", TIMED, None),
    ("gapbeam.cli", "build_mesh", "discretize.build_mesh", TIMED, None),
    ("gapbeam.cli", "assemble", "discretize.assemble", TIMED, _operator_bytes),
    ("gapbeam.cli", "initial_state", "timestep.initial_state", TIMED, None),
    ("gapbeam.cli", "simulate", "timestep.simulate", TIMED, _steps),
    ("gapbeam.cli", "energy_series", "diagnostics.energy_series", TIMED, None),
    ("gapbeam.cli", "fit_decay", "diagnostics.fit_decay", TIMED, None),
    ("gapbeam.cli", "constraint_violation", "diagnostics.constraint_violation",
     TIMED, None),
    ("gapbeam.cli", "complementarity_report",
     "diagnostics.complementarity_report", TIMED, None),
    ("gapbeam.cli", "xi_study", "spectral.xi_study", TIMED, None),
    ("gapbeam.cli", "trend_toward_zero", "spectral.trend_toward_zero", TIMED,
     None),
    ("gapbeam.cli", "write_trajectory_csv", "artifacts.write_trajectory_csv",
     TIMED, _bytes_written),
    ("gapbeam.cli", "write_table_csv", "artifacts.write_table_csv", TIMED,
     _bytes_written),
    ("gapbeam.cli", "write_summary", "artifacts.write_summary", TIMED,
     _bytes_written),
    ("gapbeam.timestep", "total_energy", "timestep.total_energy", TIMED, None),
    ("gapbeam.timestep", "contact_traction", "model.contact_traction", COUNTED,
     None),
    ("gapbeam.diagnostics", "energy", "diagnostics.energy", TIMED, None),
    ("gapbeam.diagnostics", "recover_stress", "discretize.recover_stress", TIMED,
     None),
    ("gapbeam.artifacts", "energy_series", "diagnostics.energy_series", TIMED,
     None),
    ("gapbeam.artifacts", "recover_stress", "discretize.recover_stress", TIMED,
     None),
    ("gapbeam.spectral", "build_mesh", "discretize.build_mesh", TIMED, None),
    ("gapbeam.spectral", "assemble", "discretize.assemble", TIMED,
     _operator_bytes),
    ("gapbeam.spectral", "generator", "spectral.generator", TIMED, None),
    ("gapbeam.spectral", "spectrum", "spectral.spectrum", TIMED, _pencil_dim),
)

SPAN_NAMES = tuple(sorted({span for _, _, span, _, _ in BINDINGS}))


class Tracer:
    """In-memory span accumulator; one per traced process."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack = [0.0]   # per open span: time spent in wrapped children

    @property
    def children_s(self) -> float:
        """Time spent inside top-level wrapped calls (closed spans only)."""
        return self._stack[0]

    def timed(self, span, fn, hook=None):
        stack = self._stack
        self_s, calls = self.self_s, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                inner = stack.pop()
                stack[-1] += dur
                self_s[span] += dur - inner
                calls[span] += 1
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def counted(self, span, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[span] += 1
            return fn(*args, **kwargs)

        return wrapper

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts)}


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every binding that exists; return what restore() needs.

    A binding missing from the package is skipped here; the span coverage
    check of the benchmark reports the span that consequently never fires.
    """
    undo = []
    for modname, attr, span, kind, hook in BINDINGS:
        module = importlib.import_module(modname)
        original = getattr(module, attr, None)
        if original is None:
            continue
        if kind == TIMED:
            wrapped = tracer.timed(span, original, hook)
        else:
            wrapped = tracer.counted(span, original)
        setattr(module, attr, wrapped)
        undo.append((module, attr, original))
    return undo


def restore(undo: list[tuple]) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)
