"""gapbeam benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; the program is imported from
``src/`` (pure Python, nothing to build).  Every measurement is a fresh
process with BLAS pinned to one thread.  For S seconds, cycles of

* one set-up probe (child.py setup): its wall time is a sample of ``setup_s``;
* one workload run (child.py run): wall time, peak RSS and throughput;
* with ``--trace 1``, one traced workload run;

repeat, at least MIN_REPS of them; no cycle starts that would end past the
window.  Each reported time is the median over the window.  The traced run of
median wall time gives the per-layer metrics, and the difference of the traced
and plain medians is the tracing overhead.  Every run's artifacts are checked
and hashed; a bad exit, a failed check, a span that never fired or a hash that
differs from the other runs of the same inputs counts as a failed run.

The last line of standard output is the JSON result; the line before it
records the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
from workloads import WORKLOADS, artifact_digest, write_config  # noqa: E402

MIN_REPS = 3
DEADLINE_S = 150.0          # stop starting runs after this; exit well before 180 s
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

PER_LAYER = (
    ("cli.import_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.process_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("steps_per_s", "1/s", "higher"),
    ("spectra_per_s", "1/s", "higher"),
    ("failed_share", "ratio", "lower"),
    ("config.self_s", "s", "lower"),
    ("discretize.self_s", "s", "lower"),
    ("timestep.self_s", "s", "lower"),
    ("diagnostics.self_s", "s", "lower"),
    ("spectral.self_s", "s", "lower"),
    ("artifacts.self_s", "s", "lower"),
    ("config.load_config.s", "s", "lower"),
    ("discretize.assemble.s", "s", "lower"),
    ("discretize.operator_bytes", "B-computed", "lower"),
    ("discretize.recover_stress.s", "s", "lower"),
    ("discretize.recover_stress.calls", "count", "lower"),
    ("timestep.simulate.s", "s", "lower"),
    ("timestep.steps", "count", "higher"),
    ("timestep.step_us", "us", "lower"),
    ("timestep.first_step_s", "s", "lower"),
    ("timestep.total_energy.s", "s", "lower"),
    ("timestep.total_energy.calls", "count", "lower"),
    ("timestep.samples", "count", "higher"),
    ("model.contact_traction.calls", "count", "lower"),
    ("timestep.residuals_per_step", "count", "lower"),
    ("diagnostics.energy.s", "s", "lower"),
    ("diagnostics.energy.calls", "count", "lower"),
    ("diagnostics.energy_series.s", "s", "lower"),
    ("diagnostics.energy_series.calls", "count", "lower"),
    ("diagnostics.complementarity_report.s", "s", "lower"),
    ("diagnostics.fit_decay.s", "s", "lower"),
    ("spectral.spectrum.s", "s", "lower"),
    ("spectral.spectrum.calls", "count", "higher"),
    ("spectral.generator.s", "s", "lower"),
    ("spectral.xi_study.s", "s", "lower"),
    ("spectral.pencil_dim_max", "count", "higher"),
    ("artifacts.write_trajectory_csv.s", "s", "lower"),
    ("artifacts.write_table_csv.s", "s", "lower"),
    ("artifacts.write_summary.s", "s", "lower"),
    ("artifacts.bytes_written", "bytes", "lower"),
)

LAYER_TOTALS = ("config", "discretize", "timestep", "diagnostics", "spectral",
                "artifacts")


class Spawner:
    """Starts child processes and times them from spawn to reaping."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, **BLAS_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.n = 0

    def __call__(self, args: list[str]) -> dict:
        """Run one child; returns rc, wall_s, rss_mib and the stderr tail."""
        self.n += 1
        log = self.workdir / f"child{self.n}.log"
        timeout = max(1.0, self.deadline + 20.0 - perf_counter())
        with open(log, "wb") as sink:
            t0 = perf_counter()
            proc = subprocess.Popen([sys.executable, *args], env=self.env,
                                    cwd=self.workdir, stdout=sink, stderr=sink)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                killer.join()
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"rc": proc.returncode, "wall_s": wall,
                "rss_mib": usage.ru_maxrss / 1024.0,
                "log": log.read_text(errors="replace")[-2000:]}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


# per-layer counts recorded by the span hooks, not by span calls
COUNTS = ("timestep.steps", "timestep.samples", "discretize.operator_bytes",
          "spectral.pencil_dim_max", "artifacts.bytes_written")


def layer_metrics(trace: dict, wall: float) -> dict:
    """Per-layer numbers of one traced run."""
    self_s, calls, counts = trace["self_s"], trace["calls"], trace["counts"]
    m = {
        "cli.import_s": trace["import_s"],
        "cli.self_s": trace["command_s"] - trace["children_s"],
        "cli.process_s": wall - trace["import_s"] - trace["command_s"],
        "trace.wall_s": wall,
    }
    for layer in LAYER_TOTALS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                   if k.startswith(layer + "."))
    for name, _, _ in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if span in spans.SPAN_NAMES and kind == "s":
            m[name] = self_s.get(span, 0.0)
        elif span in spans.SPAN_NAMES and kind == "calls":
            m[name] = calls.get(span, 0)
    for name in COUNTS:
        m[name] = counts.get(name, 0)
    steps = m["timestep.steps"]
    m["timestep.step_us"] = (1e6 * self_s.get("timestep.simulate", 0.0) / steps
                             if steps else 0.0)
    # each residual evaluation calls the contact law once
    m["timestep.residuals_per_step"] = (
        calls.get("model.contact_traction", 0) / steps if steps else 0.0)
    return m


def trace_problems(trace: dict, expected: tuple[str, ...]) -> list[str]:
    problems = [f"span {s} never fired" for s in expected
                if not trace["calls"].get(s)]
    # nesting sanity: self times are nonnegative and add up to the children
    total = sum(trace["self_s"].values())
    if any(v < -1e-6 for v in trace["self_s"].values()) or \
            abs(total - trace["children_s"]) > 1e-6 * max(1.0, total):
        problems.append("span self times do not add up")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gapbeam" / "__init__.py").is_file():
        print(f"no gapbeam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    start = perf_counter()
    workdir = ROOT / ".bench_runs" / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return measure(wl, args, Spawner(workdir, start + DEADLINE_S), workdir,
                       start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def measure(wl, args, spawn: Spawner, workdir: Path, start: float) -> int:
    child = str(BENCH / "child.py")
    mapping = wl.config(args.seed)
    config = workdir / "run.cfg"
    write_config(mapping, config)
    setup_cfg = workdir / "setup.cfg"
    write_config(wl.setup_config(args.seed), setup_cfg)

    # compiles the package's bytecode and warms the file cache, untimed
    warm = spawn(["-c", "import gapbeam.cli"])
    if warm["rc"] != 0:
        print(f"gapbeam does not import:\n{warm['log']}", file=sys.stderr)
        return 3

    # set-up probes and workload runs alternate through the window, so that
    # setup_s and wall_s sample the same stretch of machine time; a cycle
    # whose predicted end falls past the window is not started
    kinds = ("setup", "plain", "traced") if args.trace else ("setup", "plain")
    setup_kind = "generator" if wl.command == "sweep-xi" else "step"
    window_end = perf_counter() + args.seconds
    attempted = failed = 0
    setups, runs, cycles = [], [], []
    while perf_counter() < spawn.deadline:
        t_cycle = perf_counter()
        if len(cycles) >= MIN_REPS and \
                t_cycle + statistics.median(cycles) > window_end:
            break
        for kind in kinds:
            i = spawn.n
            if kind == "setup":
                result = workdir / f"setup{i}.json"
                r = spawn([child, "setup", setup_kind, str(setup_cfg),
                           str(result)])
                attempted += 1
                if r["rc"] != 0:
                    failed += 1
                    print(f"setup probe failed:\n{r['log']}", file=sys.stderr)
                else:
                    setups.append({**r, **json.loads(result.read_text())})
                continue
            traced = kind == "traced"
            out = workdir / f"out{i}"
            cmd = [child, "run", wl.command, str(config), str(out)]
            if traced:
                cmd.append(str(workdir / f"trace{i}.json"))
            r = spawn(cmd)
            r["traced"] = traced
            r["problems"] = ([f"exit code {r['rc']}: {r['log']}"] if r["rc"] != 0
                             else wl.check(mapping, out))
            r["digest"] = artifact_digest(out) if out.exists() else None
            if traced and r["rc"] == 0:
                r["trace"] = json.loads((workdir / f"trace{i}.json").read_text())
                r["problems"] += trace_problems(r["trace"], wl.expected_spans)
            shutil.rmtree(out, ignore_errors=True)
            runs.append(r)
        cycles.append(perf_counter() - t_cycle)
    if not setups:
        print("every set-up probe failed", file=sys.stderr)
        return 3

    # determinism: every run of these inputs must write identical artifacts
    digests = Counter(r["digest"] for r in runs if not r["problems"])
    if digests:
        reference = digests.most_common(1)[0][0]
        for r in runs:
            if not r["problems"] and r["digest"] != reference:
                r["problems"].append("artifact hash differs from the other runs")
    for r in runs:
        if r["problems"]:
            print(f"failed run ({'traced' if r['traced'] else 'plain'}): "
                  + "; ".join(r["problems"]), file=sys.stderr)
    print("wall_s per run: " + " ".join(
        f"{r['wall_s']:.3f}{'t' if r['traced'] else ''}" for r in runs),
        file=sys.stderr)
    print("setup_s per probe: " + " ".join(
        f"{s['wall_s']:.3f}" for s in setups), file=sys.stderr)
    attempted += len(runs)
    failed += sum(bool(r["problems"]) for r in runs)

    plain = [r for r in runs if not r["traced"]]
    good = [r for r in plain if not r["problems"]] or plain
    wall = statistics.median(r["wall_s"] for r in good)
    if args.trace:
        traced_runs = [r for r in runs if r["traced"] and "trace" in r]
        if not traced_runs:
            print("no traced run completed", file=sys.stderr)
            return 3
        traced_runs.sort(key=lambda r: r["wall_s"])
        pick = traced_runs[(len(traced_runs) - 1) // 2]
        metrics = layer_metrics(pick["trace"], pick["wall_s"])
        metrics["trace.overhead_s"] = statistics.median(
            r["wall_s"] for r in traced_runs) - wall
        metrics["timestep.first_step_s"] = statistics.median(
            s["first_step_s"] for s in setups)
        metrics["steps_per_s"] = wl.steps(mapping) / wall
        metrics["spectra_per_s"] = wl.spectra(mapping) / wall
        metrics["failed_share"] = failed / attempted
        table = PER_LAYER
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(s["wall_s"] for s in setups),
            "peak_rss_mb": statistics.median(r["rss_mib"] for r in good),
        }
        table = END_TO_END

    first = setups[0]
    print(json.dumps({"env": {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "commit": commit(), "source_sha256": source_digest(),
        "nproc": os.cpu_count(), "python": first["python"],
        "numpy": first["numpy"], "scipy": first["scipy"], "blas": first["blas"],
        "blas_threads": BLAS_ENV, "setup_reps": len(setups),
        "plain_runs": len(plain), "traced_runs": len(runs) - len(plain),
        "elapsed_s": round(perf_counter() - start, 3),
    }}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
