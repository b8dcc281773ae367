"""Digests of the artifacts of a fixed list of reference runs.

    PYTHONPATH=src python tools/artifact_digests.py > tools/artifact_digests.expected
    PYTHONPATH=src python tools/artifact_digests.py --check

Runs gapbeam.cli.main in this process on each reference config and prints one
line per run: its name, its exit code and the digest of every file it wrote
(bench/workloads.artifact_digest).  The configs are the two benchmark
workloads at seed 0, the configs of acceptance checks C07 and C11, and
observability, spectrum, tip-body, body-force, penalty (the tip reaches a stop)
and Newton-failure (exit 3) runs built on the base config of the CLI tests.
Six more runs record exit codes: spectrum-stall, a spectrum whose Aberth
sweeps once stalled (exit 3 before the stop rule froze roots cycling at
rounding level); observability-non-finite, whose figures are nan with
beam.ell = 1e300 (exit 3 since non-finite figures fail); gamma2-1e8, a damper
that swamps the Newton scale, so that the first step takes no correction
(exit 0 with a balance defect of 5.2e-4); observability-stride-11, samples too
far apart for the observability integrals (exit 2, once a traceback);
penalty-unread-d1, the penalty run with two keys of the compliance law, which
the penalty law does not read (exit 2, once exit 0 with the penalty run's
artifacts); and energy-overflow, mode-velocity data of amplitude 1e160, whose
energy is inf from the first sample (exit 3, once exit 0 with fit_status =
ok).  Three runs write what no other run does: snapshot (final_state.snap),
gaussian (init.kind = gaussian) and sweep-eps-diverged, the energy-overflow
data in a penalty sweep whose rows diverge.  Every config runs once with
sweep.workers = 1 and once with 2, which only the sweeps read.

Run as a script, the tool pins BLAS to one thread, as bench/run.py does
(its BLAS_ENV, set before numpy loads).  Nothing before the SVD of
spectral.modal_form calls BLAS, and the reference spectra (ne <= 160) are
byte-identical on one thread and on two, but that SVD itself rounds
differently on two threads from ne = 161 on (pencil dimension 644); the pin
keeps any reference run from depending on the shell.  Imported, it leaves the
environment as it finds it.  The output opens with the Python, numpy and BLAS
versions and the BLAS thread variables that made it.
tools/artifact_digests.expected holds it as of the last change that moved an
artifact byte; such a change regenerates the file (first command above).
--check shows that a change leaves every artifact byte-identical: it prints
each line that moved, is missing or is extra against that file and exits 1 if
there is one.  Other versions may move digests with no defect, so under them
--check prints "environment differs" and exits 1 without running.  The tests
compare every workers = 1 line with that file too, whatever the BLAS thread
variables: tests/test_artifacts.py runs each config here but C07's and C11's,
whose acceptance tests digest their own output.
"""

from __future__ import annotations

import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).with_suffix(".expected")
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests")]

from run import BLAS_ENV  # noqa: E402

if __name__ == "__main__":
    os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402

from gapbeam.cli import main  # noqa: E402
from gapbeam.config import parse_mapping  # noqa: E402
from test_acceptance import DETERMINISM_CFG, SWEEP_CFG  # noqa: E402
from test_cli import (BASE_MAP, ENERGY_OVERFLOW,  # noqa: E402
                      NON_FINITE_OBSERVABILITY, OBSERVABILITY_STRIDE_11,
                      STIFF_DAMPERS_TIP)
from workloads import WORKLOADS, artifact_digest, write_config  # noqa: E402

MODE = {"init.kind": "mode", "init.amplitude": "1.0", "run.stride": "5",
        "run.t_final": "0.5"}
COMPLIANCE = {
    "contact.kind": "normal_compliance", "contact.d1": "100", "contact.d2": "100",
    "contact.p": "2", "contact.g_lo": "-0.01", "contact.g_hi": "0.01",
    "init.kind": "mode_velocity", "init.amplitude": "0.5", "run.stride": "5",
    "run.t_final": "0.2"}
TIP = {"tip.epsilon": "0.1",
       "init.kind": "mode_velocity", "init.amplitude": "0.5"}
BODY = {"force_f.mu": "1.0", "force_f.alpha": "1.0",
        "init.kind": "mode_velocity", "init.amplitude": "0.5", "run.stride": "5",
        "run.t_final": "0.2"}
CUTOFF = {"force_f.cutoff_r": "0.02", "force_g.mu": "0.5", "force_g.alpha": "2.0",
          "force_g.cutoff_r": "0.02", "init.amplitude_psi": "0.5"}
# the config of test_cli's exit-3 test: the first half of a bisected step fails
DIVERGENCE = {"scheme.dt": "0.05", "scheme.newton_max": "2", "run.t_final": "0.5",
              "tip.epsilon": "1e-6",
              "contact.kind": "signorini_penalty", "contact.eps_pen": "1e-10",
              "contact.g_lo": "-0.01", "contact.g_hi": "0.01",
              "init.kind": "mode_velocity", "init.amplitude": "50.0"}
PENALTY = {"contact.kind": "signorini_penalty", "contact.eps_pen": "1e-2",
           "contact.g_lo": "-0.05", "contact.g_hi": "0.05",
           "sweep.eps_pen": "1e-1, 1e-2"}
PENALTY_RUN = {**PENALTY, "init.kind": "mode_velocity", "init.amplitude": "1.0",
               "run.stride": "5", "run.t_final": "0.2"}


def dotted(overrides: dict[str, str]) -> dict[str, str]:
    """test_cli's cfg_text overrides (section__key) as config keys."""
    return {key.replace("__", "."): value for key, value in overrides.items()}


def reference_runs() -> list[tuple[str, str, dict[str, str]]]:
    """(name, command, config mapping) of every reference run."""
    runs = [(name, wl.command, wl.config(0)) for name, wl in WORKLOADS.items()]
    runs += [("c07", "sweep-eps", parse_mapping(SWEEP_CFG)),
             ("c11", "simulate", parse_mapping(DETERMINISM_CFG))]
    for name, command, overrides in [
        ("observability", "observability", MODE),
        ("observability-n3", "observability", {**MODE, "multiplier.n": "3"}),
        ("observability-contact", "observability", COMPLIANCE),
        ("observability-tip", "observability", {**TIP, "run.stride": "5"}),
        ("spectrum-eps-study", "spectrum", {"sweep.epsilon": "1e-1, 1e-2"}),
        ("tip", "simulate", TIP),
        ("tip-sweep-eps", "sweep-eps", {**TIP, **PENALTY}),
        ("body-f0", "simulate", {**BODY, "force_f.f0": "0.05", "force_g.f0": "0.02"}),
        ("body-cutoff", "simulate", {**BODY, **CUTOFF}),
        ("body-compliance", "simulate", {**COMPLIANCE, "force_f.mu": "1.0",
                                         "force_f.alpha": "1.0"}),
        ("penalty", "simulate", PENALTY_RUN),
        ("newton-divergence", "simulate", DIVERGENCE),
        ("spectrum-stall", "spectrum", dotted(STIFF_DAMPERS_TIP)),
        ("observability-non-finite", "observability",
         dotted(NON_FINITE_OBSERVABILITY["ell-1e300"][0])),
        ("gamma2-1e8", "simulate", {"init.kind": "mode_velocity",
                                    "beam.gamma2": "1e8"}),
        ("observability-stride-11", "observability", OBSERVABILITY_STRIDE_11),
        ("penalty-unread-d1", "simulate",
         {**PENALTY_RUN, "contact.d1": "5", "contact.p": "3"}),
        ("energy-overflow", "simulate", dotted(ENERGY_OVERFLOW)),
        ("snapshot", "simulate", {**MODE, "run.snapshot": "true"}),
        ("gaussian", "simulate", {**MODE, "init.kind": "gaussian"}),
        ("sweep-eps-diverged", "sweep-eps", {**dotted(ENERGY_OVERFLOW), **PENALTY}),
    ]:
        runs.append((name, command, {**BASE_MAP, **overrides}))
    return [(f"{name}-w{workers}", command,
             {**mapping, "sweep.workers": str(workers)})
            for name, command, mapping in runs for workers in (1, 2)]


def digest_line(name: str, command: str, mapping: dict[str, str],
                tmp: Path) -> str:
    """Run one reference config with its output under tmp: 'name exit digest'."""
    cfg, out = Path(tmp) / f"{name}.cfg", Path(tmp) / name
    write_config(mapping, cfg)
    code = main([command, "--config", str(cfg), "--out", str(out)])
    return f"{name} {code} {artifact_digest(out)}"


def digest_lines():
    """Run every reference config, yielding its digest line."""
    with tempfile.TemporaryDirectory() as tmp:
        for run in reference_runs():
            yield digest_line(*run, tmp)


def environment() -> list[str]:
    """The header lines: the versions and BLAS threads the digests depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(f"{key}={os.environ.get(key, '')}" for key in BLAS_ENV)
    return [f"# python {platform.python_version()}", f"# numpy {np.__version__}",
            f"# blas {blas['name']} {blas['version']}", f"# blas threads {threads}"]


def expected() -> tuple[list[str], dict[str, str]]:
    """EXPECTED's header lines, and its digest lines by run name."""
    lines = EXPECTED.read_text(encoding="utf-8").splitlines()
    return ([line for line in lines if line.startswith("#")],
            {line.split()[0]: line for line in lines if not line.startswith("#")})


def check() -> int:
    """Compare a fresh run with EXPECTED; print each difference, 1 if any."""
    header, want = expected()
    if header != environment():
        print("environment differs; the expected file was made under",
              *header, "and this run has", *environment(), sep="\n")
        return 1
    got = {line.split()[0]: line for line in digest_lines()}
    diffs = [f"moved: {want[name]}\n    -> {got[name]}"
             for name in want.keys() & got.keys() if want[name] != got[name]]
    diffs += [f"missing: {want[name]}" for name in want.keys() - got.keys()]
    diffs += [f"extra: {got[name]}" for name in got.keys() - want.keys()]
    for line in sorted(diffs):
        print(line)
    print(f"{len(diffs)} of {len(want.keys() | got.keys())} lines differ")
    return 1 if diffs else 0


def main_digests() -> int:
    print(*environment(), sep="\n")
    for line in digest_lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        sys.exit("usage: artifact_digests.py [--check]")
    sys.exit(check() if sys.argv[1:] else main_digests())
