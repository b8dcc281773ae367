"""Rounding sensitivity of the last row of acceptance check C07.

    PYTHONPATH=src python tools/c07_ulp_probe.py

C07 (tests/test_acceptance.py) sweeps the penalty eps_pen and requires that
the last row, eps_pen = 1e-4 with the tip body tied to it, count no settled
sign-pattern violation.  This script runs that row on the C07 configuration
with force_f.f0 moved by 0, +-1 ... +-5 and +7 ulps, prints the violations of
each run and then how many of the 12 runs pass.  A count well below 12 means
the verdict at the pinned f0 rests on rounding, not on the physics.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from gapbeam.cli import _sweep_eps_row  # noqa: E402
from gapbeam.config import build_config, parse_mapping  # noqa: E402
from test_acceptance import SWEEP_CFG  # noqa: E402

EPS_PEN = 1e-4
ULPS = (0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 7)


def nudged(x: float, ulps: int) -> float:
    """x moved by |ulps| representable doubles toward the sign of ulps."""
    toward = np.inf if ulps > 0 else -np.inf
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, toward))
    return x


def main() -> int:
    mapping = parse_mapping(SWEEP_CFG)
    f0 = float(mapping["force_f.f0"])
    passes = 0
    with tempfile.TemporaryDirectory() as tmp:
        for k in ULPS:
            cfg = build_config({**mapping, "force_f.f0": repr(nudged(f0, k))})
            row = _sweep_eps_row(cfg, EPS_PEN, Path(tmp) / f"ulps_{k}")
            ok = row["status"] == "ok" and row["compl_violations"] == 0
            passes += ok
            print(f"f0 {k:+d} ulps: status {row['status']}, settled violations "
                  f"{row['compl_violations']}  {'pass' if ok else 'FAIL'}",
                  flush=True)
    print(f"{passes}/{len(ULPS)} runs pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
