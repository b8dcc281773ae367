"""Convergence of the secular root stage on random stiff configurations.

    PYTHONPATH=src python tools/secular_probe.py

Draws 400 beam configurations from numpy.random.default_rng(0), in this order
for each: ne in [2, 40], gamma1 and gamma2 = 10^U(-3, 11), a tip body epsilon
= 10^U(-4, 0.5) with probability 0.7 and 0 otherwise, and xi from {1/4, 1/3,
1/2, 3/5, 2/3, 3/4}; every other beam value is bench/configs/xi-study.cfg's.
Each runs spectral.mesh_spectrum.  The script prints every configuration
whose spectrum fails, with its error, and then "k of 400 fail".  Dampers this
stiff stress the Aberth stop rule and the certificate far beyond the tests'
ranges, so k is a standing measure of how robust the root stage is.
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from gapbeam.config import load_config
from gapbeam.discretize import AssemblyError
from gapbeam.spectral import SpectrumCertificateError, mesh_spectrum

ROOT = Path(__file__).resolve().parent.parent
DRAWS = 400
XI = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 5),
      Fraction(2, 3), Fraction(3, 4)]


def configs(beam):
    """The DRAWS (beam, epsilon, ne) triples, in the documented draw order."""
    rng = np.random.default_rng(0)
    for _ in range(DRAWS):
        ne = int(rng.integers(2, 41))
        gamma1, gamma2 = 10.0 ** rng.uniform(-3, 11, 2)
        eps = float(10.0 ** rng.uniform(-4, 0.5)) if rng.random() < 0.7 else 0.0
        xi = XI[rng.integers(len(XI))]
        yield (dataclasses.replace(beam, gamma1=float(gamma1),
                                   gamma2=float(gamma2), xi_num=xi.numerator,
                                   xi_den=xi.denominator), eps, ne)


def main() -> int:
    beam = load_config(ROOT / "bench" / "configs" / "xi-study.cfg").beam
    failed = 0
    for run in configs(beam):
        try:
            mesh_spectrum(*run)
        except (SpectrumCertificateError, AssemblyError) as exc:
            failed += 1
            b, eps, ne = run
            print(f"ne={ne} gamma1={b.gamma1!r} gamma2={b.gamma2!r} "
                  f"epsilon={eps!r} xi={b.xi_fraction}: {exc}")
    print(f"{failed} of {DRAWS} fail")
    return 0


if __name__ == "__main__":
    sys.exit(main())
