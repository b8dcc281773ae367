"""BLAS on one thread for every test, as bench/run.py and
tools/artifact_digests.py run it.

OpenBLAS reads its thread count when numpy loads, and pytest loads this file
before it imports any test module, so the variables are set in time for
tests/ and bench/tests alike.
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent / "bench"))

from run import BLAS_ENV  # noqa: E402

os.environ.update(BLAS_ENV)
