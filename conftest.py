"""Settings for every test session, applied before any test module loads.

BLAS runs one thread unless the caller sets a thread count: on two cores a
second OpenBLAS thread nearly doubles the suite's CPU time and saves no wall
time. The subprocess tests inherit the setting, so a run in a subprocess and
its in-process twin use the same count. This must run before anything
imports numpy.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
