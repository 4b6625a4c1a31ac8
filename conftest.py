"""Pin BLAS and OpenMP to one thread before any test imports numpy.

Timings in the suite (the acceptance grid's 600 s bound among them) assume
one thread: with default threads, two test processes on the same two cores
slowed ``predict`` from 0.33 s to 9.6 s. A caller's own setting wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
