"""``python -m repro`` entry point.

BLAS runs on one thread, as under pytest (root ``conftest.py``): the
serving tier runs on the event loop alone, and a second OpenBLAS pool
thread beside it would make GEMM rounding depend on the core count. The
variable must be set before numpy loads, so it is set before the CLI is
imported; a value the caller already exported is kept.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from repro.cli import main

raise SystemExit(main())
