"""Pytest setup shared by ``bench/``, ``benchmarks/`` and ``tests/``.

BLAS runs on one thread. The convergence benches multiply small
matrices, where a second OpenBLAS thread gains little on an idle
machine and, when the other core is busy, makes a GEMM several times
slower than one thread does (the pool's threads spin-wait for each
other). One thread also fixes how every GEMM rounds, so the
reproduction tables do not depend on the core count. The variable must
be set before numpy loads, which is why it lives in the root conftest:
pytest imports it before any test module.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
