"""numpy, loaded with one BLAS thread: every bellkit import of numpy goes here.

Every matrix product in bellkit is on int64, so numpy never calls BLAS,
and an OpenBLAS pool would only add a busy-waiting thread and its
buffers per extra core. The first import loads numpy with one BLAS
thread, then restores the environment for the caller and its children.
A caller who set a count, or imported numpy first, keeps what they
chose. The integer modules (``errors``, ``limits``, ``hadamard``,
``polynomial``, ``coefficients``, ``lhv``) never import this at module
level, so ``import bellkit`` and the integer API load no numpy.
"""
import os
import sys

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as np
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
else:
    import numpy as np
