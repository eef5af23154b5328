"""What a fresh ``import bellkit`` leaves behind: threads and environment."""
import json
import os
import subprocess
import sys

import pytest

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# the child's thread count and its BLAS thread variables after the imports
REPORT = ("import json, os; "
          "status = dict(line.split(':', 1) for line in open('/proc/self/status')); "
          f"print(json.dumps([int(status['Threads']), "
          f"{{v: os.environ.get(v) for v in {BLAS_THREAD_VARS!r}}}]))")

pytestmark = pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                                reason="reads the thread count from Linux /proc")


def child(imports: str, **blas_env: str) -> tuple[int, dict]:
    """(threads, BLAS variables) of a fresh interpreter after the imports.

    Of the BLAS variables, the interpreter sees only those in blas_env.
    """
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    out = subprocess.run([sys.executable, "-c", f"{imports}; {REPORT}"],
                         env={**env, **blas_env}, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0, out.stderr
    return tuple(json.loads(out.stdout))


UNSET = dict.fromkeys(BLAS_THREAD_VARS)


class TestBlasThreads:
    def test_fresh_import_starts_no_thread(self):
        # numpy's OpenBLAS would start one thread per core
        assert child("import bellkit") == (1, UNSET)

    @pytest.mark.parametrize("var", BLAS_THREAD_VARS)
    def test_caller_count_is_kept(self, var):
        threads, seen = child("import bellkit", **{var: "2"})
        assert seen == {**UNSET, var: "2"}
        assert threads == child("import numpy", **{var: "2"})[0]

    def test_numpy_imported_first_is_untouched(self):
        assert child("import numpy; import bellkit") == child("import numpy")
