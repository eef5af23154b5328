"""What a fresh import leaves behind: numpy, threads and environment."""
import json
import os
import subprocess
import sys

import pytest

import bellkit
from bellkit import inequality, polynomial

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# the child's thread count and its BLAS thread variables after the imports
REPORT = ("import json, os; "
          "status = dict(line.split(':', 1) for line in open('/proc/self/status')); "
          f"print(json.dumps([int(status['Threads']), "
          f"{{v: os.environ.get(v) for v in {BLAS_THREAD_VARS!r}}}]))")


def run(code: str, **blas_env: str) -> str:
    """Stdout of a fresh interpreter running code.

    Of the BLAS variables, the interpreter sees only those in blas_env.
    """
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    out = subprocess.run([sys.executable, "-c", code], env={**env, **blas_env},
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout


def child(imports: str, **blas_env: str) -> tuple[int, dict]:
    """(threads, BLAS variables) of a fresh interpreter after the imports."""
    return tuple(json.loads(run(f"{imports}; {REPORT}", **blas_env)))


UNSET = dict.fromkeys(BLAS_THREAD_VARS)

needs_proc = pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                                reason="reads the thread count from Linux /proc")


class TestNoNumpy:
    """``import bellkit`` and the integer API load no numpy."""

    def test_import_loads_no_numpy(self):
        assert run("import sys, bellkit; print('numpy' in sys.modules)") == "False\n"

    def test_integer_api_loads_no_numpy(self):
        calls = ("p = bell_poly(UVIndex(4, 3, 5)); "
                 "v = from_sign_vector((1, 1, 1, -1)); "
                 "max_lhv(v); standard_form(v); to_traditional(v); bowtie_poly(p, p); "
                 "normalize(p); evaluate(p, 3); "
                 "strategy_value(v, DeterministicStrategy(2, ((1, 1), (1, -1))))")
        code = ("import sys; "
                "from bellkit import (DeterministicStrategy, UVIndex, bell_poly, "
                "bowtie_poly, evaluate, from_sign_vector, max_lhv, normalize, "
                "standard_form, strategy_value, to_traditional); "
                f"{calls}; print('numpy' in sys.modules)")
        assert run(code) == "False\n"


class TestLazyTables:
    def test_half_spectrum_tables_are_built_on_first_use(self):
        # one pair of tables (P and M) for the four-site call, none for the five-site one
        code = ("import bellkit; from bellkit import polynomial as p; "
                "sizes = [p._half_tables.cache_info().currsize]; "
                "p.bell_poly(p.UVIndex(5, 3, 5)); "
                "sizes.append(p._half_tables.cache_info().currsize); "
                "p.bell_poly(p.UVIndex(4, 3, 5)); "
                "sizes.append(p._half_tables.cache_info().currsize); print(sizes)")
        assert run(code) == "[0, 0, 1]\n"


@needs_proc
class TestBlasThreads:
    def test_fresh_import_starts_no_thread(self):
        # numpy's OpenBLAS would start one thread per core
        assert child("import bellkit.cli") == (1, UNSET)

    @pytest.mark.parametrize("var", BLAS_THREAD_VARS)
    def test_caller_count_is_kept(self, var):
        threads, seen = child("import bellkit.kernels", **{var: "2"})
        assert seen == {**UNSET, var: "2"}
        assert threads == child("import numpy", **{var: "2"})[0]

    def test_numpy_imported_first_is_untouched(self):
        assert child("import numpy; import bellkit.kernels") == child("import numpy")


class TestPublicNames:
    """``__all__`` resolves lazily, to the objects its home modules define."""

    def test_names_are_their_home_objects(self):
        assert len(bellkit.__all__) == 46
        for name in bellkit.__all__:
            obj = getattr(bellkit, name)
            assert obj.__name__ == ("bowtie" if name == "bowtie_poly" else name)
            assert getattr(sys.modules[obj.__module__], obj.__name__) is obj, name
        assert bellkit.bowtie is inequality.bowtie
        assert bellkit.bowtie_poly is polynomial.bowtie

    def test_dir_lists_all(self):
        assert set(bellkit.__all__) <= set(dir(bellkit))

    def test_star_import_binds_all(self):
        namespace = {}
        exec("from bellkit import *", namespace)
        namespace.pop("__builtins__")
        assert sorted(namespace) == sorted(bellkit.__all__)

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            bellkit.no_such_name
