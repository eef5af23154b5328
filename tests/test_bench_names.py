"""The bellkit names that the benchmark harness in ``perfbench/`` looks up.

A traced benchmark pass wraps every name of ``perfbench/tracing.py``'s
``TRACED`` table, records ``kernels.ACTIVE_BACKEND`` and calls
``lhv.max_lhv(v, jobs=...)``. Removing one of them breaks the benchmark,
so it fails here first.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from bellkit import kernels, lhv

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = [(short, name) for short, names in load_tracing().TRACED.items()
          for name in names]


@pytest.mark.parametrize("short, name", TRACED, ids=[f"{s}.{n}" for s, n in TRACED])
def test_traced_name_resolves(short, name):
    assert callable(getattr(importlib.import_module(f"bellkit.{short}"), name, None))


def test_backend_is_named():
    assert isinstance(kernels.ACTIVE_BACKEND, str)


def test_max_lhv_accepts_jobs():
    assert "jobs" in inspect.signature(lhv.max_lhv).parameters
    assert lhv.max_lhv((1, 1, 1, -1), jobs=2) == 2
