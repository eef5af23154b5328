"""Outside-in spans around bellkit's public functions, and their statistics.

Wrappers go on module attributes, in every bellkit module that binds the
same function object under the same name, so a caller that looks the name
up at call time (``kernels.classify_batch``, or ``analysis.bell_poly``
after ``from .polynomial import bell_poly``) reaches the wrapper. The
modules' ``ThreadPoolExecutor`` is replaced too: a pool task's spans get,
as parent, the span that was open on the submitting thread.

Spans live in flat arrays until the run ends. Per span the tracer keeps
name, start, end, parent, request id, thread and one work count. A span's
self time is its duration minus the part of its interval its child spans
cover; the part covered only by children on other threads is its wait.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
import tracemalloc
from array import array
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# module -> traced public functions
TRACED = {
    "cli": ("main",),
    "analysis": ("classify", "term_count", "max_b0_family"),
    "inequality": ("enumerate_inequalities", "standard_form", "to_traditional",
                   "bound", "symmetry_orbit", "canonical"),
    "lhv": ("max_lhv",),
    "polynomial": ("bell_poly", "bowtie", "evaluate"),
    "kernels": ("classify_batch", "wht_rows", "signs_from_codes", "lhv_max_range"),
}

# span name -> work count taken from (args, result)
COUNTS = {
    "kernels.classify_batch": lambda a, r: len(a[0]),
    "kernels.wht_rows": lambda a, r: a[0].shape[0],
    "kernels.signs_from_codes": lambda a, r: len(a[0]),
    "kernels.lhv_max_range": lambda a, r: (a[3] - a[2]) << a[1],
    "inequality.symmetry_orbit": lambda a, r: len(r),
}


class Tracer:
    """Records spans from any thread; one tracer per traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.request = array("q")
        self.thread = array("Q")
        self.items = array("q")
        self.start = array("d")
        self.end = array("d")
        self.request_id = -1
        self.counters: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else -1

    def open(self, nid: int) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(parent)
            self.request.append(self.request_id)
            self.thread.append(threading.get_ident())
            self.items.append(0)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(idx)
        return idx

    def close(self, idx: int, items: int = 0) -> None:
        self.end[idx] = time.perf_counter()
        self.items[idx] = items
        self._stack().pop()

    def count(self, key: str, value: int) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + value

    def adopted(self, parent: int, fn, *args, **kwargs):
        """Run fn on a pool thread with ``parent`` as its open span."""
        stack = self._stack()
        saved = stack[:]
        stack[:] = [parent]
        try:
            return fn(*args, **kwargs)
        finally:
            stack[:] = saved


def _wrap(tracer: Tracer, name: str, fn, bytes_per_item: dict[int, int]):
    nid = tracer.name_id(name)
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def generator(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    idx = tracer.open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer.close(idx)
                        return
                    except BaseException:
                        tracer.close(idx)
                        raise
                    tracer.close(idx, 1)
                    yield item
            finally:
                it.close()
        return generator

    count = COUNTS.get(name)

    @functools.wraps(fn)
    def call(*args, **kwargs):
        idx = tracer.open(nid)
        items = 0
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                items = count(args, result)
            return result
        finally:
            tracer.close(idx, items)
            if name == "kernels.classify_batch" and items:
                tracer.count(name + ".bytes_computed",
                             items * bytes_per_item.get(args[1], 0))

    return call


def classify_bytes_per_item(kernels, lengths=(4, 8, 16, 32), probe: int = 1 << 14):
    """Peak bytes the census kernel allocates per sign vector, by length.

    Measured with tracemalloc on one probe batch per length, so a kernel
    that works in narrower integers reports fewer bytes.
    """
    codes = np.arange(probe, dtype=np.int64)
    out = {}
    for length in lengths:
        tracemalloc.start()
        try:
            kernels.classify_batch(codes % (1 << length), length)
            out[length] = tracemalloc.get_traced_memory()[1] // probe
        finally:
            tracemalloc.stop()
    return out


def install(tracer: Tracer, bytes_per_item: dict[int, int]):
    """Wrap every traced function where callers look it up; return undo."""
    for short in TRACED:
        importlib.import_module("bellkit." + short)
    mods = [m for key, m in list(sys.modules.items())
            if m is not None and (key == "bellkit" or key.startswith("bellkit."))]
    undo = []
    for short, names in TRACED.items():
        home = sys.modules["bellkit." + short]
        for fname in names:
            orig = getattr(home, fname)
            wrapper = _wrap(tracer, f"{short}.{fname}", orig, bytes_per_item)
            for m in mods:
                if m.__dict__.get(fname) is orig:
                    undo.append((m, fname, orig))
                    setattr(m, fname, wrapper)

    class TracedPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.adopted, tracer.current(), fn,
                                  *args, **kwargs)

    for m in mods:
        if m.__dict__.get("ThreadPoolExecutor") is ThreadPoolExecutor:
            undo.append((m, "ThreadPoolExecutor", ThreadPoolExecutor))
            m.ThreadPoolExecutor = TracedPool

    def restore() -> None:
        for m, fname, orig in reversed(undo):
            setattr(m, fname, orig)

    return restore


# -- statistics -----------------------------------------------------------------

def union_length(starts, ends) -> float:
    """Length of the union of intervals [start, end)."""
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    if starts.size == 0:
        return 0.0
    order = np.argsort(starts, kind="stable")
    s, e = starts[order], np.maximum.accumulate(ends[order])
    # a new block starts where a span begins after every earlier one ended
    new = np.empty(s.size, dtype=bool)
    new[0] = True
    new[1:] = s[1:] > e[:-1]
    block_start = s[new]
    block_end = e[np.append(np.flatnonzero(new)[1:] - 1, s.size - 1)]
    return float(np.sum(block_end - block_start))


def span_times(tracer: Tracer):
    """Arrays (duration, self, wait) per span.

    Children on the parent's thread nest inside it and do not overlap, so
    their cover is a sum; children on pool threads may overlap each other
    and outlast the parent, so their cover is an interval union clipped
    to the parent.
    """
    start = np.frombuffer(tracer.start, dtype=np.float64)
    end = np.frombuffer(tracer.end, dtype=np.float64)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    thread = np.frombuffer(tracer.thread, dtype=np.uint64)
    n = start.size
    dur = end - start
    has_parent = parent >= 0
    safe_parent = np.where(has_parent, parent, 0)
    same = has_parent & (thread == thread[safe_parent])
    cover_main = np.bincount(parent[same], weights=dur[same], minlength=n)
    cover_all = cover_main.copy()
    other = has_parent & ~same
    if other.any():
        order = np.argsort(parent, kind="stable")
        sorted_parent = parent[order]
        for p in np.unique(parent[other]):
            lo, hi = np.searchsorted(sorted_parent, [p, p + 1])
            kids = order[lo:hi]
            s = np.clip(start[kids], start[p], end[p])
            e = np.clip(end[kids], start[p], end[p])
            cover_all[p] = union_length(s, e)
    return dur, dur - cover_all, cover_all - cover_main


def layer_stats(tracer: Tracer, run_s: float, main_thread: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    dur, self_s, wait = span_times(tracer)
    name = np.frombuffer(tracer.name, dtype=np.int64)
    items = np.frombuffer(tracer.items, dtype=np.int64)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    thread = np.frombuffer(tracer.thread, dtype=np.uint64)
    start = np.frombuffer(tracer.start, dtype=np.float64)
    end = np.frombuffer(tracer.end, dtype=np.float64)

    def mask(fn: str) -> np.ndarray:
        if fn not in tracer._ids:
            return np.zeros(name.size, dtype=bool)
        return name == tracer._ids[fn]

    out: dict[str, float] = {}

    def put(fn: str, stat: str, value) -> None:
        out[f"{fn}.{stat}"] = float(value)

    for short, fnames in TRACED.items():
        for fname in fnames:
            fn = f"{short}.{fname}"
            m = mask(fn)
            busy = union_length(start[m], end[m])
            put(fn, "calls", m.sum())
            put(fn, "items", items[m].sum())
            put(fn, "busy_s", busy)
            put(fn, "self_s", self_s[m].sum())
            put(fn, "wall_s", dur[m].sum())
            put(fn, "wait_s", wait[m].sum())
            put(fn, "items_per_s", items[m].sum() / busy if busy else 0.0)
    # renamed or derived counts
    out["kernels.wht_rows.rows"] = out["kernels.wht_rows.items"]
    out["kernels.lhv_max_range.strategies"] = out["kernels.lhv_max_range.items"]
    out["inequality.symmetry_orbit.orbit_elements"] = out["inequality.symmetry_orbit.items"]
    # canonical walks its orbit through a nested symmetry_orbit call
    orbit = mask("inequality.symmetry_orbit") & (parent >= 0)
    per_parent = np.bincount(parent[orbit], weights=items[orbit], minlength=name.size)
    out["inequality.canonical.orbit_elements"] = float(
        per_parent[mask("inequality.canonical")].sum())
    out["kernels.classify_batch.bytes_computed"] = float(
        tracer.counters.get("kernels.classify_batch.bytes_computed", 0))

    top = parent < 0
    on_main = thread == np.uint64(main_thread)
    out["trace.run_s"] = run_s
    out["trace.request_s"] = float(dur[top].sum())
    out["trace.self_share"] = float((self_s[on_main] + wait[on_main]).sum() / run_s)
    out["trace.spans"] = float(name.size)
    return out


# -- request latency --------------------------------------------------------------

PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)


def tail(samples) -> tuple[float, float, int] | None:
    """Highest listed percentile with at least 10 samples beyond it.

    Nearest-rank: the p-th percentile of n sorted samples is the one at
    rank ceil(p n / 100), and n - rank samples lie beyond it. Returns
    (percentile, value, sample count), or None below 20 samples.
    """
    values = np.sort(np.asarray(samples, dtype=np.float64))
    n = values.size
    best = None
    for p in PERCENTILES:
        rank = -(-int(round(p * 1000)) * n // 100_000)
        if rank >= 1 and n - rank >= 10:
            best = (p, float(values[rank - 1]), n)
    return best
