"""The four seeded workloads and the two ways of running their requests.

Every workload is a closed loop with one client: the next request is sent
only after the previous one has completed. CLI requests always pass
``--jobs 2`` so that results do not depend on the machine's core count.

A workload turns ``--seed`` into its inputs (coefficient lists, census
``--seed`` values, (u, v) pairs); bellkit sees only those inputs. One
pass sends every request of the workload once; checks run after the pass,
outside the timed requests.
"""
from __future__ import annotations

import io
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

JOBS = 2
REQUEST_TIMEOUT_S = 150.0
HERE = Path(__file__).resolve().parent


@dataclass
class CliRequest:
    argv: list[str]
    check: Callable[[list[bytes]], list[str]]
    items: int
    limit: int | None = None  # close stdout after this many lines, like `| head`


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    rss_mib: float
    first_output_s: float | None
    lines: list[bytes]
    error: str | None = None


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mib: float = 0.0
    first_output_s: float = 0.0
    items: int = 0
    attempted: int = 0
    failed: int = 0
    latencies: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def judge(self, problems: list[str], requests: int = 1) -> None:
        """Count requests whose output failed a check (one problem each)."""
        self.attempted += requests
        self.failed += min(len(problems), requests)
        self.problems += problems


def _error_records(stderr: bytes) -> list[str]:
    errors = []
    for line in stderr.splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and "error" in record:
            errors.append(str(record["error"]))
    return errors


def peak_rss_mib() -> float:
    """This process's own peak resident set (VmHWM), in MiB.

    ru_maxrss is not used for child processes: Linux carries the parent's
    high-water mark into a child across fork and exec, so a child would
    report at least the benchmark's own peak.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# `python -m bellkit`, plus one stderr line with the process's own peak RSS
_LAUNCH = """\
import atexit, os, runpy, sys
def _report():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                os.write(2, ("# peak_rss_kib " + line.split()[1] + "\\n").encode())
atexit.register(_report)
runpy.run_module("bellkit", run_name="__main__", alter_sys=True)
"""
_PEAK_TAG = "# peak_rss_kib"


class ProcessRunner:
    """Each CLI request is a fresh `python -m bellkit` process."""

    def __init__(self, root: Path, env: dict[str, str]) -> None:
        self.root = root
        self.env = env

    def cli(self, req: CliRequest) -> Outcome:
        out = bytearray()
        newlines = 0
        first = None
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", _LAUNCH, *req.argv], cwd=self.root,
            env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        watchdog = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
        watchdog.start()
        stderr: list[bytes] = []
        drain = threading.Thread(target=lambda: stderr.append(proc.stderr.read()))
        drain.start()
        try:
            # read in blocks and split lines later, to take little CPU from the child
            while chunk := proc.stdout.read1(1 << 16):
                if first is None:
                    first = time.perf_counter() - t0
                out += chunk
                newlines += chunk.count(b"\n")
                if req.limit is not None and newlines >= req.limit:
                    break
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            watchdog.cancel()
            drain.join()
            proc.stderr.close()
        lines = bytes(out).splitlines(keepends=True)[:req.limit]
        err = stderr[0] if stderr else b""
        peak = [int(line.split()[-1]) / 1024 for line in err.decode().splitlines()
                if line.startswith(_PEAK_TAG)]
        errors = _error_records(err)
        error = None
        if proc.returncode != 0 or errors or not peak:
            error = f"{req.argv[0]}: exit {proc.returncode} {errors}"
        return Outcome(wall, usage.ru_utime + usage.ru_stime, max(peak, default=0.0),
                       first, lines, error)


class _Sink(io.TextIOBase):
    """Stands in for stdout: keeps the text, counts bytes and lines."""

    def __init__(self, limit: int | None, t0: float) -> None:
        self.parts: list[str] = []
        self.lines = 0
        self.limit = limit
        self.t0 = t0
        self.first: float | None = None

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        if self.limit is not None and self.lines >= self.limit:
            raise BrokenPipeError("reader closed the pipe")
        if self.first is None:
            self.first = time.perf_counter() - self.t0
        self.parts.append(s)
        self.lines += s.count("\n")
        return len(s)


class InProcessRunner:
    """CLI requests through `cli.main(argv)` in this process; API calls direct.

    With a tracer, each request becomes one top-level span.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.output_bytes = 0
        self.records = 0
        self._request_nid = tracer.name_id("request") if tracer else -1
        self._next_request = 0

    def _open(self) -> int:
        if self.tracer is None:
            return -1
        self.tracer.request_id = self._next_request
        self._next_request += 1
        return self.tracer.open(self._request_nid)

    def cli(self, req: CliRequest) -> Outcome:
        from bellkit import cli

        err = io.StringIO()
        saved = sys.stdout, sys.stderr
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        span = self._open()
        t0 = time.perf_counter()
        sink = _Sink(req.limit, t0)
        sys.stdout, sys.stderr = sink, err
        try:
            code = cli.main(req.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = traceback.format_exc()
        finally:
            sys.stdout, sys.stderr = saved
            wall = time.perf_counter() - t0
            if span >= 0:
                self.tracer.close(span, 1)
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        data = "".join(sink.parts).encode()
        self.output_bytes += len(data)
        self.records += sink.lines
        error = None
        errors = _error_records(err.getvalue().encode())
        if code != 0 or errors:
            error = f"{req.argv[0]}: exit {code} {errors}"
        cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
        return Outcome(wall, cpu, peak_rss_mib(), sink.first,
                       data.splitlines(keepends=True), error)

    def api(self, latencies: list[float], fn, *args, **kwargs):
        """One API request; returns its result, or the exception it raised."""
        span = self._open()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed request, counted by its check
            return exc
        finally:
            latencies.append(time.perf_counter() - t0)
            if span >= 0:
                self.tracer.close(span, 1)


# -- CLI workloads --------------------------------------------------------------------

class CliWorkload:
    """A fixed list of CLI requests."""

    requests: list[CliRequest]

    def run_pass(self, runner) -> Pass:
        result = Pass()
        outcomes = [runner.cli(req) for req in self.requests]
        for req, out in zip(self.requests, outcomes):
            result.wall_s += out.wall_s
            result.cpu_s += out.cpu_s
            result.rss_mib = max(result.rss_mib, out.rss_mib)
            result.items += req.items
            result.latencies.append(out.wall_s)
            problems = [out.error] if out.error else req.check(out.lines)
            result.judge(problems)
        firsts = [out.first_output_s for out in outcomes]
        result.first_output_s = (float("nan") if None in firsts
                                 else statistics.median(firsts))
        return result


class Census(CliWorkload):
    """2^22 sampled five-site members, then the exhaustive four-site census."""

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 1])
        sample_seed = int(rng.integers(0, 1 << 31))
        size = 1 << 22
        self.requests = [
            CliRequest(["classify", "--n", "5", "--sample", str(size),
                        "--seed", str(sample_seed), "--jobs", str(JOBS)],
                       lambda lines: oracles.check_census_sample(lines, 5, size, sample_seed),
                       size),
            CliRequest(["classify", "--n", "4", "--exhaustive", "--jobs", str(JOBS)],
                       oracles.check_census_exhaustive4, 1 << 16),
        ]


class Enumerate(CliWorkload):
    """3 x 65,536 records: JSON, standard-form text, a five-site stream cut short."""

    def __init__(self, seed: int) -> None:
        # enum takes no input but the site count, so the seed changes nothing
        expected = json.loads((HERE / "expected.json").read_text())
        text = expected["enum --n 4 --standard-form --format traditional"]
        records = 1 << 16
        self.requests = [
            CliRequest(["enum", "--n", "4", "--jobs", str(JOBS)],
                       lambda lines: oracles.check_enum_records(4, lines), records),
            CliRequest(["enum", "--n", "4", "--standard-form", "--format",
                        "traditional", "--jobs", str(JOBS)],
                       lambda lines: oracles.check_text(b"".join(lines), text), records),
            CliRequest(["enum", "--n", "5", "--stream", "--jobs", str(JOBS)],
                       lambda lines: oracles.check_enum_records(5, lines), records,
                       limit=records),
        ]


class Verify(CliWorkload):
    """The LHV bound of one seeded ten-site member: 2^19 strategies."""

    n_sites = 10

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 3])
        signs = 1 - 2 * rng.integers(0, 2, 1 << self.n_sites)
        coeffs = [int(x) for x in oracles.sylvester(self.n_sites) @ signs]
        self.requests = [
            CliRequest(["verify", "--coeffs", ",".join(map(str, coeffs)),
                        "--jobs", str(JOBS)],
                       lambda lines: oracles.check_verify(lines, coeffs),
                       1 << (2 * self.n_sites - 1)),
        ]


# -- in-process API workload --------------------------------------------------------------

class Structure:
    """Many small API calls, so request-latency percentiles have samples."""

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 4])
        m3 = oracles.members(3, rng.permutation(256))
        self.canonical_inputs = [tuple(int(x) for x in row) for row in m3]
        m4 = oracles.members(4, rng.integers(0, 1 << 16, 4096))
        self.lhv_inputs = [[int(x) for x in row] for row in m4]
        self.pairs = [(int(p) >> 8, int(p) & 0xFF) for p in rng.permutation(1 << 16)]
        halves = oracles.members(4, rng.integers(0, 1 << 16, 2 * 4096)) // 2
        self.bowtie_inputs = [(tuple(int(x) for x in a), tuple(int(x) for x in b))
                              for a, b in zip(halves[0::2], halves[1::2])]

    def run_pass(self, runner) -> Pass:
        from bellkit import analysis, inequality, lhv, polynomial

        result = Pass()
        lat = result.latencies
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        b0 = [runner.api(lat, analysis.max_b0_family, 9, k) for k in (0, 1)]
        canon = [runner.api(lat, inequality.canonical, v)
                 for v in self.canonical_inputs]
        maxima = [runner.api(lat, lhv.max_lhv, v, jobs=JOBS) for v in self.lhv_inputs]

        def bell_poly(u, v):
            return polynomial.bell_poly(polynomial.UVIndex(4, u, v))

        def bowtie(a, b):
            return polynomial.bowtie(polynomial.BellPolynomial(4, a),
                                     polynomial.BellPolynomial(4, b))

        polys = [runner.api(lat, bell_poly, u, v) for u, v in self.pairs]
        lifts = [runner.api(lat, bowtie, a, b) for a, b in self.bowtie_inputs]
        # as for CLI workloads, run_s is the sum of request latencies
        result.wall_s = sum(lat)
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        result.cpu_s = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
        result.rss_mib = peak_rss_mib()
        result.items = len(lat)
        # an API request's first output is its return value
        result.first_output_s = statistics.median(lat)

        for k, family in zip((0, 1), b0):
            result.judge(_guard(oracles.check_max_b0, family, 9, k))
        result.judge(_guard(oracles.check_canonical, self.canonical_inputs, canon, 3),
                     len(canon))
        result.judge(oracles.check_max_lhv(maxima, 4), len(maxima))
        result.judge(_guard(oracles.check_bell_poly, self.pairs, polys, 4), len(polys))
        result.judge(_guard(oracles.check_bowtie, self.bowtie_inputs, lifts, 4),
                     len(lifts))
        return result


def _guard(check, *args) -> list[str]:
    """Run a check; a request that raised instead of answering fails it."""
    for arg in args:
        if isinstance(arg, Exception):
            return [f"request raised {arg!r}"]
        if isinstance(arg, list):
            raised = [x for x in arg if isinstance(x, Exception)]
            if raised:
                return [f"request raised {x!r}" for x in raised]
    return check(*args)


WORKLOADS = {
    "census": Census,
    "enumerate": Enumerate,
    "verify": Verify,
    "structure": Structure,
}


class StructureProcess:
    """Runs Structure passes, each in a fresh `workloads.py` worker process."""

    def __init__(self, root: Path, env: dict[str, str], seed: int) -> None:
        self.argv = [sys.executable, str(HERE / "workloads.py"), "--seed", str(seed)]
        self.root = root
        self.env = env

    def run_pass(self, runner=None) -> Pass:
        out = subprocess.run(self.argv, cwd=self.root, env=self.env, check=True,
                             capture_output=True, text=True, timeout=REQUEST_TIMEOUT_S)
        return Pass(**json.loads(out.stdout.splitlines()[-1]))


def main(argv=None) -> int:
    """One untraced structure pass in a fresh worker process; prints the Pass.

    Each pass gets its own process so that its peak RSS is its own.
    """
    import argparse
    import dataclasses

    parser = argparse.ArgumentParser(description=main.__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    result = Structure(args.seed).run_pass(InProcessRunner())
    print(json.dumps(dataclasses.asdict(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
