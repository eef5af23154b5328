"""bellkit benchmark: seeded workloads, end-to-end metrics, per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

``--workload`` is one of census, enumerate, verify, structure, or ``all``.
With ``--trace 0`` the run times whole requests (CLI requests as fresh
processes) and reports the end-to-end metrics named in BENCHMARK.json;
with ``--trace 1`` it runs every request in this process, alternating
untraced and traced passes, and reports the per-layer metrics. Earlier
stdout lines are for people (an environment header and one line per
metric); the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

The benchmark imports bellkit from ``src/`` next to this directory and
exits with status 2 when that source is missing.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9
SETUP_PER_PASS = 3
IMPORT_MODULES = ("numpy", "bellkit", "bellkit.hadamard", "bellkit.kernels",
                  "bellkit.inequality", "bellkit.polynomial", "bellkit.lhv",
                  "bellkit.analysis", "bellkit.cli")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment(jobs: int) -> dict:
    """What the numbers depend on, so unlike machines are not compared."""
    import numpy
    from bellkit import kernels

    rev = ""
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(str(index / "level")).strip()
        kind = _read(str(index / "type")).strip()
        caches[f"L{level} {kind}"] = _read(str(index / "size")).strip()
    return {
        "git_rev": rev or "unknown (not a git checkout)",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": kernels.ACTIVE_BACKEND,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "cpu": model,
        "caches": caches,
        "jobs": jobs,
    }


def setup_sample(env) -> float:
    """Wall time of one fresh interpreter through `import bellkit`."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import bellkit"], env=env, cwd=ROOT,
                   check=True)
    return time.perf_counter() - t0


def import_seconds(env) -> dict[str, float]:
    """Per-module import times from `python -X importtime`, median of 3.

    numpy and bellkit are cumulative (everything they import); the bellkit
    submodules are their own module bodies only.
    """
    argv = [sys.executable, "-X", "importtime", "-c", "import bellkit, bellkit.cli"]
    samples: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    for _ in range(3):
        err = subprocess.run(argv, env=env, cwd=ROOT, check=True, text=True,
                             capture_output=True).stderr
        for line in err.splitlines():
            parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[2] in samples:
                cumulative = parts[2] in ("numpy", "bellkit")
                samples[parts[2]].append(int(parts[1 if cumulative else 0]) / 1e6)
    return {f"setup.import.{m.removeprefix('bellkit.')}_s": statistics.median(v)
            for m, v in samples.items()}


def end_to_end(name: str, seed: int, seconds: float, env) -> dict:
    from workloads import ProcessRunner, StructureProcess, WORKLOADS
    import tracing

    if name == "structure":
        workload, runner = StructureProcess(ROOT, env, seed), None
    else:
        workload, runner = WORKLOADS[name](seed), ProcessRunner(ROOT, env)
    setup_sample(env)  # writes the bytecode caches
    setup, passes = [], []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        # set-up samples are spread over the run, so load drift hits both alike
        while len(setup) < SETUP_SAMPLES and len(setup) < SETUP_PER_PASS * (len(passes) + 1):
            setup.append(setup_sample(env))
        passes.append(workload.run_pass(runner))
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(env))
    metrics = {
        "run_s": statistics.median(p.wall_s for p in passes),
        "items_per_s": statistics.median(p.items / p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "peak_rss_mib": statistics.median(p.rss_mib for p in passes),
        "first_output_s": statistics.median(p.first_output_s for p in passes),
        "setup_s": statistics.median(setup),
    }
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    extra = {"error_rate": failed / attempted, "passes": len(passes)}
    latencies = [x for p in passes for x in p.latencies]
    tail = tracing.tail(latencies)
    if tail is not None:
        extra["request_p50_s"] = statistics.median(latencies)
        extra["request_tail_s"] = tail[1]
        extra["request_tail"] = f"p{tail[0]:g} of {tail[2]} requests"
    return {"metrics": metrics, "extra": extra, "passes": passes}


def per_layer(name: str, seed: int, seconds: float, env) -> dict:
    """Alternate untraced and traced in-process passes; layer stats per pass."""
    from bellkit import kernels
    from workloads import InProcessRunner, WORKLOADS
    import tracing

    imports = import_seconds(env)
    bytes_per_item = tracing.classify_bytes_per_item(kernels)
    workload = WORKLOADS[name](seed)
    main_thread = threading.get_ident()
    plain, traced, stats, tracers = [], [], [], []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        plain.append(workload.run_pass(InProcessRunner()))
        tracer = tracing.Tracer()
        restore = tracing.install(tracer, bytes_per_item)
        runner = InProcessRunner(tracer)
        try:
            result = workload.run_pass(runner)
        finally:
            restore()
        traced.append(result)
        tracers.append(tracer)  # spans stay in memory until the run ends
        layer = tracing.layer_stats(tracer, result.wall_s, main_thread)
        layer["cli.main.output_bytes"] = float(runner.output_bytes)
        layer["cli.main.records"] = float(runner.records)
        stats.append(layer)
    metrics = {key: statistics.median(s[key] for s in stats) for key in stats[0]}
    metrics.update(imports)
    untraced = statistics.median(p.wall_s for p in plain)
    metrics["trace.untraced_run_s"] = untraced
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - untraced
    return {"metrics": metrics, "passes": plain + traced,
            "extra": {"traced_passes": len(traced)}}


def main(argv=None) -> int:
    names = ("census", "enumerate", "verify", "structure")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bellkit" / "__init__.py").is_file():
        print(f"bellkit source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bellkit
    from workloads import JOBS

    if SRC not in Path(bellkit.__file__).resolve().parents:
        print(f"imported bellkit from {bellkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    env = child_env()
    print("# environment " + json.dumps(environment(JOBS)), flush=True)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    attempted, failed, metrics = 0, 0, {}
    for name in names if args.workload == "all" else (args.workload,):
        run = (per_layer if args.trace else end_to_end)(name, args.seed, args.seconds, env)
        passes = run["passes"]
        attempted += sum(p.attempted for p in passes)
        failed += sum(p.failed for p in passes)
        for problem in sorted({q for p in passes for q in p.problems})[:20]:
            print(f"# {name} FAILED CHECK: {problem}", flush=True)
        for key, value in sorted(run["metrics"].items()):
            print(f"{name:<10} {key:<48} {value:>18.6f} {units.get(key, unit_of(key))}")
        for key, value in run["extra"].items():
            print(f"{name:<10} {key:<48} {value!s:>18} {unit_of(key)}")
        prefix = f"{name}." if args.workload == "all" else ""
        for m in wanted:
            value = run["metrics"][m["name"]]
            if not math.isfinite(value):
                print(f"{name}: {m['name']} is not a finite number", file=sys.stderr)
                return 1
            metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def unit_of(key: str) -> str:
    """Unit of a printed metric that BENCHMARK.json does not list."""
    if key.endswith("per_s"):
        return "1/s"
    if key.endswith("_s"):
        return "s"
    if key in ("error_rate", "trace.self_share"):
        return "ratio"
    if key == "request_tail":
        return ""
    return "count"


if __name__ == "__main__":
    sys.exit(main())
