"""Benchmark for agequil: time to a traced branch and to a shell fixed point.

    python3 bench/run.py --workload trace-diffusion --seed 1 --seconds 30 --trace 0

Runs the workload's CLI command in this interpreter, one operation after
another, until the next one would end past --seconds, and checks every
operation's output.  With --trace 0 it reports the end-to-end metrics
(median wall time per operation, rescaled to a reference host speed that
hostspeed.py samples during the operation; the median import time of
agequil in fresh interpreters, rescaled by the host's speed around each
import; and this process's peak RSS); with --trace 1 it
alternates untraced and traced operations and reports the per-layer
metrics of the traced ones.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.  See README.md for
the workloads and the layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# The program is single threaded; pin the numerical libraries to one
# thread unless the caller chose otherwise, so runs on a shared machine
# do not race for cores.  Set before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 60
# Import time moves about as the square root of the kernel slice's time:
# over 48 probes on the 2-core VM the fitted elasticity was 0.48, so full
# rescaling overcorrects and none leaves the host's swings in.
SETUP_SPEED_EXPONENT = 0.5
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import agequil; "
    "print(repr(time.perf_counter() - start))"
)


def measure_setup(env: dict[str, str]) -> tuple[list[float], list[float]]:
    """Import time of agequil (numpy and scipy with it) in fresh interpreters,
    and the host's speed just before and after each import."""
    from hostspeed import sample_speed

    times, speeds = [], []
    for _ in range(SETUP_PROBES):
        before = sample_speed()
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        speeds.append(0.5 * (before + sample_speed()))
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times, speeds


def environment() -> dict[str, object]:
    import numpy
    import scipy

    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "numba": has_numba,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "agequil" / "__init__.py").is_file():
        print(f"error: no agequil sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from tracer import Tracer
    from workloads import WORKLOADS, run_op

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    setup_times, setup_speeds = measure_setup(env) if args.trace == 0 else ([], [])

    import agequil  # noqa: F401  (outside the timed operations)

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    walls, speeds, rescaled, traced_walls, traced, failures = [], [], [], [], [], []
    attempted = failed = 0
    try:
        start = perf_counter()
        longest = 0.0
        # run at least one operation (one of each kind when tracing) and
        # start no operation that would likely end past the window
        while (
            attempted == 0
            or (args.trace == 1 and not traced)
            or perf_counter() - start + longest <= args.seconds
        ):
            with_tracer = args.trace == 1 and attempted % 2 == 1
            op_start = perf_counter()
            if with_tracer:
                with Tracer() as tracer:
                    result = run_op(workload, work / f"op{attempted}", args.seed)
                traced.append(tracer)
                traced_walls.append(result.wall_s)
            else:
                result = run_op(workload, work / f"op{attempted}", args.seed,
                                probe_host=args.trace == 0)
                walls.append(result.wall_s)
                if result.host_speed is not None:
                    speeds.append(result.host_speed)
                    rescaled.append(result.wall_s * result.host_speed)
            longest = max(longest, perf_counter() - op_start)
            attempted += 1
            if result.failures:
                failed += 1
                failures.extend(f"op {attempted - 1}: {f}" for f in result.failures)
            shutil.rmtree(work / f"op{attempted - 1}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    metrics: dict[str, dict[str, object]] = {}
    if args.trace == 0:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["wall_s"] = {"value": statistics.median(rescaled), "unit": "s"}
        metrics["setup_s"] = {
            "value": statistics.median(
                t * v**SETUP_SPEED_EXPONENT for t, v in zip(setup_times, setup_speeds)
            ),
            "unit": "s",
        }
        metrics["peak_rss_mb"] = {"value": peak_kb / 1024.0, "unit": "MB"}
    else:
        counts = [t.counts() for t in traced]
        if any(c != counts[0] for c in counts[1:]):
            failures.append("traced runs of equal inputs gave different counts")
        # counts repeat exactly, so they come from the first traced op;
        # times are medians over all of them
        per_op = [t.metrics() for t in traced]
        for name, (value, unit) in per_op[0].items():
            if unit == "s":
                value = statistics.median(m[name][0] for m in per_op)
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.overhead"] = {
            "value": metrics["cli.main.s"]["value"] / statistics.median(walls) - 1.0,
            "unit": "ratio",
        }
        metrics["trace.spans"] = {"value": counts[0]["spans"], "unit": "count"}
        metrics["cli.output.bytes"] = {"value": result.output_bytes, "unit": "B"}

    print(json.dumps({"environment": environment(), "workload": workload.name,
                      "seed": args.seed,
                      "setup_samples_s": setup_times, "setup_speeds": setup_speeds,
                      "host_speeds": speeds,
                      "wall_samples_s": walls, "rescaled_wall_samples_s": rescaled,
                      "traced_wall_samples_s": traced_walls}))
    for f in failures:
        print(f"FAIL {f}")
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']!r:>24} {m['unit']}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
