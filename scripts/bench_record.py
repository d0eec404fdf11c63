"""Record the benchmark on two commits, in alternating pairs of runs.

    python3 scripts/bench_record.py --pr N --base PARENT --head HEAD --pairs 10

Extracts clean `git archive` trees of --base and --head, and for each pair
i and each workload of the head's BENCHMARK.json runs `bench/run.py
--seconds run_seconds --trace 0 --seed seed0 + i` as it is, with the
run_seconds that BENCHMARK.json declares, once in each tree, the base
first on even pairs and the head first on odd ones.  Writes BENCH_<pr>.json at the repository
root: for both sides and every end-to-end metric, the median, the
quartiles and the raw samples, the pairs in which the head is better, and
each run's correct, attempted and failed counts, with the seeds, the host
and whether numba imported.  The end-to-end metrics and their directions
are read from the head's BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")


def parse_run_output(stdout: str) -> dict:
    """The first and last JSON lines of one bench/run.py run: its
    environment and raw samples, and its result object."""
    lines = [line for line in stdout.splitlines() if line.startswith("{")]
    if len(lines) < 2:
        raise ValueError("bench/run.py printed no environment and result lines")
    first, result = json.loads(lines[0]), json.loads(lines[-1])
    return {
        "environment": first["environment"],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def summary(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"median": median, "q1": q1, "q3": q3, "samples": samples}


def compare(runs: dict[str, list[dict]], end_to_end: list[dict]) -> dict:
    """Per-metric summaries of both sides' runs, paired in order, and the
    number of pairs in which the head is better."""
    out = {}
    for metric in end_to_end:
        name = metric["name"]
        base, head = ([run["metrics"][name] for run in runs[side]] for side in SIDES)
        better = sum((h < b) if metric["better"] == "lower" else (h > b) for b, h in zip(base, head))
        out[name] = {"unit": metric["unit"], "better": metric["better"], "base": summary(base),
                     "head": summary(head), "head_better_in": f"{better} of {len(base)}"}
    return out


def extract(rev: str, dest: Path) -> str:
    """A clean tree of rev at dest; returns the full commit id."""
    sha = subprocess.run(["git", "-C", str(REPO), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(REPO), "archive", sha], capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, check=True,
    )
    return parse_run_output(done.stdout)


def host() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"node": platform.node(), "platform": platform.platform(), "cpu": cpu, "nproc": os.cpu_count()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the name BENCH_<pr>.json")
    parser.add_argument("--base", required=True, help="commit measured as the parent")
    parser.add_argument("--head", default="HEAD", help="commit measured as the change")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs per workload")
    parser.add_argument("--seed0", type=int, default=1, help="seed of the first pair; pair i takes seed0 + i")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    work = Path(tempfile.mkdtemp(prefix="bench_record_"))
    try:
        trees = {side: work / side for side in SIDES}
        commits = {side: extract(rev, trees[side]) for side, rev in zip(SIDES, (args.base, args.head))}
        declared = json.loads((trees["head"] / "BENCHMARK.json").read_text())
        seconds = declared["run_seconds"]
        seeds = [args.seed0 + i for i in range(args.pairs)]
        record = {"pr": args.pr, "commits": commits, "seeds": seeds, "seconds": seconds,
                  "command": "bench/run.py --trace 0", "host": host(), "workloads": {}}
        for workload in (w["name"] for w in declared["workloads"]):
            runs: dict[str, list[dict]] = {side: [] for side in SIDES}
            for i, seed in enumerate(seeds):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    runs[side].append(run_bench(trees[side], workload, seed, seconds))
                    print(f"{workload} seed {seed} {side}: {runs[side][-1]['metrics']}", file=sys.stderr)
            environment = runs["head"][0]["environment"]
            record["numba"] = environment["numba"]
            record["environment"] = environment
            record["workloads"][workload] = {
                "first_in_pair": [SIDES[i % 2] for i in range(args.pairs)],
                "runs": {side: [{k: run[k] for k in ("correct", "attempted", "failed")} for run in runs[side]]
                         for side in SIDES},
                "metrics": compare(runs, declared["end_to_end"]),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = REPO / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
