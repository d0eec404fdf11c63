"""The benchmark's workloads: one CLI command each, plus its output checks.

Each operation runs ``agequil.cli.main`` in process on fresh output
files, then checks what it wrote.  The checks restate the scalar oracles
of the pure-decay models here, so they share no code with the solver.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import io
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from hostspeed import HostSpeedProbe

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"

# criterion 05 and 07 tolerances of the test suite
TOL_IDENTITY = 1e-6
TOL_REFORM = 1e-5
TOL_NEGATIVE = 1e-10
TOL_ORACLE = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[Path, int], list[str]]  # (output dir, seed) -> CLI arguments
    check: Callable[[Path, str], list[str]]  # (output dir, stdout) -> failed checks


@dataclass
class OpResult:
    wall_s: float
    failures: list[str]
    output_bytes: int
    host_speed: float | None  # HostSpeedProbe.speed() over the CLI call, if probed


def run_op(workload: Workload, out_dir: Path, seed: int, probe_host: bool = False) -> OpResult:
    """One CLI run with its output checked; wall_s covers the CLI call only.

    With ``probe_host``, a HostSpeedProbe samples the host's speed during
    the call, and the time of its kernel slices is left out of wall_s.
    """
    from agequil import cli

    out_dir.mkdir(parents=True)
    argv = workload.argv(out_dir, seed)
    stdout, stderr = io.StringIO(), io.StringIO()
    probe = HostSpeedProbe() if probe_host else None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = perf_counter()
        try:
            with probe or contextlib.nullcontext():
                code = cli.main(argv)
        except Exception as exc:  # a traceback fails the operation, not the benchmark
            code = f"uncaught {exc!r}"
        wall = perf_counter() - start - (probe.busy_s if probe else 0.0)
    if code != 0:
        failures = [f"exit code {code}: {stderr.getvalue().strip()}"]
    else:
        try:
            failures = workload.check(out_dir, stdout.getvalue())
        except (OSError, ValueError, KeyError, IndexError) as exc:
            failures = [f"unreadable output: {exc!r}"]
    size = sum(p.stat().st_size for p in out_dir.iterdir())
    return OpResult(wall, failures, size, probe.speed() if probe else None)


# -- scalar oracles ------------------------------------------------------


def _weights(na: int, a_max: float) -> np.ndarray:
    w = np.full(na + 1, a_max / na)
    w[0] = w[-1] = 0.5 * a_max / na
    return w


def _decay_rows(na: int, a_max: float) -> np.ndarray:
    """Implicit steps of u' = -u from 1."""
    return (1.0 + a_max / na) ** (-np.arange(na + 1, dtype=float))


def logistic_n_of_B(B: float, na: int, a_max: float, cb: float) -> float:
    """n on the stepped branch of u' = -(1 + u) u at birth level B."""
    da = a_max / na
    rows = np.empty(na + 1)
    rows[0] = B
    for k in range(na):
        rows[k + 1] = rows[k] / (1.0 + da * (1.0 + rows[k]))
    return B / (cb * float(_weights(na, a_max) @ rows))


def shell_root(na: int, a_max: float, cb: float) -> float:
    """Nontrivial birth level of the exp(-u) fertility, unit-mortality model."""
    rows = _decay_rows(na, a_max)
    w = _weights(na, a_max)
    # bisection: the excess B - l(B) is negative near zero (the model
    # reproduces above replacement there) and positive at B = 50
    lo, hi = 1e-8, 50.0
    while hi - lo > 1e-15 * hi:
        mid = 0.5 * (lo + hi)
        if mid - cb * float(w @ (np.exp(-mid * rows) * mid * rows)) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- output checks ---------------------------------------------------------


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def _check_branch(out_dir: Path, stdout: str) -> tuple[list[str], list[dict[str, float]]]:
    rows = _read_rows(out_dir / "branch.csv")
    table = [{k: float(v) for k, v in zip(rows[0], row)} for row in rows[1:]]
    failures = []
    if "terminated: amplitude cap" not in stdout:
        failures.append("the trace did not stop at the amplitude cap")
    if not table or abs(table[0]["n"] - 1.0) > 1e-9 or abs(table[0]["eps"]) > 1e-12:
        failures.append("row 0 is not the trivial point at n = 1")
    nontrivial = table[1:]
    if not nontrivial:
        failures.append("no nontrivial points")
    for r in nontrivial:
        i = int(r["index"])
        if abs(r["n"] * r["r_Qu"] - 1.0) > TOL_IDENTITY:
            failures.append(f"row {i}: |n r_Qu - 1| = {abs(r['n'] * r['r_Qu'] - 1.0):.3e}")
        if r["reform_residual"] > TOL_REFORM:
            failures.append(f"row {i}: reform_residual {r['reform_residual']:.3e}")
        if r["min_u"] < -TOL_NEGATIVE:
            failures.append(f"row {i}: min_u {r['min_u']:.3e}")
        if r["n"] < 1.0 - TOL_IDENTITY:
            failures.append(f"row {i}: n = {r['n']!r} below the critical value")
    return failures, nontrivial


def check_trace(out_dir: Path, stdout: str) -> list[str]:
    return _check_branch(out_dir, stdout)[0]


def check_trace_decay(out_dir: Path, stdout: str) -> list[str]:
    """Branch checks plus the scalar oracle of u' = -(1 + u) u at every point.

    The grid is read back from the profiles, so a grid override is checked
    on its own grid.
    """
    failures, nontrivial = _check_branch(out_dir, stdout)
    for r in nontrivial:
        i = int(r["index"])
        profile = _read_rows(out_dir / f"branch_profile_{i:03d}.csv")
        na, a_max = len(profile) - 2, float(profile[-1][0])
        # normalization rescales cb to 1 / r(Q0); at zero density the
        # mortality is 1, so r(Q0) is the quadrature of the pure decay rows
        cb = 1.0 / float(_weights(na, a_max) @ _decay_rows(na, a_max))
        for B in (float(v) for v in profile[1][1:]):
            n_oracle = logistic_n_of_B(B, na, a_max, cb)
            if abs(r["n"] - n_oracle) > TOL_ORACLE * n_oracle:
                failures.append(f"row {i}: n = {r['n']!r}, scalar oracle {n_oracle!r}")
                break
    return failures


def check_fixedpoint(out_dir: Path, stdout: str) -> list[str]:
    report = dict(
        line.split(": ", 1) for line in (out_dir / "fp_report.txt").read_text().splitlines()
    )
    failures = []
    for key, want in (
        ("converged", "True"), ("collapsed", "False"),
        ("verdict_small_densities", "True"), ("verdict_large_densities", "True"),
    ):
        if report[key] != want:
            failures.append(f"{key}: {report[key]}")
    r_qu = float(report["r_Qu"])
    if abs(r_qu - 1.0) > TOL_IDENTITY:
        failures.append(f"|r_Qu - 1| = {abs(r_qu - 1.0):.3e}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.read_string((MODELS / "shell_decay.cfg").read_text())
    b_star = shell_root(
        cp.getint("domain", "na"), cp.getfloat("domain", "a_max"), cp.getfloat("normalization", "cb"),
    )
    births = [float(row[1]) for row in _read_rows(out_dir / "fp_B.csv")[1:]]
    if len(births) != FIXEDPOINT_NX:
        failures.append(f"{len(births)} birth entries, expected {FIXEDPOINT_NX}")
    worst = max((abs(b - b_star) / b_star for b in births), default=np.inf)
    if worst > TOL_ORACLE:
        failures.append(f"birth vector off the scalar root by {worst:.3e} relative")
    return failures


# -- the workloads -----------------------------------------------------------

# Both traces stop at an amplitude cap, well before --max-points, so a
# change in step control that covers the same stretch of branch with
# fewer points shows as a shorter run.
DIFFUSION_CAP = 0.015  # three nontrivial points
DECAY_CAP = 0.03  # four nontrivial points
MAX_POINTS = 20
# The shell probes scale one sampled field, a ramp in x, to amplitude
# 4 * tau1, so its smallest column sits at 4 * tau1 / nx.  Widening the
# grid from nx 12 to 48 with tau1 from 5 to 20 keeps that column at the
# same density, so the large-density shell still probes large densities.
FIXEDPOINT_NX = 48
FIXEDPOINT_TAU1 = 20.0


def _trace_argv(model: str, cap: float) -> Callable[[Path, int], list[str]]:
    # the trace command has no random input, so the seed is not used
    def argv(out_dir: Path, seed: int) -> list[str]:
        return [
            "trace", "--model", str(MODELS / model), "--out", str(out_dir / "branch.csv"),
            "--norm-cap", repr(cap), "--max-points", str(MAX_POINTS),
        ]

    return argv


def _fixedpoint_argv(out_dir: Path, seed: int) -> list[str]:
    return [
        "fixedpoint", "--model", str(MODELS / "shell_decay.cfg"), "--out", str(out_dir / "fp"),
        "--nx", str(FIXEDPOINT_NX), "--tau1", repr(FIXEDPOINT_TAU1), "--seed", str(seed % 2**32),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("trace-diffusion", _trace_argv("logistic_diffusion.cfg", DIFFUSION_CAP), check_trace),
        Workload("trace-decay", _trace_argv("logistic_decay.cfg", DECAY_CAP), check_trace_decay),
        Workload("fixedpoint-shell", _fixedpoint_argv, check_fixedpoint),
    )
}
