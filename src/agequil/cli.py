"""Command line interface.

Four subcommands cover the library's entry points:

    normalize   rescale the fertility normalization so r(Q0) = 1
    trace       trace the nontrivial branch, write a CSV plus profiles
    fixedpoint  fixed-point run with shell-condition checks
    verify      recheck a written branch against its model

The branch CSV has one row per branch point with columns index, n, eps,
r_Qu, identity_residual, residual_direct, reform_residual, min_u.  Next
to it, one profile CSV per point (suffix _profile_NNN.csv) stores the
field on the grid: first line "a," followed by the x coordinates, then
one row per age with the age in the first column.  All floats are
written with repr-faithful precision, so repeated runs with the same
seed and flags produce byte-identical files.

Exit codes: 0 on success, 1 when a computation fails or a verified
invariant is violated, 2 for unreadable inputs or malformed files.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .continuation import (
    ContinuationError,
    branch_stats,
    check_trace_flags,
    first_step,
    trace_branch,
)
from .discretize import AssemblyError, SpatialMesh
from .evolution import AgeGrid, EvolutionError, build_evolution
from .fixedpoint import (
    FixedPointError,
    check_shell_conditions,
    check_solve_flags,
    multistart_fixedpoint,
)
from .linearized import LinearizedError, build_linearized, reformulation_residual
from .model import ModelError, ModelSpec, parse_grid, parse_model, serialize_model
from .reproduction import PowerIterationError, ReproductionError, assemble_Q, spectral_radius

BRANCH_COLUMNS = (
    "index", "n", "eps", "r_Qu",
    "identity_residual", "residual_direct", "reform_residual", "min_u",
)

_COMPUTE_ERRORS = (
    ContinuationError, FixedPointError, ReproductionError, PowerIterationError,
    LinearizedError, EvolutionError, AssemblyError,
)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _load_problem(path: str, nx: int | None, na: int | None) -> tuple[ModelSpec, SpatialMesh, AgeGrid]:
    text = Path(path).read_text()
    model = parse_model(text)
    cfg_nx, cfg_na = parse_grid(text)
    nx = nx if nx is not None else cfg_nx
    na = na if na is not None else cfg_na
    if nx is None or na is None:
        raise ModelError("grid is incomplete: supply nx and na in the config or as flags")
    return model, SpatialMesh(nx=nx), AgeGrid(na=na, a_max=model.a_max)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as handle:
        handle.write(text)


def _branch_rows(branch) -> str:
    lines = [",".join(BRANCH_COLUMNS)]
    for idx, p in enumerate(branch.points):
        lines.append(",".join((
            str(idx), _fmt(p.n), _fmt(p.eps), _fmt(p.r_Qu),
            _fmt(p.identity_residual), _fmt(p.residual_direct),
            _fmt(p.reform_residual), _fmt(p.min_u),
        )))
    return "\n".join(lines) + "\n"


def _field_csv(u: np.ndarray, mesh: SpatialMesh, grid: AgeGrid) -> str:
    lines = ["a," + ",".join(_fmt(x) for x in mesh.nodes)]
    for k, age in enumerate(grid.ages):
        lines.append(_fmt(age) + "," + ",".join(_fmt(v) for v in u[k]))
    return "\n".join(lines) + "\n"


def _read_field_csv(path: Path, mesh: SpatialMesh, grid: AgeGrid) -> np.ndarray:
    """The field a profile file stores, checked against the model's grids."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if len(rows) < 3 or rows[0][:1] != ["a"]:
        raise ValueError(f"{path} is not a profile file")
    if any(len(row) != mesh.nx + 1 for row in rows):
        raise ValueError(f"{path} does not have {mesh.nx} x columns on every line")
    try:
        xs = np.array([float(v) for v in rows[0][1:]])
        body = np.array([[float(v) for v in row] for row in rows[1:]])
    except ValueError as exc:
        raise ValueError(f"{path} has a non-numeric cell: {exc}") from exc
    if not np.all(np.isfinite(body)):
        raise ValueError(f"{path} has a non-finite cell")
    if not np.allclose(xs, mesh.nodes, rtol=0, atol=1e-12):
        raise ValueError(f"{path} has an unexpected x grid")
    if body.shape[0] != grid.na + 1 or not np.allclose(
        body[:, 0], grid.ages, rtol=0, atol=1e-10 * max(1.0, grid.a_max)
    ):
        raise ValueError(f"{path} has an unexpected age grid")
    return np.ascontiguousarray(body[:, 1:])


def _stem(out: str) -> Path:
    path = Path(out)
    return path.with_suffix("") if path.suffix == ".csv" else path


def _cmd_normalize(args: argparse.Namespace) -> int:
    lin = build_linearized(*_load_problem(args.model, args.nx, args.na))
    print(f"r(Q0) before: {_fmt(lin.r_before)}")
    print(f"cb after: {_fmt(lin.model.cb)}")
    text = serialize_model(lin.model, nx=lin.mesh.nx, na=lin.grid.na)
    if args.out:
        _write_text(Path(args.out), text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    check_trace_flags(args.eps0, args.step, args.max_points, args.n_cap, args.norm_cap, args.tol)
    lin = build_linearized(*_load_problem(args.model, args.nx, args.na))
    print(f"r(Q0) before normalization: {_fmt(lin.r_before)}")
    branch = trace_branch(
        lin, eps0=args.eps0, step=args.step, max_points=args.max_points,
        n_cap=args.n_cap, norm_cap=args.norm_cap, tol=args.tol,
    )
    out = Path(args.out)
    _write_text(out, _branch_rows(branch))
    stem = _stem(args.out)
    for idx, point in enumerate(branch.points):
        profile = _field_csv(point.u, lin.mesh, lin.grid)
        _write_text(Path(f"{stem}_profile_{idx:03d}.csv"), profile)
    stats = branch_stats(branch)
    print(f"traced {len(branch.points)} points ({len(branch.nontrivial())} nontrivial)")
    print(f"terminated: {branch.terminated}")
    print(f"n range: [{_fmt(stats.sigma_i)}, {_fmt(stats.sigma_s)}]")
    print(f"r(Q_u) range: [{_fmt(stats.N_i)}, {_fmt(stats.N_s)}]")
    print(f"max |n r(Q_u) - 1|: {_fmt(stats.max_identity_residual)}")
    print(f"wrote {out} and {len(branch.points)} profiles")
    return 0


def _cmd_fixedpoint(args: argparse.Namespace) -> int:
    model, mesh, grid = _load_problem(args.model, args.nx, args.na)
    # every flag is checked before the shell probes and the shells before
    # the solve, so a bad flag fails before any computation; each call
    # seeds its own generator, so the order does not change the numbers
    check_solve_flags(args.damping, args.tol, args.max_iter, args.starts)
    shell = check_shell_conditions(model, mesh, grid, args.tau0, args.tau1, seed=args.seed)
    result = multistart_fixedpoint(
        model, mesh, grid, damping=args.damping, tol=args.tol, max_iter=args.max_iter,
        starts=args.starts, seed=args.seed,
    )
    stem = _stem(args.out)
    _write_text(Path(f"{stem}_u.csv"), _field_csv(result.u, mesh, grid))
    b_lines = ["x,B"] + [f"{_fmt(x)},{_fmt(b)}" for x, b in zip(mesh.nodes, result.B)]
    _write_text(Path(f"{stem}_B.csv"), "\n".join(b_lines) + "\n")
    report = "\n".join((
        f"converged: {result.converged}",
        f"collapsed: {result.collapsed}",
        f"iterations: {result.iterations}",
        f"residual: {_fmt(result.residual)}",
        f"r_Qu: {_fmt(result.r_Qu)}",
        f"amplitude: {_fmt(grid.norm(result.u))}",
        f"shell tau0: {_fmt(shell.tau0)}",
        f"shell tau1: {_fmt(shell.tau1)}",
        f"verdict_small_densities: {shell.verdict_small_densities}",
        f"verdict_large_densities: {shell.verdict_large_densities}",
        f"min_small_excess: {_fmt(shell.min_small_excess)}",
        f"max_large_radius: {_fmt(shell.max_large_radius)}",
    )) + "\n"
    _write_text(Path(f"{stem}_report.txt"), report)
    sys.stdout.write(report)
    print(f"wrote {stem}_u.csv, {stem}_B.csv, {stem}_report.txt")
    return 0


def _check(label: str, ok: bool, detail: str, failures: list[str]) -> None:
    if ok:
        print(f"ok   {label}: {detail}")
    else:
        print(f"FAIL {label}: {detail}")
        failures.append(label)


def _cmd_verify(args: argparse.Namespace) -> int:
    problem = _load_problem(args.model, args.nx, args.na)
    branch_path = Path(args.branch)
    with open(branch_path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or tuple(rows[0]) != BRANCH_COLUMNS:
        raise ValueError(f"{branch_path} does not have the branch column header")
    if any(len(row) != len(BRANCH_COLUMNS) for row in rows[1:]):
        raise ValueError(f"{branch_path} has a row without {len(BRANCH_COLUMNS)} cells")
    try:
        table = [
            {col: float(val) for col, val in zip(BRANCH_COLUMNS, row)} for row in rows[1:]
        ]
    except ValueError as exc:
        raise ValueError(f"{branch_path} has a non-numeric cell: {exc}") from exc
    if not table:
        raise ValueError(f"{branch_path} has no rows")

    failures: list[str] = []
    _check(
        "row 0 is the trivial point",
        abs(table[0]["n"] - 1.0) <= 1e-9 and abs(table[0]["eps"]) <= 1e-12,
        f"n={table[0]['n']!r}, eps={table[0]['eps']!r}",
        failures,
    )
    worst = max(abs(r["n"] * r["r_Qu"] - 1.0) for r in table)
    _check("columns satisfy n r(Q_u) = 1", worst <= 1e-6, f"max residual {worst:.3e}", failures)
    worst = max(r["reform_residual"] for r in table)
    _check("reformulation residuals", worst <= 1e-5, f"max {worst:.3e}", failures)
    worst = min(r["min_u"] for r in table)
    _check("nonnegative densities", worst >= -1e-10, f"min {worst:.3e}", failures)

    nontrivial = [r for r in table if r["eps"] > 1e-12]
    if nontrivial:
        ns = [r["n"] for r in nontrivial]
        rs = [r["r_Qu"] for r in nontrivial]
        cross = max(abs(max(ns) * min(rs) - 1.0), abs(min(ns) * max(rs) - 1.0))
        _check("branch extreme identities", cross <= 1e-6, f"residual {cross:.3e}", failures)

    # profile replay: rebuild the reproduction operator from each stored
    # field and recheck the identity and the reformulation residual
    lin = build_linearized(*problem)
    stem = _stem(args.branch)
    recompute_worst = 0.0
    reform_worst = 0.0
    for idx, row in enumerate(table):
        if row["eps"] <= 1e-12:
            continue
        u = _read_field_csv(Path(f"{stem}_profile_{idx:03d}.csv"), lin.mesh, lin.grid)
        ev = build_evolution(lin.model, lin.mesh, lin.grid, u)
        r, _ = spectral_radius(assemble_Q(lin.model, ev))
        recompute_worst = max(recompute_worst, abs(row["n"] * r - 1.0))
        reform_worst = max(reform_worst, reformulation_residual(lin, row["n"], u))
    if nontrivial:
        _check(
            "profiles satisfy n r(Q_u) = 1",
            recompute_worst <= 1e-6, f"max residual {recompute_worst:.3e}", failures,
        )
        _check(
            "profiles satisfy the reformulation",
            reform_worst <= 1e-5, f"max residual {reform_worst:.3e}", failures,
        )

    # local expansion replay: the offset n - 1 must shrink in proportion
    # to the first-step amplitude (degenerate branches excepted)
    d1 = first_step(lin, 1e-2).n - 1.0
    d2 = first_step(lin, 5e-3).n - 1.0
    if abs(d1) < 1e-8 and abs(d2) < 1e-8:
        ok, detail = True, "degenerate branch"
    else:
        ratio = d1 / d2 if d2 != 0.0 else np.inf
        ok, detail = ratio >= 1.5, f"offset ratio {ratio:.3f}"
    _check("local expansion order", ok, f"{detail} (offsets {d1:.3e}, {d2:.3e})", failures)

    if failures:
        print(f"{len(failures)} check(s) failed")
        return 1
    print("all checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agequil",
        description="Equilibria and bifurcation branches of age- and space-structured "
        "population models with nonlinear diffusion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", required=True, help="model config file")
        p.add_argument("--nx", type=int, default=None, help="override spatial intervals")
        p.add_argument("--na", type=int, default=None, help="override age steps")

    p = sub.add_parser("normalize", help="rescale cb so r(Q0) = 1")
    add_common(p)
    p.add_argument("--out", default=None, help="write the normalized config here")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("trace", help="trace the nontrivial branch")
    add_common(p)
    p.add_argument("--out", required=True, help="branch CSV path")
    p.add_argument("--eps0", type=float, default=1e-2, help="first-step amplitude")
    p.add_argument("--step", type=float, default=0.05, help="initial arclength step")
    p.add_argument("--max-points", type=int, default=20, help="nontrivial points to trace")
    p.add_argument("--n-cap", type=float, default=4.0, help="stop beyond this n")
    p.add_argument("--norm-cap", type=float, default=2.0, help="stop beyond this amplitude")
    p.add_argument("--tol", type=float, default=1e-9, help="corrector tolerance")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("fixedpoint", help="fixed-point run with shell checks")
    add_common(p)
    p.add_argument("--out", required=True, help="output stem or CSV path")
    p.add_argument("--damping", type=float, default=0.5)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=2000)
    p.add_argument("--starts", type=int, default=3)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tau0", type=float, default=1e-2, help="small-amplitude shell")
    p.add_argument("--tau1", type=float, default=5.0, help="large-amplitude shell")
    p.set_defaults(func=_cmd_fixedpoint)

    p = sub.add_parser("verify", help="recheck a written branch")
    add_common(p)
    p.add_argument("--branch", required=True, help="branch CSV written by trace")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a non-finite value fails a finiteness or pivot check with one line
        with np.errstate(all="ignore"):
            return args.func(args)
    except _COMPUTE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 1
    except (ModelError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
