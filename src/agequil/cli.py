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
one row per age with the age in the first column.  One writer prints
every table, fixedpoint's too, with each float in the repr-faithful FLOAT
format, so reruns with the same seed and flags give byte-identical files;
verify reads them with one reader, which refuses a non-finite cell.

Exit codes: 0 on success, 1 when a computation fails or a verified
invariant is violated, 2 for unreadable inputs or malformed files.
"""

from __future__ import annotations

import argparse
import csv
import sys
from collections.abc import Callable, Iterable, Sequence
from pathlib import Path

import numpy as np

from .continuation import (
    TOL_IDENTITY,
    TOL_POSITIVITY,
    ContinuationError,
    branch_point,
    branch_stats,
    check_trace_flags,
    first_step,
    trace_branch,
)
from .discretize import AssemblyError, SpatialMesh
from .evolution import AgeGrid, EvolutionError, freeze
from .fixedpoint import (
    FixedPointError,
    check_shell_conditions,
    check_solve_flags,
    solve_fixedpoint,
)
from .linearized import LinearizedError, build_linearized, reformulation_residual
from .model import ModelError, ModelSpec, parse_grid, parse_model, serialize_model
from .reproduction import PowerIterationError, ReproductionError, assemble_Q, birth_functional, spectral_radius

# after index, each column is the BranchPoint field of its name
BRANCH_COLUMNS = (
    "index", "n", "eps", "r_Qu",
    "identity_residual", "residual_direct", "reform_residual", "min_u",
)
# every float the CLI writes, repr-faithful
FLOAT = "%.17g"
# verify's bound on a reformulation residual, and how far, relative to its
# scale, a stored eps, r_Qu or residual_direct may be from its replay
REFORM_BOUND = 1e-5
REPLAY_ALLOWANCE = 1e-12

_COMPUTE_ERRORS = (
    ContinuationError, FixedPointError, ReproductionError, PowerIterationError,
    LinearizedError, EvolutionError, AssemblyError,
)


def _fmt(x: float) -> str:
    return FLOAT % x


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


def _table(path: Path, header: Sequence[str], rows: Iterable[Sequence[float]]) -> None:
    """Write a header line and one line of FLOAT cells per row."""
    line = ",".join([FLOAT] * len(header))
    _write_text(path, "\n".join([",".join(header), *(line % tuple(row) for row in rows)]) + "\n")


def _field_csv(path: Path, u: np.ndarray, mesh: SpatialMesh, grid: AgeGrid) -> None:
    _table(path, ["a", *map(_fmt, mesh.nodes.tolist())],
           ((age, *row.tolist()) for age, row in zip(grid.ages.tolist(), u)))


def _read_table(path: Path, header_ok: Callable[[list[str]], bool]) -> tuple[list[str], np.ndarray]:
    """The header and the float cells of a table _table wrote; a ragged row
    or a non-numeric or non-finite cell raises ValueError naming the file."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or not rows[0]:
        raise ValueError(f"{path} has no header on its first line")
    if not header_ok(rows[0]):
        raise ValueError(f"{path} does not start with the expected header")
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError(f"{path} has a row without {len(rows[0])} cells")
    if len(rows) < 2:
        raise ValueError(f"{path} has no rows")
    try:
        body = np.array([[float(v) for v in row] for row in rows[1:]])
    except ValueError as exc:
        raise ValueError(f"{path} has a non-numeric cell: {exc}") from exc
    if not np.all(np.isfinite(body)):
        raise ValueError(f"{path} has a non-finite cell")
    return rows[0], body


def _read_field_csv(path: Path, mesh: SpatialMesh, grid: AgeGrid) -> np.ndarray:
    """The field a profile file stores, checked against the model's grids."""
    header, body = _read_table(path, lambda first: first[0] == "a")
    try:
        xs = [float(v) for v in header[1:]]
    except ValueError:
        xs = []
    if len(xs) != mesh.nx or not np.allclose(xs, mesh.nodes, rtol=0, atol=1e-12):
        raise ValueError(f"{path} has an unexpected x grid")
    if body.shape[0] != grid.na + 1 or not np.allclose(
        body[:, 0], grid.ages, rtol=0, atol=1e-10 * max(1.0, grid.a_max)
    ):
        raise ValueError(f"{path} has an unexpected age grid")
    return np.ascontiguousarray(body[:, 1:])


def _stem(out: str) -> Path:
    path = Path(out)
    return path.with_suffix("") if path.suffix == ".csv" else path


def _profile_path(branch: str, idx: int) -> Path:
    return Path(f"{_stem(branch)}_profile_{idx:03d}.csv")


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
    _table(out, BRANCH_COLUMNS, (
        (idx, *(getattr(p, col) for col in BRANCH_COLUMNS[1:]))
        for idx, p in enumerate(branch.points)
    ))
    for idx, point in enumerate(branch.points):
        _field_csv(_profile_path(args.out, idx), point.u, lin.mesh, lin.grid)
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
    result = solve_fixedpoint(
        model, mesh, grid, damping=args.damping, tol=args.tol, max_iter=args.max_iter,
        starts=args.starts, seed=args.seed,
    )
    stem = _stem(args.out)
    _field_csv(Path(f"{stem}_u.csv"), result.u, mesh, grid)
    _table(Path(f"{stem}_B.csv"), ("x", "B"), zip(mesh.nodes.tolist(), result.B.tolist()))
    report = "\n".join((
        f"converged: {result.converged}",
        f"collapsed: {not result.converged}",
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


def _off(stored: float, replay: float) -> float:
    """How far a stored value is from its replay, relative to the replay;
    a zero replay has no scale, so it counts as off."""
    return abs(stored - replay) / replay if replay else np.inf


def _cmd_verify(args: argparse.Namespace) -> int:
    model, mesh, grid = _load_problem(args.model, args.nx, args.na)
    _, table = _read_table(Path(args.branch), lambda first: tuple(first) == BRANCH_COLUMNS)
    column = dict(zip(BRANCH_COLUMNS, table.T.tolist()))
    if column["index"] != list(range(len(table))):
        raise ValueError(f"{args.branch} has an index that is not the row number")
    n, eps, r_Qu, direct, reform = (column[c] for c in ("n", "eps", "r_Qu", "residual_direct", "reform_residual"))
    # every profile is read before the first check, so a malformed one
    # fails as a malformed file; each row's columns are then recomputed by
    # the function trace wrote them with, on the evolution frozen at its profile
    profiles = [_read_field_csv(_profile_path(args.branch, idx), mesh, grid) for idx in range(len(table))]
    lin = build_linearized(model, mesh, grid)
    evs = [freeze(lin.model, mesh, grid, u) for u in profiles]
    points = [branch_point(lin, ni, ev) for ni, ev in zip(n, evs)]
    trivial = [idx for idx, p in enumerate(points) if p.trivial]
    nontrivial = [idx for idx, p in enumerate(points) if not p.trivial]

    failures: list[str] = []
    # a trivial row stores the trivial point exactly: the zero field, whose
    # eps and residuals are 0; only a failure names the rows
    stray = [(name, rows) for name, rows in (
        ("eps", [idx for idx in trivial if eps[idx] != points[idx].eps]),
        ("residual_direct", [idx for idx in trivial if direct[idx] != points[idx].residual_direct]),
        ("reform_residual", [idx for idx in trivial if reform[idx] != points[idx].reform_residual]),
        ("profile", [idx for idx in trivial if np.any(profiles[idx] != points[idx].u)]),
    ) if rows]
    _check(
        "row 0 is the trivial point",
        abs(n[0] - 1.0) <= 1e-9 and points[0].trivial and not stray,
        f"n={n[0]!r}, eps={eps[0]!r}" + "".join(f", nonzero {name} in rows {rows}" for name, rows in stray),
        failures,
    )
    # trace wrote identity_residual as this very product
    identity = [abs(ni * ri - 1.0) for ni, ri in zip(n, r_Qu)]
    worst, kept = max(identity), identity == column["identity_residual"]
    _check("columns satisfy n r(Q_u) = 1", worst <= TOL_IDENTITY and kept,
           f"max residual {worst:.3e}" + ("" if kept else ", not the identity_residual column"), failures)
    worst = max(reform)
    _check("reformulation residuals", worst <= REFORM_BOUND, f"max {worst:.3e}", failures)
    worst, kept = min(column["min_u"]), column["min_u"] == [p.min_u for p in points]
    _check("nonnegative densities", worst >= -TOL_POSITIVITY and kept,
           f"min {worst:.3e}" + ("" if kept else ", not the min_u of each profile"), failures)

    if nontrivial:
        ns, rs = [n[idx] for idx in nontrivial], [r_Qu[idx] for idx in nontrivial]
        cross = max(abs(max(ns) * min(rs) - 1.0), abs(min(ns) * max(rs) - 1.0))
        _check("branch extreme identities", cross <= TOL_IDENTITY, f"residual {cross:.3e}", failures)
        # the profile replay rechecks the radius and the reformulation; a
        # stored eps and r_Qu may each be off by REPLAY_ALLOWANCE relative to
        # its replay, residual_direct and reform_residual by as much
        # absolutely, as another BLAS may sum a few ulps apart, and power
        # iteration (where B has an entry <= 0) stop reproduction.POWER_TOL apart
        worst = max(points[idx].identity_residual for idx in nontrivial)
        r_off = max(_off(r_Qu[idx], points[idx].r_Qu) for idx in nontrivial)
        _check("profiles satisfy n r(Q_u) = 1", worst <= TOL_IDENTITY and r_off <= REPLAY_ALLOWANCE,
               f"max residual {worst:.3e}" + (f", r_Qu off by {r_off:.3e}" if r_off > REPLAY_ALLOWANCE else ""),
               failures)
        # the replayed r_Qu is the upper end of the bracket [min l/B, max l/B]
        # of the profile's own birth row, so the radius is checked apart from
        # it too: the dense r(Q_u) of each frozen profile must meet the
        # identity and lie in that bracket, widened by REPLAY_ALLOWANCE as
        # power iteration stops POWER_TOL apart (a B with an entry <= 0 has no
        # bracket; its replayed r_Qu is this dense radius)
        dense = {idx: spectral_radius(assemble_Q(lin.model, evs[idx]))[0] for idx in nontrivial}
        worst = max(abs(n[idx] * r - 1.0) for idx, r in dense.items())
        outside = []
        for idx, r in dense.items():
            u = profiles[idx]
            if np.all(u[0] > 0):
                ratios = birth_functional(lin.model, grid, u) / u[0]
                if not ratios.min() * (1.0 - REPLAY_ALLOWANCE) <= r <= ratios.max() * (1.0 + REPLAY_ALLOWANCE):
                    outside.append(idx)
        _check("dense radii satisfy n r(Q_u) = 1", worst <= TOL_IDENTITY and not outside,
               f"max residual {worst:.3e}" + (f", outside the bracket in rows {outside}" if outside else ""),
               failures)
        # the replay's reform_residual is the closed form, true only on the
        # march of a birth row, so each profile is held to the long form too
        worst = max(reformulation_residual(lin, n[idx], profiles[idx]) for idx in nontrivial)
        off = [(name, value) for name, value in (
            ("residual_direct", max(abs(direct[idx] - points[idx].residual_direct) for idx in nontrivial)),
            ("reform_residual", max(abs(reform[idx] - points[idx].reform_residual) for idx in nontrivial)),
            ("eps", max(_off(eps[idx], points[idx].eps) for idx in nontrivial)),
        ) if value > REPLAY_ALLOWANCE]
        _check(
            "profiles satisfy the reformulation", worst <= REFORM_BOUND and not off,
            f"max residual {worst:.3e}" + "".join(f", {name} off by {value:.3e}" for name, value in off), failures,
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
        "population models; the density enters through g, h, mu and b, not D",
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
    p.add_argument("--damping", type=float, default=0.5, help="weight of l(u(B)) in the damped step, in (0, 1]")
    p.add_argument("--tol", type=float, default=1e-10, help="stop once B changes by at most this")
    p.add_argument("--max-iter", type=int, default=2000, help="iterations allowed per start")
    p.add_argument("--starts", type=int, default=3, help="starts tried until one does not collapse")
    p.add_argument("--seed", type=int, default=42, help="seed of the random starts and shell probes")
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
