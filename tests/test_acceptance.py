"""End-to-end acceptance gate.

Ten criteria, one test each.  Every test appends a PASS/FAIL line to the
terminal summary (see conftest) and then asserts, so a red criterion is
visible both in the pytest output and in the printed scoreboard.  All
tolerances are pinned here, not imported, so loosening one is a visible
diff in this file.
"""

import numpy as np
import pytest

from agequil.cli import main
from agequil.continuation import branch_stats, first_step, trace_branch
from agequil.discretize import SpatialMesh
from agequil.evolution import AgeGrid, apply_K0, build_evolution, march, propagate
from agequil.expr import Num
from agequil.fixedpoint import solve_fixedpoint
from agequil.linearized import build_linearized, reformulation_residual, solve_linear
from agequil.model import ModelSpec, parse_grid, parse_model
from agequil.reproduction import assemble_Q, spectral_radius

from conftest import ACCEPTANCE_LINES, MODELS
from oracles import (
    CONTINUUM_R0,
    birth_feedback_eigenvalue,
    discrete_r0,
    linear_residuals,
    shell_root,
    solve_at_norm,
)


def _record(num: int, name: str, ok: bool, detail: str) -> None:
    mark = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append(f"[{mark}] criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_c01_reproduction_number_converges_in_age_step(decay_problem):
    model, _, _ = decay_problem
    mesh = SpatialMesh(nx=8)
    errors = []
    normalized_ok = True
    for na in (40, 80, 160):
        grid = AgeGrid(na=na, a_max=model.a_max)
        rep = assemble_Q(model, build_evolution(model, mesh, grid))
        r, _ = spectral_radius(rep)
        assert r == pytest.approx(discrete_r0(na, model.a_max, model.cb), rel=1e-12)
        errors.append(abs(r - CONTINUUM_R0))
        renorm = build_linearized(model, mesh, grid).model
        rep1 = assemble_Q(renorm, build_evolution(renorm, mesh, grid))
        r1, _ = spectral_radius(rep1)
        normalized_ok = normalized_ok and abs(r1 - 1.0) <= 1e-10
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    ok = all(rat >= 1.5 for rat in ratios) and normalized_ok
    _record(
        1, "reproduction number converges with the age step", ok,
        f"errors {errors[0]:.3e} -> {errors[1]:.3e} -> {errors[2]:.3e}, "
        f"ratios {ratios[0]:.2f}, {ratios[1]:.2f}, normalization residual <= 1e-10: {normalized_ok}",
    )


def test_c02_heat_kernel_decay_rate():
    # no aging, no reaction: propagation is the backward Euler heat flow,
    # so a sine initial slice decays at the ground eigenvalue pi^2
    model = ModelSpec(
        a_max=1.0, D=Num(1.0), g=Num(0.0), h=Num(0.0), mu=Num(0.0),
        b=Num(1.0), nu0=1e6, cb=1.0, pure_decay=False,
    )
    mesh, grid = SpatialMesh(nx=200), AgeGrid(na=400, a_max=1.0)
    B = np.sin(np.pi * mesh.nodes)
    u = propagate(build_evolution(model, mesh, grid, None), B)
    half, full = grid.na // 2, grid.na
    n_half = float(np.linalg.norm(u[half]))
    n_full = float(np.linalg.norm(u[full]))
    slope = np.log(n_half / n_full) / (grid.a_max - grid.ages[half])
    rel = abs(slope - np.pi**2) / np.pi**2
    _record(
        2, "heat kernel decays at pi^2", rel <= 0.02,
        f"measured rate {slope:.4f} vs {np.pi**2:.4f} (rel {rel:.4f}, tol 0.02)",
    )


def _random_config(rng: np.random.Generator) -> str:
    d = rng.uniform(0.05, 2.0)
    cg = rng.uniform(0.0, 0.5)
    g = rng.choice(["0", f"{cg} * u", f"-{cg} * u", f"{cg} * p", f"-{cg} * p"])
    ch = rng.uniform(0.0, 0.5)
    h = rng.choice(["0", f"{ch} * u"])
    mu = f"{rng.uniform(0.2, 2.0)} + {rng.uniform(0.0, 2.0)} * u"
    b = rng.choice(["1", "exp(-u)", "1 + u"])
    nu0 = rng.uniform(0.0, 5.0) if rng.random() < 0.5 else 0.0
    pure = "pure_decay = true\n" if rng.random() < 0.2 else ""
    return (
        "[domain]\n"
        f"a_max = {rng.uniform(0.5, 2.0)}\n"
        f"nx = {int(rng.integers(4, 31))}\n"
        f"na = {int(rng.integers(5, 61))}\n"
        f"{pure}"
        "[coefficients]\n"
        f"D = {d}\n"
        f"g = {g}\n"
        f"h = {h}\n"
        f"mu = {mu}\n"
        f"b = {b}\n"
        "[boundary]\n"
        f"nu0 = {nu0}\n"
        "[normalization]\n"
        "cb = 1.0\n"
    )


def test_c03_exact_nonnegativity_on_random_models():
    rng = np.random.default_rng(12345)
    bad = 0
    for trial in range(100):
        text = _random_config(rng)
        model = parse_model(text)
        nx, na = parse_grid(text)
        mesh, grid = SpatialMesh(nx=nx), AgeGrid(na=na, a_max=model.a_max)
        B = rng.uniform(0.0, 3.0, mesh.nx)
        if trial % 2 == 0:
            ev = build_evolution(model, mesh, grid, None)
            u = propagate(ev, B)
            src = rng.uniform(0.0, 1.0, (na + 1, nx))
            k = apply_K0(ev, src)
            clean = (
                np.all(u >= 0.0) and np.all(np.isfinite(u))
                and np.all(k >= 0.0) and np.all(np.isfinite(k))
            )
        else:
            frozen = rng.uniform(0.0, 2.0, (na + 1, nx))
            u = propagate(build_evolution(model, mesh, grid, frozen), B)
            clean = np.all(u >= 0.0) and np.all(np.isfinite(u))
        bad += 0 if clean else 1
    _record(
        3, "propagation is exactly nonnegative on random models", bad == 0,
        f"{100 - bad} of 100 random models produced no negative or non-finite entry",
    )


def test_c04_linearized_eigenvalue_and_residuals(decay_lin, diffusion_lin):
    eigs = []
    res_ok = True
    for lin in (decay_lin, diffusion_lin):
        mesh, grid = lin.mesh, lin.grid
        eigs.append(birth_feedback_eigenvalue(lin))
        rng = np.random.default_rng(21)
        c = rng.uniform(0.0, 1.0, mesh.nx)
        f = rng.uniform(0.0, 1.0, (grid.na + 1, mesh.nx))
        sol = solve_linear(lin, c, f)
        res_step, res_birth = linear_residuals(lin, sol, c, f)
        res_ok = res_ok and res_step <= 1e-8 and res_birth <= 1e-8
    ok = all(abs(e - 2.0) <= 1e-6 for e in eigs) and res_ok
    _record(
        4, "birth feedback operator has eigenvalue 2", ok,
        f"eigenvalues {eigs[0]:.12f}, {eigs[1]:.12f} (tol 1e-6), stepped residuals <= 1e-8: {res_ok}",
    )


def test_c05_branch_invariants(decay_lin, decay_branch, diffusion_lin, diffusion_branch):
    # a point's r_Qu is the upper end of a bracket on its own march, so the
    # identity is also checked with the dense radius of Q_u; its
    # reform_residual is the closed form of the march, so the reformulation
    # is also checked the long way, on the field
    worst_id = worst_dense = worst_reform = worst_long = worst_direct = 0.0
    worst_min = 0.0
    rows_ok = True
    for lin, branch in ((decay_lin, decay_branch), (diffusion_lin, diffusion_branch)):
        p0 = branch.points[0]
        rows_ok = rows_ok and p0.trivial and p0.n == 1.0 and p0.eps == 0.0
        for p in branch.nontrivial():
            r, _ = spectral_radius(assemble_Q(lin.model, march(lin.model, lin.mesh, lin.grid, p.B)))
            worst_dense = max(worst_dense, abs(p.n * r - 1.0))
            worst_id = max(worst_id, p.identity_residual)
            worst_reform = max(worst_reform, p.reform_residual)
            worst_long = max(worst_long, reformulation_residual(lin, p.n, p.u))
            worst_direct = max(worst_direct, p.residual_direct)
            worst_min = min(worst_min, p.min_u)
    ok = (
        rows_ok and worst_id <= 1e-6 and worst_dense <= 1e-6 and worst_reform <= 1e-5
        and worst_long <= 1e-5 and worst_direct <= 2e-9 and worst_min >= -1e-10
    )
    _record(
        5, "branch points satisfy the discrete identities", ok,
        f"max |n r(Q_u) - 1| = {worst_dense:.3e} by the dense radius, "
        f"{worst_id:.3e} as stored (tol 1e-6), "
        f"max reformulation residual = {worst_reform:.3e} as stored, {worst_long:.3e} the long way (tol 1e-5), "
        f"max direct residual = {worst_direct:.3e} (tol 2e-9), "
        f"min density = {worst_min:.3e} (tol -1e-10)",
    )


def test_c06_local_expansion_order(decay_lin):
    d1 = first_step(decay_lin, 1e-2).n - 1.0
    d2 = first_step(decay_lin, 5e-3).n - 1.0
    ratio = d1 / d2
    _record(
        6, "bifurcation offset scales with the first-step amplitude", ratio >= 1.5,
        f"offsets {d1:.6e} and {d2:.6e}, ratio {ratio:.4f} (needs >= 1.5)",
    )


def test_c07_branch_is_supercritical(decay_lin):
    branch = trace_branch(decay_lin, eps0=1e-3, max_points=8)
    stats = branch_stats(branch)
    all_ns = [p.n for p in branch.nontrivial()]
    ok = (1.0 - 1e-6 <= stats.sigma_i <= 1.0 + 1e-3) and all(
        n >= 1.0 - 1e-6 for n in all_ns
    )
    _record(
        7, "no nontrivial solutions below the critical parameter", ok,
        f"smallest n on branch = {stats.sigma_i:.9f} (must sit in [1 - 1e-6, 1 + 1e-3])",
    )


def test_c08_fixedpoint_cross_validates_continuation(shell_problem):
    model, mesh, grid = shell_problem
    fp = solve_fixedpoint(model, mesh, grid)
    b_star = shell_root(grid.na, grid.a_max, model.cb)
    fp_ok = (
        fp.converged
        and abs(fp.r_Qu - 1.0) <= 1e-6
        and abs(fp.B[0] - b_star) <= 1e-6 * b_star
    )
    lin = build_linearized(model, mesh, grid)
    pt = solve_at_norm(lin, grid.norm(fp.u))
    n_gap = abs(pt.n - lin.r_before)
    b_gap = float(np.max(np.abs(pt.B - fp.B)))
    ok = fp_ok and n_gap <= 1e-5 and b_gap <= 1e-5
    _record(
        8, "fixed point and branch agree at equal amplitude", ok,
        f"r(Q_u*) - 1 = {fp.r_Qu - 1.0:.3e} (tol 1e-6), birth vs oracle rel "
        f"{abs(fp.B[0] - b_star) / b_star:.3e} (tol 1e-6), |n - r(Q0)| = {n_gap:.3e} (tol 1e-5), "
        f"max birth gap = {b_gap:.3e} (tol 1e-5)",
    )


def test_c09_parameter_value_is_grid_robust(diffusion_problem):
    base, _, _ = diffusion_problem
    ns = []
    for nx, na in ((24, 40), (48, 80)):
        mesh, grid = SpatialMesh(nx=nx), AgeGrid(na=na, a_max=base.a_max)
        ns.append(solve_at_norm(build_linearized(base, mesh, grid), 0.1).n)
    gap = abs(ns[0] - ns[1]) / ns[1]
    _record(
        9, "amplitude-matched parameter is grid robust", gap <= 0.02,
        f"n = {ns[0]:.6f} on (24, 40) vs {ns[1]:.6f} on (48, 80), rel gap {gap:.5f} (tol 0.02)",
    )


def test_c10_cli_runs_are_byte_identical(tmp_path):
    decay = str(MODELS / "logistic_decay.cfg")
    shell = str(MODELS / "shell_decay.cfg")
    outputs = []
    for run in ("one", "two"):
        d = tmp_path / run
        rc = main([
            "trace", "--model", decay, "--out", str(d / "branch.csv"),
            "--nx", "6", "--na", "24", "--max-points", "3",
        ])
        assert rc == 0
        rc = main(["fixedpoint", "--model", shell, "--out", str(d / "fp.csv")])
        assert rc == 0
        files = sorted(p.name for p in d.iterdir())
        outputs.append({name: (d / name).read_bytes() for name in files})
    same_names = sorted(outputs[0]) == sorted(outputs[1])
    same_bytes = same_names and all(outputs[0][k] == outputs[1][k] for k in outputs[0])
    _record(
        10, "command line reruns are byte identical", same_bytes,
        f"{len(outputs[0])} files compared, names match: {same_names}, bytes match: {same_bytes}",
    )
