"""Continuation of the nontrivial equilibrium branch in the fertility
intensity n.

The branch lives in (n, B) space: a corrected point solves

    G(B, n) = B - n * l(u(B)) = 0

where u(B), the self-consistent field of B, is one forward march
(evolution.march): each age step is frozen at the previous age slice.
That causality makes the exact Jacobian a tangent march on the march's
own steps, only of its diagonal where the tangent stays diagonal, so a
Newton step assembles and factors nothing new.  The
trivial solution exists for every n; the nontrivial branch leaves it at
n = 1 along the Perron direction of Q0.  The first step pins the
amplitude along that direction and frees n; later steps are
pseudo-arclength: a secant predictor, then Newton on (B, n) bordered by
the plane through the predictor (a fixed n is the plane n = const).
Tolerances are relative to the birth vector scale, so early points
(amplitudes around 1e-3) are resolved as sharply as later ones.

The corrector and the tracers take the zero-density problem,
LinearizedOperators, as their one problem handle.  build_linearized is
the only way to make one, and it rescales cb so that r(Q0) = 1, which
puts the bifurcation at n = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .discretize import AssemblyError, gradient_of_slice, slice_derivative
from .evolution import EvolutionError, EvolutionOperator, is_trivial, march
from .expr import diff, evaluate_on
from .linearized import LinearizedOperators, solve_linear
from .reproduction import assemble_Q, birth_functional, spectral_radius

TOL_IDENTITY = 1e-6
TOL_POSITIVITY = 1e-10
MAX_NEWTON = 30  # correct's cap on Newton steps


class ContinuationError(RuntimeError):
    pass


@dataclass(frozen=True)
class Plane:
    """Pseudo-arclength plane through an anchor with a tangent normal."""

    normal_B: np.ndarray
    normal_n: float
    anchor_B: np.ndarray
    anchor_n: float

    def value(self, B: np.ndarray, n: float) -> float:
        return float(self.normal_B @ (B - self.anchor_B) + self.normal_n * (n - self.anchor_n))


@dataclass
class BranchPoint:
    """One corrected equilibrium with its diagnostics.

    identity_residual is |n * r(Q_u) - 1|, the along-branch identity;
    r_Qu is max l(u)/B, the upper end of r(Q_u)'s bracket, where B > 0,
    and the dense radius of assemble_Q elsewhere (branch_point).
    residual_direct is the birth residual |B - n l(u)| relative to the
    birth scale (u is the march of B, so it has no field defect);
    reform_residual is the field norm of u - lam L u - H(lam, u) at
    lam = n - 1/2, on that march one solve of the birth defect
    (linearized).  newton_iters counts the corrector's Newton steps.
    """

    n: float
    u: np.ndarray
    B: np.ndarray
    eps: float
    r_Qu: float
    identity_residual: float
    residual_direct: float
    reform_residual: float
    min_u: float
    trivial: bool = False
    newton_iters: int = 0


@dataclass
class Branch:
    """Accepted points in order, why the trace stopped, and every rejected
    corrector attempt as (step size, exception class name, message)."""

    points: list[BranchPoint] = field(default_factory=list)
    terminated: str = ""
    rejected: list[tuple[float, str, str]] = field(default_factory=list)

    def nontrivial(self) -> list[BranchPoint]:
        return [p for p in self.points if not p.trivial]


@dataclass(frozen=True)
class BranchStats:
    sigma_i: float
    sigma_s: float
    N_i: float
    N_s: float
    max_identity_residual: float


def _scaled_tol(tol: float, B: np.ndarray) -> float:
    return tol * max(float(np.max(np.abs(B))), 1e-12)


def correct(
    lin: LinearizedOperators,
    n: float,
    B_guess: np.ndarray,
    plane: Plane,
    *,
    tol: float = 1e-9,
) -> BranchPoint:
    """Bordered Newton corrector on (B, n) from a birth vector.

    Solves G(B, n) = 0 and the plane's equation from (B_guess, n); a
    fixed n is the plane n = const, Plane(0, 1, B, n).  Each evaluation of
    G is one march of B, each Newton step one solve with the exact
    Jacobian (_corrector_jacobian); branch_point gives the columns of the
    last march.  Raises ContinuationError on divergence, a non-finite or
    singular Jacobian, a stalled line search, an exhausted iteration
    budget, or a converged point with negative density.
    ReproductionError, AssemblyError and EvolutionError from the first
    evaluation pass through; a line-search trial that raises
    AssemblyError or EvolutionError counts as a failed trial.
    """
    model, mesh, grid = lin.model, lin.mesh, lin.grid
    nx = mesh.nx
    B = np.array(B_guess, dtype=float)
    n_cur = float(n)

    def evaluate(Bv: np.ndarray, nv: float) -> tuple[np.ndarray, EvolutionOperator]:
        ev = march(model, mesh, grid, Bv)
        # an overflow shows as a non-finite residual, which is caught below
        with np.errstate(over="ignore", invalid="ignore"):
            res = np.append(Bv - nv * birth_functional(model, grid, ev.source), plane.value(Bv, nv))
        return res, ev

    res_vec, ev = evaluate(B, n_cur)
    for iters in range(MAX_NEWTON + 1):
        res_norm = float(np.max(np.abs(res_vec)))
        if res_norm <= _scaled_tol(tol, B):
            break
        if iters == MAX_NEWTON:
            raise ContinuationError(f"corrector did not converge within {MAX_NEWTON} iterations")
        if not np.isfinite(res_norm) or float(np.max(np.abs(B))) > 1e8:
            raise ContinuationError("corrector diverged")

        jac = _corrector_jacobian(lin, n_cur, ev, plane)
        try:
            delta = np.linalg.solve(jac, -res_vec)
        except np.linalg.LinAlgError as exc:
            raise ContinuationError("singular corrector Jacobian") from exc

        for scale in (1.0, 0.5, 0.25, 0.125):
            B_try = B + scale * delta[:nx]
            n_try = n_cur + scale * delta[nx]
            try:
                res_try, ev_try = evaluate(B_try, n_try)
            except (AssemblyError, EvolutionError):
                continue
            if float(np.max(np.abs(res_try))) < res_norm or float(np.max(np.abs(res_try))) <= _scaled_tol(tol, B_try):
                B, n_cur, res_vec, ev = B_try, n_try, res_try, ev_try
                break
        else:
            raise ContinuationError(f"corrector stalled at residual {res_norm:.3e}")
    point = branch_point(lin, n_cur, ev)
    if point.min_u < -TOL_POSITIVITY:
        raise ContinuationError(f"corrected point has negative density (min {point.min_u:.3e})")
    point.newton_iters = iters
    return point


def _corrector_jacobian(lin: LinearizedOperators, n: float, ev: EvolutionOperator, plane: Plane) -> np.ndarray:
    """Exact Jacobian of (G, plane) in (B, n), ev being the march of B.

    The march solves (I + da A(u_k, a_{k+1})) u_{k+1} = u_k; its tangent
    dU_0 = I, dU_{k+1} = S_k^{-1} (dU_k - da J_k dU_k) runs on the march's
    factored steps S_k, J_k from slice_derivative (no G term if beta = 0;
    then on a diagonal evolution only the diagonal of dU_k is marched).
    Where ev has divisors, S_k^{-1} divides by row k + 1 of them.  B block
    I - n dl, dl = sum_k w_k cb (b + b' u)(u_k) dU_k; n column -l(u).  A
    non-finite entry raises ContinuationError.
    """
    model, mesh, grid, u = lin.model, lin.mesh, lin.grid, ev.source
    alpha, beta = slice_derivative(model, mesh, grid.ages[1:], u[:-1], u[1:])
    keep, shift = 1.0 - grid.da * alpha, grid.da * beta if np.any(beta) else None
    b_slope = evaluate_on(model.b, u.shape, u=u) + u * evaluate_on(diff(model.b, "u"), u.shape, u=u)
    weight = model.cb * grid.weights[:, None] * b_slope
    diagonal = ev.divisors is not None and shift is None
    rows = np.s_[:] if diagonal else np.s_[:, None]
    du, dl = (np.ones(mesh.nx), weight[0].copy()) if diagonal else (np.eye(mesh.nx), np.diag(weight[0]))
    # an overflow in the tangent march shows as a non-finite entry
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(grid.na):
            rhs = keep[k][rows] * du
            if shift is not None:
                rhs -= shift[k][:, None] * gradient_of_slice(du, mesh.dx)
            du = ev.steps[k].solve(rhs) if ev.divisors is None else rhs / ev.divisors[k + 1][rows]
            dl += weight[k + 1][rows] * du
        top = np.column_stack([np.eye(mesh.nx) - n * (np.diag(dl) if diagonal else dl), -birth_functional(model, grid, u)])
    jac = np.vstack([top, np.append(plane.normal_B, plane.normal_n)])
    if not np.all(np.isfinite(jac)):
        raise ContinuationError("non-finite corrector Jacobian")
    return jac


def branch_point(lin: LinearizedOperators, n: float, ev: EvolutionOperator) -> BranchPoint:
    """Every column trace writes for the point at n whose field ev is built on.

    B is row 0 of ev.source.  The corrector passes the march of B; verify
    passes the freeze of a stored profile, which gives the same bits.
    A trivial B gives the trivial point, with the zero field.  u is the
    march of B, so Q_u B = l(u), and where B > 0 r(Q_u) lies in the
    Collatz-Wielandt bracket [min l/B, max l/B]; r_Qu is its upper end,
    the end power iteration returns.  Only a B with an entry <= 0 takes
    the dense radius of assemble_Q.
    """
    model, mesh, grid, u = lin.model, lin.mesh, lin.grid, ev.source
    if is_trivial(u[0]):
        zero = np.zeros((grid.na + 1, mesh.nx))
        return BranchPoint(
            n=n, u=zero, B=zero[0], eps=0.0, r_Qu=lin.r0, identity_residual=abs(n * lin.r0 - 1.0),
            residual_direct=0.0, reform_residual=0.0, min_u=0.0, trivial=True,
        )
    B, l = u[0], birth_functional(model, grid, u)
    r = float(np.max(l / B)) if np.all(B > 0) else spectral_radius(assemble_Q(model, ev))[0]
    # u is the march of B, so the birth defect is the whole residual
    defect = B - n * l
    return BranchPoint(
        n=n,
        u=u,
        B=B,
        eps=grid.norm(u),
        r_Qu=r,
        identity_residual=abs(n * r - 1.0),
        residual_direct=float(np.max(np.abs(defect))) / max(float(np.max(np.abs(B))), 1e-300),
        reform_residual=grid.norm(solve_linear(lin, defect)),
        min_u=float(np.min(u)),
    )


def first_step(lin: LinearizedOperators, eps0: float, *, tol: float = 1e-9) -> BranchPoint:
    """Leave the trivial solution along the Perron direction.

    The predictor is the birth vector eps0 times the Perron vector of
    Q0; the corrector frees n and pins the component of B along that
    direction, which is the local expansion's parameterization.  eps0
    must be positive.
    """
    if not eps0 > 0:
        raise ContinuationError(f"eps0 must be positive, got {eps0!r}")
    B0 = eps0 * lin.perron0
    plane = Plane(
        normal_B=lin.perron0 / float(np.linalg.norm(lin.perron0)),
        normal_n=0.0,
        anchor_B=B0,
        anchor_n=1.0,
    )
    point = correct(lin, 1.0, B0, plane, tol=tol)
    if point.trivial:
        raise ContinuationError("first step collapsed to the trivial solution; reduce eps0")
    return point


def check_trace_flags(eps0: float, step: float, max_points: int, n_cap: float, norm_cap: float, tol: float) -> None:
    """Raise ContinuationError for a flag trace_branch refuses, before any work."""
    for name, value in (("eps0", eps0), ("step", step), ("tol", tol)):
        if not (np.isfinite(value) and value > 0):
            raise ContinuationError(f"{name} must be positive and finite, got {value!r}")
    if max_points < 1:
        raise ContinuationError(f"max_points must be at least 1, got {max_points!r}")
    if np.isnan(n_cap) or np.isnan(norm_cap):
        raise ContinuationError("n_cap and norm_cap must not be NaN")


def trace_branch(
    lin: LinearizedOperators,
    *,
    eps0: float = 1e-2,
    step: float = 0.05,
    max_points: int = 20,
    n_cap: float = 4.0,
    norm_cap: float = 2.0,
    tol: float = 1e-9,
) -> Branch:
    """Trace the branch from (1, 0) until a cap or max_points nontrivial points.

    Secant predictor and plane corrector; the step is halved on a
    corrector failure (two consecutive failures at the minimal step
    abort) and grown gently after easy corrections.  A corrector collapse
    onto the trivial solution away from n = 1 terminates the trace: the
    branch ran into another characteristic value.  An infinite cap turns
    that cap off.
    """
    check_trace_flags(eps0, step, max_points, n_cap, norm_cap, tol)
    branch = Branch()
    # the trivial point at n = 1, where lin's normalized Q0 puts the bifurcation
    branch.points.append(branch_point(lin, 1.0, lin.ev0))
    p1 = first_step(lin, eps0, tol=tol)
    _require_invariants(p1)
    branch.points.append(p1)

    step_cur = float(step)
    step_min = step / 256.0
    fails_at_min = 0
    branch.terminated = "max_points reached"
    while len(branch.nontrivial()) < max_points:
        prev, last = branch.points[-2:]
        if last.n > n_cap:
            branch.terminated = f"n cap {n_cap} exceeded"
            break
        if last.eps > norm_cap:
            branch.terminated = f"amplitude cap {norm_cap} exceeded"
            break
        tangent = np.append(last.B - prev.B, last.n - prev.n)
        tangent /= float(np.linalg.norm(tangent))
        pred_B = last.B + step_cur * tangent[:-1]
        pred_n = last.n + step_cur * float(tangent[-1])
        plane = Plane(tangent[:-1], float(tangent[-1]), pred_B, pred_n)
        try:
            point = correct(lin, pred_n, pred_B, plane, tol=tol)
            if not point.trivial:
                _require_invariants(point)
        except (ContinuationError, AssemblyError, EvolutionError) as exc:
            branch.rejected.append((step_cur, type(exc).__name__, str(exc)))
            if step_cur <= step_min:
                fails_at_min += 1
                if fails_at_min >= 2:
                    raise ContinuationError(
                        "two consecutive corrector failures at the minimal step"
                    ) from None
            step_cur = max(step_cur / 2.0, step_min)
            continue
        if point.trivial:
            branch.terminated = (
                f"collapsed to the trivial solution near n = {last.n:.6g} "
                "(another characteristic value)"
            )
            break
        branch.points.append(point)
        fails_at_min = 0
        if point.newton_iters <= 3:
            step_cur = min(step_cur * 1.4, step * 8.0)
    return branch


def _require_invariants(point: BranchPoint) -> None:
    if point.identity_residual > TOL_IDENTITY:
        raise ContinuationError(
            f"branch identity violated: |n r(Q_u) - 1| = {point.identity_residual:.3e}"
        )


def branch_stats(branch: Branch) -> BranchStats:
    """Extremes of n and r(Q_u) over the nontrivial points.

    Along the branch n * r(Q_u) = 1, so sigma_s * N_i and sigma_i * N_s
    both equal one on the visited set.
    """
    pts = branch.nontrivial()
    if not pts:
        raise ContinuationError("branch has no nontrivial points")
    ns = np.array([p.n for p in pts])
    rs = np.array([p.r_Qu for p in pts])
    return BranchStats(
        sigma_i=float(ns.min()),
        sigma_s=float(ns.max()),
        N_i=float(rs.min()),
        N_s=float(rs.max()),
        max_identity_residual=float(max(p.identity_residual for p in pts)),
    )
