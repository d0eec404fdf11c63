"""Scalar oracles for the spatially uniform models, and test-only solvers.

When the derivative terms are dropped, every x node evolves by the same
one-dimensional recursion, so birth functionals, reproduction radii and
whole branch points have closed scalar counterparts.  The recursions
below mirror the solver's stepping (implicit decay, coefficients frozen
at the previous age slice, trapezoid quadrature) but share none of its
code, which makes tight agreement tolerances meaningful.  Continuum
constants are kept separately for convergence-rate checks.

thomas_factor and thomas_solve are the Thomas recurrence as plain
Python loops, the reference that the package's factor and solve
must match bit for bit.  assemble_general assembles every coefficient
on every call, with no plan, the reference that assemble must match bit
for bit; like assemble it returns bands (3, nx), rows lower, diag and
upper.  march_by_division divides by 1 + da times its diagonal, age by
age, the reference for a pure-decay march.  perturbation_source_per_age
forms the perturbation source one age at a time on those bands, the
reference for the product over all ages.  The solvers from operator_matvec on
serve only the tests and, unlike the recursions, reuse the package's
building blocks: the Thomas solve, power iteration, the linear birth
functional and solve, the evolution build and propagation, the shell
probes' sampled fields, and the corrector and branch tracer
(solve_at_norm, which pins a branch point's amplitude).
corrector_jacobian_cd differences the corrector's residual through
whole marches, the reference for its exact Jacobian.

assemble_Q_columns, corrector_jacobian_columns, propagate_by_steps and
apply_K0_by_steps push a dense basis or one vector through every step's
solve, one age at a time, whether or not the steps are diagonal: the
references that the diagonal paths of assemble_Q, _corrector_jacobian,
propagate and apply_K0 must match bit for bit.  On an evolution that
keeps only its divisors, a pure-decay model's, factored_steps factors
each age's row by the Thomas loop as a matrix with zero couplings, so
these still solve one step at a time and never divide all ages at once.
power_iteration_loop is power iteration from the all-ones vector with
its dense fallback on any matrix, the reference that the closed form of
_power_iteration on a nonnegative diagonal matrix must match bit for
bit.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.optimize import brentq

from agequil.continuation import BranchPoint, ContinuationError, Plane, correct, trace_branch
from agequil.discretize import AssemblyError, gradient_of_slice, slice_derivative
from agequil.evolution import build_evolution, propagate
from agequil.expr import diff, evaluate, evaluate_on
from agequil.fixedpoint import _sample_fields
from agequil.linearized import LinearizedOperators, solve_linear
from agequil.reproduction import (
    ReproductionError,
    _power_iteration,
    assemble_Q,
    birth_density,
    birth_functional,
    birth_linear,
    spectral_radius,
)
from agequil.tridiag import factor_tridiag, tridiag_matvec

# continuum values for the unit-mortality model on a_max = 1
CONTINUUM_R0 = 1.0 - np.exp(-1.0)
CONTINUUM_CB = 1.0 / (1.0 - np.exp(-1.0))
SHELL_CB = 2.0 / (1.0 - np.exp(-1.0))


def trapezoid_weights(na: int, a_max: float) -> np.ndarray:
    da = a_max / na
    w = np.full(na + 1, da)
    w[0] = w[-1] = da / 2.0
    return w


def decay_rows(na: int, a_max: float, rate: float = 1.0) -> np.ndarray:
    """Implicit steps of u' = -rate * u from 1: rows (1 + da rate)^-k."""
    da = a_max / na
    return (1.0 + da * rate) ** (-np.arange(na + 1, dtype=float))


def logistic_rows(B: float, na: int, a_max: float) -> np.ndarray:
    """Stepped u' = -(1 + u) u with the step's u frozen at the previous age."""
    da = a_max / na
    rows = np.empty(na + 1)
    rows[0] = B
    for k in range(na):
        rows[k + 1] = rows[k] / (1.0 + da * (1.0 + rows[k]))
    return rows


def logistic_birth(B: float, na: int, a_max: float, cb: float = 1.0) -> float:
    w = trapezoid_weights(na, a_max)
    return cb * float(w @ logistic_rows(B, na, a_max))


def logistic_n_of_B(B: float, na: int, a_max: float, cb: float = 1.0) -> float:
    return B / logistic_birth(B, na, a_max, cb)


def logistic_B_of_amplitude(target: float, na: int, a_max: float) -> float:
    """Birth level whose field has the given age-integrated amplitude."""
    w = trapezoid_weights(na, a_max)
    return brentq(
        lambda B: float(w @ logistic_rows(B, na, a_max)) - target,
        1e-12, 1e3, xtol=1e-14, rtol=8.9e-16,
    )


def shell_birth(B: float, na: int, a_max: float, cb: float) -> float:
    rows = B * decay_rows(na, a_max)
    w = trapezoid_weights(na, a_max)
    return cb * float(w @ (np.exp(-rows) * rows))


def shell_root(na: int, a_max: float, cb: float) -> float:
    return brentq(
        lambda B: B - shell_birth(B, na, a_max, cb),
        1e-8, 50.0, xtol=1e-14, rtol=8.9e-16,
    )


def discrete_r0(na: int, a_max: float, cb: float = 1.0) -> float:
    """Reproduction radius of the unit-mortality model at zero density."""
    w = trapezoid_weights(na, a_max)
    return cb * float(w @ decay_rows(na, a_max))


def k0_const_rows(na: int, a_max: float) -> np.ndarray:
    """Duhamel sum for unit mortality and source 1: rows 1 - (1 + da)^-k."""
    da = a_max / na
    rows = np.empty(na + 1)
    rows[0] = 0.0
    for k in range(na):
        rows[k + 1] = (rows[k] + da) / (1.0 + da)
    return rows


def dense_radius(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


def dense_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues sorted by descending magnitude."""
    eigs = np.linalg.eigvals(matrix)
    return eigs[np.argsort(-np.abs(eigs))]


def thomas_factor(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Thomas factorization of bands (n,) as a plain Python loop:
    multipliers and pivots."""
    n = diag.shape[0]
    mult = np.zeros(diag.shape)
    piv = np.empty(diag.shape)
    piv[0] = diag[0]
    for i in range(1, n):
        mult[i] = lower[i] / piv[i - 1]
        piv[i] = diag[i] - mult[i] * upper[i - 1]
    return mult, piv


def thomas_solve(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The Thomas recurrence as a plain Python loop: the reference solve.

    Bands are as for thomas_factor; rhs is (n,) or (n, m), as for
    FactoredTridiag.solve.
    """
    n = diag.shape[0]
    mult, piv = thomas_factor(lower, diag, upper)
    out = np.empty_like(rhs)
    out[0] = rhs[0]
    for i in range(1, n):
        out[i] = rhs[i] - mult[i] * out[i - 1]
    out[n - 1] = out[n - 1] / piv[n - 1]
    for i in range(n - 2, -1, -1):
        out[i] = (out[i] - upper[i] * out[i + 1]) / piv[i]
    return out


def _evaluate_on(node, shape: tuple[int, ...], **env) -> np.ndarray:
    out = np.asarray(evaluate(node, env), dtype=float)
    return out if out.shape == shape else np.broadcast_to(out, shape).copy()


def assemble_general(model, mesh, a: float, u_slice: np.ndarray) -> np.ndarray:
    """assemble with every coefficient evaluated and broadcast on each call."""
    nx, dx = mesh.nx, mesh.dx
    u = np.asarray(u_slice, dtype=float)
    p = gradient_of_slice(u, dx)
    shape = u.shape
    lower, diag, upper = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    if not model.pure_decay:
        d_nodes = _evaluate_on(model.D, (nx + 1,), a=float(a), x=mesh.nodes_with_origin)
        d_west = 0.5 * (d_nodes[:-1] + d_nodes[1:])
        d_east = np.empty_like(d_west)
        d_east[:-1] = d_west[1:]
        d_east[-1] = d_nodes[-1]
        inv_dx2 = 1.0 / (dx * dx)
        diag += (d_west + d_east) * inv_dx2
        lower[1:] -= d_west[1:] * inv_dx2
        upper[:-1] -= d_east[:-1] * inv_dx2
        g_vals = _evaluate_on(model.g, shape, u=u, p=p)
        g_pos = np.maximum(g_vals, 0.0)
        g_neg = np.minimum(g_vals, 0.0)
        diag += (g_pos - g_neg) / dx
        lower[1:] -= g_pos[1:] / dx
        upper[:-1] += g_neg[:-1] / dx
        east_end = -d_east[-1] * inv_dx2 + g_neg[-1] / dx
        lower[-1] += east_end
        diag[-1] -= 2.0 * dx * model.nu0 * east_end
        if np.any(lower[1:] > 0) or np.any(upper[:-1] > 0):
            bad = int(np.argmax(np.concatenate([lower, upper])))
            raise AssemblyError(f"M-matrix sign pattern violated near row {bad % nx}")
    h_vals = _evaluate_on(model.h, shape, u=u, p=p)
    mu_vals = _evaluate_on(model.mu, shape, u=u, a=float(a))
    diag += h_vals + mu_vals
    return np.stack([lower, diag, upper])


def march_by_division(model, mesh, grid, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The self-consistent field of B (nx,) on a pure-decay model, one
    division per age by 1.0 + da * diag of assemble_general's bands, and
    the divisors it took, (na+1, nx) with row 0 ones: the reference for
    march on a pure-decay model."""
    u, divisors = np.empty((grid.na + 1, mesh.nx)), np.ones((grid.na + 1, mesh.nx))
    u[0] = B
    for k in range(grid.na):
        divisors[k + 1] = 1.0 + grid.da * assemble_general(model, mesh, grid.ages[k + 1], u[k])[1]
        u[k + 1] = u[k] / divisors[k + 1]
    return u, divisors


def operator_matvec(bands: np.ndarray, v: np.ndarray) -> np.ndarray:
    return tridiag_matvec(*bands, np.asarray(v, dtype=float))


def operator_dense(bands: np.ndarray) -> np.ndarray:
    lower, diag, upper = bands
    return np.diag(diag) + np.diag(lower[1:], k=-1) + np.diag(upper[:-1], k=1)


def perturbation_source_per_age(lin: LinearizedOperators, u: np.ndarray) -> np.ndarray:
    """perturbation_source one age at a time, A(u_k) and A0 from
    assemble_general: the reference for the product over all ages at once."""
    source = np.zeros(u.shape)
    for k in range(lin.grid.na):
        a_next = float(lin.grid.ages[k + 1])
        au = assemble_general(lin.model, lin.mesh, a_next, u[k])
        a0 = assemble_general(lin.model, lin.mesh, a_next, np.zeros(lin.mesh.nx))
        source[k] = -tridiag_matvec(au[0] - a0[0], au[1] - a0[1], au[2] - a0[2], u[k + 1])
    return source


def smallest_eigenvalue(bands: np.ndarray, tol: float = 1e-12, max_iter: int = 50000) -> float:
    """Smallest real eigenvalue by inverse power iteration with shift 0.

    Convergence checks of the spatial operator compare it with
    closed-form eigenvalues.  Unlike the recursions above it reuses the
    package's Thomas factorization; the closed forms stay independent.
    """
    fac = factor_tridiag(*bands)
    v = np.ones(bands.shape[1])
    v /= np.linalg.norm(v)
    lam = float("nan")
    for _ in range(max_iter):
        w = fac.solve(v)
        w /= np.linalg.norm(w)
        aw = operator_matvec(bands, w)
        lam = float(w @ aw)
        if np.linalg.norm(aw - lam * w) <= tol * max(abs(lam), 1e-30):
            return lam
        v = w
    raise RuntimeError(f"inverse power iteration did not converge within {max_iter} iterations")


def picard_field(model, mesh, grid, B: np.ndarray, u_start, tol: float, max_sweeps: int = 200):
    """Self-consistent field for one birth vector by 1-D frozen-coefficient
    Picard sweeps from u_start: an iterative reference for the march.

    Each sweep builds the evolution of the current field and propagates B
    through it, until the field changes by at most tol in max norm.
    """
    u = u_start
    for _ in range(max_sweeps):
        u_new = propagate(build_evolution(model, mesh, grid, u), B)
        diff = float(np.max(np.abs(u_new - u)))
        u = u_new
        if diff <= tol:
            return u
    raise RuntimeError(f"Picard sweeps did not converge within {max_sweeps} sweeps")


def shell_probes_one_by_one(model, mesh, grid, tau0: float, tau1: float, seed: int) -> tuple[float, float]:
    """(min_small_excess, max_large_radius) of check_shell_conditions, one
    build_evolution and one Q per probe field, by the build rather than by
    freeze: the reference for the shell probes."""
    fields = _sample_fields(mesh, grid, np.random.default_rng(seed))

    def probe(i: int, amplitude: float) -> np.ndarray:
        u = fields[i] * (amplitude / grid.norm(fields[i]))
        return assemble_Q(model, build_evolution(model, mesh, grid, u))

    small = [probe(i, tau0 / (1.0, 2.0, 10.0)[i % 3]) for i in range(len(fields))]
    large = [probe(i, tau1 * (1.0, 2.0, 4.0)[i % 3]) for i in range(len(fields))]
    min_excess = min(float(np.min(q - np.eye(mesh.nx))) for q in small)
    return min_excess, max(spectral_radius(q)[0] for q in large)


def characteristic_values(matrix: np.ndarray, k: int, tol: float = 1e-11, max_iter: int = 50000) -> list[float]:
    """Reciprocals of the k leading real eigenvalues, deflating one by one.

    Hotelling deflation with left/right dominant pairs from the package's
    power iteration.  A dominant complex pair shows up as non-convergence;
    the sweep stops there with a warning and returns the values found.
    """
    if not 1 <= k <= matrix.shape[0]:
        raise ReproductionError(f"k = {k} outside 1..{matrix.shape[0]}")
    work = matrix.copy()
    out: list[float] = []
    for _ in range(k):
        ok_r, lam, v = _power_iteration(work, tol, max_iter)
        ok_l, lam_l, w = _power_iteration(work.T, tol, max_iter)
        if not (ok_r and ok_l) or abs(lam) < 1e-14:
            warnings.warn(
                "deflation stopped early: dominant pair did not converge "
                "(likely a complex pair or a zero block)",
                RuntimeWarning,
                stacklevel=2,
            )
            break
        denom = float(w @ v)
        if abs(denom) < 1e-12 * np.linalg.norm(v) * np.linalg.norm(w):
            warnings.warn("deflation breakdown: left/right vectors nearly orthogonal", RuntimeWarning, stacklevel=2)
            break
        # two-sided Rayleigh quotient sharpens the power-iteration estimate
        lam_acc = float(w @ (work @ v)) / denom
        if abs(lam_acc) < 1e-14:
            break
        out.append(1.0 / lam_acc)
        work = work - lam_acc * np.outer(v, w) / denom
    if not out:
        raise ReproductionError("no real leading eigenvalue could be extracted")
    return out


def linear_residuals(
    lin: LinearizedOperators,
    sol: np.ndarray,
    birth_data: np.ndarray,
    source: np.ndarray | None = None,
) -> tuple[float, float]:
    """Max-norm residuals of the two stepped equations for a solve output."""
    da = lin.grid.da
    res_step = 0.0
    for k in range(lin.grid.na):
        a0 = lin.a0_parts[k]
        lhs = (sol[k + 1] - sol[k]) / da + operator_matvec(a0, sol[k + 1])
        f_k = source[k] if source is not None else 0.0
        res_step = max(res_step, float(np.max(np.abs(lhs - f_k))))
    ell0 = birth_linear(lin.model, lin.grid, sol)
    res_birth = float(np.max(np.abs(sol[0] - 0.5 * ell0 - np.asarray(birth_data, dtype=float))))
    return res_step, res_birth


def birth_feedback_eigenvalue(
    lin: LinearizedOperators, tol: float = 1e-10, max_iter: int = 5000
) -> float:
    """Dominant eigenvalue of L, the linear solve fed by l0(v), by power
    iteration on fields.

    For a normalized model this equals 2: mu is a characteristic value of
    L exactly when mu + 1/2 is one of Q0, and the leading characteristic
    value of Q0 is 1.
    """
    start = np.ones((lin.grid.na + 1, lin.mesh.nx))
    v = start / np.linalg.norm(start)
    lam = 0.0
    for _ in range(max_iter):
        w = solve_linear(lin, birth_linear(lin.model, lin.grid, v))
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return 0.0
        lam = float(np.sum(w * v))
        if float(np.linalg.norm(w - lam * v)) <= tol * abs(lam):
            return lam
        v = w / norm_w
    raise RuntimeError(f"power iteration on L did not converge within {max_iter} iterations")


def corrector_jacobian_cd(lin: LinearizedOperators, B: np.ndarray, n: float, rel_step: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian of G(B, n) = B - n l(u(B)) in (B, n),
    (nx, nx + 1), with two single marches per B column.

    The step is rel_step times max |B| in B and rel_step times max(1, |n|)
    in n.  A step relative to B keeps a small birth vector from pushing
    the drift g through zero at a node where it is nearly zero, such as
    the Neumann end of logistic_diffusion, where the upwind kink would
    spoil the difference.
    """
    model, mesh, grid = lin.model, lin.mesh, lin.grid

    def G(Bv: np.ndarray, nv: float) -> np.ndarray:
        u = build_evolution(model, mesh, grid, birth=Bv).source
        return Bv - nv * birth_functional(model, grid, u)

    nx = mesh.nx
    hb = rel_step * float(np.max(np.abs(B)))
    hn = rel_step * max(1.0, abs(n))
    jac = np.empty((nx, nx + 1))
    for j in range(nx):
        step = np.zeros(nx)
        step[j] = hb
        jac[:, j] = (G(B + step, n) - G(B - step, n)) / (2.0 * hb)
    jac[:, nx] = (G(B, n + hn) - G(B, n - hn)) / (2.0 * hn)
    return jac


def solve_at_norm(lin: LinearizedOperators, target: float) -> BranchPoint:
    """Branch point whose field amplitude equals target, with n free.

    Traces the branch until the amplitude brackets the target, then
    solves the scalar equation amplitude(n) = target with a safeguarded
    secant over corrections at fixed n (the plane n = const).  The scalar
    outer loop only compares realized amplitudes, so it is insensitive to
    the nonsmoothness that breaks per-column differencing of the
    max-based norm.
    """
    if target <= 0:
        raise ContinuationError("target amplitude must be positive")
    branch = trace_branch(
        lin, eps0=1e-3, step=0.05, max_points=200, n_cap=np.inf, norm_cap=target, tol=1e-9,
    )
    last = branch.points[-1]
    if last.eps < target:
        raise ContinuationError(
            f"branch terminated ({branch.terminated}) before amplitude {target}"
        )
    prev = branch.points[-2]
    n_lo, e_lo = prev.n, prev.eps
    n_hi, e_hi = last.n, last.eps
    point = last
    # the trace resolves B to 1e-9 * |B|, so the amplitude cannot be pinned
    # more sharply than that.  The corrections run 1e-3 tighter: a warm
    # start already meets the trace's tolerance, and at that tolerance it
    # would take no Newton step and leave the amplitude where it was
    amp_tol = 1e-9 * max(1.0, target)
    for _ in range(60):
        if not point.trivial and abs(point.eps - target) <= amp_tol:
            return point
        if e_hi != e_lo:
            n_try = n_hi + (target - e_hi) * (n_hi - n_lo) / (e_hi - e_lo)
        else:
            n_try = 0.5 * (n_lo + n_hi)
        lo, hi = min(n_lo, n_hi), max(n_lo, n_hi)
        if not (lo < n_try < hi):
            n_try = 0.5 * (lo + hi)
        warm = point.B if not point.trivial else last.B
        fixed_n = Plane(np.zeros(lin.mesh.nx), 1.0, warm, n_try)
        point = correct(lin, n_try, warm, fixed_n, tol=1e-12)
        eps_try = point.eps
        if eps_try < target:
            n_lo, e_lo = n_try, eps_try
        else:
            n_hi, e_hi = n_try, eps_try
    raise ContinuationError(
        f"amplitude solve did not reach target {target} (best {point.eps!r})"
    )


def factored_steps(ev) -> list:
    """ev's steps, or on a diagonal evolution each row of its divisors
    factored as the diagonal of a tridiagonal matrix with zero couplings."""
    if ev.divisors is None:
        return ev.steps
    zero = np.zeros(ev.divisors.shape[1:])
    return [factor_tridiag(zero, row, zero) for row in ev.divisors[1:]]


def assemble_Q_columns(model, ev) -> np.ndarray:
    """assemble_Q by an identity basis pushed through every step's solve."""
    nx = ev.mesh.nx
    w = ev.grid.weights
    bvals = birth_density(model, ev.source)
    basis = np.zeros((nx, nx) + bvals.shape[2:])
    basis[np.arange(nx), np.arange(nx)] = 1.0
    q = w[0] * (bvals[0][:, None] * basis)
    for k, step in enumerate(factored_steps(ev)):
        basis = step.solve(basis)
        q += w[k + 1] * (bvals[k + 1][:, None] * basis)
    return q


def corrector_jacobian_columns(lin: LinearizedOperators, n: float, ev, plane: Plane) -> np.ndarray:
    """The corrector's exact Jacobian by an (nx, nx) tangent march through
    every step's solve; raises ContinuationError as the corrector does."""
    model, mesh, grid, u = lin.model, lin.mesh, lin.grid, ev.source
    alpha, beta = slice_derivative(model, mesh, grid.ages[1:], u[:-1], u[1:])
    keep, shift = 1.0 - grid.da * alpha, grid.da * beta if np.any(beta) else None
    b_slope = evaluate_on(model.b, u.shape, u=u) + u * evaluate_on(diff(model.b, "u"), u.shape, u=u)
    weight = model.cb * grid.weights[:, None] * b_slope
    du, dl = np.eye(mesh.nx), np.diag(weight[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for k, step in enumerate(factored_steps(ev)):
            rhs = keep[k][:, None] * du
            if shift is not None:
                rhs -= shift[k][:, None] * gradient_of_slice(du, mesh.dx)
            du = step.solve(rhs)
            dl += weight[k + 1][:, None] * du
        top = np.column_stack([np.eye(mesh.nx) - n * dl, -birth_functional(model, grid, u)])
    jac = np.vstack([top, np.append(plane.normal_B, plane.normal_n)])
    if not np.all(np.isfinite(jac)):
        raise ContinuationError("non-finite corrector Jacobian")
    return jac


def propagate_by_steps(ev, B: np.ndarray) -> np.ndarray:
    """propagate by one solve per step."""
    values = np.empty((ev.grid.na + 1, ev.mesh.nx))
    values[0] = B
    for k, step in enumerate(factored_steps(ev)):
        values[k + 1] = step.solve(values[k])
    return values


def apply_K0_by_steps(ev, f: np.ndarray) -> np.ndarray:
    """apply_K0 by one solve per step."""
    values = np.zeros((ev.grid.na + 1, ev.mesh.nx))
    for k, step in enumerate(factored_steps(ev)):
        values[k + 1] = step.solve(values[k] + ev.grid.da * f[k])
    return values


def power_iteration_loop(matrix: np.ndarray, tol: float, max_iter: int) -> tuple[bool, float, np.ndarray]:
    """_power_iteration without its closed form for diagonal matrices."""
    nonneg = bool(np.all(matrix >= 0.0))
    v = np.ones(matrix.shape[0])
    lam = 0.0
    width_prev = np.inf
    for it in range(max_iter):
        w = matrix @ v
        lam = float(np.max(np.abs(w)))
        if lam == 0.0:
            return True, 0.0, v
        if nonneg and np.all(v > 0.0):
            ratios = w / v
            lo, hi = float(np.min(ratios)), float(np.max(ratios))
            width = hi - lo
            if width <= tol * hi:
                return True, hi, w / lam
            if it % 50 == 49:
                if width > 0.5 * width_prev:
                    eigs, vecs = np.linalg.eig(matrix)
                    k = int(np.argmax(np.abs(eigs)))
                    r = float(np.abs(eigs[k]))
                    if lo - width <= r <= hi + width:
                        perron = np.abs(vecs[:, k].real)
                        return True, r, perron / np.max(perron)
                width_prev = width
        if float(np.max(np.abs(w - lam * v))) <= tol * lam:
            return True, lam, w / lam
        v = w / lam
    return False, lam, v
