"""Age stepping: the discrete evolution family Pi(a, 0) and its Duhamel sum.

One implicit Euler step from age a_k to a_{k+1} solves

    (I + da * A_h(u_k, a_{k+1})) v_{k+1} = v_k

with the density slice frozen at age a_k (a lagged linearization of the
quasilinear coefficients).  Implicit stepping keeps positivity without a
step-size restriction: each factor is an M-matrix, so each inverse maps
the nonnegative orthant into itself exactly.

Because step k reads only the slice at a_k, the self-consistent field of
a birth vector B, the field that its own evolution propagates B into, is
a causal recursion: u_0 = B, u_{k+1} = (I + da * A_h(u_k, a_{k+1}))^{-1} u_k.
march(model, mesh, grid, B) runs it in one forward pass for one birth
vector (nx,); freeze(model, mesh, grid, u) takes one given field
(na+1, nx), which is not marched.  On a pure-decay model both keep only
divisors, with no step assembled or factored; on any other both are
build_evolution.  A pure-decay march divides u_k age by age, but where
neither h nor mu reads the density, its divisors do not depend on B: it
evaluates them for all ages at once, as freeze does, and divides B
through them in one vector pass.  The linear evolution Pi_0 is the build
on the zero field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .discretize import SpatialMesh, assemble, gradient_of_slice
from .expr import evaluate, variables
from .model import ModelSpec
from .tridiag import FactoredTridiag, SingularTridiagError, factor_tridiag, positive_finite


class EvolutionError(ValueError):
    pass


@dataclass(frozen=True)
class AgeGrid:
    """Uniform age grid 0 = a_0 < ... < a_na = a_max."""

    na: int
    a_max: float

    def __post_init__(self):
        if self.na < 2:
            raise EvolutionError("na must be at least 2")
        if not self.a_max > 0:
            raise EvolutionError("a_max must be positive")

    @cached_property
    def da(self) -> float:
        return self.a_max / self.na

    @cached_property
    def ages(self) -> np.ndarray:
        return np.linspace(0.0, self.a_max, self.na + 1)

    @cached_property
    def weights(self) -> np.ndarray:
        """Trapezoid quadrature weights over age."""
        w = np.full(self.na + 1, self.da)
        w[0] = 0.5 * self.da
        w[-1] = 0.5 * self.da
        return w

    def norm(self, u: np.ndarray) -> float:
        """L1 in age of the spatial max of a field u, (na+1, nx); the branch amplitude."""
        return float(self.weights @ np.max(np.abs(u), axis=1))


@dataclass
class EvolutionOperator:
    """Factored one-step solves for k = 0..na-1, frozen at one density field.

    A field is one array (na+1, nx) whose row k is the slice at age a_k.
    source is the field the quasilinear coefficients were evaluated on:
    zero for the linear evolution Pi_0, or march's field.  On a pure-decay
    model every step is diagonal: divisors holds them all as one read-only
    array (na+1, nx), row k + 1 the diagonal of step k and row 0 ones, so
    np.divide.accumulate(divisors, axis=0) is the diagonal of every
    Pi(a_k, 0), and steps is empty.  On any other model divisors is None
    and steps holds every step's factors, a step with no coupling too.

    Dividing by divisors has the bits of the Thomas loop on the same
    steps, except that a quotient that overflows stays in its own row,
    where the loop spreads it as NaN (0 * inf) to the rows above.
    """

    steps: list[FactoredTridiag]
    grid: AgeGrid
    mesh: SpatialMesh
    source: np.ndarray = field(repr=False)
    divisors: np.ndarray | None = field(repr=False)


def build_evolution(
    model: ModelSpec,
    mesh: SpatialMesh,
    grid: AgeGrid,
    u: np.ndarray | None = None,
    *,
    birth: np.ndarray | None = None,
) -> EvolutionOperator:
    """Assemble and factor the implicit Euler steps for one field (na+1, nx).

    With neither u nor birth the field is zero, which gives the linear
    evolution.  With a birth vector (nx,) in place of u, the field is
    marched: step k is assembled on row k and solves row k+1, so the
    source is the self-consistent field of that birth vector, and
    propagating the birth vector through its own evolution returns it bit
    for bit, but for the sign of a zero where B holds a -0.0 on a
    pure-decay model.  Every step is factored by the Thomas loop; on a
    pure-decay model the pivots of all ages are stacked once into the
    evolution's divisors, and no factors are kept.
    """
    if u is not None and birth is not None:
        raise EvolutionError("give a frozen field or a birth vector to march, not both")
    if birth is not None:
        u = _birth_field(birth, grid, mesh.nx)
    else:
        u = np.zeros((grid.na + 1, mesh.nx)) if u is None else _frozen_field(u, grid, mesh.nx)
    da = grid.da
    steps: list[FactoredTridiag] = []
    for k, a in enumerate(grid.ages[1:].tolist()):
        bands = assemble(model, mesh, a, u[k])
        bands *= da
        bands[1] += 1.0  # the bits of 1.0 + da * diag
        steps.append(step := _factor(k, bands))
        if birth is not None:
            u[k + 1] = step.solve(u[k])
    if not model.pure_decay:
        return EvolutionOperator(steps, grid, mesh, u, None)
    # the loop's pivots on bands with no coupling are the diagonal to the
    # bit; [:nx] drops the rows that pad a system below MIN_ROWS
    divisors = np.stack([np.ones(mesh.nx), *(step.piv[:mesh.nx] for step in steps)])
    divisors.flags.writeable = False
    return EvolutionOperator([], grid, mesh, u, divisors)


def _factor(k: int, bands) -> FactoredTridiag:
    try:
        return factor_tridiag(bands[0], bands[1], bands[2])  # indexing costs less than *bands
    except SingularTridiagError as exc:
        raise EvolutionError(f"singular one-step matrix at age index {k + 1}: {exc}") from exc


def _checked(divisors: np.ndarray) -> np.ndarray:
    """divisors, read-only, once tridiag's rule passes them on all ages;
    where it fails, the first bad age's factor raises the build's error."""
    if not positive_finite(divisors):
        for k, row in enumerate(divisors[1:]):
            zero = np.zeros_like(row)
            _factor(k, (zero, row, zero))
    divisors.flags.writeable = False
    return divisors


def march(model: ModelSpec, mesh: SpatialMesh, grid: AgeGrid, B: np.ndarray) -> EvolutionOperator:
    """The evolution of the self-consistent field of a birth vector B (nx,):
    build_evolution(..., birth=B), but on a pure-decay model no step is
    assembled or factored, and the divisors (h + mu)(u_k, a_{k+1}) * da
    + 1.0 become the evolution's divisors as they are, the build's
    diagonal to the bit (0.0 + x only changes the sign of a zero, and
    + 1.0 removes it).  Where neither h nor mu reads u or p, the divisors
    do not depend on B: they are evaluated for all ages at once, as
    freeze's are, and B is divided through them by one
    np.divide.accumulate, as in propagate, which has the bits of one
    division per age.  Otherwise u_k is divided age by age.  B is checked
    before any divisor is evaluated, and the divisors once: the first bad
    age raises the build's error, also where a later age raised first,
    wherever the divisors are evaluated age by age (see _divisors)."""
    if not model.pure_decay:
        return build_evolution(model, mesh, grid, birth=B)
    u = _birth_field(B, grid, mesh.nx)
    if not (variables(model.h) | variables(model.mu)) & {"u", "p"}:
        divisors = _divisors(model, mesh, grid, u)  # h and mu read no row of the unwritten u
        return EvolutionOperator([], grid, mesh, _divided(u, divisors), divisors)
    divisors = np.ones(u.shape)  # row 0, and ages an exception leaves unmarched, pass the check
    reads_p, da = "p" in variables(model.h), grid.da
    try:
        for k, a in enumerate(grid.ages[1:].tolist()):
            env = {"u": u[k], "p": gradient_of_slice(u[k], mesh.dx)} if reads_p else {"u": u[k]}
            divisors[k + 1] = (evaluate(model.h, env) + evaluate(model.mu, {"u": u[k], "a": a})) * da + 1.0
            np.divide(u[k], divisors[k + 1], out=u[k + 1])
    finally:
        _checked(divisors)
    return EvolutionOperator([], grid, mesh, u, divisors)


def freeze(model: ModelSpec, mesh: SpatialMesh, grid: AgeGrid, u: np.ndarray) -> EvolutionOperator:
    """The evolution frozen at one field u, (na+1, nx):
    build_evolution(model, mesh, grid, u), but on a pure-decay model the
    divisors (h + mu)(u_k, a_{k+1}) * da + 1.0 of all ages from one
    evaluation on rows 0..na-1 at once, since a frozen field is not
    marched.  They are the build's divisors to the bit, checked once as
    march's are, and no step is assembled or factored."""
    if not model.pure_decay:
        return build_evolution(model, mesh, grid, u)
    u = _frozen_field(u, grid, mesh.nx)
    return EvolutionOperator([], grid, mesh, u, _divisors(model, mesh, grid, u))


def _divisors(model: ModelSpec, mesh: SpatialMesh, grid: AgeGrid, u: np.ndarray) -> np.ndarray:
    """The read-only divisors (na+1, nx) of a pure-decay model frozen at a
    field u: row 0 ones and row k + 1 (h + mu)(u_k, a_{k+1}) * da + 1.0,
    evaluated on rows 0..na-1 at once.  A mu that reads a is evaluated age
    by age on Python floats, as in the build: a power of an array of ages
    may round otherwise than the same power of a float.  The rows filled
    are checked also where an evaluation raises, so on that age-by-age
    branch, which fills each age's row in full before it evaluates the
    next, the first bad age raises the build's error.  h, and a mu that
    does not read a, are evaluated on all rows at once: where that
    evaluation raises, no row is filled, and its error is raised, not the
    build's."""
    rows, divisors = u[:-1], np.ones(u.shape)  # row 0, and ages an exception leaves unfilled, pass the check
    env = {"u": rows}
    if "p" in variables(model.h):
        env["p"] = gradient_of_slice(rows.T, mesh.dx).T  # along x
    try:
        h = evaluate(model.h, env)
        if "a" in variables(model.mu):
            h = np.broadcast_to(h, rows.shape)
            for k, (u_k, a) in enumerate(zip(rows, grid.ages[1:].tolist())):
                divisors[k + 1] = (h[k] + evaluate(model.mu, {"u": u_k, "a": a})) * grid.da + 1.0
        else:
            divisors[1:] = (h + evaluate(model.mu, {"u": rows})) * grid.da + 1.0
    finally:
        _checked(divisors)
    return divisors


def is_trivial(B: np.ndarray) -> bool:
    """Whether a birth vector is the trivial equilibrium's: max |B| below 1e-12."""
    return float(np.max(np.abs(B))) < 1e-12


def _birth_field(B: np.ndarray, grid: AgeGrid, nx: int) -> np.ndarray:
    """An unwritten field (na+1, nx) with row 0 the checked birth vector B."""
    B = np.asarray(B, dtype=float)
    if B.shape != (nx,):
        raise EvolutionError(f"birth vector has shape {B.shape}, expected ({nx},)")
    if not np.all(np.isfinite(B)):
        raise EvolutionError("birth vector has non-finite entries")
    u = np.empty((grid.na + 1, nx))
    u[0] = B
    return u


def _frozen_field(u: np.ndarray, grid: AgeGrid, nx: int) -> np.ndarray:
    """u as a float array, checked to be a field (na+1, nx)."""
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.na + 1, nx):
        raise EvolutionError(f"frozen field of shape {u.shape} does not match the grids")
    return u


def propagate(ev: EvolutionOperator, B: np.ndarray) -> np.ndarray:
    """Field with rows Pi(a_k, 0) B, B (nx,); exactly nonnegative when B is."""
    values = _birth_field(B, ev.grid, ev.mesh.nx)
    if ev.divisors is not None:
        return _divided(values, ev.divisors)
    for k, step in enumerate(ev.steps):
        values[k + 1] = step.solve(values[k])
    return values


def _divided(values: np.ndarray, divisors: np.ndarray) -> np.ndarray:
    """values, a field whose row 0 is B, overwritten with B / d_1 / d_2 /
    ... by the rows of divisors: the bits of one solve per step."""
    values[1:] = divisors[1:]
    return np.divide.accumulate(values, axis=0, out=values)


def apply_K0(ev: EvolutionOperator, f: np.ndarray) -> np.ndarray:
    """Discrete Duhamel sum K0 f for the linear evolution.

    Left-endpoint source composed with the implicit step:
    w_0 = 0,  w_{k+1} = step_k(w_k + da * f_k).  Each step uses row k of
    f, matching the stepping convention of propagate, so a solution of
    the stepped equations is reproduced without quadrature drift.
    """
    if np.any(ev.source):
        raise EvolutionError("apply_K0 requires the linear evolution (zero frozen field)")
    f = np.asarray(f, dtype=float)
    if f.shape != (ev.grid.na + 1, ev.mesh.nx):
        raise EvolutionError(f"source field of shape {f.shape} does not match the grids")
    values = np.zeros((ev.grid.na + 1, ev.mesh.nx))
    for k in range(ev.grid.na):
        rhs = values[k] + ev.grid.da * f[k]
        values[k + 1] = ev.steps[k].solve(rhs) if ev.divisors is None else rhs / ev.divisors[k + 1]
    return values
