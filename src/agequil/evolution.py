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
build_evolution(..., birth=B) marches it in one forward pass for one
birth vector (nx,), factoring each step as it goes.  The linear
evolution Pi_0 is the build on the zero field, by the same code as any
other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .discretize import SpatialMesh, assemble
from .model import ModelSpec
from .tridiag import FactoredTridiag, SingularTridiagError, factor_tridiag


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

    A field is an array whose row k is the slice at age a_k: (na+1, nx),
    or (na+1, nx, k) for k fields side by side along a trailing batch
    axis.  source is the field the quasilinear coefficients were evaluated
    on; the zero field gives the linear evolution Pi_0.  diagonal says
    that every step is diagonal (mult is None), and so every Pi(a_k, 0).
    """

    steps: list[FactoredTridiag]
    grid: AgeGrid
    mesh: SpatialMesh
    source: np.ndarray = field(repr=False)
    diagonal: bool


def build_evolution(
    model: ModelSpec,
    mesh: SpatialMesh,
    grid: AgeGrid,
    u: np.ndarray | None = None,
    *,
    birth: np.ndarray | None = None,
) -> EvolutionOperator:
    """Assemble and factor the implicit Euler steps for one frozen field.

    With neither u nor birth the field is zero, which gives the linear
    evolution.  A batched field, (na+1, nx, k), gives steps that each hold
    k matrices, one per column, for assemble_Q to push a basis through.

    With a birth vector (nx,) in place of u, the field is marched: step k
    is assembled on row k and solves row k+1, so the source is the
    self-consistent field of that birth vector, and propagating the birth
    vector through its own evolution returns it bit for bit.
    """
    if u is not None and birth is not None:
        raise EvolutionError("give a frozen field or a birth vector to march, not both")
    if birth is not None:
        u = np.empty((grid.na + 1, mesh.nx))
        u[0] = _birth_array(birth, mesh.nx)
    elif u is None:
        u = np.zeros((grid.na + 1, mesh.nx))
    else:
        u = np.asarray(u, dtype=float)
        if u.ndim not in (2, 3) or u.shape[:2] != (grid.na + 1, mesh.nx):
            raise EvolutionError(f"frozen field of shape {u.shape} does not match the grids")
    da = grid.da
    steps: list[FactoredTridiag] = []
    for k, a in enumerate(grid.ages[1:].tolist()):
        bands = assemble(model, mesh, a, u[k])
        bands *= da
        bands[1] += 1.0  # the bits of 1.0 + da * diag
        try:
            step = factor_tridiag(bands[0], bands[1], bands[2])  # indexing costs less than *bands
        except SingularTridiagError as exc:
            raise EvolutionError(f"singular one-step matrix at age index {k + 1}: {exc}") from exc
        steps.append(step)
        if birth is not None and step.mult is None:  # the bits of step.solve, without its checks
            np.divide(u[k], step.piv, out=u[k + 1])
        elif birth is not None:
            u[k + 1] = step.solve(u[k])
    return EvolutionOperator(steps, grid, mesh, u, all(step.mult is None for step in steps))


def _birth_array(B: np.ndarray, nx: int) -> np.ndarray:
    B = np.asarray(B, dtype=float)
    if B.shape != (nx,):
        raise EvolutionError(f"birth vector has shape {B.shape}, expected ({nx},)")
    if not np.all(np.isfinite(B)):
        raise EvolutionError("birth vector has non-finite entries")
    return B


def propagate(ev: EvolutionOperator, B: np.ndarray) -> np.ndarray:
    """Field with rows Pi(a_k, 0) B, B (nx,); exactly nonnegative when B is."""
    B = _birth_array(B, ev.mesh.nx)
    if ev.diagonal:
        # B / piv_0 / piv_1 / ..., the bits of one solve per step
        values = np.stack([B, *(step.piv for step in ev.steps)])
        return np.divide.accumulate(values, axis=0, out=values)
    values = np.empty((ev.grid.na + 1, ev.mesh.nx))
    values[0] = B
    for k, step in enumerate(ev.steps):
        values[k + 1] = step.solve(values[k])
    return values


def apply_K0(ev: EvolutionOperator, f: np.ndarray) -> np.ndarray:
    """Discrete Duhamel sum K0 f for the linear evolution.

    Left-endpoint source composed with the implicit step:
    w_0 = 0,  w_{k+1} = step_k(w_k + da * f_k).  Each step uses row k of
    f, matching the stepping convention of propagate, so a solution of
    the stepped equations is reproduced without quadrature drift.
    """
    if ev.source.ndim != 2 or np.any(ev.source):
        raise EvolutionError("apply_K0 requires the linear evolution (zero frozen field)")
    f = np.asarray(f, dtype=float)
    if f.shape != (ev.grid.na + 1, ev.mesh.nx):
        raise EvolutionError(f"source field of shape {f.shape} does not match the grids")
    da = ev.grid.da
    values = np.zeros((ev.grid.na + 1, ev.mesh.nx))
    for k, step in enumerate(ev.steps):
        values[k + 1] = step.solve(values[k] + da * f[k])
    return values
