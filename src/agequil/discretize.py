"""Finite-difference discretization of the per-age spatial operator.

Unknowns live at x_i = i/nx for i = 1..nx.  The Dirichlet value at x = 0
is eliminated; the Robin condition  w' + nu0 w = 0  at x = 1 is closed
with a ghost node and a centered difference, which keeps second-order
accuracy and the M-matrix sign pattern.  Diffusion uses conservative
fluxes with arithmetic-mean coefficients at half nodes; the drift term is
upwinded per node by the sign of g, which is what makes the one-step
inverses of the age stepping entrywise nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expr import diff, evaluate_on
from .model import ModelSpec


class AssemblyError(ValueError):
    """Raised for shape mismatches or a broken M-matrix sign pattern."""


@dataclass(frozen=True)
class SpatialMesh:
    """Uniform mesh on (0, 1] with nx unknowns (interior plus Robin end)."""

    nx: int

    def __post_init__(self):
        if self.nx < 2:
            raise AssemblyError("nx must be at least 2")

    @cached_property
    def dx(self) -> float:
        return 1.0 / self.nx

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.dx, 1.0, self.nx)

    @cached_property
    def nodes_with_origin(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.nx + 1)


@dataclass(frozen=True)
class OperatorMatrix:
    """Tridiagonal A(u, a) after boundary elimination."""

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray


def gradient_of_slice(u: np.ndarray, dx: float) -> np.ndarray:
    """Centered differences along x, one-sided at the ends of the supplied slice.

    The arithmetic of np.gradient(u, dx, axis=0) without its per-call
    set-up, which took a third of a pure-decay assembly; u is (nx,) or
    (nx, k).
    """
    p = np.empty_like(u)
    p[1:-1] = (u[2:] - u[:-2]) / (2.0 * dx)
    p[0] = (u[1] - u[0]) / dx
    p[-1] = (u[-1] - u[-2]) / dx
    return p


def assemble(model: ModelSpec, mesh: SpatialMesh, a: float, u_slice: np.ndarray | None = None) -> OperatorMatrix:
    """Assemble A(u, a) + mu(u, a) as a tridiagonal matrix.

    An absent u_slice is the zero slice, whose matrix is the linear part
    with zero-order term theta(a).  A slice of shape (nx, k) gives k
    matrices side by side, as (nx, k) bands whose column j is, bit for
    bit, the matrix of column j alone.
    """
    nx, dx = mesh.nx, mesh.dx
    u = np.zeros(nx) if u_slice is None else np.asarray(u_slice, dtype=float)
    if u.ndim not in (1, 2) or u.shape[0] != nx:
        raise AssemblyError(f"u_slice has shape {u.shape}, expected ({nx},) or ({nx}, k)")
    p = gradient_of_slice(u, dx)
    shape = u.shape

    lower = np.zeros(shape)
    diag = np.zeros(shape)
    upper = np.zeros(shape)

    if not model.pure_decay:
        # conservative diffusion flux, D averaged to half nodes; the value
        # beyond x = 1 is clamped to D(a, 1); D reads only a and x, so a
        # batch shares it as one column
        d_nodes = evaluate_on(model.D, (nx + 1,), a=float(a), x=mesh.nodes_with_origin)
        d_nodes = d_nodes.reshape((nx + 1,) + (1,) * (u.ndim - 1))
        d_west = 0.5 * (d_nodes[:-1] + d_nodes[1:])
        d_east = np.empty_like(d_west)
        d_east[:-1] = d_west[1:]
        d_east[-1] = d_nodes[-1]
        inv_dx2 = 1.0 / (dx * dx)
        diag += (d_west + d_east) * inv_dx2
        lower[1:] -= d_west[1:] * inv_dx2
        upper[:-1] -= d_east[:-1] * inv_dx2

        # drift, upwinded per node by the sign of g
        g_vals = evaluate_on(model.g, shape, u=u, p=p)
        g_pos = np.maximum(g_vals, 0.0)
        g_neg = np.minimum(g_vals, 0.0)
        diag += (g_pos - g_neg) / dx
        lower[1:] -= g_pos[1:] / dx
        upper[:-1] += g_neg[:-1] / dx

        # ghost-node closure of the Robin end: w_ghost = w_west - 2 dx nu0 w_end
        east_end = -d_east[-1] * inv_dx2 + g_neg[-1] / dx
        lower[-1] += east_end
        diag[-1] -= 2.0 * dx * model.nu0 * east_end

        # a pure-decay step has no couplings, so only here can a sign break
        if np.any(lower[1:] > 0) or np.any(upper[:-1] > 0):
            bands = np.concatenate([lower, upper]).reshape(2 * nx, -1)
            bad = int(np.argmax(bands.max(axis=1)))
            raise AssemblyError(f"M-matrix sign pattern violated near row {bad % nx}")

    h_vals = evaluate_on(model.h, shape, u=u, p=p)
    mu_vals = evaluate_on(model.mu, shape, u=u, a=float(a))
    diag += h_vals + mu_vals
    return OperatorMatrix(lower=lower, diag=diag, upper=upper)


def slice_derivative(
    model: ModelSpec, mesh: SpatialMesh, ages: np.ndarray, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Derivative of A(u_k, a_k) v_k in the slice u_k for m slices at once,
    u and v (m, nx): diag(alpha[k]) + diag(beta[k]) G, with G the stencil
    of gradient_of_slice.  The drift row is g times the upwind difference
    of v that the sign of g picks, as in assemble; where g = 0 it is the
    forward one, as for g < 0.  Assembles and factors nothing.
    """
    env = {"u": u, "p": gradient_of_slice(u.T, mesh.dx).T, "a": ages[:, None]}
    d = {(c, x): evaluate_on(diff(getattr(model, c), x), u.shape, **env) for c in ("h", "mu", "g") for x in "up"}
    alpha, beta = v * (d["h", "u"] + d["mu", "u"]), v * d["h", "p"]
    if not model.pure_decay:
        # v_{-1} = 0 at the Dirichlet end, the Robin ghost node past the other
        ghost = v[:, -2:-1] - 2.0 * mesh.dx * model.nu0 * v[:, -1:]
        steps = np.diff(np.hstack([np.zeros_like(ghost), v, ghost]), axis=1) / mesh.dx
        slope = np.where(evaluate_on(model.g, u.shape, **env) > 0, steps[:, :-1], steps[:, 1:])
        alpha += slope * d["g", "u"]
        beta += slope * d["g", "p"]
    return alpha, beta
