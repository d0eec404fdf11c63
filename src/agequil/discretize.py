"""Finite-difference discretization of the per-age spatial operator.

Unknowns live at x_i = i/nx for i = 1..nx.  The Dirichlet value at x = 0
is eliminated; the Robin condition  w' + nu0 w = 0  at x = 1 is closed
with a ghost node and a centered difference, which keeps second-order
accuracy and the M-matrix sign pattern.  Diffusion uses conservative
fluxes with arithmetic-mean coefficients at half nodes; the drift term is
upwinded per node by the sign of g, which is what makes the one-step
inverses of the age stepping entrywise nonnegative.  A cached plan keeps
what does not depend on the density slice; pure decay needs none.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .expr import Expr, diff, evaluate, evaluate_on, variables
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


def gradient_of_slice(u: np.ndarray, dx: float) -> np.ndarray:
    """Centered differences along x, one-sided at the ends, of u (nx,) or (nx, k):
    the arithmetic of np.gradient(u, dx, axis=0) without its per-call set-up."""
    p = np.empty_like(u)
    p[1:-1] = (u[2:] - u[:-2]) / (2.0 * dx)
    p[0] = (u[1] - u[0]) / dx
    p[-1] = (u[-1] - u[-2]) / dx
    return p


@lru_cache(maxsize=8)
def _plan(D: Expr, g: Expr, h: Expr, mesh: SpatialMesh) -> tuple[bool, dict]:
    """What every slice's assembly shares: whether g or h reads p, and the
    read-only diffusion bands of each age (_static_bands), filled as asked for.
    Keyed by what it reads, so a model and its renormalization share one."""
    return "p" in variables(h) | variables(g), {}


def _static_bands(D: Expr, mesh: SpatialMesh, a: float) -> tuple[np.ndarray, float, bool]:
    """Bands (3, nx) of the diffusion flux at age a, with D clamped to D(a, 1)
    beyond x = 1; the Robin end's share -d_east[-1] / dx^2; and whether they
    keep the sign pattern, which the drift then cannot break."""
    nx, inv_dx2 = mesh.nx, 1.0 / (mesh.dx * mesh.dx)
    d_nodes = evaluate_on(D, (nx + 1,), a=a, x=mesh.nodes_with_origin)
    d_west = 0.5 * (d_nodes[:-1] + d_nodes[1:])
    d_east = np.append(d_west[1:], d_nodes[-1])
    bands = np.zeros((3, nx))
    bands[1] += (d_west + d_east) * inv_dx2
    bands[0, 1:] -= d_west[1:] * inv_dx2
    bands[2, :-1] -= d_east[:-1] * inv_dx2
    bands.flags.writeable = False
    east = -d_east[-1] * inv_dx2
    return bands, east, not (np.any(bands[0, 1:] > 0) or np.any(bands[2, :-1] > 0) or east > 0)


def assemble(model: ModelSpec, mesh: SpatialMesh, a: float, u_slice: np.ndarray) -> np.ndarray:
    """Bands of A(u, a) + mu(u, a), one (3,) + u_slice.shape array whose rows
    are lower, diag and upper, as tridiag takes them.

    A slice of shape (nx, k) gives k matrices side by side: column j of
    each row is, bit for bit, the band of column j alone.  Every call
    returns a fresh writable array.  Parts that do not depend on the slice
    come from the plan of the model's D, g and h on the mesh; a pure-decay
    model, zero but for h + mu on the diagonal, has no plan to look up.
    """
    nx, dx, a = mesh.nx, mesh.dx, float(a)
    u = np.asarray(u_slice, dtype=float)
    if u.ndim not in (1, 2) or u.shape[0] != nx:
        raise AssemblyError(f"u_slice has shape {u.shape}, expected ({nx},) or ({nx}, k)")
    reads_p, static = ("p" in variables(model.h), None) if model.pure_decay else _plan(model.D, model.g, model.h, mesh)
    env = {"u": u, "p": gradient_of_slice(u, dx)} if reads_p else {"u": u}
    shape = u.shape

    if model.pure_decay:
        bands = np.zeros((3,) + shape)
        diag = bands[1]
    else:
        diffusion, east, signs_kept = static.get(a) or static.setdefault(a, _static_bands(model.D, mesh, a))
        lower, diag, upper = bands = np.empty((3,) + shape)
        bands.T[...] = diffusion.T  # each column of a batch gets the same bands

        # drift, upwinded per node by the sign of g
        g_vals = evaluate_on(model.g, shape, **env)
        g_pos = np.maximum(g_vals, 0.0)
        g_neg = np.minimum(g_vals, 0.0)
        diag += (g_pos - g_neg) / dx
        lower[1:] -= g_pos[1:] / dx
        upper[:-1] += g_neg[:-1] / dx

        # ghost-node closure of the Robin end: w_ghost = w_west - 2 dx nu0 w_end
        east_end = east + g_neg[-1] / dx
        lower[-1] += east_end
        diag[-1] -= 2.0 * dx * model.nu0 * east_end

        # only couplings can break the sign pattern, and the drift adds nonpositive ones
        if not signs_kept and (np.any(lower[1:] > 0) or np.any(upper[:-1] > 0)):
            bad = int(np.argmax(bands[::2].reshape(2 * nx, -1).max(axis=1)))
            raise AssemblyError(f"M-matrix sign pattern violated near row {bad % nx}")

    diag += evaluate(model.h, env) + evaluate(model.mu, {"u": u, "a": a})
    return bands


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
