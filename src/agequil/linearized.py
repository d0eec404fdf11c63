"""Linear solves against the zero-density evolution Pi_0, the build on
the zero field, and the paper's reformulation built on them.

The central solve: given a source field f and birth data c, find the field
v with

    step residual   (v_{k+1} - v_k)/da + A0(a_{k+1}) v_{k+1} = f_k
    birth condition  v_0 - (1/2) l0(v) = c

realized as  v = Pi_0(.,0) w + K0 f  with  w = (I - Q0/2)^{-1} (l0(K0 f)/2 + c).
build_linearized normalizes the fertility first, so the reproduction
number is 1 and the factor I - Q0/2 is invertible.

The reformulation is  u = lam L u + H(lam, u),  lam = n - 1/2: L u is the
solve fed by l0(u), and H(lam, u) the solve fed by (lam + 1/2) (l - l0)(u)
and perturbation_source's f.  The solve is linear in (c, f), so the right
side is one solve, fed by c = n l(u) - l0(u)/2 and f
(reformulation_residual).  Where u is the march of its birth row B, each
step is the stepped equation with exactly this f as source, so
u = Pi_0 B + K0 f and l0(u) = Q0 B + l0(K0 f).  Then
w = (I - Q0/2)^{-1} (n l(u) - Q0 B/2): every term in f cancels, and

    u - lam L u - H(lam, u) = Pi_0 (B - w) = Pi_0 (I - Q0/2)^{-1} (B - n l(u)),

the solve of the birth defect that continuation.branch_point writes.
Both forms run on the evolution's own steps, so they agree to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import SpatialMesh, assemble
from .evolution import AgeGrid, EvolutionOperator, apply_K0, build_evolution, propagate
from .model import ModelSpec
from .reproduction import birth_functional, birth_linear, normalize
from .tridiag import tridiag_matvec


class LinearizedError(ValueError):
    pass


@dataclass
class LinearizedOperators:
    """Cached zero-density machinery shared by the linearized solves.

    model is the normalized model, with cb rescaled so that r(Q0) = 1;
    r_before is the spectral radius of Q0 before that rescaling.  r0 and
    perron0 are the spectral radius of the normalized Q0 and its positive
    eigenvector (max-norm 1), and birth_block is I - Q0/2.  a0_parts
    stacks the bands of A0(a_{k+1}) for k = 0..na-1, (na, 3, nx).
    """

    model: ModelSpec
    mesh: SpatialMesh
    grid: AgeGrid
    ev0: EvolutionOperator
    r_before: float
    r0: float
    perron0: np.ndarray
    birth_block: np.ndarray
    a0_parts: np.ndarray


def build_linearized(model: ModelSpec, mesh: SpatialMesh, grid: AgeGrid) -> LinearizedOperators:
    """The zero-density problem of model, normalized to r(Q0) = 1.

    The linear evolution is built once; cb does not enter it, so the
    normalization and every solve share it.
    """
    ev0 = build_evolution(model, mesh, grid)
    model, r_before, q0, r0, perron0 = normalize(model, ev0)
    birth_block = np.eye(mesh.nx) - 0.5 * q0
    a0_parts = np.stack([assemble(model, mesh, float(a), u_k) for a, u_k in zip(grid.ages[1:], ev0.source)])
    return LinearizedOperators(model, mesh, grid, ev0, r_before, r0, perron0, birth_block, a0_parts)


def solve_linear(
    lin: LinearizedOperators, birth_data: np.ndarray, source: np.ndarray | None = None
) -> np.ndarray:
    """Unique solution of the stepped linear problem described above."""
    birth_data = np.asarray(birth_data, dtype=float)
    if birth_data.shape != (lin.mesh.nx,):
        raise LinearizedError(f"birth data has shape {birth_data.shape}, expected ({lin.mesh.nx},)")
    if source is None:
        return propagate(lin.ev0, np.linalg.solve(lin.birth_block, birth_data))
    kf = apply_K0(lin.ev0, source)
    w = np.linalg.solve(lin.birth_block, birth_data + 0.5 * birth_linear(lin.model, lin.grid, kf))
    return propagate(lin.ev0, w) + kf


def perturbation_source(lin: LinearizedOperators, u: np.ndarray) -> np.ndarray:
    """Source rows f_k = -(A(u_k, a_{k+1}) - A0(a_{k+1})) u_{k+1}.

    Row indexing matches the stepping convention: row k feeds the step
    from a_k to a_{k+1}, with coefficients frozen on the slice at a_k, so
    a field propagated by its own evolution satisfies the stepped linear
    equations with exactly this source.  Row na is unused and stays zero.
    """
    au = np.stack([assemble(lin.model, lin.mesh, float(a), u_k) for a, u_k in zip(lin.grid.ages[1:], u)])
    source = np.zeros(u.shape)
    # ages on the trailing batch axis: row k of the source is column k of the product
    source[:-1] = -tridiag_matvec(*(au - lin.a0_parts).transpose(1, 2, 0), u[1:].T).T
    return source


def reformulation_residual(lin: LinearizedOperators, n: float, u: np.ndarray) -> float:
    """Field norm of  u - lam L u - H(lam, u)  at lam = n - 1/2, the long way:
    one solve fed by n l(u) - l0(u)/2 and perturbation_source's f."""
    model, grid = lin.model, lin.grid
    birth = n * birth_functional(model, grid, u) - 0.5 * birth_linear(model, grid, u)
    return grid.norm(u - solve_linear(lin, birth, perturbation_source(lin, u)))
