"""Net reproduction operator Q(u) and the fertility normalization.

Q(u) w = integral of  cb * b(u(a)) * (Pi_u(a,0) w)  over age, by
trapezoid quadrature on the factored evolution steps: column by column,
or only the diagonal on a pure-decay model's divisors.  Q0 is Q of the
linear evolution, the build on the zero field.  The radius of a diagonal
Q, as on a pure-decay model, is its largest entry; of any other, power
iteration from the all-ones vector gives it, handing over to one dense
eigendecomposition, checked against its bracket, on a near tie.
"""

from __future__ import annotations

import numpy as np

from .evolution import AgeGrid, EvolutionOperator
from .expr import evaluate
from .model import ModelSpec, with_cb

# normalize refuses a rescaled model whose |r(Q0) - 1| exceeds NORMALIZE_TOL
NORMALIZE_TOL = 1e-10
# the relative tolerance and iteration cap of spectral_radius's power iteration
POWER_TOL = 1e-13
POWER_MAX_ITER = 100000


class ReproductionError(ValueError):
    pass


class PowerIterationError(RuntimeError):
    pass


def birth_density(model: ModelSpec, values: np.ndarray) -> np.ndarray:
    """Pointwise fertility weights cb * b(u) on a field's values.

    validate_model only samples b, so a field past the sampled densities
    can reach a negative b; that raises ReproductionError here.
    """
    out = np.asarray(evaluate(model.b, {"u": values}), dtype=float)
    dens = model.cb * np.broadcast_to(out, values.shape)
    if np.any(dens < 0):
        u_bad = float(values[dens < 0][0])
        raise ReproductionError(f"fertility b is negative at density u = {u_bad!r}")
    return dens


def birth_functional(model: ModelSpec, grid: AgeGrid, values: np.ndarray) -> np.ndarray:
    """Full birth integral  l(u) = integral cb * b(u(a)) u(a) da."""
    return grid.weights @ (birth_density(model, values) * values)


def birth_linear(model: ModelSpec, grid: AgeGrid, values: np.ndarray) -> np.ndarray:
    """Linear part  l0(u) = cb * b(0) * integral u(a) da."""
    b0 = float(evaluate(model.b, {"u": 0.0}))
    return model.cb * b0 * (grid.weights @ values)


def assemble_Q(model: ModelSpec, ev: EvolutionOperator) -> np.ndarray:
    """Dense (nx, nx) matrix of Q(u), u being the one field ev was frozen at.

    Every unit basis vector is pushed through the ages in one pass, with
    the fertility weights evaluated on ev.source; on a diagonal evolution
    only the diagonal is, all ages at once from ev.divisors, summed in the
    pass's order.
    """
    w = ev.grid.weights
    bvals = birth_density(model, ev.source)
    if ev.divisors is not None:
        terms = np.divide.accumulate(ev.divisors, axis=0)
        terms *= bvals
        terms *= w[:, None]
        return np.diag(np.add.accumulate(terms, axis=0, out=terms)[-1])
    basis = np.eye(ev.mesh.nx)
    q = w[0] * (bvals[0][:, None] * basis)
    for k in range(ev.grid.na):
        basis = ev.steps[k].solve(basis)
        q += w[k + 1] * (bvals[k + 1][:, None] * basis)
    return q


def _power_iteration(matrix: np.ndarray, tol: float, max_iter: int) -> tuple[bool, float, np.ndarray]:
    # for a nonnegative matrix and a positive iterate the radius sits in
    # the bracket of extreme ratios (Mv)_i / v_i; a dominant cluster that
    # is nearly tied keeps that bracket from shrinking for ~1/gap
    # iterations, so a bracket that has not halved in 50 iterations falls
    # back to a dense solve checked against the rigorous bracket; the
    # iterate has not converged there, so the vector comes from it too
    nonneg = bool(np.all(matrix >= 0.0))
    d = np.diagonal(matrix)
    if nonneg and np.count_nonzero(matrix) == np.count_nonzero(d):
        # diagonal: the largest entry, +0.0 on zero, and the indicator of the entries equal to it
        r = abs(float(d.max()))
        return True, r, (d == r).astype(float)
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


def spectral_radius(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """Dominant eigenvalue and normalized eigenvector (max-norm 1).

    A nonnegative diagonal matrix gives its largest entry and the indicator
    of the entries equal to it; any other goes to power iteration, whose
    limit is the radius and positive eigenvector on the ones assembled here.
    """
    if not np.all(np.isfinite(matrix)):
        raise ReproductionError("reproduction matrix has non-finite entries")
    try:
        ok, lam, v = _power_iteration(matrix, POWER_TOL, POWER_MAX_ITER)
    except np.linalg.LinAlgError as exc:  # from the dense fallback
        raise PowerIterationError(f"dense eigensolve failed: {exc}") from exc
    if not ok:
        raise PowerIterationError(f"power iteration did not converge within {POWER_MAX_ITER} iterations")
    return lam, v


def normalize(model: ModelSpec, ev0: EvolutionOperator) -> tuple[ModelSpec, float, np.ndarray, float, np.ndarray]:
    """Rescale cb so the linear problem on ev0 has reproduction number one.

    ev0 is the linear evolution of model; cb does not enter it.  Returns
    (rescaled model, spectral radius before rescaling, Q0 of the rescaled
    model, its spectral radius and Perron vector).  The radius is exactly
    linear in cb, so one rescaling suffices; the re-measured radius guards
    against returning an unnormalized model.
    """
    r_before, _ = spectral_radius(assemble_Q(model, ev0))
    if not (np.isfinite(r_before) and r_before > 0):
        raise ReproductionError(f"spectral radius {r_before!r} cannot be normalized away")
    model = with_cb(model, model.cb / r_before)
    q0 = assemble_Q(model, ev0)
    r, perron = spectral_radius(q0)
    if abs(r - 1.0) > NORMALIZE_TOL:
        raise ReproductionError(f"normalization missed r = 1: r = {r!r}")
    return model, r_before, q0, r, perron
