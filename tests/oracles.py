"""Scalar oracles for the spatially uniform models.

When the derivative terms are dropped, every x node evolves by the same
one-dimensional recursion, so birth functionals, reproduction radii and
whole branch points have closed scalar counterparts.  The recursions
below mirror the solver's stepping (implicit decay, coefficients frozen
at the previous age slice, trapezoid quadrature) but share none of its
code, which makes tight agreement tolerances meaningful.  Continuum
constants are kept separately for convergence-rate checks.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

from agequil.discretize import OperatorMatrix
from agequil.tridiag import factor_tridiag

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


def logistic_B_of_n(n: float, na: int, a_max: float, cb: float = 1.0) -> float:
    return brentq(
        lambda B: B - n * logistic_birth(B, na, a_max, cb),
        1e-12, 1e3, xtol=1e-14, rtol=8.9e-16,
    )


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


def smallest_eigenvalue(matrix: OperatorMatrix, tol: float = 1e-12, max_iter: int = 50000) -> float:
    """Smallest real eigenvalue by inverse power iteration with shift 0.

    Convergence checks of the spatial operator compare it with
    closed-form eigenvalues.  Unlike the recursions above it reuses the
    package's Thomas factorization; the closed forms stay independent.
    """
    fac = factor_tridiag(matrix.lower, matrix.diag, matrix.upper)
    v = np.ones(matrix.nx)
    v /= np.linalg.norm(v)
    lam = float("nan")
    for _ in range(max_iter):
        w = fac.solve(v)
        w /= np.linalg.norm(w)
        aw = matrix.matvec(w)
        lam = float(w @ aw)
        if np.linalg.norm(aw - lam * w) <= tol * max(abs(lam), 1e-30):
            return lam
        v = w
    raise RuntimeError(f"inverse power iteration did not converge within {max_iter} iterations")
