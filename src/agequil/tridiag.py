"""Tridiagonal factor/solve kernels (Thomas algorithm, no pivoting).

Row i couples lower[i] * v[i-1] + diag[i] * v[i] + upper[i] * v[i+1];
lower[0] and upper[-1] are ignored.  No pivoting is deliberate: for
matrices with nonpositive off-diagonals and positive pivots every
elimination step adds nonnegative multiples, so nonnegative right-hand
sides produce nonnegative solutions exactly, not just up to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

try:
    from numba import njit
except ImportError:  # pragma: no cover - numba is a hard dependency, kept soft for portability
    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap


class SingularTridiagError(ArithmeticError):
    """A pivot came out nonpositive or non-finite during factorization."""


@njit(cache=True)
def _factor(lower, diag, upper):
    # the bands are 1-D or 2-D; on 2-D each column is its own matrix and
    # each step is one row operation, with the bits of a 1-D factor
    n = diag.shape[0]
    mult = np.zeros(diag.shape)
    piv = np.empty(diag.shape)
    piv[0] = diag[0]
    for i in range(1, n):
        m = lower[i] / piv[i - 1]
        mult[i] = m
        piv[i] = diag[i] - m * upper[i - 1]
    return mult, piv


@njit(cache=True)
def _solve(mult, piv, upper, rhs, out):
    # rhs and out are 1-D to 3-D; each step is one row operation across
    # the trailing axes, and every entry sees the same IEEE operations as
    # a 1-D solve of its column, so the bits match column by column
    n = piv.shape[0]
    out[0] = rhs[0]
    for i in range(1, n):
        out[i] = rhs[i] - mult[i] * out[i - 1]
    out[n - 1] = out[n - 1] / piv[n - 1]
    for i in range(n - 2, -1, -1):
        out[i] = (out[i] - upper[i] * out[i + 1]) / piv[i]


@dataclass(frozen=True)
class FactoredTridiag:
    """LU factors of a tridiagonal matrix, reusable across solves.

    The factors are 1-D, (n,), or 2-D, (n, k), with one matrix per column.
    1-D factors solve a right-hand side (n,) or (n, m); 2-D factors solve
    (n, k), or (n, m, k) with m columns against each of the k matrices.
    """

    mult: np.ndarray
    piv: np.ndarray
    upper: np.ndarray

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        extra = rhs.ndim - self.piv.ndim
        if extra not in (0, 1) or rhs.shape[:1] + rhs.shape[1 + extra:] != self.piv.shape:
            raise ValueError(f"rhs has shape {rhs.shape}, factors have shape {self.piv.shape}")
        out = np.empty_like(rhs)
        _solve(self.mult, self.piv, self.upper, rhs, out)
        return out


def factor_tridiag(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray) -> FactoredTridiag:
    """Factor once; raises SingularTridiagError on a bad pivot."""
    lower = np.ascontiguousarray(lower, dtype=float)
    diag = np.ascontiguousarray(diag, dtype=float)
    upper = np.ascontiguousarray(upper, dtype=float)
    mult, piv = _factor(lower, diag, upper)
    if not np.all(np.isfinite(piv)) or np.any(piv <= 0):
        bad = np.unravel_index(np.argmin(np.where(np.isfinite(piv), piv, -np.inf)), piv.shape)
        raise SingularTridiagError(f"nonpositive pivot {float(piv[bad])!r} at row {bad[0]}")
    return FactoredTridiag(mult, piv, upper)


def tridiag_matvec(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = diag * v
    out[1:] += lower[1:] * v[:-1]
    out[:-1] += upper[:-1] * v[1:]
    return out
