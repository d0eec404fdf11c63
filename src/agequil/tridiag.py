"""Tridiagonal factor/solve kernels (Thomas algorithm, no pivoting).

Row i couples lower[i] * v[i-1] + diag[i] * v[i] + upper[i] * v[i+1];
lower[0] and upper[-1] are ignored.  No pivoting is deliberate: for
matrices with nonpositive off-diagonals and positive pivots every
elimination step adds nonnegative multiples, so nonnegative right-hand
sides produce nonnegative solutions exactly, not just up to roundoff.

The factors are one call of LAPACK's dgttrf, which does the Thomas
loop's IEEE operations wherever it interchanges no rows.  Each matrix's
last row enters it uncoupled and is finished here: a Robin closure
doubles that row's coupling, enough to make dgttrf interchange it.  If
dgttrf still interchanges a row, or a pivot comes out nonpositive or
non-finite, the Thomas loop in Python factors the bands instead; of the
bundled runs only fixedpoint's large-shell probes on logistic_diffusion
reach it.  The solve is one call of LAPACK's dgttrs on the factors, with
identity pivots and a zero second superdiagonal, so LAPACK applies them
as they are: the Thomas loop's forward and backward sweeps, in compiled
code.  Bands with no coupling (every step of a pure-decay model) skip
both calls: the loop's multipliers are zero and its pivots are the
diagonal, so the solve is one division by it.

dgttrf and dgttrs are scipy.linalg.lapack's, from scipy's compiled
module scipy/linalg/_flapack, which is loaded here from its file: the
__init__ of scipy.linalg takes longer than most runs.  Where the file is
missing or does not load, they come from scipy.linalg.lapack; the
compiled code, and so every bit, is the same on either path.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass
from functools import lru_cache
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np


def _flapack():
    name = "scipy.linalg._flapack"
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or name in sys.modules:
        # no scipy to load from, or scipy.linalg has loaded it already
        return importlib.import_module(name)
    path = Path(scipy.submodule_search_locations[0], "linalg", f"_flapack{EXTENSION_SUFFIXES[0]}")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # loading entered the module in sys.modules without its parent
    # package; scipy.linalg, imported later, finds it in the interpreter's
    # cache of loaded extensions
    sys.modules.pop(name, None)
    return module


try:
    _lapack = _flapack()
except ImportError:
    from scipy.linalg import lapack as _lapack
dgttrf, dgttrs = _lapack.dgttrf, _lapack.dgttrs

# dgttrs takes no system of fewer rows
MIN_ROWS = 3


class SingularTridiagError(ArithmeticError):
    """A pivot came out nonpositive or non-finite during factorization."""


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


@lru_cache(maxsize=8)
def _no_pivoting(rows: int) -> tuple[np.ndarray, np.ndarray]:
    # the row interchanges (1-based) and second superdiagonal of a
    # pivoted LU; none and zero leave dgttrs with the factors as given
    ipiv = np.arange(1, rows + 1, dtype=np.int32)
    du2 = np.zeros(rows - 2)
    ipiv.flags.writeable = du2.flags.writeable = False
    return ipiv, du2


def _stack(band: np.ndarray, pad: float) -> np.ndarray:
    # (n, k) bands, one matrix per column, become one (n*k,) band matrix
    # by matrix; unit rows pad a system below MIN_ROWS
    flat = band.T.ravel()
    if flat.size < MIN_ROWS:
        flat = np.concatenate([flat, np.full(MIN_ROWS - flat.size, pad)])
    return flat


def _uncoupled(lower, diag, upper) -> bool:
    # a coupled band, as every diffusion step has, stops at the first test;
    # count_nonzero costs a fifth of np.any, and ufunc.reduce less than .min()
    return (not np.count_nonzero(lower[1:]) and not np.count_nonzero(upper[:-1])
            and 0 < np.minimum.reduce(diag, axis=None) and np.maximum.reduce(diag, axis=None) < np.inf)


@dataclass(frozen=True)
class FactoredTridiag:
    """LU factors of a tridiagonal matrix, reusable across solves.

    shape is (n,) for one matrix, or (n, k) for k matrices, one per column
    of the bands.  (n,) factors solve a right-hand side (n,) or (n, m);
    (n, k) factors solve (n, k), or (n, m, k) with m columns against each
    of the k matrices.  The factors are kept as one block-diagonal system
    of n*k rows, matrix by matrix: mult[0] and upper[-1] of every block
    are zero, so no block couples to the next, and a system of fewer than
    MIN_ROWS rows is padded with unit rows.

    mult and piv come from one dgttrf call on that system, with each
    block's last row finished by hand, or from the Python Thomas loop
    where dgttrf interchanged a row, failed or left a bad pivot; both
    have the bits of the Thomas loop.  Where lower[1:] and upper[:-1] are
    zeros of either sign and the diagonal is positive and finite, mult
    and upper are None and piv, the loop's pivots, is a copy of the
    diagonal in the bands' (n,) or (n, k) shape; a solve divides by it.

    A solve has the bits of the Thomas loop on each matrix, except that
    a zero that comes from a -0.0 in rhs may take either sign, and a
    non-finite entry may spread NaN to the rest of the stack.
    """

    shape: tuple[int, ...]
    mult: np.ndarray | None
    piv: np.ndarray
    upper: np.ndarray | None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        extra = rhs.ndim - len(self.shape)
        if extra not in (0, 1) or rhs.shape[:1] + rhs.shape[1 + extra:] != self.shape:
            raise ValueError(f"rhs has shape {rhs.shape}, factors have shape {self.shape}")
        if self.mult is None:
            return rhs / (self.piv[:, None] if extra else self.piv)
        n, k = (self.shape + (1,))[:2]
        m = rhs.shape[1] if extra else 1
        ipiv, du2 = _no_pivoting(self.piv.size)
        # b[c, j*n + i] = rhs[i, c, j]: column c of the stacked system, so
        # b.T is the Fortran array dgttrs solves in place
        b = np.empty((m, self.piv.size))
        b[:, n * k:] = 0.0
        b[:, :n * k].reshape(m, k, n)[...] = rhs.reshape(n, m, k).transpose(1, 2, 0)
        x, info = dgttrs(self.mult[1:], self.piv, self.upper[:-1], du2, ipiv, b.T, overwrite_b=1)
        if info != 0:
            raise RuntimeError(f"dgttrs rejected argument {-info}")
        return x.T[:, :n * k].reshape(m, k, n).transpose(2, 0, 1).reshape(rhs.shape)


def factor_tridiag(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray) -> FactoredTridiag:
    """Factor once; raises SingularTridiagError on a bad pivot."""
    lower = np.ascontiguousarray(lower, dtype=float)
    diag = np.ascontiguousarray(diag, dtype=float)
    if _uncoupled(lower, diag, upper):
        return FactoredTridiag(diag.shape, None, diag.copy(), None)
    upper = np.array(upper, dtype=float)
    upper[-1] = 0.0
    inner = lower.copy()
    inner[0] = inner[-1] = 0.0
    stacked_upper = _stack(upper, 0.0)
    dl, piv, _, _, ipiv, info = dgttrf(_stack(inner, 0.0)[1:], _stack(diag, 1.0), stacked_upper[:-1])
    mult = np.concatenate(([0.0], dl))
    n, rows = diag.shape[0], diag.size
    if n > 1:
        # finish each matrix's last row; its first row keeps the Thomas
        # loop's +0.0 whatever the sign of the pivot above it
        mult[:rows:n] = 0.0
        mult[n - 1:rows:n] = last = lower[-1] / piv[n - 2:rows:n]
        piv[n - 1:rows:n] = diag[-1] - last * upper[-2]
    no_interchange = info == 0 and np.array_equal(ipiv, _no_pivoting(piv.size)[0])
    if not (no_interchange and 0 < piv.min() and piv.max() < np.inf):
        mult, piv = _factor(lower, diag, upper)
        if not np.all(np.isfinite(piv)) or np.any(piv <= 0):
            bad = np.unravel_index(np.argmin(np.where(np.isfinite(piv), piv, -np.inf)), piv.shape)
            raise SingularTridiagError(f"nonpositive pivot {float(piv[bad])!r} at row {bad[0]}")
        mult, piv = _stack(mult, 0.0), _stack(piv, 1.0)
    return FactoredTridiag(diag.shape, mult, piv, stacked_upper)


def tridiag_matvec(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = diag * v
    out[1:] += lower[1:] * v[:-1]
    out[:-1] += upper[:-1] * v[1:]
    return out
