"""Tridiagonal factor/solve kernels (Thomas algorithm, no pivoting).

Row i couples lower[i] * v[i-1] + diag[i] * v[i] + upper[i] * v[i+1];
lower[0] and upper[-1] are ignored.  No pivoting is deliberate: for
matrices with nonpositive off-diagonals and positive pivots every
elimination step adds nonnegative multiples, so nonnegative right-hand
sides produce nonnegative solutions exactly, not just up to roundoff.

The pivots come from the Thomas loop on Python floats, the multipliers
are its quotients taken again by numpy, and the solve is one call of
LAPACK's dgttrs on them with identity pivots and a zero second
superdiagonal, so LAPACK applies them as they are: the loop's forward
and backward sweeps, in compiled code, on the right-hand side as given
for one matrix of MIN_ROWS rows or more, else staged in a buffer.
Bands with no coupling (every step of a pure-decay model) skip both:
where count_nonzero finds none and the pivot check passes the diagonal,
the loop's multipliers are zero and its pivots are the diagonal, so the
solve is one division by it.

dgttrs is scipy.linalg.lapack's, from scipy's compiled module
scipy/linalg/_flapack, which is loaded here from its file: the __init__
of scipy.linalg takes longer than most runs.  Where the file is missing
or does not load, it comes from scipy.linalg.lapack; the compiled code,
and so every bit, is the same on either path.
"""

from __future__ import annotations

import importlib.util
import math
import sys
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
dgttrs = _lapack.dgttrs

# dgttrs takes no system of fewer rows
MIN_ROWS = 3


class SingularTridiagError(ArithmeticError):
    """A pivot came out nonpositive or non-finite during factorization."""


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


def _positive_finite(a: np.ndarray) -> bool:
    # a NaN (which ufunc.reduce keeps and Python's min may not), a zero of
    # either sign or a negative entry fails the least entry; isinf finds +inf
    return 0 < np.minimum.reduce(a, None) and not np.count_nonzero(np.isinf(a))


def _uncoupled(lower, diag, upper) -> bool:
    # a coupled band, as every diffusion step has, stops at the first test
    return not (np.count_nonzero(lower[1:]) or np.count_nonzero(upper[:-1])) and _positive_finite(diag)


def _solved(x: np.ndarray, info: int) -> np.ndarray:
    if info != 0:
        raise RuntimeError(f"dgttrs rejected argument {-info}")
    return x


class FactoredTridiag:
    """LU factors of a tridiagonal matrix, reusable across solves.

    shape is (n,) for one matrix, or (n, k) for k matrices, one per column
    of the bands.  (n,) factors solve a right-hand side (n,) or (n, m);
    (n, k) factors solve (n, k), or (n, m, k) with m columns against each
    of the k matrices.  The factors are kept as one block-diagonal system
    of n*k rows, matrix by matrix, and a system of fewer than MIN_ROWS
    rows is padded with unit rows.  piv holds the Thomas loop's pivots on
    that system, all positive and finite; mult and upper are dgttrs's dl
    and du: the loop's multipliers from row 1 on and the couplings of all
    rows but the last, zero where one block meets the next.  Where
    lower[1:] and upper[:-1] are zeros of either sign and the diagonal is
    positive and finite, mult and upper are None and piv, the loop's
    pivots, is a copy of the diagonal in the bands' (n,) or (n, k) shape;
    a solve divides by it.  Every step of a build makes one, so the class
    has __slots__ and a plain __init__, and its fields are not frozen.

    A solve has the bits of the Thomas loop on each matrix, except that
    a -0.0 in rhs may give a zero of either sign, and a non-finite entry
    may spread NaN to the rest of a stack.  It never writes rhs: unpadded
    (n,) factors hand it to dgttrs, which solves a copy, so a 2-D solution
    is in Fortran order; other factors stage it in a buffer.
    """

    __slots__ = ("shape", "mult", "piv", "upper")

    def __init__(self, shape: tuple[int, ...], mult: np.ndarray | None, piv: np.ndarray, upper: np.ndarray | None):
        self.shape, self.mult, self.piv, self.upper = shape, mult, piv, upper

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        extra = rhs.ndim - len(self.shape)
        if extra not in (0, 1) or rhs.shape[:1] + rhs.shape[1 + extra:] != self.shape:
            raise ValueError(f"rhs has shape {rhs.shape}, factors have shape {self.shape}")
        if self.mult is None:
            return rhs / (self.piv[:, None] if extra else self.piv)
        ipiv, du2 = _no_pivoting(self.piv.size)
        if self.piv.shape == self.shape:  # one matrix, unpadded
            return _solved(*dgttrs(self.mult, self.piv, self.upper, du2, ipiv, rhs))
        n, k = (self.shape + (1,))[:2]
        m = rhs.shape[1] if extra else 1
        # b[c, j*n + i] = rhs[i, c, j]: column c of the stacked system, so
        # b.T is the Fortran array dgttrs solves in place
        b = np.empty((m, self.piv.size))
        b[:, n * k:] = 0.0
        b[:, :n * k].reshape(m, k, n)[...] = rhs.reshape(n, m, k).transpose(1, 2, 0)
        x = _solved(*dgttrs(self.mult, self.piv, self.upper, du2, ipiv, b.T, overwrite_b=1))
        return x.T[:, :n * k].reshape(m, k, n).transpose(2, 0, 1).reshape(rhs.shape)


def factor_tridiag(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray) -> FactoredTridiag:
    """Factor once; raises SingularTridiagError on a bad pivot."""
    diag = np.array(diag, dtype=float, order="C")  # a copy: a diagonal's pivots
    if _uncoupled(lower, diag, upper):
        return FactoredTridiag(diag.shape, None, diag, None)
    lower, upper = np.ascontiguousarray(lower, dtype=float), np.array(upper, dtype=float)
    upper[-1] = 0.0
    n, stacked_lower, stacked_upper = diag.shape[0], _stack(lower, 0.0), _stack(upper, 0.0)
    lows, diags, ups = stacked_lower.tolist(), _stack(diag, 1.0).tolist(), stacked_upper.tolist()
    piv = []
    for start in range(0, len(diags), n):
        # each matrix, and each padding row, starts the loop afresh
        piv.append(p := diags[start])
        for low, dia, up in zip(lows[start + 1:start + n], diags[start + 1:start + n], ups[start:start + n - 1]):
            # numpy's quotient where Python's division by zero raises
            p = dia - (low / p if p else (low * math.copysign(math.inf, p) if low else math.nan)) * up
            piv.append(p)
    piv = np.fromiter(piv, float, len(piv))
    if not _positive_finite(piv):
        # name the pivot that argmin finds among the k matrices' (n, k) rows
        piv = piv[:diag.size].reshape(diag.shape[::-1]).T
        bad = np.unravel_index(np.argmin(np.where(np.isfinite(piv), piv, -np.inf)), piv.shape)
        raise SingularTridiagError(f"nonpositive pivot {float(piv[bad])!r} at row {bad[0]}")
    # the loop's multipliers: the quotients it took, now of positive pivots
    mult = np.divide(stacked_lower[1:], piv[:-1])
    mult[n - 1::n] = 0.0
    return FactoredTridiag(diag.shape, mult, piv, stacked_upper[:-1])


def tridiag_matvec(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = diag * v
    out[1:] += lower[1:] * v[:-1]
    out[:-1] += upper[:-1] * v[1:]
    return out
