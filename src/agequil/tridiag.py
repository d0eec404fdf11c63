"""Tridiagonal factor/solve kernels (Thomas algorithm, no pivoting).

A matrix of n rows is three bands (n,); row i couples lower[i] * v[i-1]
+ diag[i] * v[i] + upper[i] * v[i+1], and lower[0] and upper[-1] are
ignored.  No pivoting is deliberate: for matrices with nonpositive
off-diagonals and positive pivots every elimination step adds
nonnegative multiples, so nonnegative right-hand sides produce
nonnegative solutions exactly, not just up to roundoff.

The pivots come from the Thomas loop on Python floats, the multipliers
are its quotients taken again by numpy, and the solve is one call of
LAPACK's dgttrs on them with identity pivots and a zero second
superdiagonal, so LAPACK applies them as they are: the loop's forward
and backward sweeps, in compiled code.

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


def _padded(band: np.ndarray, pad: float) -> np.ndarray:
    # unit rows pad a system below MIN_ROWS
    return np.concatenate([band, np.full(MIN_ROWS - band.size, pad)]) if band.size < MIN_ROWS else band


def positive_finite(a: np.ndarray) -> bool:
    # a NaN (which ufunc.reduce keeps and Python's min may not), a zero of
    # either sign or a negative entry fails the least entry; isinf finds +inf
    return 0 < np.minimum.reduce(a, None) and not np.count_nonzero(np.isinf(a))


def _solved(x: np.ndarray, info: int) -> np.ndarray:
    if info != 0:
        raise RuntimeError(f"dgttrs rejected argument {-info}")
    return x


class FactoredTridiag:
    """LU factors of one tridiagonal matrix of n rows, reusable across solves.

    shape is (n,), and a solve takes a right-hand side (n,) or (n, m).  A
    system of fewer than MIN_ROWS rows is padded with unit rows.  piv holds
    the Thomas loop's pivots on that system, all positive and finite; mult
    and upper are dgttrs's dl and du: the loop's multipliers from row 1 on
    and the couplings of all rows but the last.  Every step of a build
    makes one, so the class has __slots__ and a plain __init__.

    A solve has the bits of the Thomas loop, except that a -0.0 in rhs may
    give a zero of either sign, and a non-finite entry may spread NaN
    through the padding of a padded system.  It never writes rhs: unpadded
    factors hand it to dgttrs, which solves a copy, so a 2-D solution is
    in Fortran order; padded ones stage it in a buffer.
    """

    __slots__ = ("shape", "mult", "piv", "upper")

    def __init__(self, shape: tuple[int], mult: np.ndarray, piv: np.ndarray, upper: np.ndarray):
        self.shape, self.mult, self.piv, self.upper = shape, mult, piv, upper

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[:1] != self.shape or rhs.ndim > 2:
            raise ValueError(f"rhs has shape {rhs.shape}, factors have shape {self.shape}")
        ipiv, du2 = _no_pivoting(self.piv.size)
        if self.piv.shape == self.shape:  # unpadded
            return _solved(*dgttrs(self.mult, self.piv, self.upper, du2, ipiv, rhs))
        b = np.zeros((self.piv.size,) + rhs.shape[1:], order="F")
        b[:rhs.shape[0]] = rhs
        x = _solved(*dgttrs(self.mult, self.piv, self.upper, du2, ipiv, b, overwrite_b=1))
        return x[:rhs.shape[0]]


def factor_tridiag(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray) -> FactoredTridiag:
    """Factor bands (n,) once; raises SingularTridiagError on a bad pivot."""
    diag = np.asarray(diag, dtype=float)
    upper = np.array(upper, dtype=float)
    upper[-1] = 0.0
    n, lower, upper = diag.size, _padded(np.asarray(lower, dtype=float), 0.0), _padded(upper, 0.0)
    diags = _padded(diag, 1.0).tolist()
    piv = [p := diags[0]]
    for low, dia, up in zip(lower[1:].tolist(), diags[1:], upper.tolist()):
        # numpy's quotient where Python's division by zero raises
        p = dia - (low / p if p else (low * math.copysign(math.inf, p) if low else math.nan)) * up
        piv.append(p)
    piv = np.fromiter(piv, float, len(piv))
    if not positive_finite(piv):
        # name the pivot that argmin finds among the matrix's rows
        bad = int(np.argmin(np.where(np.isfinite(piv[:n]), piv[:n], -np.inf)))
        kind = "nonpositive" if math.isfinite(piv[bad]) else "non-finite"
        raise SingularTridiagError(f"{kind} pivot {float(piv[bad])!r} at row {bad}")
    # the loop's multipliers: the quotients it took, now of positive pivots
    return FactoredTridiag(diag.shape, np.divide(lower[1:], piv[:-1]), piv, upper[:-1])


def tridiag_matvec(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = diag * v
    out[1:] += lower[1:] * v[:-1]
    out[:-1] += upper[:-1] * v[1:]
    return out
