import ast
import os
import re
import subprocess
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from agequil import tridiag
from agequil.tridiag import (
    FactoredTridiag,
    SingularTridiagError,
    factor_tridiag,
    tridiag_matvec,
)
from oracles import thomas_factor, thomas_solve


def dense(lower, diag, upper):
    n = diag.shape[0]
    mat = np.diag(diag)
    mat[np.arange(1, n), np.arange(n - 1)] = lower[1:]
    mat[np.arange(n - 1), np.arange(1, n)] = upper[:-1]
    return mat


# random M-matrix bands: nonpositive off-diagonals, strictly dominant diagonal
def m_matrix_bands(draw, n):
    lower = -draw(
        st.lists(st.floats(0, 5, allow_nan=False), min_size=n, max_size=n).map(np.array)
    )
    upper = -draw(
        st.lists(st.floats(0, 5, allow_nan=False), min_size=n, max_size=n).map(np.array)
    )
    bump = draw(st.floats(0.01, 3, allow_nan=False))
    lower[0] = upper[-1] = 0.0
    diag = np.abs(lower) + np.abs(upper) + bump
    return lower, diag, upper


@st.composite
def m_systems(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    lower, diag, upper = m_matrix_bands(draw, n)
    rhs = np.array(draw(st.lists(st.floats(0, 10, allow_nan=False), min_size=n, max_size=n)))
    return lower, diag, upper, rhs


# M-matrix bands (n,) or (n, k) whose last row couples up to twice as
# strongly as the off-diagonals drawn, as a Robin closure makes it, and a
# right-hand side of one or two columns per matrix with no -0.0 in it
@st.composite
def robin_systems(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    batch = draw(st.sampled_from([(), (1,), (3,)]))
    columns = draw(st.sampled_from([(), (2,)]))
    size = n * int(np.prod(batch))
    lower, upper = (
        -np.array(draw(st.lists(st.floats(0, 5), min_size=size, max_size=size))).reshape(n, *batch)
        for _ in range(2)
    )
    lower[-1] *= draw(st.floats(1, 2))
    diag = np.abs(lower) + np.abs(upper) + draw(st.floats(0.01, 3))
    rhs_size = size * int(np.prod(columns))
    rhs = np.array(draw(st.lists(st.floats(-10, 10), min_size=rhs_size, max_size=rhs_size)))
    return lower, diag, upper, rhs.reshape(n, *columns, *batch) + 0.0


# one coupled matrix, so that factor and solve reach the loop and dgttrs
COUPLED = (np.array([0.0, -1.0, -1.0, -1.0]), np.full(4, 3.0), np.array([-1.0, -1.0, -1.0, 0.0]))


def bits(x):
    return np.asarray(x).view(np.int64)


def unstacked(fac, stacked):
    # the rows of the k matrices, back in the bands' (n,) or (n, k) layout
    return stacked[:int(np.prod(fac.shape))].reshape(fac.shape[::-1]).T


def laid_out(b, layout):
    # b in C or Fortran order, as a strided view, or rounded to integers
    if layout == "F":
        return np.asfortranarray(b)
    if layout == "strided":
        view = np.empty(b.shape[:-1] + (2 * b.shape[-1],))[..., ::2]
        view[...] = b
        return view
    return np.rint(10 * b).astype(np.int64) if layout == "int" else b


def multipliers(fac):
    # mult holds the multipliers from row 1 on, as dgttrs's dl; the loop's
    # multiplier of row 0 is +0.0
    return unstacked(fac, np.concatenate([[0.0], fac.mult]))


class TestFactorSolve:
    def test_matches_dense_solver(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 9, 40):
            lower = -rng.uniform(0, 1, n)
            upper = -rng.uniform(0, 1, n)
            lower[0] = upper[-1] = 0.0
            diag = np.abs(lower) + np.abs(upper) + rng.uniform(0.5, 2, n)
            rhs = rng.normal(size=n)
            x = factor_tridiag(lower, diag, upper).solve(rhs)
            expected = np.linalg.solve(dense(lower, diag, upper), rhs)
            np.testing.assert_allclose(x, expected, rtol=0, atol=1e-12)

    # the multi-column solve must give the bits of per-column solves; the
    # identity basis of size 48 is what assemble_Q pushes through each
    # step, and per-column factors (2-D bands, one matrix per column) are
    # what a batched evolution step holds
    @pytest.mark.parametrize("n, ncols, identity, per_column", [
        (1, 3, False, False), (2, 4, False, False), (12, 5, False, False),
        (48, 48, True, False), (1, 3, False, True), (12, 5, False, True),
    ])
    def test_two_dimensional_rhs(self, n, ncols, identity, per_column):
        rng = np.random.default_rng(8)
        shape = (n, ncols) if per_column else (n,)
        lower = -rng.uniform(0, 1, shape)
        upper = -rng.uniform(0, 1, shape)
        lower[0] = upper[-1] = 0.0
        diag = np.abs(lower) + np.abs(upper) + 1.0
        fac = factor_tridiag(lower, diag, upper)
        rhs = np.eye(n) if identity else rng.normal(size=(n, ncols))
        out = fac.solve(rhs)
        for j in range(ncols):
            fac_j = factor_tridiag(lower[:, j], diag[:, j], upper[:, j]) if per_column else fac
            np.testing.assert_allclose(out[:, j], fac_j.solve(rhs[:, j]), rtol=0, atol=0)
        with pytest.raises(ValueError):
            fac.solve(rhs[:, :, None])
        if per_column:
            with pytest.raises(ValueError, match="shape"):
                fac.solve(rhs[:, 0])

    # a batched assemble_Q pushes an (nx, nx, k) basis through (nx, k)
    # factors: every (row, column, matrix) entry must keep the bits of the
    # 1-D solve of its column against its own matrix
    @pytest.mark.parametrize("n, m, k", [(1, 2, 3), (5, 5, 6), (12, 4, 2)])
    def test_three_dimensional_rhs(self, n, m, k):
        rng = np.random.default_rng(9)
        lower = -rng.uniform(0, 1, (n, k))
        upper = -rng.uniform(0, 1, (n, k))
        lower[0] = upper[-1] = 0.0
        diag = np.abs(lower) + np.abs(upper) + 1.0
        fac = factor_tridiag(lower, diag, upper)
        rhs = rng.normal(size=(n, m, k))
        out = fac.solve(rhs)
        for j in range(k):
            fac_j = factor_tridiag(lower[:, j], diag[:, j], upper[:, j])
            for c in range(m):
                np.testing.assert_array_equal(out[:, c, j], fac_j.solve(rhs[:, c, j]))
        for bad in (rhs[:, :, :-1], rhs[:-1], rhs[..., None]):
            with pytest.raises(ValueError, match="shape"):
                fac.solve(bad)
        with pytest.raises(ValueError, match="shape"):
            factor_tridiag(lower[:, 0], diag[:, 0], upper[:, 0]).solve(rhs)

    # the LAPACK solve must keep every bit of the Thomas loop, the sign of
    # every zero included, for each right-hand side shape and layout, and
    # leave the caller's right-hand side as it was; n = 1 and 2 are padded
    # to the 3 rows dgttrs takes.  Only a -0.0 in the right-hand side can
    # make the loop give -0.0, and the zero couplings may return +0.0
    # there, so that case compares values
    @pytest.mark.parametrize("n", [1, 2, 3, 48])
    @pytest.mark.parametrize("factors, rhs", [
        ((), ()), ((), (5,)), ((4,), (4,)), ((4,), (5, 4)),
    ])
    @pytest.mark.parametrize("layout", ["C", "F", "strided", "int"])
    def test_bits_of_the_thomas_loop(self, n, factors, rhs, layout):
        rng = np.random.default_rng(n)
        lower = -rng.uniform(0, 1, (n, *factors))
        upper = -rng.uniform(0, 1, (n, *factors))
        diag = np.abs(lower) + np.abs(upper) + rng.uniform(0.1, 1, (n, *factors))
        b = rng.normal(size=(n, *rhs))
        b.flat[::3] = 0.0
        b = laid_out(b, layout)
        fac = factor_tridiag(lower, diag, upper)
        kept = b.copy()
        out = fac.solve(b)
        assert out.shape == b.shape
        np.testing.assert_array_equal(bits(out), bits(thomas_solve(lower, diag, upper, b.astype(float))))
        np.testing.assert_array_equal(b, kept)
        if layout != "int":
            b.flat[::3] = -0.0
            kept = b.copy()
            np.testing.assert_array_equal(fac.solve(b), thomas_solve(lower, diag, upper, b))
            np.testing.assert_array_equal(bits(b), bits(kept))

    # one unpadded matrix hands a float rhs to dgttrs as it is, whatever
    # its order, and dgttrs solves a copy it makes, so a 2-D solution comes
    # back in Fortran order; a stack of matrices, or a system padded to
    # MIN_ROWS, is staged in a Fortran buffer that dgttrs solves in place
    @pytest.mark.parametrize("shape, rhs, layout", [
        ((3,), (3,), "C"), ((48,), (48,), "C"), ((48,), (48, 5), "C"), ((48,), (48, 5), "F"),
        ((2,), (2,), "C"), ((2,), (2, 5), "C"), ((48, 4), (48, 4), "C"), ((48, 4), (48, 5, 4), "C"),
    ])
    def test_one_unpadded_matrix_hands_rhs_to_dgttrs(self, shape, rhs, layout, monkeypatch):
        real, calls = tridiag.dgttrs, []

        def standin(*args, **kwargs):
            calls.append((args[5], kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(tridiag, "dgttrs", standin)
        rng = np.random.default_rng(12)
        lower, upper = -rng.uniform(0, 1, shape), -rng.uniform(0, 1, shape)
        fac = factor_tridiag(lower, np.abs(lower) + np.abs(upper) + 1.0, upper)
        b = laid_out(rng.normal(size=rhs), layout)
        out = fac.solve(b)
        (passed, kwargs), = calls
        direct = len(shape) == 1 and shape[0] >= tridiag.MIN_ROWS
        assert (passed is b) == direct
        if direct:
            assert kwargs == {} and (out.ndim == 1 or out.flags.f_contiguous)
        else:
            assert kwargs == {"overwrite_b": 1} and passed.flags.f_contiguous
            assert not np.shares_memory(passed, b)

    # the factors are the Thomas loop's, on Python floats, and the solves
    # keep its bits; bands with no coupling (every draw at n = 1, and zero
    # draws of either sign) keep the loop's pivots, unstacked, and its
    # solve; the bands given are never written to
    @settings(max_examples=300, deadline=None)
    @given(robin_systems())
    def test_factor_has_the_bits_of_the_thomas_loop(self, system):
        lower, diag, upper, rhs = system
        bands = [band.copy() for band in (lower, diag, upper)]
        fac = factor_tridiag(lower, diag, upper)
        for band, kept in zip((lower, diag, upper), bands):
            np.testing.assert_array_equal(bits(band), bits(kept))
        mult, piv = thomas_factor(lower, diag, upper)
        uncoupled = not lower[1:].any() and not upper[:-1].any()
        assert (fac.mult is None) == uncoupled
        if uncoupled:
            np.testing.assert_array_equal(bits(fac.piv), bits(piv))
        else:
            np.testing.assert_array_equal(bits(multipliers(fac)), bits(mult))
            np.testing.assert_array_equal(bits(unstacked(fac, fac.piv)), bits(piv))
        np.testing.assert_array_equal(bits(fac.solve(rhs)), bits(thomas_solve(lower, diag, upper, rhs)))

    # bands with no coupling skip LAPACK: each solve divides by the
    # diagonal, with the bits of the loop for every right-hand side shape;
    # -0.0 couplings count as zero and lower[0], upper[-1] are ignored.  A
    # nan, inf or nonpositive diagonal entry raises what the banded path
    # raises
    @pytest.mark.parametrize("n", [1, 2, 3, 48])
    @pytest.mark.parametrize("factors, rhs", [
        ((), ()), ((), (5,)), ((4,), (4,)), ((4,), (5, 4)),
    ])
    def test_uncoupled_bands_divide(self, n, factors, rhs, monkeypatch):
        rng = np.random.default_rng(n)
        shape = (n, *factors)
        diag = rng.uniform(0.1, 2, shape)
        zero, minus_zero = np.zeros(shape), np.full(shape, -0.0)
        first, last = np.zeros(shape), np.zeros(shape)
        first[0] = last[-1] = -1.0
        b = rng.normal(size=(n, *rhs))
        b.flat[::3] = 0.0
        for lower, upper in ((zero, zero), (minus_zero, minus_zero), (zero, minus_zero), (first, last)):
            fac = factor_tridiag(lower, diag, upper)
            assert fac.mult is None and fac.shape == shape
            assert not np.shares_memory(fac.piv, diag)
            np.testing.assert_array_equal(bits(fac.piv), bits(diag))
            out = fac.solve(b)
            assert out.shape == b.shape
            np.testing.assert_array_equal(bits(out), bits(thomas_solve(lower, diag, upper, b)))
        for bad in (np.nan, np.inf, 0.0, -0.0, -1.0):
            diag_bad = diag.copy()
            diag_bad[n // 2] = bad
            with monkeypatch.context() as patch:
                patch.setattr(tridiag, "_uncoupled", lambda *bands: False)
                with pytest.raises(SingularTridiagError) as banded:
                    factor_tridiag(zero, diag_bad, zero)
            with pytest.raises(SingularTridiagError, match=f"^{re.escape(str(banded.value))}$"):
                factor_tridiag(zero, diag_bad, zero)

    # one entry, in a (n,) band or in a column j > 0 of an (n, k) one,
    # decides the path: a NaN, an infinity, a zero of either sign or a
    # negative entry on the diagonal raises what the banded path raises; a
    # subnormal one, or a -0.0 coupling, divides; a subnormal coupling is
    # a coupling, and goes to the loop
    @pytest.mark.parametrize("shape, column", [((5,), ()), ((5, 3), (1,)), ((5, 3), (2,))])
    @pytest.mark.parametrize("last", [False, True])
    @pytest.mark.parametrize("band, value", [
        *(("diag", value) for value in (np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0, 5e-324)),
        *((band, value) for band in ("lower", "upper") for value in (-0.0, 5e-324)),
    ])
    def test_one_entry_anywhere_decides_the_path(self, shape, column, last, band, value, monkeypatch):
        n = shape[0]
        bands = {"lower": np.zeros(shape), "diag": np.linspace(0.5, 2.0, np.prod(shape)).reshape(shape),
                 "upper": np.zeros(shape)}
        rows = {"lower": (1, n - 1), "diag": (0, n - 1), "upper": (0, n - 2)}[band]
        bands[band][(rows[last], *column)] = value
        lower, diag, upper = bands.values()
        if band == "diag" and not 0 < value < np.inf:
            with monkeypatch.context() as patch:
                patch.setattr(tridiag, "_uncoupled", lambda *bands: False)
                with pytest.raises(SingularTridiagError) as banded:
                    factor_tridiag(lower, diag, upper)
            with pytest.raises(SingularTridiagError, match=f"^{re.escape(str(banded.value))}$"):
                factor_tridiag(lower, diag, upper)
            return
        fac = factor_tridiag(lower, diag, upper)
        divides = band == "diag" or value == 0.0
        assert (fac.mult is None) == divides
        mult, piv = thomas_factor(lower, diag, upper)
        np.testing.assert_array_equal(bits(fac.piv if divides else unstacked(fac, fac.piv)), bits(piv))
        if not divides:
            np.testing.assert_array_equal(bits(multipliers(fac)), bits(mult))
        # a zero where the entry sits: x / 5e-324 overflows, and the loop
        # would spread the infinity's NaN where the division does not
        rhs = np.linspace(-1.0, 1.0, np.prod(shape)).reshape(shape) + 0.25
        rhs[(rows[last], *column)] = 0.0
        np.testing.assert_array_equal(bits(fac.solve(rhs)), bits(thomas_solve(lower, diag, upper, rhs)))

    # bands on which a pivoting LU would interchange rows keep the loop's
    # bits: an M-matrix with |lower[1]| > diag[0], whose interchange gives
    # a negative pivot, and bands whose two interchanges would leave every
    # pivot positive
    @pytest.mark.parametrize("lower, diag, upper", [
        ([0.0, -5.0, -0.1], [1.0, 1.0, 1.0], [-0.1, -1.0, 0.0]),
        ([0.0, 3.0, 3.0, 3.0], [2.0, 3.0, 3.0, 2.0], [0.0, 0.0, -2.0, 0.0]),
    ])
    def test_bands_a_pivoting_lu_would_interchange(self, lower, diag, upper):
        lower, diag, upper = map(np.array, (lower, diag, upper))
        fac = factor_tridiag(lower, diag, upper)
        mult, piv = thomas_factor(lower, diag, upper)
        np.testing.assert_array_equal(bits(multipliers(fac)), bits(mult))
        np.testing.assert_array_equal(bits(unstacked(fac, fac.piv)), bits(piv))
        rhs = np.arange(float(diag.size))
        np.testing.assert_array_equal(bits(fac.solve(rhs)), bits(thomas_solve(lower, diag, upper, rhs)))

    # Python's division by zero raises, so the loop gives numpy's quotient
    # there.  A bad diagonal entry, at a matrix's first row, below a row
    # it does not couple to or at its last row, is followed by a coupling
    # of either sign or by a zero of either sign; the inf or nan it leads
    # to stays in its own matrix, and the error names the pivot that
    # argmin finds among the pivots of numpy's loop
    @pytest.mark.parametrize("bad", [0.0, -0.0, np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("shape", [(5,), (5, 3)])
    def test_bad_pivot_is_named_from_numpy_quotients(self, bad, shape):
        rng = np.random.default_rng(11)
        for row in (0, 2, 4):
            for below in (-1.0, 1.0, 0.0, -0.0):
                lower = -rng.uniform(0.5, 1, shape)
                upper = -rng.uniform(0.5, 1, shape)
                diag = np.abs(lower) + np.abs(upper) + 0.5
                lower[row] = 0.0
                diag[(row,) + (0,) * (len(shape) - 1)] = bad
                if row + 1 < shape[0]:
                    lower[row + 1] = below
                with np.errstate(all="ignore"):
                    _, piv = thomas_factor(lower, diag, upper)
                if bad == 0.0 and below and row + 1 < shape[0]:
                    assert not np.isfinite(piv[row + 1]).all()
                worst = np.unravel_index(np.argmin(np.where(np.isfinite(piv), piv, -np.inf)), piv.shape)
                message = f"nonpositive pivot {float(piv[worst])!r} at row {worst[0]}"
                with pytest.raises(SingularTridiagError, match=f"^{re.escape(message)}$"):
                    factor_tridiag(lower, diag, upper)

    # the zero multiplier of the second matrix's first row (mult[1], as
    # mult starts at row 1) is +0.0, as in the loop, below a negative
    # diagonal entry of the matrix above it in the stack
    def test_first_row_multiplier_is_plus_zero(self):
        lower = np.array([[0.0, 0.0], [1.0, 1.0]])
        diag = np.array([[1.0, 1.0], [-1.0, -1.0]])
        upper = np.array([[-3.0, -3.0], [0.0, 0.0]])
        fac = factor_tridiag(lower, diag, upper)
        np.testing.assert_array_equal(bits(fac.mult), bits([1.0, 0.0, 1.0]))
        np.testing.assert_array_equal(fac.piv, [1.0, 2.0, 1.0, 2.0])

    # the second matrix's pivot of row 1 is 1 - (-0.5)(-8) = -3; the error
    # names it as the loop does
    def test_batched_lost_pivot_names_its_row(self):
        lower = np.array([[0.0, 0.0], [-0.5, -0.5], [-0.5, -0.5]])
        upper = np.array([[-0.5, -8.0], [-0.5, -0.5], [0.0, 0.0]])
        with pytest.raises(SingularTridiagError, match=r"^nonpositive pivot -3\.0 at row 1$"):
            factor_tridiag(lower, np.ones((3, 2)), upper)

    # on the direct and the staged path alike
    @pytest.mark.parametrize("bands, rhs", [(COUPLED, (4,)), (np.stack([COUPLED] * 2, axis=-1), (4, 2))])
    def test_lapack_error_is_raised(self, bands, rhs, monkeypatch):
        def rejecting(*args, **kwargs):
            return args[5], -6

        monkeypatch.setattr(tridiag, "dgttrs", rejecting)
        fac = factor_tridiag(*bands)
        with pytest.raises(RuntimeError, match="argument 6"):
            fac.solve(np.ones(rhs))

    def test_reusable_factorization(self):
        fac = factor_tridiag(np.zeros(3), np.full(3, 2.0), np.zeros(3))
        assert isinstance(fac, FactoredTridiag)
        np.testing.assert_array_equal(fac.solve(np.array([2.0, 4.0, 6.0])), [1.0, 2.0, 3.0])

    def test_singular_raises(self):
        with pytest.raises(SingularTridiagError, match="pivot"):
            factor_tridiag(np.zeros(2), np.array([1.0, 0.0]), np.zeros(2))
        # dominance lost during elimination: pivot of row 1 is 1 - 4 < 0
        with pytest.raises(SingularTridiagError):
            factor_tridiag(
                np.array([0.0, -2.0]), np.array([1.0, 1.0]), np.array([-2.0, 0.0])
            )
        with pytest.raises(SingularTridiagError, match=r"^nonpositive pivot nan at row 1$"):
            factor_tridiag(np.zeros(2), np.array([1.0, np.nan]), np.zeros(2))
        with pytest.raises(SingularTridiagError, match=r"^nonpositive pivot inf at row 1$"):
            factor_tridiag(np.zeros(2), np.array([1.0, np.inf]), np.zeros(2))

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(9)
        n = 7
        lower, diag, upper = rng.normal(size=(3, n))
        v = rng.normal(size=n)
        np.testing.assert_allclose(
            tridiag_matvec(lower, diag, upper, v),
            dense(lower, diag, upper) @ v,
            rtol=1e-14, atol=1e-14,
        )


class TestExactNonnegativity:
    @settings(max_examples=300, deadline=None)
    @given(m_systems())
    def test_nonnegative_rhs_gives_nonnegative_solution(self, system):
        lower, diag, upper, rhs = system
        x = factor_tridiag(lower, diag, upper).solve(rhs)
        assert np.all(x >= 0.0), f"negative entry {x.min()!r}"

    @settings(max_examples=100, deadline=None)
    @given(m_systems())
    def test_solution_solves_the_system(self, system):
        lower, diag, upper, rhs = system
        x = factor_tridiag(lower, diag, upper).solve(rhs)
        back = tridiag_matvec(lower, diag, upper, x)
        scale = max(1.0, float(np.max(np.abs(rhs))), float(np.max(np.abs(x))))
        np.testing.assert_allclose(back, rhs, rtol=0, atol=5e-9 * scale)


def scipy_imports(source: str) -> list[str]:
    """Every module name of scipy that source imports or looks up,
    statically or by import_module, __import__, find_spec or
    spec_from_file_location with a literal name."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
        elif isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called in ("import_module", "__import__", "find_spec", "spec_from_file_location"):
                names.append(str(node.args[0].value))
    return [name for name in names if name == "scipy" or name.startswith("scipy.")]


def test_only_tridiag_imports_scipy():
    # scipy sits behind the one LAPACK routine of the tridiagonal kernels
    package = Path(tridiag.__file__).parent
    importers = [path.name for path in sorted(package.glob("*.py")) if scipy_imports(path.read_text())]
    assert importers == ["tridiag.py"]


@pytest.mark.parametrize("line", [
    "import scipy", "import scipy.linalg as sl", "from scipy import linalg",
    "from scipy.linalg import lu_solve", "importlib.import_module('scipy.linalg')",
    "__import__('scipy')", "importlib.util.find_spec('scipy')", "find_spec('scipy.linalg')",
    "importlib.util.spec_from_file_location('scipy.linalg._flapack', path)",
    "spec_from_file_location('scipy', root / '__init__.py')",
])
def test_scipy_imports_sees_every_form(line):
    assert scipy_imports(line)
    assert not scipy_imports(line.replace("scipy", "scipyx"))


# A fresh interpreter with src on its path.  Its first argument is "" for
# the load of _flapack from its file, or a directory that the loader takes
# for scipy's, so that it finds no loadable _flapack there and falls back
# to scipy.linalg.lapack; the probe's own code follows this prelude.
PRELUDE = """
import importlib.util, sys
root = sys.argv[1]
find_spec = importlib.util.find_spec
if root:
    importlib.util.find_spec = lambda name, package=None: (
        importlib.util.spec_from_file_location(name, root + "/__init__.py", submodule_search_locations=[root])
        if name == "scipy" else find_spec(name, package))
import agequil
from agequil import tridiag
importlib.util.find_spec = find_spec
"""
SRC = Path(tridiag.__file__).resolve().parent.parent


def probe(code: str, root: str = "", *args: str, before: str = "") -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", before + PRELUDE + code, root, *args], env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def fallback_root(tmp_path: Path, kind: str) -> str:
    # "missing": no _flapack file; "broken": one that is no shared library
    if kind == "broken":
        (tmp_path / "linalg").mkdir()
        (tmp_path / "linalg" / f"_flapack{EXTENSION_SUFFIXES[0]}").write_bytes(b"")
    return str(tmp_path)


def test_import_leaves_scipy_linalg_and_f2py_unloaded():
    # scipy.linalg's __init__ loads numpy.f2py and takes longer than most runs
    proc = probe("print(sorted(m for m in ('scipy.linalg', 'scipy.linalg.lapack', 'numpy.f2py') if m in sys.modules))")
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("kind", ["missing", "broken"])
def test_routines_fall_back_to_scipy_linalg_lapack(kind, tmp_path):
    code = (
        "fell_back = 'scipy.linalg' in sys.modules\n"
        "from scipy.linalg import lapack\n"
        "print(fell_back, tridiag.dgttrs is lapack.dgttrs)\n"
    )
    assert probe(code, fallback_root(tmp_path, kind)).stdout.split() == ["True", "True"]
    # loaded from the file, the routine is the object scipy.linalg exports
    assert probe(code).stdout.split() == ["False", "True"]


# the outputs and stdout of a run on either path; stderr says which path
# it took and how often it called dgttrs, so a run that never reaches
# LAPACK shows
CLI = """
fell_back = 'scipy.linalg' in sys.modules
from agequil import cli
real, calls = tridiag.dgttrs, []
tridiag.dgttrs = lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs)
code = cli.main(sys.argv[2:])
print(fell_back, len(calls), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("argv", [
    ["trace", "--model", "logistic_diffusion.cfg", "--max-points", "3"],
    ["fixedpoint", "--model", "logistic_diffusion.cfg", "--nx", "8", "--na", "12", "--tau1", "1"],
], ids=["trace", "fixedpoint"])
def test_cli_bytes_are_the_same_on_both_paths(argv, tmp_path):
    models = SRC.parent / "models"
    argv = [str(models / arg) if arg.endswith(".cfg") else arg for arg in argv]
    written = []
    for side, root in (("file", ""), ("fallback", fallback_root(tmp_path, "missing"))):
        out = tmp_path / side
        proc = probe(CLI, root, *argv, "--out", str(out / "out.csv"))
        fell_back, calls = proc.stderr.split()
        assert fell_back == str(bool(root)) and int(calls) > 0
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        written.append((files, proc.stdout.replace(str(out), "<out>")))
    assert written[0] == written[1]


# the factors of a coupled 40-row system: dgttrs of scipy.linalg.lapack
# works and gives tridiag's bits, whichever of the two is imported first,
# and scipy.linalg holds the _flapack that sys.modules does
COEXIST = """
import numpy as np
import scipy.linalg
from scipy.linalg import lapack
assert scipy.linalg._flapack is sys.modules["scipy.linalg._flapack"]
rng = np.random.default_rng(40)
fac = tridiag.factor_tridiag(-rng.uniform(0, 1, 40), rng.uniform(2.5, 3, 40), -rng.uniform(0, 1, 40))
b = rng.uniform(0, 1, (40, 2))
def run(routines):
    x, info = routines.dgttrs(fac.mult, fac.piv, fac.upper, *tridiag._no_pivoting(40)[::-1], b)
    assert info == 0
    return x.tobytes()
print(run(tridiag) == run(lapack))
"""


@pytest.mark.parametrize("before", ["", "import scipy.linalg\n"])
def test_scipy_linalg_coexists_with_the_loaded_routines(before):
    assert probe(COEXIST, before=before).stdout.strip() == "True"
