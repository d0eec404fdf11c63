import numpy as np
import pytest

from agequil.discretize import (
    AssemblyError,
    SpatialMesh,
    assemble,
    gradient_of_slice,
)
from agequil.expr import Num, Var, parse_expr
from agequil.model import ModelSpec

from oracles import dense_eigenvalues, operator_dense, operator_matvec, smallest_eigenvalue


def make_model(D="1", g="0", h="0", mu="1", nu0=0.0, pure_decay=False) -> ModelSpec:
    return ModelSpec(
        a_max=1.0,
        D=parse_expr(D), g=parse_expr(g), h=parse_expr(h), mu=parse_expr(mu),
        b=Num(1.0), nu0=nu0, pure_decay=pure_decay,
    )


class TestMesh:
    def test_nodes(self):
        mesh = SpatialMesh(nx=4)
        assert mesh.dx == 0.25
        np.testing.assert_allclose(mesh.nodes, [0.25, 0.5, 0.75, 1.0])
        np.testing.assert_allclose(mesh.nodes_with_origin, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            SpatialMesh(nx=1)

    def test_gradient_of_linear_slice_is_exact(self):
        mesh = SpatialMesh(nx=9)
        u = 3.0 * mesh.nodes + 1.0
        np.testing.assert_allclose(gradient_of_slice(u, mesh.dx), np.full(9, 3.0), atol=1e-13)

    @pytest.mark.parametrize("shape", [(2,), (9,), (9, 4)])
    def test_gradient_has_the_bits_of_numpy(self, shape):
        mesh = SpatialMesh(nx=shape[0])
        u = np.random.default_rng(3).uniform(0, 2, shape)
        assert gradient_of_slice(u, mesh.dx).tobytes() == np.gradient(u, mesh.dx, axis=0).tobytes()


class TestAssemble:
    def test_constant_diffusion_interior_stencil(self):
        mesh = SpatialMesh(nx=8)
        mat = assemble(make_model(), mesh, a=0.0)
        inv_dx2 = 1.0 / mesh.dx**2
        # interior rows are the classical second difference plus mu = 1
        np.testing.assert_allclose(mat.diag[:-1], 2.0 * inv_dx2 + 1.0)
        np.testing.assert_allclose(mat.lower[1:-1], -inv_dx2)
        np.testing.assert_allclose(mat.upper[:-2], -inv_dx2)

    def test_neumann_row_reflects_east_coefficient(self):
        mesh = SpatialMesh(nx=8)
        mat = assemble(make_model(nu0=0.0), mesh, a=0.0)
        inv_dx2 = 1.0 / mesh.dx**2
        # ghost elimination folds the east coefficient onto the west one
        assert mat.lower[-1] == pytest.approx(-2.0 * inv_dx2)
        assert mat.diag[-1] == pytest.approx(2.0 * inv_dx2 + 1.0)

    def test_robin_row_adds_positive_mass(self):
        mesh = SpatialMesh(nx=8)
        mat0 = assemble(make_model(nu0=0.0), mesh, a=0.0)
        mat1 = assemble(make_model(nu0=2.0), mesh, a=0.0)
        extra = mat1.diag[-1] - mat0.diag[-1]
        assert extra == pytest.approx(2.0 * mesh.dx * 2.0 / mesh.dx**2)
        np.testing.assert_array_equal(mat0.lower, mat1.lower)

    def test_variable_diffusion_half_nodes(self):
        mesh = SpatialMesh(nx=4)
        mat = assemble(make_model(D="1 + x"), mesh, a=0.0)
        xs = mesh.nodes_with_origin
        d = 1.0 + xs
        d_west = 0.5 * (d[:-1] + d[1:])
        inv_dx2 = 1.0 / mesh.dx**2
        np.testing.assert_allclose(mat.lower[1:-1], -d_west[1:-1] * inv_dx2)
        # the east value past x = 1 is clamped to D(a, 1); with nu0 = 0 the
        # ghost elimination folds it onto the west coefficient of the last row
        assert mat.lower[-1] == pytest.approx(-(d_west[-1] + d[-1]) * inv_dx2)
        expected_last_diag = (d_west[-1] + d[-1]) * inv_dx2 + 1.0
        assert mat.diag[-1] == pytest.approx(expected_last_diag)

    def test_upwind_positive_drift(self):
        mesh = SpatialMesh(nx=6)
        plain = assemble(make_model(), mesh, a=0.0)
        mat = assemble(make_model(g="2"), mesh, a=0.0)
        np.testing.assert_allclose(mat.diag - plain.diag, 2.0 / mesh.dx)
        np.testing.assert_allclose(mat.lower[1:] - plain.lower[1:], -2.0 / mesh.dx)
        np.testing.assert_array_equal(mat.upper[:-1], plain.upper[:-1])

    def test_upwind_negative_drift(self):
        mesh = SpatialMesh(nx=6)
        plain = assemble(make_model(), mesh, a=0.0)
        mat = assemble(make_model(g="0 - 3"), mesh, a=0.0)
        np.testing.assert_allclose(mat.diag[:-1] - plain.diag[:-1], 3.0 / mesh.dx)
        np.testing.assert_allclose(mat.upper[:-1] - plain.upper[:-1], -3.0 / mesh.dx)
        np.testing.assert_array_equal(mat.lower[1:-1], plain.lower[1:-1])
        # at the Robin row the outflow coefficient folds onto lower
        assert mat.lower[-1] == pytest.approx(plain.lower[-1] - 3.0 / mesh.dx)

    def test_density_dependence_enters_through_slice(self):
        mesh = SpatialMesh(nx=5)
        model = make_model(h="u", mu="1 + u")
        lin = assemble(model, mesh, a=0.0)
        zeros = assemble(model, mesh, a=0.0, u_slice=np.zeros(5))
        np.testing.assert_array_equal(lin.diag, zeros.diag)
        u = np.full(5, 2.0)
        mat = assemble(model, mesh, a=0.0, u_slice=u)
        np.testing.assert_allclose(mat.diag - lin.diag, 4.0)

    def test_absent_slice_is_the_zero_slice_bit_for_bit(self):
        # the gradient of zeros is +0.0, so every coefficient that reads u
        # or p sees the same bits either way
        mesh = SpatialMesh(nx=5)
        model = make_model(D="1 + x", g="u - p", h="p + u", mu="1 + u^2", nu0=0.5)
        lin = assemble(model, mesh, a=0.5)
        zeros = assemble(model, mesh, a=0.5, u_slice=np.zeros(5))
        for band in ("lower", "diag", "upper"):
            assert getattr(lin, band).tobytes() == getattr(zeros, band).tobytes()

    def test_pure_decay_is_diagonal(self):
        mesh = SpatialMesh(nx=5)
        mat = assemble(make_model(mu="1 + a", pure_decay=True), mesh, a=0.5)
        np.testing.assert_array_equal(mat.lower, np.zeros(5))
        np.testing.assert_array_equal(mat.upper, np.zeros(5))
        np.testing.assert_allclose(mat.diag, 1.5)

    def test_age_enters_coefficients(self):
        mesh = SpatialMesh(nx=4)
        mat = assemble(make_model(mu="1 + a"), mesh, a=0.25)
        base = assemble(make_model(), mesh, a=0.25)
        np.testing.assert_allclose(mat.diag - base.diag, 0.25)

    def test_batched_slice_matches_single_columns(self):
        # (nx, k) bands must hold, bit for bit, the k single-column matrices;
        # the drift changes sign across nodes and columns, and nu0 > 0
        # exercises the Robin row
        mesh = SpatialMesh(nx=7)
        model = make_model(D="1 + x", g="p - 2 * u * exp(-u)", h="u^2", mu="1 + u * exp(a)", nu0=0.7)
        u = np.random.default_rng(12).uniform(0, 2, (mesh.nx, 4))
        g = np.gradient(u, mesh.dx, axis=0) - 2 * u * np.exp(-u)
        assert np.any(g > 0) and np.any(g < 0)
        mat = assemble(model, mesh, a=0.3, u_slice=u)
        for j in range(u.shape[1]):
            one = assemble(model, mesh, a=0.3, u_slice=u[:, j].copy())
            for band in ("lower", "diag", "upper"):
                assert getattr(mat, band)[:, j].tobytes() == getattr(one, band).tobytes()

    def test_bad_slice_shape(self):
        mesh = SpatialMesh(nx=4)
        with pytest.raises(AssemblyError, match="shape"):
            assemble(make_model(h="u"), mesh, a=0.0, u_slice=np.zeros(3))

    # D dips to -2.9 at x = 1/16 between samples where validate_model sees
    # it positive, so the diffusion flux there couples with the wrong sign
    SIGN_BREAKING_D = "1 + 1000 * x * (x - 0.125)"

    def test_broken_sign_pattern_raises(self):
        model = make_model(D=self.SIGN_BREAKING_D, mu="1 + u")
        with pytest.raises(AssemblyError, match="M-matrix sign pattern violated near row 1"):
            assemble(model, SpatialMesh(nx=16), a=0.0)

    def test_pure_decay_ignores_the_diffusion_coefficient(self):
        model = make_model(D=self.SIGN_BREAKING_D, mu="1 + u", pure_decay=True)
        mat = assemble(model, SpatialMesh(nx=16), a=0.0)
        assert not mat.lower.any() and not mat.upper.any()

    def test_matvec_matches_dense(self):
        mesh = SpatialMesh(nx=7)
        mat = assemble(make_model(D="1 + x", g="1 + u", nu0=0.3), mesh, a=0.1,
                       u_slice=np.linspace(0, 1, 7))
        v = np.sin(np.linspace(0, 2, 7))
        np.testing.assert_allclose(operator_matvec(mat, v), operator_dense(mat) @ v, atol=1e-12)


class TestSpectrum:
    def test_dirichlet_dirichlet_ground_mode(self):
        # a huge Robin coefficient pins the east end, so the smallest
        # eigenvalue of -w'' approaches pi^2
        mesh = SpatialMesh(nx=100)
        mat = assemble(make_model(mu="0 + 0 * a", nu0=1e6), mesh, a=0.0)
        lam = smallest_eigenvalue(mat)
        assert lam == pytest.approx(np.pi**2, rel=1e-3)

    def test_dirichlet_neumann_ground_mode(self):
        mesh = SpatialMesh(nx=100)
        mat = assemble(make_model(mu="0 + 0 * a", nu0=0.0), mesh, a=0.0)
        lam = smallest_eigenvalue(mat)
        assert lam == pytest.approx((np.pi / 2.0) ** 2, rel=1e-3)

    def test_second_order_convergence(self):
        target = (np.pi / 2.0) ** 2
        errors = []
        for nx in (40, 80):
            mat = assemble(make_model(mu="0 + 0 * a", nu0=0.0), SpatialMesh(nx=nx), a=0.0)
            errors.append(abs(smallest_eigenvalue(mat) - target))
        assert errors[0] / errors[1] >= 2.0**1.8

    def test_power_iteration_matches_dense(self):
        mesh = SpatialMesh(nx=30)
        mat = assemble(make_model(D="1 + x", nu0=0.7), mesh, a=0.0)
        lam = smallest_eigenvalue(mat)
        eigs = dense_eigenvalues(operator_dense(mat))
        smallest = float(np.min(eigs.real))
        assert lam == pytest.approx(smallest, rel=1e-9)
