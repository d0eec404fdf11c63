import dataclasses

import numpy as np
import pytest

from agequil import discretize
from agequil.discretize import (
    AssemblyError,
    SpatialMesh,
    assemble,
    gradient_of_slice,
)
from agequil.evolution import AgeGrid, build_evolution
from agequil.expr import parse_expr
from agequil.model import ModelSpec

from conftest import load_problem
from oracles import assemble_general, dense_eigenvalues, operator_dense, operator_matvec, smallest_eigenvalue


def make_model(D="1", g="0", h="0", mu="1", nu0=0.0, pure_decay=False, b="1") -> ModelSpec:
    return ModelSpec(
        a_max=1.0,
        D=parse_expr(D), g=parse_expr(g), h=parse_expr(h), mu=parse_expr(mu),
        b=parse_expr(b), nu0=nu0, pure_decay=pure_decay,
    )


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


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
        lower, diag, upper = assemble(make_model(), mesh, 0.0, np.zeros(8))
        inv_dx2 = 1.0 / mesh.dx**2
        # interior rows are the classical second difference plus mu = 1
        np.testing.assert_allclose(diag[:-1], 2.0 * inv_dx2 + 1.0)
        np.testing.assert_allclose(lower[1:-1], -inv_dx2)
        np.testing.assert_allclose(upper[:-2], -inv_dx2)

    def test_neumann_row_reflects_east_coefficient(self):
        mesh = SpatialMesh(nx=8)
        lower, diag, _ = assemble(make_model(nu0=0.0), mesh, 0.0, np.zeros(8))
        inv_dx2 = 1.0 / mesh.dx**2
        # ghost elimination folds the east coefficient onto the west one
        assert lower[-1] == pytest.approx(-2.0 * inv_dx2)
        assert diag[-1] == pytest.approx(2.0 * inv_dx2 + 1.0)

    def test_robin_row_adds_positive_mass(self):
        mesh = SpatialMesh(nx=8)
        lower0, diag0, _ = assemble(make_model(nu0=0.0), mesh, 0.0, np.zeros(8))
        lower1, diag1, _ = assemble(make_model(nu0=2.0), mesh, 0.0, np.zeros(8))
        extra = diag1[-1] - diag0[-1]
        assert extra == pytest.approx(2.0 * mesh.dx * 2.0 / mesh.dx**2)
        np.testing.assert_array_equal(lower0, lower1)

    def test_variable_diffusion_half_nodes(self):
        mesh = SpatialMesh(nx=4)
        lower, diag, _ = assemble(make_model(D="1 + x"), mesh, 0.0, np.zeros(4))
        xs = mesh.nodes_with_origin
        d = 1.0 + xs
        d_west = 0.5 * (d[:-1] + d[1:])
        inv_dx2 = 1.0 / mesh.dx**2
        np.testing.assert_allclose(lower[1:-1], -d_west[1:-1] * inv_dx2)
        # the east value past x = 1 is clamped to D(a, 1); with nu0 = 0 the
        # ghost elimination folds it onto the west coefficient of the last row
        assert lower[-1] == pytest.approx(-(d_west[-1] + d[-1]) * inv_dx2)
        expected_last_diag = (d_west[-1] + d[-1]) * inv_dx2 + 1.0
        assert diag[-1] == pytest.approx(expected_last_diag)

    def test_upwind_positive_drift(self):
        mesh = SpatialMesh(nx=6)
        plain = assemble(make_model(), mesh, 0.0, np.zeros(6))
        lower, diag, upper = assemble(make_model(g="2"), mesh, 0.0, np.zeros(6)) - plain
        np.testing.assert_allclose(diag, 2.0 / mesh.dx)
        np.testing.assert_allclose(lower[1:], -2.0 / mesh.dx)
        np.testing.assert_array_equal(upper[:-1], 0.0)

    def test_upwind_negative_drift(self):
        mesh = SpatialMesh(nx=6)
        plain = assemble(make_model(), mesh, 0.0, np.zeros(6))
        lower, diag, upper = assemble(make_model(g="0 - 3"), mesh, 0.0, np.zeros(6)) - plain
        np.testing.assert_allclose(diag[:-1], 3.0 / mesh.dx)
        np.testing.assert_allclose(upper[:-1], -3.0 / mesh.dx)
        np.testing.assert_array_equal(lower[1:-1], 0.0)
        # at the Robin row the outflow coefficient folds onto lower
        assert lower[-1] == pytest.approx(-3.0 / mesh.dx)

    def test_density_dependence_enters_through_slice(self):
        mesh = SpatialMesh(nx=5)
        model = make_model(h="u", mu="1 + u")
        zeros = assemble(model, mesh, 0.0, np.zeros(5))
        mat = assemble(model, mesh, 0.0, np.full(5, 2.0))
        np.testing.assert_allclose(mat[1] - zeros[1], 4.0)

    def test_pure_decay_is_diagonal(self):
        mesh = SpatialMesh(nx=5)
        lower, diag, upper = assemble(make_model(mu="1 + a", pure_decay=True), mesh, 0.5, np.zeros(5))
        np.testing.assert_array_equal(lower, np.zeros(5))
        np.testing.assert_array_equal(upper, np.zeros(5))
        np.testing.assert_allclose(diag, 1.5)

    def test_age_enters_coefficients(self):
        mesh = SpatialMesh(nx=4)
        mat = assemble(make_model(mu="1 + a"), mesh, 0.25, np.zeros(4))
        base = assemble(make_model(), mesh, 0.25, np.zeros(4))
        np.testing.assert_allclose(mat[1] - base[1], 0.25)

    def test_batched_slice_matches_single_columns(self):
        # (nx, k) bands must hold, bit for bit, the k single-column matrices;
        # the drift changes sign across nodes and columns, and nu0 > 0
        # exercises the Robin row
        mesh = SpatialMesh(nx=7)
        model = make_model(D="1 + x", g="p - 2 * u * exp(-u)", h="u^2", mu="1 + u * exp(a)", nu0=0.7)
        u = np.random.default_rng(12).uniform(0, 2, (mesh.nx, 4))
        g = np.gradient(u, mesh.dx, axis=0) - 2 * u * np.exp(-u)
        assert np.any(g > 0) and np.any(g < 0)
        mat = assemble(model, mesh, 0.3, u)
        assert mat.shape == (3,) + u.shape
        for j in range(u.shape[1]):
            one = assemble(model, mesh, 0.3, u[:, j].copy())
            for band in range(3):
                assert mat[band, :, j].tobytes() == one[band].tobytes()

    def test_bad_slice_shape(self):
        mesh = SpatialMesh(nx=4)
        with pytest.raises(AssemblyError, match="shape"):
            assemble(make_model(h="u"), mesh, 0.0, np.zeros(3))

    # D dips to -2.9 at x = 1/16 between samples where validate_model sees
    # it positive, so the diffusion flux there couples with the wrong sign
    SIGN_BREAKING_D = "1 + 1000 * x * (x - 0.125)"

    def test_broken_sign_pattern_raises(self):
        # the second call takes the diffusion bands from the plan
        model = make_model(D=self.SIGN_BREAKING_D, mu="1 + u")
        for _ in range(2):
            with pytest.raises(AssemblyError, match="M-matrix sign pattern violated near row 1$"):
                assemble(model, SpatialMesh(nx=16), 0.0, np.zeros(16))

    def test_pure_decay_ignores_the_diffusion_coefficient(self):
        model = make_model(D=self.SIGN_BREAKING_D, mu="1 + u", pure_decay=True)
        lower, _, upper = assemble(model, SpatialMesh(nx=16), 0.0, np.zeros(16))
        assert not lower.any() and not upper.any()

    def test_matvec_matches_dense(self):
        mesh = SpatialMesh(nx=7)
        mat = assemble(make_model(D="1 + x", g="1 + u", nu0=0.3), mesh, 0.1, np.linspace(0, 1, 7))
        v = np.sin(np.linspace(0, 2, 7))
        np.testing.assert_allclose(operator_matvec(mat, v), operator_dense(mat) @ v, atol=1e-12)


ORACLE_MODELS = {
    **{name: load_problem(f"{name}.cfg")[0] for name in ("logistic_decay", "logistic_diffusion", "shell_decay")},
    "b_exp": make_model(D="0.5", g="u - p", h="u^2", mu="1 + u", b="exp(-u)"),
    "robin": make_model(D="1 + x", g="p - 2 * u * exp(-u)", h="p + u", mu="1 + u * exp(a)", nu0=0.7),
    "D_of_a_and_x": make_model(D="1 + a * x + exp(-a)", g="0.1 * p", h="0.2 * u", mu="1 + a * u^2", nu0=0.3),
    "no_drift": make_model(D="0.2", g="0", h="u", mu="1 + u"),
    # pure decay needs no plan, but h still reads the gradient
    "pure_decay_of_p": make_model(D="2 + x", g="u", h="0.5 * p - u * p", mu="1 + a * u", pure_decay=True),
}


class TestPlan:
    """assemble against assemble_general, which evaluates everything per call."""

    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    def test_bits_match_the_general_assembly_at_every_age(self, name):
        model, mesh, grid = ORACLE_MODELS[name], SpatialMesh(nx=9), AgeGrid(na=6, a_max=1.0)
        rng = np.random.default_rng(sorted(ORACLE_MODELS).index(name))
        slices = [np.zeros(mesh.nx), rng.uniform(0, 2, mesh.nx), rng.uniform(0, 2, (mesh.nx, 3)), -np.zeros(mesh.nx)]
        for _ in range(2):  # the second pass is served from the plan
            for a in grid.ages:
                for u in slices:
                    assert_same_bits(assemble(model, mesh, a, u), assemble_general(model, mesh, a, u))

    @pytest.mark.parametrize("name", ["logistic_decay", "robin"])
    def test_writing_a_band_leaves_the_next_call_alone(self, name):
        # every call, pure decay included, returns a fresh writable array
        model, mesh = ORACLE_MODELS[name], SpatialMesh(nx=6)
        for u in (np.linspace(0.0, 1.0, 6), np.linspace(0.0, 1.0, 12).reshape(6, 2)):
            first = assemble(model, mesh, 0.5, u)
            first[...] = 7.0  # raises on a read-only array
            second = assemble(model, mesh, 0.5, u)
            assert not np.shares_memory(first, second)
            assert_same_bits(second, assemble_general(model, mesh, 0.5, u))

    def test_models_and_meshes_never_share_bands(self):
        first, second = make_model(D="1 + x"), make_model(D="2 + x")
        for model in (first, second, first):
            for nx in (5, 8):
                mesh = SpatialMesh(nx=nx)
                zeros = np.zeros(nx)
                assert_same_bits(assemble(model, mesh, 0.25, zeros), assemble_general(model, mesh, 0.25, zeros))

    def test_a_renormalized_model_shares_the_plan(self):
        # cb does not enter the operator, so normalize's model reuses the bands
        model, mesh = ORACLE_MODELS["logistic_diffusion"], SpatialMesh(nx=7)
        assemble(model, mesh, 0.5, np.zeros(7))
        hits = discretize._plan.cache_info().hits
        assemble(dataclasses.replace(model, cb=2.0 * model.cb), mesh, 0.5, np.zeros(7))
        assert discretize._plan.cache_info().hits == hits + 1

    def test_plan_cache_is_bounded(self):
        for j in range(discretize._plan.cache_info().maxsize + 3):
            assemble(make_model(D=f"1 + {j} * x"), SpatialMesh(nx=4), 0.0, np.zeros(4))
        info = discretize._plan.cache_info()
        assert info.currsize == info.maxsize

    @staticmethod
    def _count_calls(monkeypatch, name):
        calls = []
        original = getattr(discretize, name)
        monkeypatch.setattr(discretize, name, lambda *args, **kwargs: calls.append(args[0]) or original(*args, **kwargs))
        return calls

    @pytest.mark.parametrize("name", ["logistic_decay", "pure_decay_of_p"])
    def test_pure_decay_looks_up_no_plan_and_takes_the_gradient_h_reads(self, name, monkeypatch):
        model, mesh = ORACLE_MODELS[name], SpatialMesh(nx=5)
        gradients = self._count_calls(monkeypatch, "gradient_of_slice")
        before = discretize._plan.cache_info()
        for u in (np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 15).reshape(5, 3)):
            assemble(model, mesh, 0.5, u)
        info = discretize._plan.cache_info()
        assert (info.hits, info.misses) == (before.hits, before.misses)
        assert len(gradients) == (2 if name == "pure_decay_of_p" else 0)

    @pytest.mark.parametrize("name", ["shell_decay.cfg", "logistic_decay.cfg"])
    def test_pure_decay_march_takes_no_gradient_and_evaluates_on_nothing(self, name, monkeypatch):
        model, mesh, grid = load_problem(name)
        gradients = self._count_calls(monkeypatch, "gradient_of_slice")
        evaluations = self._count_calls(monkeypatch, "evaluate_on")
        build_evolution(model, mesh, grid, birth=np.full(mesh.nx, 0.5))
        assert gradients == [] and evaluations == []

    def test_second_diffusion_march_evaluates_D_zero_times(self, monkeypatch):
        model, mesh, grid = load_problem("logistic_diffusion.cfg")
        evaluations = self._count_calls(monkeypatch, "evaluate_on")
        birth = np.full(mesh.nx, 0.5)
        build_evolution(model, mesh, grid, birth=birth)
        evaluations.clear()
        build_evolution(model, mesh, grid, birth=birth)
        assert evaluations == [model.g] * grid.na


class TestSpectrum:
    def test_dirichlet_dirichlet_ground_mode(self):
        # a huge Robin coefficient pins the east end, so the smallest
        # eigenvalue of -w'' approaches pi^2
        mesh = SpatialMesh(nx=100)
        mat = assemble(make_model(mu="0 + 0 * a", nu0=1e6), mesh, 0.0, np.zeros(100))
        lam = smallest_eigenvalue(mat)
        assert lam == pytest.approx(np.pi**2, rel=1e-3)

    def test_dirichlet_neumann_ground_mode(self):
        mesh = SpatialMesh(nx=100)
        mat = assemble(make_model(mu="0 + 0 * a", nu0=0.0), mesh, 0.0, np.zeros(100))
        lam = smallest_eigenvalue(mat)
        assert lam == pytest.approx((np.pi / 2.0) ** 2, rel=1e-3)

    def test_second_order_convergence(self):
        target = (np.pi / 2.0) ** 2
        errors = []
        for nx in (40, 80):
            mat = assemble(make_model(mu="0 + 0 * a", nu0=0.0), SpatialMesh(nx=nx), 0.0, np.zeros(nx))
            errors.append(abs(smallest_eigenvalue(mat) - target))
        assert errors[0] / errors[1] >= 2.0**1.8

    def test_power_iteration_matches_dense(self):
        mesh = SpatialMesh(nx=30)
        mat = assemble(make_model(D="1 + x", nu0=0.7), mesh, 0.0, np.zeros(30))
        lam = smallest_eigenvalue(mat)
        eigs = dense_eigenvalues(operator_dense(mat))
        smallest = float(np.min(eigs.real))
        assert lam == pytest.approx(smallest, rel=1e-9)
