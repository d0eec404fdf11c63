import numpy as np
import pytest

from agequil.discretize import SpatialMesh
from agequil.evolution import AgeGrid, propagate
from agequil.expr import Num, parse_expr
from agequil.linearized import (
    LinearizedError,
    apply_birth_feedback,
    apply_perturbation,
    build_linearized,
    perturbation_source,
    reformulation_residual,
    solve_linear,
)
from agequil.model import ModelSpec, with_cb
from agequil.reproduction import assemble_Q, spectral_radius

from conftest import load_problem
from oracles import (
    birth_feedback_eigenvalue,
    decay_rows,
    discrete_r0,
    linear_residuals,
    perturbation_source_per_age,
    shell_root,
)


def linear_decay_problem(na: int = 80) -> tuple[ModelSpec, SpatialMesh, AgeGrid]:
    # constant-coefficient variant: mu has no density term, so H vanishes
    model = ModelSpec(
        a_max=1.0,
        D=Num(1.0),
        g=Num(0.0),
        h=Num(0.0),
        mu=Num(1.0),
        b=Num(1.0),
        nu0=0.0,
        cb=1.0 / discrete_r0(na, 1.0),
        pure_decay=True,
    )
    return model, SpatialMesh(8), AgeGrid(na, 1.0)


class TestBuildLinearized:
    def test_normalizes_a_raw_model(self, decay_problem, decay_lin):
        raw, mesh, grid = decay_problem
        assert raw.cb == 1.0
        assert abs(decay_lin.r0 - 1.0) <= 1e-10
        assert decay_lin.r_before == spectral_radius(assemble_Q(raw, decay_lin.ev0))[0]
        scaled = build_linearized(with_cb(raw, 7.5), mesh, grid)
        assert scaled.model.cb == pytest.approx(decay_lin.model.cb, rel=1e-12)
        assert decay_lin.model == with_cb(raw, decay_lin.model.cb)


class TestSolveLinear:
    def test_residuals_without_source(self, decay_lin):
        rng = np.random.default_rng(3)
        c = rng.uniform(0, 1, decay_lin.mesh.nx)
        sol = solve_linear(decay_lin, c)
        res_step, res_birth = linear_residuals(decay_lin, sol, c)
        assert res_step <= 1e-11
        assert res_birth <= 1e-12

    def test_residuals_with_source(self, diffusion_lin):
        rng = np.random.default_rng(4)
        nx, na = diffusion_lin.mesh.nx, diffusion_lin.grid.na
        c = rng.uniform(0, 1, nx)
        f = rng.uniform(0, 1, (na + 1, nx))
        sol = solve_linear(diffusion_lin, c, f)
        res_step, res_birth = linear_residuals(diffusion_lin, sol, c, f)
        assert res_step <= 1e-10
        assert res_birth <= 1e-11

    def test_superposition(self, diffusion_lin):
        rng = np.random.default_rng(7)
        nx = diffusion_lin.mesh.nx
        c1, c2 = rng.uniform(0, 1, (2, nx))
        s1 = solve_linear(diffusion_lin, c1)
        s2 = solve_linear(diffusion_lin, c2)
        s12 = solve_linear(diffusion_lin, c1 + 2.0 * c2)
        np.testing.assert_allclose(s12, s1 + 2.0 * s2, rtol=1e-12, atol=1e-13)

    def test_birth_shape_checked(self, decay_lin):
        with pytest.raises(LinearizedError, match="shape"):
            solve_linear(decay_lin, np.ones(decay_lin.mesh.nx + 2))


class TestBirthFeedback:
    def test_r0_property(self, decay_lin, diffusion_lin):
        for lin in (decay_lin, diffusion_lin):
            assert lin.r0 == pytest.approx(1.0, abs=1e-10)
            r0, perron0 = spectral_radius(assemble_Q(lin.model, lin.ev0))
            assert lin.r0 == r0
            np.testing.assert_array_equal(lin.perron0, perron0)

    def test_perron_field_is_doubled(self, diffusion_lin):
        u = propagate(diffusion_lin.ev0, diffusion_lin.perron0)
        lu = apply_birth_feedback(diffusion_lin, u)
        np.testing.assert_allclose(lu, 2.0 * u, rtol=1e-9, atol=1e-12)

    def test_dominant_eigenvalue_is_two(self, decay_lin, diffusion_lin):
        assert birth_feedback_eigenvalue(decay_lin) == pytest.approx(2.0, abs=1e-8)
        assert birth_feedback_eigenvalue(diffusion_lin) == pytest.approx(2.0, abs=1e-8)


class TestPerturbation:
    def test_linear_model_has_zero_perturbation(self):
        model, mesh, grid = linear_decay_problem()
        lin = build_linearized(model, mesh, grid)
        u = propagate(lin.ev0, np.linspace(0.5, 1.5, mesh.nx))
        h = apply_perturbation(lin, 0.7, u)
        assert not np.any(h)

    def test_source_rows_for_density_mass_term(self, decay_lin):
        # for pure decay with mu = 1 + u the age step perturbation is the
        # entrywise product -u_k * u_{k+1}, row na unused
        rng = np.random.default_rng(9)
        nx, na = decay_lin.mesh.nx, decay_lin.grid.na
        u = rng.uniform(0, 2, (na + 1, nx))
        f = perturbation_source(decay_lin, u)
        np.testing.assert_allclose(f[:-1], -u[:-1] * u[1:], rtol=1e-13, atol=1e-15)
        np.testing.assert_array_equal(f[-1], np.zeros(nx))

    @pytest.mark.parametrize("name", ["logistic_diffusion.cfg", "logistic_decay.cfg", "robin"])
    def test_source_has_the_bits_of_the_per_age_loop(self, name):
        # D reads a and x, and nu0 = 0.7 closes the Robin end
        robin = ModelSpec(
            a_max=1.0,
            D=parse_expr("1 + a * x + exp(-a)"), g=parse_expr("0.1 * p"), h=parse_expr("0.2 * u"),
            mu=parse_expr("1 + a * u^2"), b=Num(1.0), nu0=0.7,
        )
        model = robin if name == "robin" else load_problem(name)[0]
        lin = build_linearized(model, SpatialMesh(nx=9), AgeGrid(na=10, a_max=model.a_max))
        u = np.random.default_rng(11).uniform(0, 2, (lin.grid.na + 1, lin.mesh.nx))
        u[3] = -0.0
        got, want = perturbation_source(lin, u), perturbation_source_per_age(lin, u)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

    def test_linear_model_identity_at_unit_fertility(self):
        model, mesh, grid = linear_decay_problem()
        lin = build_linearized(model, mesh, grid)
        u = propagate(lin.ev0, np.linspace(0.2, 1.0, mesh.nx))
        assert reformulation_residual(lin, 1.0, u) <= 1e-12 * grid.norm(u)

    def test_shell_equilibrium_satisfies_reformulation(self, shell_problem):
        model, mesh, grid = shell_problem
        lin = build_linearized(model, mesh, grid)
        b_star = shell_root(grid.na, grid.a_max, model.cb)
        rows = b_star * decay_rows(grid.na, grid.a_max)
        u = np.tile(rows[:, None], (1, mesh.nx))
        assert reformulation_residual(lin, lin.r_before, u) <= 1e-8
