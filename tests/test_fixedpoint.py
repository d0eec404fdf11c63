import dataclasses

import numpy as np
import pytest

from agequil import fixedpoint
from agequil.evolution import EvolutionError, build_evolution
from agequil.expr import parse_expr
from agequil.fixedpoint import (
    FixedPointError,
    check_shell_conditions,
    multistart_fixedpoint,
    solve_fixedpoint,
)

from oracles import decay_rows, discrete_r0, shell_probes_one_by_one, shell_root


@pytest.fixture(scope="module", params=[0.5, 1.0], ids=["damped", "undamped"])
def shell_result(shell_problem, request):
    model, mesh, grid = shell_problem
    return solve_fixedpoint(model, mesh, grid, damping=request.param)


class TestShellEquilibrium:
    def test_converges_to_nontrivial(self, shell_result):
        assert shell_result.converged
        assert not shell_result.collapsed
        assert shell_result.iterations > 0
        assert shell_result.last_change <= 1e-10

    def test_unit_reproduction_radius(self, shell_result):
        # a positive equilibrium birth vector is a positive fixed vector
        # of its own reproduction matrix, forcing the radius to one
        assert shell_result.r_Qu == pytest.approx(1.0, abs=1e-8)

    def test_birth_matches_scalar_root(self, shell_problem, shell_result):
        model, _, grid = shell_problem
        assert float(np.ptp(shell_result.B)) <= 1e-12
        b_star = shell_root(grid.na, grid.a_max, model.cb)
        assert shell_result.B[0] == pytest.approx(b_star, rel=1e-9)

    def test_field_rows_follow_decay(self, shell_problem, shell_result):
        _, mesh, grid = shell_problem
        rows = decay_rows(grid.na, grid.a_max)
        expected = shell_result.B[None, :] * rows[:, None]
        np.testing.assert_allclose(shell_result.u, expected, rtol=1e-12)

    def test_residual_is_tight(self, shell_result):
        assert shell_result.residual <= 1e-10

    def test_field_is_march_of_birth(self, shell_problem, shell_result):
        model, mesh, grid = shell_problem
        marched = build_evolution(model, mesh, grid, birth=shell_result.B).source
        np.testing.assert_array_equal(shell_result.u, marched)

    @pytest.mark.parametrize("damping", [0.5, 1.0])
    def test_takes_few_marches(self, shell_problem, monkeypatch, damping):
        # Anderson mixing reaches the fixed point in 7 steps, the polish
        # adds one sweep and the final march one more; the damped loop
        # alone takes 47 steps at damping 0.5 and 19 at 1.0
        marches = []

        def counting(*args, **kwargs):
            marches.append(1)
            return build_evolution(*args, **kwargs)

        monkeypatch.setattr(fixedpoint, "build_evolution", counting)
        model, mesh, grid = shell_problem
        assert solve_fixedpoint(model, mesh, grid, damping=damping).converged
        assert len(marches) <= 10

    def test_multistart_agrees_and_is_deterministic(self, shell_problem, shell_result):
        model, mesh, grid = shell_problem
        r1 = multistart_fixedpoint(model, mesh, grid)
        r2 = multistart_fixedpoint(model, mesh, grid)
        assert not r1.collapsed
        np.testing.assert_array_equal(r1.B, r2.B)
        np.testing.assert_allclose(r1.B, shell_result.B, rtol=1e-10)


class TestCollapse:
    def test_subcritical_model_collapses(self, decay_problem):
        # raw fertility scale keeps r(Q0) near 0.63, below threshold
        model, mesh, grid = decay_problem
        result = solve_fixedpoint(model, mesh, grid)
        assert result.collapsed
        assert not result.converged
        np.testing.assert_array_equal(result.B, np.zeros(mesh.nx))
        assert not np.any(result.u)
        assert result.residual == 0.0
        assert result.r_Qu == pytest.approx(
            discrete_r0(grid.na, grid.a_max, model.cb), rel=1e-10
        )

    def test_multistart_reports_last_collapse(self, decay_problem):
        model, mesh, grid = decay_problem
        result = multistart_fixedpoint(model, mesh, grid, starts=2)
        assert result.collapsed and not result.converged


class TestValidation:
    @pytest.mark.parametrize("damping", [0.0, -0.2, 1.5])
    def test_damping_range(self, shell_problem, damping):
        model, mesh, grid = shell_problem
        with pytest.raises(FixedPointError, match="damping"):
            solve_fixedpoint(model, mesh, grid, damping=damping)

    def test_b_init_shape(self, shell_problem):
        model, mesh, grid = shell_problem
        with pytest.raises(FixedPointError, match="shape"):
            solve_fixedpoint(model, mesh, grid, B_init=np.ones(mesh.nx + 1))

    def test_b_init_sign_and_finiteness(self, shell_problem):
        model, mesh, grid = shell_problem
        bad = np.ones(mesh.nx)
        bad[0] = -1.0
        with pytest.raises(FixedPointError, match="nonnegative"):
            solve_fixedpoint(model, mesh, grid, B_init=bad)
        bad[0] = np.nan
        with pytest.raises(FixedPointError, match="finite"):
            solve_fixedpoint(model, mesh, grid, B_init=bad)

    def test_unbounded_fertility_is_refused(self, shell_problem):
        # b = exp(u) has no positive equilibrium, and r(Q0) is about 1.9:
        # from all ones the mixing falls into the repelling trivial root,
        # and from this start l(u(B)) overflows, which the march refuses
        model, mesh, grid = shell_problem
        model = dataclasses.replace(model, b=parse_expr("exp(u)"), cb=3.0)
        with pytest.raises(FixedPointError, match="repels"):
            solve_fixedpoint(model, mesh, grid)
        B0 = np.random.default_rng(42).uniform(0.5, 1.5, mesh.nx)
        with np.errstate(over="ignore"), pytest.raises(EvolutionError, match="non-finite"):
            solve_fixedpoint(model, mesh, grid, B_init=B0)

    def test_iteration_budget(self, shell_problem):
        model, mesh, grid = shell_problem
        with pytest.raises(FixedPointError, match="no convergence"):
            solve_fixedpoint(model, mesh, grid, max_iter=3)

    def test_multistart_requires_starts(self, shell_problem):
        model, mesh, grid = shell_problem
        with pytest.raises(FixedPointError, match="starts"):
            multistart_fixedpoint(model, mesh, grid, starts=0)


class TestShellConditions:
    def test_shell_model_passes_both(self, shell_problem):
        model, mesh, grid = shell_problem
        report = check_shell_conditions(model, mesh, grid, 1e-2, 5.0)
        assert report.verdict_small_densities
        assert report.verdict_large_densities
        assert report.min_small_excess >= -1e-12
        assert report.max_large_radius <= 1.0 + 1e-9

    def test_subcritical_model_fails_small_shell(self, decay_problem):
        model, mesh, grid = decay_problem
        report = check_shell_conditions(model, mesh, grid, 1e-2, 5.0)
        assert not report.verdict_small_densities
        assert report.verdict_large_densities
        assert report.min_small_excess < -0.3

    @pytest.mark.parametrize("problem", ["shell_problem", "decay_problem"])
    def test_batched_probes_match_single_probes(self, request, problem):
        model, mesh, grid = request.getfixturevalue(problem)
        report = check_shell_conditions(model, mesh, grid, 1e-2, 5.0, seed=3)
        expected = shell_probes_one_by_one(model, mesh, grid, 1e-2, 5.0, seed=3)
        assert (report.min_small_excess, report.max_large_radius) == expected

    def test_tau_ordering_enforced(self, shell_problem):
        model, mesh, grid = shell_problem
        with pytest.raises(FixedPointError, match="tau0"):
            check_shell_conditions(model, mesh, grid, 2.0, 1.0)
        with pytest.raises(FixedPointError, match="tau0"):
            check_shell_conditions(model, mesh, grid, 0.0, 1.0)
        # the largest probe has norm 4 tau1, which overflows for 1e308
        for tau1 in (np.inf, 1e308, np.nan):
            with pytest.raises(FixedPointError, match="tau1"):
                check_shell_conditions(model, mesh, grid, 1e-2, tau1)
        with pytest.raises(FixedPointError, match="tau0"):
            check_shell_conditions(model, mesh, grid, np.inf, np.inf)
