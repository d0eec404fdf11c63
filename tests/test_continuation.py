import dataclasses

import numpy as np
import pytest

from agequil import continuation
from agequil.cli import REPLAY_ALLOWANCE
from agequil.continuation import (
    ContinuationError,
    Plane,
    branch_point,
    branch_stats,
    correct,
    first_step,
    trace_branch,
)
from agequil.discretize import SpatialMesh, gradient_of_slice
from agequil.evolution import AgeGrid, EvolutionError, build_evolution, march, propagate
from agequil.expr import evaluate_on
from agequil.linearized import build_linearized
from agequil.model import parse_model
from agequil.reproduction import assemble_Q, birth_functional, spectral_radius

from oracles import (
    corrector_jacobian_cd,
    logistic_B_of_amplitude,
    logistic_n_of_B,
    picard_field,
    solve_at_norm,
)


def fixed_n(B: np.ndarray, n: float) -> Plane:
    """The plane n = const through (B, n)."""
    return Plane(np.zeros(B.shape[0]), 1.0, B, n)


def jacobian_at(lin, B: np.ndarray, n: float) -> np.ndarray:
    """The corrector's exact Jacobian of G(B, n), without the plane row."""
    ev = march(lin.model, lin.mesh, lin.grid, B)
    return continuation._corrector_jacobian(lin, n, ev, fixed_n(B, n))[:-1]


@pytest.fixture(scope="module")
def default_traces(decay_lin, diffusion_lin):
    """The default trace of each logistic model, keyed by its problem fixture."""
    return {"decay_lin": trace_branch(decay_lin), "diffusion_lin": trace_branch(diffusion_lin)}


class TestConstraints:
    def test_plane_value(self):
        plane = Plane(
            normal_B=np.array([1.0, 0.5]), normal_n=2.0,
            anchor_B=np.array([0.2, 0.4]), anchor_n=1.1,
        )
        got = plane.value(np.array([0.3, 0.4]), 1.2)
        assert got == pytest.approx(0.1 * 1.0 + 2.0 * 0.1)


class TestFirstStep:
    def test_matches_scalar_oracle(self, decay_normalized, decay_lin):
        model, mesh, grid, _ = decay_normalized
        p = first_step(decay_lin, 1e-2)
        assert not p.trivial
        # scalar problem: the birth vector is constant across x
        assert float(np.ptp(p.B)) <= 1e-13
        assert p.B[0] == pytest.approx(1e-2, rel=1e-9)
        n_oracle = logistic_n_of_B(float(p.B[0]), grid.na, grid.a_max, model.cb)
        assert p.n == pytest.approx(n_oracle, rel=1e-10)
        assert p.identity_residual <= 1e-8
        assert p.min_u >= 0.0

    def test_offset_scales_linearly_with_eps(self, decay_lin):
        p1 = first_step(decay_lin, 1e-2)
        p2 = first_step(decay_lin, 5e-3)
        ratio = (p1.n - 1.0) / (p2.n - 1.0)
        assert 1.7 <= ratio <= 2.3

    # first_step only leaves the trivial point; trace_branch writes that
    # point itself as row 0, the branch point of the linear evolution at n = 1
    def test_zero_eps_is_trivial_point(self, decay_branch, decay_lin):
        with pytest.raises(ContinuationError, match=r"^eps0 must be positive, got 0\.0$"):
            first_step(decay_lin, 0.0)
        p = decay_branch.points[0]
        want = branch_point(decay_lin, 1.0, decay_lin.ev0)
        for f in dataclasses.fields(p):
            got_f, want_f = getattr(p, f.name), getattr(want, f.name)
            assert np.asarray(got_f).tobytes() == np.asarray(want_f).tobytes(), f.name
        assert p.trivial
        assert p.n == 1.0
        assert not np.any(p.u)
        assert p.eps == 0.0
        assert p.r_Qu == pytest.approx(1.0, abs=1e-10)

    def test_negative_eps_rejected(self, decay_lin):
        for eps0 in (-1e-3, -0.0, np.nan):
            with pytest.raises(ContinuationError, match=f"^eps0 must be positive, got {eps0!r}$"):
                first_step(decay_lin, eps0)


class TestTraceDecay:
    def test_starts_at_trivial_solution(self, decay_branch):
        p0 = decay_branch.points[0]
        assert p0.trivial and p0.n == 1.0 and p0.eps == 0.0

    def test_point_count(self, decay_branch):
        assert len(decay_branch.nontrivial()) == 10
        assert decay_branch.terminated == "max_points reached"

    def test_invariants_on_every_point(self, decay_branch):
        for p in decay_branch.nontrivial():
            assert p.identity_residual <= 1e-6
            assert p.reform_residual <= 1e-5
            assert p.min_u >= -1e-10
            assert p.residual_direct <= 2e-9

    def test_supercritical_and_monotone(self, decay_branch):
        pts = decay_branch.nontrivial()
        ns = [p.n for p in pts]
        epss = [p.eps for p in pts]
        assert all(n >= 1.0 - 1e-9 for n in ns)
        assert all(b > a for a, b in zip(ns, ns[1:]))
        assert all(b > a for a, b in zip(epss, epss[1:]))

    def test_each_point_matches_scalar_oracle(self, decay_normalized, decay_branch):
        model, _, grid, _ = decay_normalized
        for p in decay_branch.nontrivial():
            assert float(np.ptp(p.B)) <= 1e-10 * float(p.B[0])
            n_oracle = logistic_n_of_B(float(p.B[0]), grid.na, grid.a_max, model.cb)
            assert p.n == pytest.approx(n_oracle, rel=1e-9)

    def test_branch_stats(self, decay_branch):
        stats = branch_stats(decay_branch)
        pts = decay_branch.nontrivial()
        assert stats.sigma_i == pytest.approx(min(p.n for p in pts))
        assert stats.sigma_s == pytest.approx(max(p.n for p in pts))
        assert abs(stats.sigma_s * stats.N_i - 1.0) <= 1e-6
        assert abs(stats.sigma_i * stats.N_s - 1.0) <= 1e-6
        assert stats.sigma_i >= 1.0 - 1e-9
        assert stats.max_identity_residual <= 1e-6

    def test_stats_require_nontrivial_points(self, decay_branch):
        from agequil.continuation import Branch

        empty = Branch(points=[decay_branch.points[0]])
        with pytest.raises(ContinuationError, match="nontrivial"):
            branch_stats(empty)


class TestCorrect:
    def test_fixed_n_recovers_branch_point(self, decay_branch, decay_lin):
        p = decay_branch.nontrivial()[4]
        got = correct(decay_lin, p.n, 1.02 * p.B, fixed_n(p.B, p.n))
        np.testing.assert_allclose(got.B, p.B, rtol=1e-7)
        assert got.n == p.n

    @pytest.mark.parametrize("pinned", ["n", "B"])
    def test_newton_iters_counts_jacobian_solves(
        self, decay_branch, decay_lin, monkeypatch, pinned
    ):
        # each Newton step builds the exact Jacobian on the march it
        # already has and solves with it once; each evaluation of G is one
        # march of one birth vector, never a batch.  Every other solve is with the (nx, nx) birth block I - Q0/2,
        # inside the reformulation residual of the corrected point
        nx = decay_lin.mesh.nx
        p = decay_branch.nontrivial()[4]
        if pinned == "n":
            plane = fixed_n(p.B, p.n)
        else:
            plane = Plane(p.B / float(np.linalg.norm(p.B)), 0.0, p.B, p.n)
        marches, jacobians, solves = [], [], []

        def counting_march(model, mesh, grid, B):
            marches.append(np.shape(B))
            return march(model, mesh, grid, B)

        def counting_jacobian(*args, **kwargs):
            jacobians.append(real_jacobian(*args, **kwargs))
            return jacobians[-1]

        def counting_solve(a, b):
            solves.append(np.shape(a))
            return real_solve(a, b)

        real_jacobian, real_solve = continuation._corrector_jacobian, np.linalg.solve
        monkeypatch.setattr(continuation, "march", counting_march)
        monkeypatch.setattr(continuation, "_corrector_jacobian", counting_jacobian)
        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        got = correct(decay_lin, p.n, 1.02 * p.B, plane)
        assert got.newton_iters >= 1
        assert len(marches) >= got.newton_iters + 1 and set(marches) == {(nx,)}
        assert len(jacobians) == got.newton_iters
        assert solves.count((nx + 1, nx + 1)) == got.newton_iters
        assert set(solves) <= {(nx + 1, nx + 1), (nx, nx)}
        # a converged start takes no step and builds no Jacobian
        marches.clear()
        jacobians.clear()
        solves.clear()
        assert correct(decay_lin, got.n, got.B, plane).newton_iters == 0
        assert jacobians == [] and marches == [(nx,)]
        assert set(solves) <= {(nx, nx)}

    @pytest.mark.parametrize("start", [1.01, 1.1, 1.3])
    def test_a_budget_of_the_steps_taken_converges(self, decay_branch, decay_lin, start, monkeypatch):
        # the residual after the last step allowed is checked, not skipped
        p = decay_branch.nontrivial()[4]
        free = correct(decay_lin, p.n, start * p.B, fixed_n(p.B, p.n))
        assert free.newton_iters >= 1
        monkeypatch.setattr(continuation, "MAX_NEWTON", free.newton_iters)
        tight = correct(decay_lin, p.n, start * p.B, fixed_n(p.B, p.n))
        assert tight.newton_iters == free.newton_iters and tight.n == free.n
        assert tight.B.tobytes() == free.B.tobytes() and tight.u.tobytes() == free.u.tobytes()

    def test_iteration_budget_enforced(self, decay_branch, decay_lin, monkeypatch):
        p = decay_branch.nontrivial()[4]
        monkeypatch.setattr(continuation, "MAX_NEWTON", 1)
        with pytest.raises(ContinuationError, match="within 1 iterations"):
            correct(decay_lin, p.n, 1.5 * p.B, fixed_n(p.B, p.n))


class TestMarch:
    @pytest.fixture
    def setup(self, diffusion_problem):
        model, _, _ = diffusion_problem
        mesh, grid = SpatialMesh(nx=8), AgeGrid(na=12, a_max=model.a_max)
        # a bump in x: the drift g = 0.1 p changes sign at its peak
        bump = np.sin(np.pi * mesh.nodes)
        Bs = np.outer(bump, [0.05, 0.3, 0.3 + 1e-6, 1.2]) + 0.01
        return model, mesh, grid, Bs

    def test_field_is_bitwise_self_consistent(self, setup):
        model, mesh, grid, Bs = setup
        for B in Bs.T.copy():
            u = build_evolution(model, mesh, grid, birth=B).source
            p = np.diff(u[grid.na // 2], axis=0)
            assert np.any(p > 0) and np.any(p < 0)
            assert u[0].tobytes() == B.tobytes()
            replay = propagate(build_evolution(model, mesh, grid, u), B)
            assert replay.tobytes() == u.tobytes()

    def test_agrees_with_converged_picard_sweeps(self, setup):
        model, mesh, grid, Bs = setup
        start = propagate(build_evolution(model, mesh, grid), Bs[:, 1].copy())
        for j in range(Bs.shape[1]):
            B = Bs[:, j].copy()
            got = build_evolution(model, mesh, grid, birth=B).source
            want = picard_field(model, mesh, grid, B, start, 1e-14)
            assert float(np.max(np.abs(got - want))) <= 1e-13 * float(np.max(np.abs(want)))

    def test_rejects_bad_input(self, setup):
        model, mesh, grid, Bs = setup
        u = build_evolution(model, mesh, grid, birth=Bs[:, 0].copy()).source
        with pytest.raises(EvolutionError, match="not both"):
            build_evolution(model, mesh, grid, u, birth=Bs[:, 0].copy())
        # one birth vector per march: a batch of them is a bad shape
        for bad in (Bs[:-1, 0].copy(), Bs, Bs[:, :, None], np.ones(())):
            with pytest.raises(EvolutionError, match=r"shape \(.*\), expected \(8,\)"):
                build_evolution(model, mesh, grid, birth=bad)
        for value in (np.nan, np.inf):
            B = Bs[:, 2].copy()
            B[3] = value
            with pytest.raises(EvolutionError, match="non-finite"):
                build_evolution(model, mesh, grid, birth=B)


    def test_jacobian_matches_central_differences_off_the_kink(self, setup):
        # g = 0.1 p is exactly zero at the bump's peak in the birth slice,
        # where the upwind drift has a kink: the central difference
        # averages its two sides there, for the columns of B that move p
        # at the peak.  Only the other columns are compared; at every later
        # age g is nonzero at every node
        model, mesh, grid, Bs = setup
        lin = build_linearized(model, mesh, grid)
        stencil = gradient_of_slice(np.eye(mesh.nx), mesh.dx)
        for j in range(Bs.shape[1]):
            B = Bs[:, j].copy()
            u = build_evolution(lin.model, mesh, grid, birth=B).source
            g = evaluate_on(lin.model.g, u.shape, u=u, p=gradient_of_slice(u.T, mesh.dx).T)
            assert np.all(g[1:-1] != 0)
            kinked = np.any(stencil[g[0] == 0] != 0, axis=0)
            assert kinked.any()
            exact, cd = jacobian_at(lin, B, 1.0), corrector_jacobian_cd(lin, B, 1.0)
            smooth = np.append(~kinked, True)
            assert np.max(np.abs(exact - cd)[:, smooth]) <= 1e-8 * np.max(np.abs(cd))


# drift of both signs that reads u, h that reads p, nonlinear mu and b,
# and a Robin end where g < 0, so the drift there takes the ghost node
TRANSPORT_CFG = """
[domain]
a_max = 1.0

[coefficients]
D = 0.2 + 0.1 * x
g = (0.1 + u) * p
h = 0.2 * u + 0.1 * u * p
mu = 1 + u^2
b = exp(-u)

[boundary]
nu0 = 2.0
"""


class TestJacobian:
    @pytest.mark.parametrize("problem", ["decay_lin", "diffusion_lin", "shell_lin"])
    @pytest.mark.parametrize("scale", [0.01, 0.5])
    def test_matches_central_differences(self, request, problem, scale):
        lin = request.getfixturevalue(problem)
        B = scale * lin.perron0
        exact, cd = jacobian_at(lin, B, 1.0), corrector_jacobian_cd(lin, B, 1.0)
        assert np.max(np.abs(exact - cd)) <= 1e-8 * np.max(np.abs(cd))

    def test_matches_central_differences_on_a_transport_model(self):
        lin = build_linearized(parse_model(TRANSPORT_CFG), SpatialMesh(nx=10), AgeGrid(na=20, a_max=1.0))
        for scale in (0.01, 0.5, 2.0):
            B = scale * lin.perron0
            u = build_evolution(lin.model, lin.mesh, lin.grid, birth=B).source
            g = evaluate_on(lin.model.g, u.shape, u=u, p=gradient_of_slice(u.T, lin.mesh.dx).T)[:-1]
            assert g.min() < 0 < g.max() and np.all(g[:, -1] < 0)
            exact, cd = jacobian_at(lin, B, 1.0), corrector_jacobian_cd(lin, B, 1.0)
            assert np.max(np.abs(exact - cd)) <= 1e-8 * np.max(np.abs(cd))

    def test_non_finite_jacobian_is_rejected_and_halves_the_step(self, decay_lin, monkeypatch):
        real_correct, real_derivative = continuation.correct, continuation.slice_derivative
        real_solve = np.linalg.solve
        calls, solved_in = [], []

        def counting_correct(*args, **kwargs):
            calls.append(args)
            return real_correct(*args, **kwargs)

        def poisoned(*args, **kwargs):
            # call 1 is the first step's correction, call 2 the first
            # pseudo-arclength step
            alpha, beta = real_derivative(*args, **kwargs)
            return (np.full_like(alpha, np.nan) if len(calls) == 2 else alpha), beta

        def recording_solve(a, b):
            solved_in.append(len(calls))
            return real_solve(a, b)

        monkeypatch.setattr(continuation, "correct", counting_correct)
        monkeypatch.setattr(continuation, "slice_derivative", poisoned)
        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        branch = trace_branch(decay_lin, step=0.05, max_points=2)
        assert branch.rejected == [(0.05, "ContinuationError", "non-finite corrector Jacobian")]
        assert 2 not in solved_in
        # the retry predicts from the first point at half the step
        plane, first = calls[2][3], branch.points[1]
        distance = np.hypot(np.linalg.norm(plane.anchor_B - first.B), plane.anchor_n - first.n)
        assert distance == pytest.approx(0.025, rel=1e-9)
        assert len(branch.nontrivial()) == 2


class TestNewtonSteps:
    # the bench traces: the models' own grids, stopped at an amplitude cap
    @pytest.mark.parametrize("problem, norm_cap", [("diffusion_lin", 0.015), ("decay_lin", 0.03)])
    def test_bench_traces_take_four_steps(self, request, problem, norm_cap):
        branch = trace_branch(request.getfixturevalue(problem), norm_cap=norm_cap)
        assert sum(p.newton_iters for p in branch.points) == 4

    @pytest.mark.parametrize("problem, most", [("diffusion_lin", 38), ("decay_lin", 30)])
    def test_full_default_traces(self, default_traces, problem, most):
        branch = default_traces[problem]
        assert branch.terminated == "max_points reached"
        assert sum(p.newton_iters for p in branch.points) <= most


class TestBranchPointRadius:
    """A corrected u is the march of B, so Q_u B = l(u): where B > 0,
    r(Q_u) lies in the Collatz-Wielandt bracket [min l/B, max l/B], and
    branch_point writes its upper end; elsewhere it writes the dense
    radius of assemble_Q."""

    @pytest.mark.parametrize("problem", ["diffusion_lin", "decay_lin"])
    def test_upper_end_of_the_bracket_on_default_traces(self, request, default_traces, problem):
        lin = request.getfixturevalue(problem)
        for p in default_traces[problem].nontrivial():
            assert np.all(p.B > 0)
            ratios = birth_functional(lin.model, lin.grid, p.u) / p.B
            assert p.r_Qu == float(np.max(ratios))
            dense, _ = spectral_radius(assemble_Q(lin.model, march(lin.model, lin.mesh, lin.grid, p.B)))
            assert ratios.min() * (1.0 - REPLAY_ALLOWANCE) <= dense <= ratios.max() * (1.0 + REPLAY_ALLOWANCE)

    def test_positive_B_assembles_no_Q(self, decay_branch, decay_lin, monkeypatch):
        p = decay_branch.nontrivial()[2]

        def failing(*args):
            raise AssertionError("assemble_Q called")

        monkeypatch.setattr(continuation, "assemble_Q", failing)
        again = branch_point(decay_lin, p.n, march(decay_lin.model, decay_lin.mesh, decay_lin.grid, p.B))
        assert again.r_Qu == p.r_Qu

    def test_dense_radius_where_B_has_a_zero(self, decay_lin):
        lin = decay_lin
        B = np.linspace(0.0, 0.02, lin.mesh.nx)
        ev = march(lin.model, lin.mesh, lin.grid, B)
        point = branch_point(lin, 1.01, ev)
        assert not point.trivial
        assert point.r_Qu == spectral_radius(assemble_Q(lin.model, ev))[0]
        assert point.identity_residual == abs(1.01 * point.r_Qu - 1.0)


class TestSolveAtNorm:
    def test_amplitude_pinned_and_matches_oracle(self, decay_normalized, decay_lin):
        model, mesh, grid, _ = decay_normalized
        target = 0.1
        p = solve_at_norm(decay_lin, target)
        assert p.eps == pytest.approx(target, abs=1e-9)
        b_oracle = logistic_B_of_amplitude(target, grid.na, grid.a_max)
        assert p.B[0] == pytest.approx(b_oracle, rel=1e-8)
        n_oracle = logistic_n_of_B(b_oracle, grid.na, grid.a_max, model.cb)
        assert p.n == pytest.approx(n_oracle, rel=1e-8)

    def test_reaches_target_on_diffusion_model(self, diffusion_lin):
        # the traced points already meet the trace's tolerance, so a fixed-n
        # correction at that tolerance would not move the amplitude
        p = solve_at_norm(diffusion_lin, 0.1)
        assert abs(p.eps - 0.1) <= 1e-9


class TestTraceDiffusion:
    def test_invariants_and_shape(self, diffusion_branch):
        pts = diffusion_branch.nontrivial()
        assert len(pts) == 5
        for p in pts:
            assert p.identity_residual <= 1e-6
            assert p.reform_residual <= 1e-5
            assert p.min_u >= -1e-10
            assert p.n >= 1.0 - 1e-9
        epss = [p.eps for p in pts]
        assert all(b > a for a, b in zip(epss, epss[1:]))

    def test_stats_cross_products(self, diffusion_branch):
        stats = branch_stats(diffusion_branch)
        assert abs(stats.sigma_s * stats.N_i - 1.0) <= 1e-6
        assert abs(stats.sigma_i * stats.N_s - 1.0) <= 1e-6


class TestRejectedSteps:
    def test_corrector_failure_is_recorded(self, decay_lin, monkeypatch):
        real = continuation.correct
        calls = []

        def fail_first_trace_step(*args, **kwargs):
            calls.append(args)
            # call 1 is the first step's correction, call 2 the first
            # pseudo-arclength step
            if len(calls) == 2:
                raise ContinuationError("injected failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(continuation, "correct", fail_first_trace_step)
        branch = trace_branch(decay_lin, max_points=2)
        assert branch.rejected == [(0.05, "ContinuationError", "injected failure")]
        assert len(branch.nontrivial()) == 2


class TestStepControl:
    @pytest.mark.parametrize("forced, growth", [(3, 1.4), (4, 1.0)])
    def test_step_grows_after_at_most_three_newton_steps(
        self, decay_lin, monkeypatch, forced, growth
    ):
        real = continuation.correct
        seen = []  # (plane, returned point) per call; call 0 is the first step's

        def forcing(*args, **kwargs):
            point = dataclasses.replace(real(*args, **kwargs), newton_iters=forced)
            seen.append((args[3], point))
            return point

        monkeypatch.setattr(continuation, "correct", forcing)
        trace_branch(decay_lin, step=0.05, max_points=3)

        def predictor_distance(k: int) -> float:
            plane, prev = seen[k][0], seen[k - 1][1]
            return float(np.hypot(np.linalg.norm(plane.anchor_B - prev.B), plane.anchor_n - prev.n))

        assert len(seen) == 3
        assert predictor_distance(1) == pytest.approx(0.05, rel=1e-9)
        assert predictor_distance(2) == pytest.approx(0.05 * growth, rel=1e-9)


class TestCaps:
    def test_amplitude_cap_terminates(self, decay_lin):
        branch = trace_branch(decay_lin, eps0=1e-2, step=0.2, max_points=50, norm_cap=0.05)
        assert "amplitude cap" in branch.terminated
        # the cap is checked after appending, so exactly one point crosses it
        epss = [p.eps for p in branch.nontrivial()]
        assert epss[-1] > 0.05
        assert all(e <= 0.05 for e in epss[:-1])
