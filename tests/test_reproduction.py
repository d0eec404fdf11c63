import dataclasses

import numpy as np
import pytest

from agequil import reproduction
from agequil.discretize import SpatialMesh
from agequil.evolution import AgeGrid, build_evolution, propagate
from agequil.expr import Num, parse_expr
from agequil.model import ModelSpec, parse_model, serialize_model, validate_model, with_cb
from agequil.reproduction import (
    PowerIterationError,
    ReproductionError,
    assemble_Q,
    birth_density,
    birth_functional,
    birth_linear,
    birth_star,
    normalize,
    spectral_radius,
)

from oracles import characteristic_values, dense_eigenvalues, dense_radius, discrete_r0, power_iteration_loop


@pytest.fixture(scope="module")
def decay_q0(decay_problem):
    model, mesh, grid = decay_problem
    ev = build_evolution(model, mesh, grid)
    return model, mesh, grid, assemble_Q(model, ev)


class TestQ0:
    def test_matches_scalar_oracle(self, decay_q0):
        model, mesh, grid, q = decay_q0
        r, v = spectral_radius(q)
        assert r == pytest.approx(discrete_r0(grid.na, grid.a_max, model.cb), rel=1e-13)
        np.testing.assert_allclose(v, np.ones(mesh.nx))

    def test_matches_dense_radius(self, decay_q0):
        _, _, _, q = decay_q0
        r, _ = spectral_radius(q)
        assert r == pytest.approx(dense_radius(q), rel=1e-11)

    def test_decay_matrix_is_scalar(self, decay_q0):
        model, mesh, grid, q = decay_q0
        r_hat = discrete_r0(grid.na, grid.a_max, model.cb)
        np.testing.assert_allclose(q, r_hat * np.eye(mesh.nx), atol=1e-14)

    def test_diffusion_matches_dense(self, diffusion_problem):
        model, mesh, grid = diffusion_problem
        q = assemble_Q(model, build_evolution(model, mesh, grid))
        r, v = spectral_radius(q)
        assert r == pytest.approx(dense_radius(q), rel=1e-10)
        assert np.all(v > 0) and np.max(v) == pytest.approx(1.0)


class TestBirthFunctionals:
    def test_split_identity(self, shell_problem):
        model, mesh, grid = shell_problem
        rng = np.random.default_rng(5)
        values = rng.uniform(0, 2, (grid.na + 1, mesh.nx))
        total = birth_functional(model, grid, values)
        split = birth_linear(model, grid, values) + birth_star(model, grid, values)
        np.testing.assert_allclose(total, split, rtol=1e-13)

    def test_constant_fertility_has_no_star_part(self, decay_problem):
        model, _, grid = decay_problem
        rng = np.random.default_rng(6)
        values = rng.uniform(0, 2, (grid.na + 1, 4))
        np.testing.assert_array_equal(birth_star(model, grid, values), np.zeros(4))

    def test_birth_density_scales_with_cb(self, shell_problem):
        model, _, grid = shell_problem
        values = np.full((grid.na + 1, 3), 0.5)
        doubled = with_cb(model, 2 * model.cb)
        np.testing.assert_allclose(
            birth_density(doubled, values), 2 * birth_density(model, values), rtol=1e-15
        )

    def test_negative_fertility_raises(self, shell_problem):
        # the sampled check in validate_model accepts b = 5 - u
        model, mesh, grid = shell_problem
        model = dataclasses.replace(model, b=parse_expr("5 - u"))
        validate_model(model)
        with pytest.raises(ReproductionError, match="fertility b is negative"):
            birth_density(model, np.full((grid.na + 1, mesh.nx), 6.0))


class TestAssembleQu:
    def test_matrix_action_matches_propagation(self, shell_problem):
        model, mesh, grid = shell_problem
        rng = np.random.default_rng(11)
        u = rng.uniform(0, 1.5, (grid.na + 1, mesh.nx))
        ev = build_evolution(model, mesh, grid, u)
        q = assemble_Q(model, ev)
        B = rng.uniform(0, 1, mesh.nx)
        field = propagate(ev, B)
        manual = grid.weights @ (birth_density(model, u) * field)
        np.testing.assert_allclose(q @ B, manual, rtol=1e-12, atol=1e-14)

    def test_batched_matrices_match_single_builds(self, shell_problem):
        model, mesh, grid = shell_problem
        rng = np.random.default_rng(12)
        u = rng.uniform(0, 1.5, (grid.na + 1, mesh.nx, 4))
        q = assemble_Q(model, build_evolution(model, mesh, grid, u))
        assert q.shape == (mesh.nx, mesh.nx, 4)
        for j in range(4):
            single = assemble_Q(model, build_evolution(model, mesh, grid, u[:, :, j]))
            assert np.array_equal(q[:, :, j], single)

    def test_zero_field_equals_linear_matrix(self, decay_problem):
        model, mesh, grid = decay_problem
        q0 = assemble_Q(model, build_evolution(model, mesh, grid))
        zeros = np.zeros((grid.na + 1, mesh.nx))
        q_z = assemble_Q(model, build_evolution(model, mesh, grid, zeros))
        np.testing.assert_array_equal(q0, q_z)


class TestNormalize:
    def test_unit_radius_after(self, decay_problem):
        model, mesh, grid = decay_problem
        ev0 = build_evolution(model, mesh, grid)
        normalized, r_before, q0, r0, perron0 = normalize(model, ev0)
        assert r_before == pytest.approx(discrete_r0(grid.na, grid.a_max), rel=1e-13)
        assert normalized.cb == pytest.approx(model.cb / r_before, rel=1e-13)
        np.testing.assert_array_equal(q0, assemble_Q(normalized, ev0))
        # the returned radius and Perron vector are those of the returned Q0
        r, perron = spectral_radius(q0)
        assert r0 == r
        np.testing.assert_array_equal(perron0, perron)
        r, _ = spectral_radius(assemble_Q(normalized, build_evolution(normalized, mesh, grid)))
        assert abs(r - 1.0) <= 1e-10

    def test_endpoint_independent_of_initial_cb(self, decay_problem):
        model, mesh, grid = decay_problem
        ev0 = build_evolution(model, mesh, grid)
        n1 = normalize(model, ev0)[0]
        n2 = normalize(with_cb(model, 7.5), ev0)[0]
        assert n1.cb == pytest.approx(n2.cb, rel=1e-12)

    def test_idempotent(self, decay_problem):
        model, mesh, grid = decay_problem
        ev0 = build_evolution(model, mesh, grid)
        once = normalize(model, ev0)[0]
        twice, r_mid = normalize(once, ev0)[:2]
        assert r_mid == pytest.approx(1.0, abs=1e-10)
        assert twice.cb == pytest.approx(once.cb, rel=1e-10)

    def test_a_missed_rescaling_is_refused(self, decay_problem, monkeypatch):
        # the radius is linear in cb, so one rescaling lands on 1; one that
        # misses by more than NORMALIZE_TOL raises instead of retrying
        model, mesh, grid = decay_problem
        ev0 = build_evolution(model, mesh, grid)
        monkeypatch.setattr(reproduction, "with_cb", lambda m, cb: with_cb(m, cb * (1 + 1e-8)))
        with pytest.raises(ReproductionError, match="normalization missed r = 1"):
            normalize(model, ev0)

    def test_round_trips_through_config(self, diffusion_normalized):
        normalized = diffusion_normalized[0]
        reparsed = parse_model(serialize_model(normalized))
        assert reparsed.cb == normalized.cb


class TestSpectralRadiusEdges:
    def test_zero_matrix(self):
        r, _ = spectral_radius(np.zeros((3, 3)))
        assert r == 0.0

    def test_rotation_does_not_converge(self):
        with pytest.raises(PowerIterationError):
            spectral_radius(np.array([[0.0, -1.0], [1.0, 0.0]]), max_iter=200)

    def test_near_tie_converges_quickly(self):
        # the shape of a large-density shell probe at nx 48: near-diagonal,
        # top two entries 6e-5 apart relative, so plain power iteration
        # needs ~1/gap iterations; the stagnant bracket must hand over to
        # the dense check long before that
        diag = np.linspace(0.02, 0.13, 48)
        diag[-2:] = 0.138452, 0.138461
        coupling = 1e-7 * (np.eye(48, k=1) + np.eye(48, k=-1))
        matrix = np.diag(diag) + coupling
        r, v = spectral_radius(matrix, max_iter=1000)
        assert r == pytest.approx(dense_radius(matrix), rel=1e-12)
        assert np.max(v) == 1.0 and np.all(v >= 0.0)
        np.testing.assert_allclose(matrix @ v, r * v, rtol=0, atol=1e-14)

    def test_failed_dense_fallback_is_a_power_iteration_error(self, monkeypatch):
        # LinAlgError subclasses ValueError, which the CLI reads as bad input
        def failing(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", failing)
        diag = np.linspace(0.02, 0.13, 48)
        diag[-2:] = 0.138452, 0.138461
        with pytest.raises(PowerIterationError, match="dense eigensolve failed") as info:
            spectral_radius(np.diag(diag) + 1e-7 * (np.eye(48, k=1) + np.eye(48, k=-1)), max_iter=1000)
        assert not isinstance(info.value, ValueError)

    def test_non_finite_rejected(self):
        with pytest.raises(ReproductionError, match="finite"):
            spectral_radius(np.array([[np.nan]]))


def _large_probe_diagonal() -> np.ndarray:
    # a large-density shell probe's Q at nx 48 on a pure-decay model: the
    # top pair 6e-5 apart relative, and no coupling
    diag = np.linspace(0.02, 0.13, 48)
    diag[-2:] = 0.138452, 0.138461
    return np.diag(diag)


DIAGONAL = {
    "scaled identity": 0.7 * np.eye(5),
    "unique maximum": np.diag([0.3, 0.9, 0.1, 0.5]),
    "large probe": _large_probe_diagonal(),
    "exact tie": np.diag([0.2, 0.6, 0.4, 0.6]),
    "zero": np.zeros((4, 4)),
}


class TestDiagonalClosedForm:
    """A nonnegative diagonal matrix gets its radius in closed form, with
    the loop's bits, and no eigensolve."""

    @pytest.mark.parametrize("name", sorted(DIAGONAL))
    def test_radius_has_the_loops_bits(self, name, monkeypatch):
        matrix = DIAGONAL[name]
        ok, r_loop, v_loop = power_iteration_loop(matrix, 1e-13, 100000)
        assert ok

        def failing(matrix):
            raise np.linalg.LinAlgError("no eigensolve expected")

        monkeypatch.setattr(np.linalg, "eig", failing)
        r, v = spectral_radius(matrix)
        assert r == r_loop and np.signbit(r) == np.signbit(r_loop)
        # the indicator of the largest entries is an exact eigenvector
        assert np.array_equal(matrix @ v, r * v)
        assert np.max(v) == 1.0 and set(np.unique(v)) <= {0.0, 1.0}
        if name in ("scaled identity", "zero"):
            assert np.array_equal(v, v_loop)

    @pytest.mark.parametrize("where", ["coupling", "negative"])
    def test_coupled_or_negative_matrix_takes_the_loop(self, where):
        matrix = np.diag([0.3, 0.5, 0.2])
        if where == "coupling":
            matrix[0, 1] = 1e-300
        else:
            matrix[2, 2] = -0.2
        r, v = spectral_radius(matrix)
        _, r_loop, v_loop = power_iteration_loop(matrix, 1e-13, 100000)
        assert r == r_loop and np.array_equal(v, v_loop)
        # the loop stops with the other entries small, not zero
        assert np.count_nonzero(v) == 3


class TestCharacteristicValues:
    def test_scalar_spectrum_leading_value(self, decay_normalized):
        model, mesh, grid, _ = decay_normalized
        q = assemble_Q(model, build_evolution(model, mesh, grid))
        vals = characteristic_values(q, 1)
        assert vals == [pytest.approx(1.0, abs=1e-9)]

    def test_degenerate_spectrum_truncates_with_warning(self, decay_normalized):
        model, mesh, grid, _ = decay_normalized
        q = assemble_Q(model, build_evolution(model, mesh, grid))
        with pytest.warns(RuntimeWarning):
            vals = characteristic_values(q, 3)
        assert 1 <= len(vals) < 3
        for v in vals:
            assert v == pytest.approx(1.0, abs=1e-9)

    def test_matches_dense_eigenvalues(self, diffusion_problem):
        model, mesh, grid = diffusion_problem
        q = assemble_Q(model, build_evolution(model, mesh, grid))
        eigs = dense_eigenvalues(q)
        vals = characteristic_values(q, 2)
        for got in vals:
            gaps = np.abs(1.0 / eigs - got)
            assert float(np.min(gaps)) <= 1e-7 * abs(got)

    def test_k_range_checked(self, decay_q0):
        *_, q = decay_q0
        with pytest.raises(ReproductionError):
            characteristic_values(q, 0)
        with pytest.raises(ReproductionError):
            characteristic_values(q, q.shape[0] + 1)
