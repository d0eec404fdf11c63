"""Diagonal evolutions: assemble_Q, the corrector's Jacobian, propagate
and apply_K0 divide by the evolution's divisors, with the bits of the
column marches in oracles, which factor each age's divisors and solve.

An evolution is diagonal when its model is pure decay, as the bundled
shell_decay and logistic_decay are; it keeps the divisors of all ages as
one array, makes no factors and calls no solve.  A pure-decay model
whose h reads p still has diagonal steps, and so a diagonal Q, but its
Jacobian has a gradient term that couples the columns, so it divides a
dense (nx, nx) tangent.  An evolution of any other model keeps every
step's factors, those of a step with no coupling too, and solves on them.
"""

import numpy as np
import pytest

from agequil import continuation, tridiag
from agequil.continuation import ContinuationError, Plane, first_step
from agequil.discretize import SpatialMesh
from agequil.evolution import AgeGrid, apply_K0, build_evolution, march, propagate
from agequil.fixedpoint import check_shell_conditions
from agequil.linearized import build_linearized
from agequil.model import parse_model
from agequil.reproduction import ReproductionError, assemble_Q, spectral_radius

from conftest import MIXED, MODELS
from oracles import apply_K0_by_steps, assemble_Q_columns, corrector_jacobian_columns, propagate_by_steps


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def decay_variant(h: str = "0", b: str = "1"):
    text = (MODELS / "logistic_decay.cfg").read_text()
    text = text.replace("\nh = 0\n", f"\nh = {h}\n").replace("\nb = 1\n", f"\nb = {b}\n")
    return build_linearized(parse_model(text), SpatialMesh(nx=10), AgeGrid(na=40, a_max=1.0))


@pytest.fixture(scope="module")
def h_reads_p_lin():
    return decay_variant(h="0.05 * p * p")


def is_diagonal(ev) -> bool:
    """ev keeps its divisors as one read-only array, row 0 ones, and no factors."""
    d = ev.divisors
    return (ev.steps == [] and d.shape == ev.source.shape and not d.flags.writeable
            and np.array_equal(d[0], np.ones(d.shape[1:])))


def births(lin) -> list[np.ndarray]:
    rng = np.random.default_rng(5)
    return [0.01 * lin.perron0, 0.5 * lin.perron0, rng.uniform(0.2, 1.5, lin.mesh.nx)]


def solved_shapes(monkeypatch) -> list[tuple[int, ...]]:
    shapes, real_solve = [], tridiag.FactoredTridiag.solve

    def recording_solve(self, rhs):
        shapes.append(np.shape(rhs))
        return real_solve(self, rhs)

    monkeypatch.setattr(tridiag.FactoredTridiag, "solve", recording_solve)
    return shapes


class TestDiagonalPaths:
    @pytest.mark.parametrize("problem", ["decay_lin", "shell_lin", "h_reads_p_lin"])
    def test_marches_have_the_bits_of_the_column_marches(self, request, problem):
        lin = request.getfixturevalue(problem)
        model, mesh, grid = lin.model, lin.mesh, lin.grid
        assert is_diagonal(lin.ev0)
        assert same_bits(assemble_Q(model, lin.ev0), assemble_Q_columns(model, lin.ev0))
        f = np.random.default_rng(6).uniform(-1.0, 2.0, lin.ev0.source.shape)
        assert same_bits(apply_K0(lin.ev0, f), apply_K0_by_steps(lin.ev0, f))
        for B in births(lin):
            ev = march(model, mesh, grid, B)
            assert is_diagonal(ev)
            plane = Plane(B / np.linalg.norm(B), 0.3, B, 1.1)
            for n in (1.1, -0.7):
                jac = continuation._corrector_jacobian(lin, n, ev, plane)
                assert same_bits(jac, corrector_jacobian_columns(lin, n, ev, plane))
            assert same_bits(assemble_Q(model, ev), assemble_Q_columns(model, ev))
            assert same_bits(propagate(lin.ev0, B), propagate_by_steps(lin.ev0, B))
            assert same_bits(propagate(ev, B), ev.source)

    def test_frozen_shell_field(self, shell_lin):
        model, mesh, grid = shell_lin.model, shell_lin.mesh, shell_lin.grid
        u = np.random.default_rng(8).uniform(0.0, 3.0, (grid.na + 1, mesh.nx))
        ev = build_evolution(model, mesh, grid, u)
        assert is_diagonal(ev) and ev.divisors.shape == u.shape
        assert same_bits(assemble_Q(model, ev), assemble_Q_columns(model, ev))

    def test_a_gradient_term_takes_the_dense_jacobian(self, h_reads_p_lin):
        lin = h_reads_p_lin
        B = births(lin)[2]
        ev = march(lin.model, lin.mesh, lin.grid, B)
        plane = Plane(np.zeros(lin.mesh.nx), 1.0, B, 1.0)
        jac = continuation._corrector_jacobian(lin, 1.0, ev, plane)
        # the gradient term couples the columns: the B block is not diagonal
        block = jac[:lin.mesh.nx, :lin.mesh.nx]
        assert np.count_nonzero(block - np.diag(np.diag(block)))
        assert same_bits(jac, corrector_jacobian_columns(lin, 1.0, ev, plane))

    def test_diffusion_takes_the_dense_paths(self, diffusion_lin, monkeypatch):
        lin = diffusion_lin
        ev = build_evolution(lin.model, lin.mesh, lin.grid, birth=0.5 * lin.perron0)
        assert ev.divisors is None and len(ev.steps) == lin.grid.na
        plane = Plane(np.zeros(lin.mesh.nx), 1.0, 0.5 * lin.perron0, 1.0)
        shapes = solved_shapes(monkeypatch)
        jac = continuation._corrector_jacobian(lin, 1.0, ev, plane)
        q = assemble_Q(lin.model, ev)
        assert shapes == [(lin.mesh.nx, lin.mesh.nx)] * (2 * lin.grid.na)
        assert same_bits(jac, corrector_jacobian_columns(lin, 1.0, ev, plane))
        assert same_bits(q, assemble_Q_columns(lin.model, ev))

    def test_no_solve_takes_a_basis(self, decay_lin, shell_problem, monkeypatch):
        # a branch point, with its reformulation residual, and the shell
        # probes, six fields one at a time, call no solve at all
        shapes = solved_shapes(monkeypatch)
        first_step(decay_lin, 1e-2)
        model, _, grid = shell_problem
        check_shell_conditions(model, SpatialMesh(nx=8), grid, 1e-2, 5.0)
        assert shapes == []

    @pytest.mark.parametrize("h", ["0", "0.05 * p * p"])
    def test_non_finite_fertility_raises_the_same_text(self, h):
        lin = decay_variant(h=h, b="exp(100 * u)")
        B = np.random.default_rng(3).uniform(10.0, 15.0, lin.mesh.nx)
        ev = march(lin.model, lin.mesh, lin.grid, B)
        plane = Plane(np.zeros(lin.mesh.nx), 1.0, B, 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            for jacobian in (continuation._corrector_jacobian, corrector_jacobian_columns):
                with pytest.raises(ContinuationError, match="^non-finite corrector Jacobian$"):
                    jacobian(lin, 1.0, ev, plane)
            for assemble in (assemble_Q, assemble_Q_columns):
                with pytest.raises(ReproductionError, match="^reproduction matrix has non-finite entries$"):
                    spectral_radius(assemble(lin.model, ev))


class TestMixedEvolution:
    """An evolution with one uncoupled step among coupled ones keeps every
    step's factors and no divisors, and solves on them: the uncoupled
    step's factors have zero multipliers."""

    @pytest.fixture(scope="class")
    def mixed_lin(self):
        return build_linearized(MIXED, SpatialMesh(nx=10), AgeGrid(na=8, a_max=1.0))

    def test_keeps_its_steps_with_the_bits_of_the_oracles(self, mixed_lin):
        lin = mixed_lin
        model, mesh, grid = lin.model, lin.mesh, lin.grid
        marches = [march(model, mesh, grid, B) for B in births(lin)]
        for ev in (lin.ev0, *marches):
            assert ev.divisors is None and len(ev.steps) == grid.na
            assert [k for k, step in enumerate(ev.steps) if not np.any(step.mult)] == [3]
            assert same_bits(assemble_Q(model, ev), assemble_Q_columns(model, ev))
        f = np.random.default_rng(6).uniform(-1.0, 2.0, lin.ev0.source.shape)
        assert same_bits(apply_K0(lin.ev0, f), apply_K0_by_steps(lin.ev0, f))
        for B, ev in zip(births(lin), marches):
            assert same_bits(propagate(lin.ev0, B), propagate_by_steps(lin.ev0, B))
            assert same_bits(propagate(ev, B), propagate_by_steps(ev, B))
            assert same_bits(propagate(ev, B), ev.source)
            plane = Plane(B / np.linalg.norm(B), 0.3, B, 1.1)
            for n in (1.1, -0.7):
                jac = continuation._corrector_jacobian(lin, n, ev, plane)
                assert same_bits(jac, corrector_jacobian_columns(lin, n, ev, plane))
