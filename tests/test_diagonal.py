"""Diagonal evolutions: assemble_Q, the corrector's Jacobian and propagate
march only the diagonal, with the bits of the column marches in oracles.

An evolution is diagonal when every factored step is (mult is None), as
on the bundled pure-decay models.  A pure-decay model whose h reads p
still has diagonal steps, and so a diagonal Q, but its Jacobian has a
gradient term that couples the columns, so it takes the dense march.
"""

import numpy as np
import pytest

from agequil import continuation, tridiag
from agequil.continuation import ContinuationError, Plane, first_step
from agequil.discretize import SpatialMesh
from agequil.evolution import AgeGrid, build_evolution, propagate
from agequil.fixedpoint import check_shell_conditions
from agequil.linearized import build_linearized
from agequil.model import parse_model
from agequil.reproduction import ReproductionError, assemble_Q, spectral_radius

from conftest import MODELS
from oracles import assemble_Q_columns, corrector_jacobian_columns, propagate_by_steps


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def decay_variant(h: str = "0", b: str = "1"):
    text = (MODELS / "logistic_decay.cfg").read_text()
    text = text.replace("\nh = 0\n", f"\nh = {h}\n").replace("\nb = 1\n", f"\nb = {b}\n")
    return build_linearized(parse_model(text), SpatialMesh(nx=10), AgeGrid(na=40, a_max=1.0))


@pytest.fixture(scope="module")
def h_reads_p_lin():
    return decay_variant(h="0.05 * p * p")


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
        assert lin.ev0.diagonal
        assert same_bits(assemble_Q(model, lin.ev0), assemble_Q_columns(model, lin.ev0))
        for B in births(lin):
            ev = build_evolution(model, mesh, grid, birth=B)
            assert ev.diagonal
            plane = Plane(B / np.linalg.norm(B), 0.3, B, 1.1)
            for n in (1.1, -0.7):
                jac = continuation._corrector_jacobian(lin, n, ev, plane)
                assert same_bits(jac, corrector_jacobian_columns(lin, n, ev, plane))
            assert same_bits(assemble_Q(model, ev), assemble_Q_columns(model, ev))
            assert same_bits(propagate(lin.ev0, B), propagate_by_steps(lin.ev0, B))
            assert same_bits(propagate(ev, B), ev.source)

    @pytest.mark.parametrize("batch", [None, 5])
    def test_frozen_shell_fields_single_and_batched(self, shell_lin, batch):
        model, mesh, grid = shell_lin.model, shell_lin.mesh, shell_lin.grid
        shape = (grid.na + 1, mesh.nx) + ((batch,) if batch else ())
        u = np.random.default_rng(8).uniform(0.0, 3.0, shape)
        ev = build_evolution(model, mesh, grid, u)
        assert ev.diagonal
        assert same_bits(assemble_Q(model, ev), assemble_Q_columns(model, ev))

    def test_a_gradient_term_takes_the_dense_jacobian(self, h_reads_p_lin, monkeypatch):
        lin = h_reads_p_lin
        B = births(lin)[2]
        ev = build_evolution(lin.model, lin.mesh, lin.grid, birth=B)
        shapes = solved_shapes(monkeypatch)
        continuation._corrector_jacobian(lin, 1.0, ev, Plane(np.zeros(lin.mesh.nx), 1.0, B, 1.0))
        assert shapes == [(lin.mesh.nx, lin.mesh.nx)] * lin.grid.na

    def test_diffusion_takes_the_dense_paths(self, diffusion_lin, monkeypatch):
        lin = diffusion_lin
        ev = build_evolution(lin.model, lin.mesh, lin.grid, birth=0.5 * lin.perron0)
        assert not ev.diagonal
        plane = Plane(np.zeros(lin.mesh.nx), 1.0, 0.5 * lin.perron0, 1.0)
        shapes = solved_shapes(monkeypatch)
        jac = continuation._corrector_jacobian(lin, 1.0, ev, plane)
        q = assemble_Q(lin.model, ev)
        assert shapes == [(lin.mesh.nx, lin.mesh.nx)] * (2 * lin.grid.na)
        assert same_bits(jac, corrector_jacobian_columns(lin, 1.0, ev, plane))
        assert same_bits(q, assemble_Q_columns(lin.model, ev))

    def test_no_solve_takes_a_basis(self, decay_lin, shell_problem, monkeypatch):
        # a branch point and the shell probes, batched over six fields
        shapes = solved_shapes(monkeypatch)
        first_step(decay_lin, 1e-2)
        model, _, grid = shell_problem
        check_shell_conditions(model, SpatialMesh(nx=8), grid, 1e-2, 5.0)
        assert shapes
        assert not [s for s in shapes if s[:2] in ((decay_lin.mesh.nx,) * 2, (8, 8))]

    @pytest.mark.parametrize("h", ["0", "0.05 * p * p"])
    def test_non_finite_fertility_raises_the_same_text(self, h):
        lin = decay_variant(h=h, b="exp(100 * u)")
        B = np.random.default_rng(3).uniform(10.0, 15.0, lin.mesh.nx)
        ev = build_evolution(lin.model, lin.mesh, lin.grid, birth=B)
        plane = Plane(np.zeros(lin.mesh.nx), 1.0, B, 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            for jacobian in (continuation._corrector_jacobian, corrector_jacobian_columns):
                with pytest.raises(ContinuationError, match="^non-finite corrector Jacobian$"):
                    jacobian(lin, 1.0, ev, plane)
            for assemble in (assemble_Q, assemble_Q_columns):
                with pytest.raises(ReproductionError, match="^reproduction matrix has non-finite entries$"):
                    spectral_radius(assemble(lin.model, ev))
