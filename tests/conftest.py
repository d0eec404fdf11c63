from __future__ import annotations

from pathlib import Path

import pytest

from agequil.continuation import Branch, trace_branch
from agequil.discretize import SpatialMesh
from agequil.evolution import AgeGrid
from agequil.linearized import LinearizedOperators, build_linearized
from agequil.model import ModelSpec, parse_grid, parse_model

REPO = Path(__file__).resolve().parent.parent
MODELS = REPO / "models"

# one pass/fail line per acceptance criterion, printed after the run
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def load_problem(name: str) -> tuple[ModelSpec, SpatialMesh, AgeGrid]:
    text = (MODELS / name).read_text()
    model = parse_model(text)
    nx, na = parse_grid(text)
    return model, SpatialMesh(nx=nx), AgeGrid(na=na, a_max=model.a_max)


@pytest.fixture(scope="session")
def decay_problem() -> tuple[ModelSpec, SpatialMesh, AgeGrid]:
    return load_problem("logistic_decay.cfg")


@pytest.fixture(scope="session")
def decay_lin(decay_problem) -> LinearizedOperators:
    return build_linearized(*decay_problem)


@pytest.fixture(scope="session")
def decay_normalized(decay_lin):
    return decay_lin.model, decay_lin.mesh, decay_lin.grid, decay_lin.r_before


@pytest.fixture(scope="session")
def decay_branch(decay_lin) -> Branch:
    return trace_branch(decay_lin, max_points=10)


@pytest.fixture(scope="session")
def diffusion_problem() -> tuple[ModelSpec, SpatialMesh, AgeGrid]:
    return load_problem("logistic_diffusion.cfg")


@pytest.fixture(scope="session")
def diffusion_lin(diffusion_problem) -> LinearizedOperators:
    return build_linearized(*diffusion_problem)


@pytest.fixture(scope="session")
def diffusion_normalized(diffusion_lin):
    return diffusion_lin.model, diffusion_lin.mesh, diffusion_lin.grid, diffusion_lin.r_before


@pytest.fixture(scope="session")
def diffusion_branch(diffusion_lin) -> Branch:
    return trace_branch(diffusion_lin, max_points=5)


@pytest.fixture(scope="session")
def shell_problem() -> tuple[ModelSpec, SpatialMesh, AgeGrid]:
    return load_problem("shell_decay.cfg")


@pytest.fixture(scope="session")
def shell_lin(shell_problem) -> LinearizedOperators:
    return build_linearized(*shell_problem)
