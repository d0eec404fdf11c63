"""Parameter-free equilibria by fixed-point iteration of the birth map.

This is the second, independent route to an equilibrium: no continuation,
no Newton, no linearization.  The map sends a birth vector B to the birth
functional of its self-consistent field,

    B  <-  l(u(B)),    u(B) = march(model, mesh, grid, B).source,

the same one-pass march the continuation corrector evaluates; Anderson
mixing (Walker and Ni, SIAM J. Numer. Anal. 49 (2011) 1715-1735) only
shortens the path to the fixed point.  solve_fixedpoint is the route's
one entry point: it runs the map from each of its starts in turn until
one does not collapse onto the trivial equilibrium.  When the model
satisfies the shell conditions (the reproduction operator exceeds the
identity at small amplitudes and has spectral radius below one at large
amplitudes), the iteration is pushed away from zero and pulled back from
infinity, and a nontrivial fixed point exists between the shells.
check_shell_conditions probes both shells on sampled fields, one field
at a time: one freeze and one assemble_Q each, which on a pure-decay
model assemble and factor nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import SpatialMesh
from .evolution import AgeGrid, freeze, is_trivial, march
from .model import ModelSpec
from .reproduction import assemble_Q, birth_functional, spectral_radius

MAX_RADIUS = 1.0 + 1e-9  # a spectral radius at most this is at most one, up to roundoff
ANDERSON_DEPTH = 3  # Anderson mixing fits the last 3 differences of iterates and residuals


class FixedPointError(RuntimeError):
    pass


@dataclass
class FixedPointResult:
    """Outcome of one fixed-point run.

    converged marks a nontrivial fixed point; a run that is not converged
    collapsed onto the trivial equilibrium.  u is
    the field marched from B, so it is self-consistent by construction;
    residual is the birth defect max |B - l(u)|.
    """

    u: np.ndarray
    B: np.ndarray
    converged: bool
    iterations: int
    residual: float
    r_Qu: float


def check_solve_flags(damping: float, tol: float, max_iter: int, starts: int) -> None:
    """Raise FixedPointError for damping outside (0, 1], a tol that is
    negative or not finite, max_iter below 1, or starts below 1."""
    if not 0.0 < damping <= 1.0:
        raise FixedPointError(f"damping must lie in (0, 1], got {damping!r}")
    if not (np.isfinite(tol) and tol >= 0.0):
        raise FixedPointError(f"tol must be finite and nonnegative, got {tol!r}")
    if max_iter < 1:
        raise FixedPointError(f"max_iter must be at least 1, got {max_iter!r}")
    if starts < 1:
        raise FixedPointError("starts must be at least 1")


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise FixedPointError(f"seed must be a nonnegative integer, got {seed!r}")
    return np.random.default_rng(seed)


def solve_fixedpoint(
    model: ModelSpec,
    mesh: SpatialMesh,
    grid: AgeGrid,
    *,
    damping: float = 0.5,
    tol: float = 1e-10,
    max_iter: int = 2000,
    starts: int = 3,
    seed: int = 42,
) -> FixedPointResult:
    """First nontrivial fixed point of the birth map over several starts.

    Start 0 is the all-ones birth vector; start k >= 1 is the k-th draw
    uniform(0.5, 1.5, nx) of default_rng(seed).  A start that collapses
    triggers the next; if every start collapses, the last collapsed
    result is returned, since the trivial equilibrium is then the honest
    answer.  Raises FixedPointError for flags check_solve_flags refuses, a
    negative seed, or a start that _run_start refuses.
    """
    check_solve_flags(damping, tol, max_iter, starts)
    rng = _rng(seed)
    for k in range(starts):
        B = np.ones(mesh.nx) if k == 0 else rng.uniform(0.5, 1.5, mesh.nx)
        result = _run_start(model, mesh, grid, B, damping, tol, max_iter)
        if result.converged:
            break
    return result


def _run_start(
    model: ModelSpec,
    mesh: SpatialMesh,
    grid: AgeGrid,
    B: np.ndarray,
    damping: float,
    tol: float,
    max_iter: int,
) -> FixedPointResult:
    """Birth map B <- l(u(B)) from one start B, with Anderson mixing.

    u(B) is the field marched from B.  Each step corrects the damped
    update (1 - damping) B + damping l(u(B)) by a least-squares fit over
    the last ANDERSON_DEPTH differences of iterates and residuals
    l(u(B)) - B; a negative or non-finite result falls back to the damped
    update and drops the history.  Stops when B collapses (the trivial
    equilibrium attracted the iterate; returned with converged=False) or
    when the change in B reaches tol; then a B that has not collapsed is
    polished by the undamped map.  Raises FixedPointError for an
    unconverged iteration at max_iter, or a collapse onto a trivial
    equilibrium with r(Q0) > 1, which repels.
    """
    Bs, fs = [], []
    for it in range(1, max_iter + 1):
        u = march(model, mesh, grid, B).source
        image = birth_functional(model, grid, u)
        f = image - B
        Bs, fs = (Bs + [B])[-ANDERSON_DEPTH - 1:], (fs + [f])[-ANDERSON_DEPTH - 1:]
        B_next = (1.0 - damping) * B + damping * image
        # a non-finite image is left to the next march to refuse
        if len(fs) > 1 and np.all(np.isfinite(f)):
            dF = np.diff(np.stack(fs, axis=1), axis=1)
            gamma = np.linalg.lstsq(dF, f, rcond=None)[0]
            mixed = B_next - (np.diff(np.stack(Bs, axis=1), axis=1) + damping * dF) @ gamma
            if np.all(np.isfinite(mixed)) and np.all(mixed >= 0.0):
                B_next = mixed
            else:
                Bs, fs = [B], [f]
        change = float(np.max(np.abs(B_next - B)))
        B = B_next
        if is_trivial(B) or change <= tol:
            break
    else:
        raise FixedPointError(f"no convergence in {max_iter} iterations (last change {change:.3e})")

    # a few undamped sweeps of the same map tighten B to self-consistency
    # before the residual and the reproduction radius are measured
    if not is_trivial(B):
        for _ in range(200):
            u = march(model, mesh, grid, B).source
            B_prop = birth_functional(model, grid, u)
            delta = float(np.max(np.abs(B_prop - B)))
            B = B_prop
            if delta <= 1e-13 * max(1.0, float(np.max(np.abs(B)))):
                break
    # a slow slide toward zero can pass the change test well above the
    # collapse threshold; the polish exposes it
    converged = not is_trivial(B)
    if not converged:
        B = np.zeros(mesh.nx)
    ev = march(model, mesh, grid, B)
    u = ev.source
    residual = float(np.max(np.abs(B - birth_functional(model, grid, u))))
    # the dense radius, not branch_point's bracket: a pure-decay Q_u is diagonal, with a
    # closed-form radius, and a collapsed B = 0 has no bracket but needs r(Q0) for MAX_RADIUS
    r, _ = spectral_radius(assemble_Q(model, ev))
    if not converged and r > MAX_RADIUS:
        raise FixedPointError(f"iterate fell into the trivial equilibrium, which repels: r(Q0) = {r!r}")
    return FixedPointResult(u=u, B=B, converged=converged, iterations=it, residual=residual, r_Qu=r)


@dataclass(frozen=True)
class ShellReport:
    tau0: float
    tau1: float
    verdict_small_densities: bool
    verdict_large_densities: bool
    min_small_excess: float
    max_large_radius: float


def _sample_fields(mesh: SpatialMesh, grid: AgeGrid, rng: np.random.Generator) -> list[np.ndarray]:
    shape = (grid.na + 1, mesh.nx)
    flat = np.ones(shape)
    decaying = np.exp(-grid.ages)[:, None] * np.ones((1, mesh.nx))
    ramp = np.ones((grid.na + 1, 1)) * mesh.nodes[None, :]
    return [flat, decaying, ramp, rng.uniform(0.0, 1.0, shape),
            rng.uniform(0.0, 1.0, shape), rng.uniform(0.0, 1.0, shape)]


def check_shell_conditions(
    model: ModelSpec,
    mesh: SpatialMesh,
    grid: AgeGrid,
    tau0: float,
    tau1: float,
    *,
    seed: int = 42,
) -> ShellReport:
    """Probe the two shells on structured and random nonnegative fields.

    Small-amplitude fields (norms tau0, tau0/2, tau0/10) must give
    reproduction matrices entrywise at or above the identity; large ones
    (norms tau1, 2 tau1, 4 tau1) must have spectral radius at most one.
    Both verdicts carry a roundoff allowance.  tau0 must be below tau1,
    4 tau1 finite, and seed nonnegative.
    """
    if not (0.0 < tau0 < tau1 and np.isfinite(4.0 * tau1)):
        raise FixedPointError(
            f"need 0 < tau0 < tau1 with 4 tau1 finite, got tau0={tau0!r}, tau1={tau1!r}"
        )
    fields = _sample_fields(mesh, grid, _rng(seed))

    def probes(amplitudes: list[float]) -> list[np.ndarray]:
        scaled = (f * (a / grid.norm(f)) for f, a in zip(fields, amplitudes))
        return [assemble_Q(model, freeze(model, mesh, grid, u)) for u in scaled]

    small = probes([tau0 / (1.0, 2.0, 10.0)[i % 3] for i in range(len(fields))])
    large = probes([tau1 * (1.0, 2.0, 4.0)[i % 3] for i in range(len(fields))])
    min_excess = float(np.min(np.array(small) - np.eye(mesh.nx)))
    max_radius = max(spectral_radius(q)[0] for q in large)
    return ShellReport(
        tau0=tau0,
        tau1=tau1,
        verdict_small_densities=bool(min_excess >= -1e-12),
        verdict_large_densities=bool(max_radius <= MAX_RADIUS),
        min_small_excess=min_excess,
        max_large_radius=float(max_radius),
    )
