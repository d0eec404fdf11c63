import re

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from agequil import evolution, linearized, tridiag
from agequil.discretize import AssemblyError, SpatialMesh, assemble
from agequil.evolution import (
    AgeGrid,
    EvolutionError,
    apply_K0,
    build_evolution,
    freeze,
    march,
    propagate,
)
from agequil.expr import Num, parse_expr
from agequil.linearized import build_linearized, reformulation_residual
from agequil.model import ModelSpec
from agequil.tridiag import factor_tridiag

from conftest import MIXED, load_problem
from oracles import assemble_general, decay_rows, k0_const_rows, logistic_rows, march_by_division


def decay_model(mu: str = "1") -> ModelSpec:
    return ModelSpec(
        a_max=1.0,
        D=Num(1.0), g=Num(0.0), h=Num(0.0), mu=parse_expr(mu), b=Num(1.0),
        pure_decay=True,
    )


class TestAgeGrid:
    def test_basic(self):
        grid = AgeGrid(na=4, a_max=2.0)
        assert grid.da == 0.5
        np.testing.assert_allclose(grid.ages, [0.0, 0.5, 1.0, 1.5, 2.0])
        np.testing.assert_allclose(grid.weights, [0.25, 0.5, 0.5, 0.5, 0.25])
        assert grid.weights.sum() == pytest.approx(grid.a_max)

    def test_rejects(self):
        with pytest.raises(EvolutionError):
            AgeGrid(na=1, a_max=1.0)
        with pytest.raises(EvolutionError):
            AgeGrid(na=4, a_max=0.0)

    def test_norm_is_age_integral_of_spatial_max(self):
        grid = AgeGrid(na=2, a_max=1.0)
        u = np.array([[1.0, -2.0], [0.5, 0.25], [0.0, 0.0]])
        assert grid.norm(u) == pytest.approx(0.25 * 2.0 + 0.5 * 0.5)


class TestPropagate:
    def test_unit_mortality_closed_form(self):
        mesh = SpatialMesh(nx=4)
        grid = AgeGrid(na=50, a_max=1.0)
        ev = build_evolution(decay_model(), mesh, grid)
        assert ev.source.shape == (grid.na + 1, mesh.nx) and not np.any(ev.source)
        B = np.array([1.0, 2.0, 0.5, 0.0])
        field = propagate(ev, B)
        expected = decay_rows(grid.na, grid.a_max)[:, None] * B[None, :]
        np.testing.assert_allclose(field, expected, rtol=1e-13, atol=0)

    def test_age_dependent_mortality(self):
        # mu = a integrates exactly like the scalar stepped recursion
        mesh = SpatialMesh(nx=2)
        grid = AgeGrid(na=30, a_max=1.0)
        ev = build_evolution(decay_model(mu="a"), mesh, grid)
        field = propagate(ev, np.ones(2))
        expected = np.empty(grid.na + 1)
        expected[0] = 1.0
        for k in range(grid.na):
            expected[k + 1] = expected[k] / (1.0 + grid.da * grid.ages[k + 1])
        np.testing.assert_allclose(field[:, 0], expected, rtol=1e-14)

    def test_quasilinear_lag_uses_previous_slice(self):
        mesh = SpatialMesh(nx=3)
        grid = AgeGrid(na=40, a_max=1.0)
        B = np.full(3, 0.7)
        rows = logistic_rows(0.7, grid.na, grid.a_max)
        frozen = np.tile(rows[:, None], (1, 3))
        ev = build_evolution(decay_model(mu="1 + u"), mesh, grid, frozen)
        field = propagate(ev, B)
        np.testing.assert_allclose(field, frozen, rtol=1e-13, atol=1e-16)

    def test_input_validation(self):
        mesh = SpatialMesh(nx=3)
        grid = AgeGrid(na=5, a_max=1.0)
        ev = build_evolution(decay_model(), mesh, grid)
        with pytest.raises(EvolutionError, match="shape"):
            propagate(ev, np.ones(4))
        with pytest.raises(EvolutionError, match="finite"):
            propagate(ev, np.array([1.0, np.nan, 0.0]))

    @pytest.mark.parametrize("shape", [(6,), (6, 3, 2, 1), (5, 3), (6, 4), (6, 4, 2)])
    def test_field_shape_checked(self, shape):
        # a field is (na+1, nx)
        mesh = SpatialMesh(nx=3)
        grid = AgeGrid(na=5, a_max=1.0)
        ev = build_evolution(decay_model(), mesh, grid)
        for frozen in (build_evolution, freeze):
            with pytest.raises(EvolutionError, match=f"^frozen field of shape {re.escape(str(shape))} does not match the grids$"):
                frozen(decay_model(), mesh, grid, np.zeros(shape))
        with pytest.raises(EvolutionError, match="does not match the grids"):
            apply_K0(ev, np.zeros(shape))

    def test_singular_step_reported(self):
        mesh = SpatialMesh(nx=2)
        grid = AgeGrid(na=5, a_max=1.0)
        with pytest.raises(EvolutionError, match="singular one-step"):
            build_evolution(decay_model(mu="0 - 200"), mesh, grid)

    # mu = u exp(1000 a) overflows at a = 0.75, age index 6 of 8, where a
    # positive march makes the diagonal +inf and the zero march 0 * inf,
    # a NaN; the diagonal test passes neither, and the pivot check names
    # both, in the build and in march, which checks all ages at the end
    @pytest.mark.parametrize("birth, pivot", [(1.0, "inf"), (0.0, "nan")])
    def test_mortality_overflowing_on_the_march_names_the_age(self, birth, pivot):
        model = decay_model(mu="u * exp(1000 * a)")
        mesh, grid = SpatialMesh(nx=3), AgeGrid(na=8, a_max=1.0)
        message = f"^singular one-step matrix at age index 6: non-finite pivot {pivot} at row 0$"
        B = np.full(mesh.nx, birth)
        for run in (lambda: build_evolution(model, mesh, grid, birth=B), lambda: march(model, mesh, grid, B)):
            with np.errstate(all="ignore"), pytest.raises(EvolutionError, match=message):
                run()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_exact_nonnegativity_with_diffusion(self, seed):
        rng = np.random.default_rng(seed)
        mesh = SpatialMesh(nx=6)
        grid = AgeGrid(na=8, a_max=1.0)
        model = ModelSpec(
            a_max=1.0,
            D=parse_expr("0.5 + x"), g=parse_expr("u - p"), h=parse_expr("u"),
            mu=parse_expr("0.2 + u"), b=Num(1.0), nu0=float(rng.uniform(0, 3)),
        )
        u = rng.uniform(0.0, 2.0, (9, 6))
        B = rng.uniform(0.0, 1.0, 6)
        B[rng.integers(0, 6)] = 0.0
        field = propagate(build_evolution(model, mesh, grid, u), B)
        assert np.all(field >= 0.0)

    def test_linearity_of_linear_evolution(self):
        mesh = SpatialMesh(nx=5)
        grid = AgeGrid(na=12, a_max=1.0)
        model = ModelSpec(
            a_max=1.0, D=Num(0.3), g=Num(0.0), h=Num(0.1), mu=Num(1.0), b=Num(1.0),
            nu0=0.5,
        )
        ev = build_evolution(model, mesh, grid)
        rng = np.random.default_rng(3)
        B1, B2 = rng.normal(size=(2, 5))
        combo = propagate(ev, 2.0 * B1 - 0.5 * B2)
        parts = 2.0 * propagate(ev, B1) - 0.5 * propagate(ev, B2)
        np.testing.assert_allclose(combo, parts, atol=1e-13)


@pytest.mark.parametrize("name", ["shell_decay.cfg", "logistic_decay.cfg", "logistic_diffusion.cfg"])
@pytest.mark.parametrize("k", [1, 3])
def test_every_layer_takes_one_field(name, k):
    # a batch axis, k slices (nx, k), k birth vectors (nx, k) or k fields
    # (na+1, nx, k), is refused in one line, on a pure-decay model, whose
    # freeze builds nothing, and on a coupled one; a batch of one is a
    # batch, not a field to squeeze
    model, mesh, grid = load_problem(name)
    message = f"u_slice has shape ({mesh.nx}, {k}), expected ({mesh.nx},)"
    with pytest.raises(AssemblyError, match=f"^{re.escape(message)}$"):
        assemble(model, mesh, 0.5, np.zeros((mesh.nx, k)))
    field = (grid.na + 1, mesh.nx, k)
    message = f"frozen field of shape {field} does not match the grids"
    for frozen in (build_evolution, freeze):
        with pytest.raises(EvolutionError, match=f"^{re.escape(message)}$"):
            frozen(model, mesh, grid, np.zeros(field))
    message = f"birth vector has shape ({mesh.nx}, {k}), expected ({mesh.nx},)"
    for ev in (freeze(model, mesh, grid, np.zeros(field[:2])), build_evolution(model, mesh, grid)):
        with pytest.raises(EvolutionError, match=f"^{re.escape(message)}$"):
            propagate(ev, np.ones((mesh.nx, k)))
    message = f"source field of shape {field} does not match the grids"
    with pytest.raises(EvolutionError, match=f"^{re.escape(message)}$"):
        apply_K0(build_evolution(model, mesh, grid), np.zeros(field))


class TestSteps:
    ROBIN = ModelSpec(
        a_max=1.0,
        D=parse_expr("1 + a * x + exp(-a)"), g=parse_expr("p - 2 * u * exp(-u)"), h=parse_expr("0.2 * u"),
        mu=parse_expr("1 + a * u^2"), b=Num(1.0), nu0=0.7,
    )

    @pytest.mark.parametrize("name", [
        "logistic_diffusion.cfg", "logistic_decay.cfg", "robin", "shell_decay.cfg", "mixed",
    ])
    @pytest.mark.parametrize("frozen", [False, True])
    def test_factors_have_the_bits_of_the_scaled_oracle_bands(self, name, frozen):
        # step k is factor_tridiag(da * lower, 1 + da * diag, da * upper) of
        # A(u_k, a_{k+1}), on a march or on a frozen field.  An evolution
        # keeps divisors exactly when its model is pure decay, whichever
        # way it is made: a pure-decay build keeps only its pivots, row
        # k + 1 of its divisors, the diagonal to the bit with zero
        # multipliers; any other keeps every step, MIXED's uncoupled one too
        model = {"robin": self.ROBIN, "mixed": MIXED}.get(name) or load_problem(name)[0]
        mesh, grid = SpatialMesh(nx=9), AgeGrid(na=8, a_max=model.a_max)
        if frozen:
            u = np.random.default_rng(5).uniform(0, 2, (grid.na + 1, mesh.nx))
            ev = build_evolution(model, mesh, grid, u)
            made = [ev, build_evolution(model, mesh, grid), freeze(model, mesh, grid, u)]
        else:
            B = np.linspace(0.2, 1.0, mesh.nx)
            ev = build_evolution(model, mesh, grid, birth=B)
            made = [ev, march(model, mesh, grid, B)]
        for each in made:
            assert (each.divisors is not None) == model.pure_decay
            assert len(each.steps) == (0 if model.pure_decay else grid.na)
        da = grid.da
        for k in range(grid.na):
            lower, diag, upper = assemble_general(model, mesh, grid.ages[k + 1], ev.source[k])
            want = factor_tridiag(da * lower, 1.0 + da * diag, da * upper)
            if ev.divisors is not None:
                assert not np.any(want.mult) and same_bits(want.piv, 1.0 + da * diag)
                assert same_bits(ev.divisors[k + 1], want.piv)
                continue
            step = ev.steps[k]
            assert step.shape == want.shape == (mesh.nx,)
            for got_f, want_f in ((step.mult, want.mult), (step.piv, want.piv), (step.upper, want.upper)):
                assert same_bits(got_f, want_f)


PURE_DECAY_OF_P = ModelSpec(
    a_max=1.0, D=Num(2.0), g=Num(0.0), h=parse_expr("0.5 * p - u * p"), mu=parse_expr("1 + a * u"), b=Num(1.0),
    pure_decay=True,
)


# density-free: its divisors read a alone, so march takes them for all ages
# before it divides, and evaluates mu age by age on Python floats
AGE_ONLY = ModelSpec(
    a_max=1.0, D=Num(2.0), g=Num(0.0), h=Num(0.0), mu=parse_expr("(1.3 * a)^7 + a^3"), b=Num(1.0),
    pure_decay=True,
)


def march_problem(name: str) -> tuple[ModelSpec, SpatialMesh, AgeGrid]:
    if name == "pure_decay_of_p":
        return PURE_DECAY_OF_P, SpatialMesh(nx=9), AgeGrid(na=40, a_max=1.0)
    if name == "age_only":
        return AGE_ONLY, SpatialMesh(nx=7), AgeGrid(na=60, a_max=1.0)
    return load_problem(f"{name}.cfg")


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestMarch:
    """march against build_evolution(..., birth=B): on a pure-decay model
    it gives the oracle's field and divisors of one division per age to
    the bit, the build's divisors and field values, and the build's
    errors, whether its divisors are taken age by age or, on a
    density-free model, for all ages before one accumulated division."""

    @pytest.mark.parametrize("name", [
        "shell_decay", "logistic_decay", "pure_decay_of_p", "age_only", "logistic_diffusion",
    ])
    def test_has_the_bits_of_the_build(self, name, monkeypatch):
        model, mesh, grid = march_problem(name)
        made, real_init = [], tridiag.FactoredTridiag.__init__
        monkeypatch.setattr(tridiag.FactoredTridiag, "__init__",
                            lambda self, *args: made.append(args[0]) or real_init(self, *args))
        rng = np.random.default_rng(4)
        for B in (np.linspace(1.5, 0.5, mesh.nx), 0.01 * rng.uniform(0.0, 1.0, mesh.nx), np.zeros(mesh.nx),
                  -np.zeros(mesh.nx), rng.uniform(-0.01, 0.03, mesh.nx)):
            made.clear()
            got = march(model, mesh, grid, B)
            marched_factors = len(made)
            want = build_evolution(model, mesh, grid, birth=B)
            if model.pure_decay:
                # the divisors are one read-only (na+1, nx) array, row 0 ones
                # and row k + 1 step k's pivots, and the march makes no
                # factors.  The build marches through dgttrs, whose zeros
                # may take the other sign, so its field matches in value
                assert marched_factors == 0 and got.steps == want.steps == []
                for divisors in (got.divisors, want.divisors):
                    assert divisors.shape == (grid.na + 1, mesh.nx) and not divisors.flags.writeable
                field, divisors = march_by_division(model, mesh, grid, B)
                assert same_bits(got.source, field) and same_bits(got.divisors, divisors)
                assert same_bits(got.divisors, want.divisors) and np.array_equal(got.source, want.source)
                continue
            assert same_bits(got.source, want.source)
            assert got.divisors is want.divisors is None and marched_factors == grid.na
            assert len(got.steps) == len(want.steps) == grid.na
            for step, built in zip(got.steps, want.steps):
                assert step.shape == built.shape
                for got_f, want_f in ((step.mult, built.mult), (step.piv, built.piv), (step.upper, built.upper)):
                    assert same_bits(got_f, want_f)

    @pytest.mark.parametrize("mu, B, message", [
        # every age's divisor is 1 - 200 da, negative
        ("0 - 200", 1.0, "age index 1: nonpositive pivot -24.0 at row 0"),
        # a divisor of zero in row 1: the Thomas loop names the NaN it makes in row 2
        ("0 - 8 * u", [0.0, 1.0, 0.0], "age index 1: non-finite pivot nan at row 2"),
        # age 6 has divisor 1 - 9 da; at age 8 a power of a Python float
        # overflows, which np.errstate(over="raise") makes raise
        ("(1.4e154 * a)^2 - (1.4e154 * a)^2 - 9 * (1.3333333333333333 * a)^20", 1.0,
         "age index 6: nonpositive pivot -0.125 at row 0"),
    ], ids=["negative", "zero", "raised-later"])
    def test_bad_divisors_raise_the_builds_text(self, mu, B, message):
        model, mesh, grid = decay_model(mu), SpatialMesh(nx=3), AgeGrid(na=8, a_max=1.0)
        B = np.broadcast_to(B, mesh.nx).astype(float)
        for run in (lambda: build_evolution(model, mesh, grid, birth=B), lambda: march(model, mesh, grid, B)):
            with np.errstate(all="ignore", over="raise"), \
                    pytest.raises(EvolutionError, match=f"^singular one-step matrix at {message}$"):
                run()

    @pytest.mark.parametrize("name", ["shell_decay", "age_only"])
    def test_a_density_free_march_is_not_the_per_age_loop(self, name, monkeypatch):
        # the per-age loop evaluates h and mu na times each; the vector pass
        # evaluates h once, and mu once, or once per age where it reads a
        model, mesh, grid = march_problem(name)
        evaluated, real = [], evolution.evaluate
        monkeypatch.setattr(evolution, "evaluate", lambda node, env: evaluated.append(node) or real(node, env))
        march(model, mesh, grid, np.linspace(1.5, 0.5, mesh.nx))
        per_age = grid.na if name == "age_only" else 1
        assert evaluated == [model.h] + [model.mu] * per_age

    @pytest.mark.parametrize("name", ["shell_decay", "age_only", "logistic_decay", "pure_decay_of_p"])
    @pytest.mark.parametrize("B, message", [
        ([1.0] * 4, "birth vector has shape (4,), expected ({nx},)"),
        ("nan", "birth vector has non-finite entries"),
    ], ids=["shape", "nan"])
    def test_a_bad_birth_vector_is_refused_before_any_divisor(self, name, B, message, monkeypatch):
        model, mesh, grid = march_problem(name)
        evaluated = []
        monkeypatch.setattr(evolution, "evaluate", lambda node, env: evaluated.append(node))
        if B == "nan":
            B = np.full(mesh.nx, 1.0)
            B[-1] = np.nan
        with pytest.raises(EvolutionError, match=f"^{re.escape(message.format(nx=mesh.nx))}$"):
            march(model, mesh, grid, B)
        assert evaluated == []


# mu reads a through powers of it alone, which a Python float and an
# array of ages may round apart
AGE_POWERS = ModelSpec(
    a_max=1.0, D=Num(2.0), g=Num(0.0), h=parse_expr("u^3 - 0.1 * p"), mu=parse_expr("(1.3 * a)^7 * u + a^3"),
    b=Num(1.0), pure_decay=True,
)


class TestFreeze:
    """freeze against build_evolution(model, mesh, grid, u): on a pure-decay
    model one evaluation over all ages gives the build's divisors and errors."""

    @pytest.mark.parametrize("name", ["shell_decay", "logistic_decay", "pure_decay_of_p", "age_powers"])
    def test_has_the_bits_of_the_build(self, name, monkeypatch):
        if name == "age_powers":
            model, mesh, grid = AGE_POWERS, SpatialMesh(nx=7), AgeGrid(na=60, a_max=1.0)
        else:
            model, mesh, grid = march_problem(name)
        made, real_init = [], tridiag.FactoredTridiag.__init__
        monkeypatch.setattr(tridiag.FactoredTridiag, "__init__",
                            lambda self, *args: made.append(args[0]) or real_init(self, *args))
        shape = (grid.na + 1, mesh.nx)
        rng = np.random.default_rng(6)
        for u in (rng.uniform(0.0, 1.5, shape), np.zeros(shape), -np.zeros(shape), rng.uniform(-0.01, 0.03, shape)):
            made.clear()
            got = freeze(model, mesh, grid, u)
            assert made == []
            want = build_evolution(model, mesh, grid, u)
            assert got.source is want.source is u and got.steps == want.steps == []
            assert got.divisors.shape == shape and not got.divisors.flags.writeable
            assert same_bits(got.divisors, want.divisors) and same_bits(got.divisors[0], np.ones(mesh.nx))

    # with mu = 1 - 16 u each age's divisor is (1 - 16 u) da + 1 = 1.125 - 2 u
    # on the rows given, 1.125 elsewhere
    @pytest.mark.parametrize("mu, rows, message", [
        ("1 - 16 * u", {0: [1.0, 1.0, 1.0]}, "age index 1: nonpositive pivot -0.875 at row 0"),
        # a zero divisor: the Thomas loop names the NaN it makes in the next row
        ("1 - 16 * u", {3: [0.0, 0.5625, 0.0]}, "age index 4: non-finite pivot nan at row 2"),
        ("1 - 16 * u", {5: [0.0, np.nan, 0.0]}, "age index 6: non-finite pivot nan at row 1"),
        ("1 - 16 * u", {2: [-np.inf, 0.0, 0.0]}, "age index 3: non-finite pivot inf at row 0"),
        # the first bad age is named, not a worse later one
        ("1 - 16 * u", {4: [0.0, 0.0, 1.0], 6: [0.0, np.nan, 0.0]}, "age index 5: nonpositive pivot -0.875 at row 2"),
        # on an all-ones field age 6 has divisor 1 - 9 da; at age 8 a power
        # of a Python float overflows, which np.errstate(over="raise") makes raise
        ("(1.4e154 * a)^2 - (1.4e154 * a)^2 - 9 * (1.3333333333333333 * a)^20", dict.fromkeys(range(9), 1.0),
         "age index 6: nonpositive pivot -0.125 at row 0"),
    ], ids=["negative", "zero", "nan", "inf", "first", "raised-later"])
    def test_bad_divisors_raise_the_builds_text(self, mu, rows, message):
        mesh, grid = SpatialMesh(nx=3), AgeGrid(na=8, a_max=1.0)
        u = np.zeros((grid.na + 1, mesh.nx))
        for k, row in rows.items():
            u[k] = row
        for run in (build_evolution, freeze):
            with np.errstate(all="ignore", over="raise"), \
                    pytest.raises(EvolutionError, match=f"^singular one-step matrix at {message}$"):
                run(decay_model(mu), mesh, grid, u)


class TestCallsPerBuild:
    """Every build, marched or frozen, calls assemble and factor_tridiag
    once per age, and build_linearized and
    reformulation_residual each assemble once more per age.  The
    benchmark's tracer counts the work of a run by these calls: assemble
    is na * (builds + build_linearized + reformulation_residual) calls and
    factor_tridiag na * builds, so a change that skips one of them must
    change the tracer with it.  A march on a coupled model is one build;
    a pure-decay march is not a build, and calls neither.  So is freeze:
    on a pure-decay model it calls neither assemble nor factor_tridiag."""

    @staticmethod
    def counted(monkeypatch, *targets):
        calls = {}
        for module, name in targets:
            key = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
            calls[key] = 0

            def counting(*args, _key=key, _real=getattr(module, name), **kwargs):
                calls[_key] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        return calls

    @pytest.mark.parametrize("name", ["shell_decay.cfg", "logistic_decay.cfg", "logistic_diffusion.cfg"])
    @pytest.mark.parametrize("kind", ["march", "frozen"])
    def test_one_assemble_and_one_factor_per_age(self, name, kind, monkeypatch):
        model, mesh, grid = load_problem(name)
        calls = self.counted(monkeypatch, (evolution, "assemble"), (evolution, "factor_tridiag"))
        rng = np.random.default_rng(8)
        if kind == "march":
            build_evolution(model, mesh, grid, birth=rng.uniform(0.5, 1.5, mesh.nx))
        else:
            build_evolution(model, mesh, grid, rng.uniform(0.0, 1.5, (grid.na + 1, mesh.nx)))
        assert calls == {"evolution.assemble": grid.na, "evolution.factor_tridiag": grid.na}, (
            f"a build of {grid.na} ages made {calls}; the tracer's identities need one call of each per age")

    @pytest.mark.parametrize("name", ["shell_decay.cfg", "logistic_decay.cfg", "logistic_diffusion.cfg"])
    def test_a_march_is_a_build_only_on_a_coupled_model(self, name, monkeypatch):
        model, mesh, grid = load_problem(name)
        builds, real = [], evolution.build_evolution
        monkeypatch.setattr(evolution, "build_evolution", lambda *args, **kwargs: builds.append(
            (args, sorted(kwargs), kwargs.get("birth") is B)) or real(*args, **kwargs))
        calls = self.counted(monkeypatch, (evolution, "assemble"), (evolution, "factor_tridiag"))
        B = np.random.default_rng(8).uniform(0.5, 1.5, mesh.nx)
        march(model, mesh, grid, B)
        per_age = 0 if model.pure_decay else grid.na
        assert builds == ([] if model.pure_decay else [((model, mesh, grid), ["birth"], True)])
        assert calls == {"evolution.assemble": per_age, "evolution.factor_tridiag": per_age}

    @pytest.mark.parametrize("name", ["shell_decay.cfg", "logistic_decay.cfg", "logistic_diffusion.cfg"])
    def test_a_freeze_is_a_build_only_on_a_coupled_model(self, name, monkeypatch):
        model, mesh, grid = load_problem(name)
        builds, real = [], evolution.build_evolution
        monkeypatch.setattr(evolution, "build_evolution", lambda *args, **kwargs: builds.append(
            (args[:3], args[3] is u, kwargs)) or real(*args, **kwargs))
        calls = self.counted(monkeypatch, (evolution, "assemble"), (evolution, "factor_tridiag"))
        u = np.random.default_rng(8).uniform(0.0, 1.5, (grid.na + 1, mesh.nx))
        freeze(model, mesh, grid, u)
        per_age = 0 if model.pure_decay else grid.na
        assert builds == ([] if model.pure_decay else [((model, mesh, grid), True, {})])
        assert calls == {"evolution.assemble": per_age, "evolution.factor_tridiag": per_age}

    @pytest.mark.parametrize("name", ["logistic_decay.cfg", "logistic_diffusion.cfg"])
    def test_linearized_layers_assemble_once_per_age(self, name, monkeypatch):
        model, mesh, grid = load_problem(name)
        calls = self.counted(monkeypatch, (linearized, "build_evolution"), (evolution, "assemble"),
                             (evolution, "factor_tridiag"), (linearized, "assemble"))
        lin = build_linearized(model, mesh, grid)
        na = grid.na
        want = {"linearized.build_evolution": 1, "evolution.assemble": na, "evolution.factor_tridiag": na,
                "linearized.assemble": na}
        assert calls == want, f"build_linearized made {calls}; the tracer's identities need {want}"
        calls.update(dict.fromkeys(calls, 0))
        u = np.random.default_rng(9).uniform(0.0, 0.5, (na + 1, mesh.nx))
        reformulation_residual(lin, 1.2, u)
        want = dict.fromkeys(calls, 0) | {"linearized.assemble": na}
        assert calls == want, f"reformulation_residual made {calls}; the tracer's identities need {want}"


class TestDuhamel:
    def test_unit_source_closed_form(self):
        mesh = SpatialMesh(nx=3)
        grid = AgeGrid(na=64, a_max=1.0)
        ev = build_evolution(decay_model(), mesh, grid)
        f = np.ones((65, 3))
        out = apply_K0(ev, f)
        expected = k0_const_rows(grid.na, grid.a_max)
        for j in range(3):
            np.testing.assert_allclose(out[:, j], expected, rtol=1e-13, atol=1e-16)

    def test_requires_linear_evolution(self):
        mesh = SpatialMesh(nx=3)
        grid = AgeGrid(na=4, a_max=1.0)
        frozen = np.ones((5, 3))
        ev = build_evolution(decay_model(mu="1 + u"), mesh, grid, frozen)
        with pytest.raises(EvolutionError, match="linear evolution"):
            apply_K0(ev, frozen)

    def test_accepts_any_zero_field(self):
        # the linear evolution is the build on the zero field, whether by
        # default, given explicitly or marched from a zero birth vector
        mesh = SpatialMesh(nx=3)
        grid = AgeGrid(na=4, a_max=1.0)
        model = decay_model(mu="1 + u")
        f = np.linspace(0.0, 1.0, 15).reshape(5, 3)
        want = apply_K0(build_evolution(model, mesh, grid), f)
        for ev in (
            build_evolution(model, mesh, grid, np.zeros((5, 3))),
            build_evolution(model, mesh, grid, birth=np.zeros(3)),
        ):
            assert apply_K0(ev, f).tobytes() == want.tobytes()

    def test_source_shape_checked(self):
        mesh = SpatialMesh(nx=3)
        grid = AgeGrid(na=4, a_max=1.0)
        ev = build_evolution(decay_model(), mesh, grid)
        other = np.ones((5, 2))
        with pytest.raises(EvolutionError, match="match"):
            apply_K0(ev, other)
