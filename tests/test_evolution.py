import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from agequil import evolution, linearized
from agequil.discretize import SpatialMesh
from agequil.evolution import (
    AgeGrid,
    EvolutionError,
    apply_K0,
    build_evolution,
    propagate,
)
from agequil.expr import Num, parse_expr
from agequil.linearized import build_linearized, reformulation_residual
from agequil.model import ModelSpec
from agequil.tridiag import factor_tridiag

from conftest import load_problem
from oracles import assemble_general, decay_rows, k0_const_rows, logistic_rows


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
        # a field is (na+1, nx) or (na+1, nx, k); apply_K0 takes no batch
        mesh = SpatialMesh(nx=3)
        grid = AgeGrid(na=5, a_max=1.0)
        ev = build_evolution(decay_model(), mesh, grid)
        with pytest.raises(EvolutionError, match="does not match the grids"):
            build_evolution(decay_model(), mesh, grid, np.zeros(shape))
        with pytest.raises(EvolutionError, match="does not match the grids"):
            apply_K0(ev, np.zeros(shape))
        assert build_evolution(decay_model(), mesh, grid, np.zeros((6, 3, 2))).source.shape == (6, 3, 2)

    def test_singular_step_reported(self):
        mesh = SpatialMesh(nx=2)
        grid = AgeGrid(na=5, a_max=1.0)
        with pytest.raises(EvolutionError, match="singular one-step"):
            build_evolution(decay_model(mu="0 - 200"), mesh, grid)

    # mu = u exp(1000 a) overflows at a = 0.75, age index 6 of 8, where a
    # positive march makes the diagonal +inf and the zero march 0 * inf,
    # a NaN; the diagonal test passes neither, and the pivot check names both
    @pytest.mark.parametrize("birth, pivot", [(1.0, "inf"), (0.0, "nan")])
    def test_mortality_overflowing_on_the_march_names_the_age(self, birth, pivot):
        model = decay_model(mu="u * exp(1000 * a)")
        mesh, grid = SpatialMesh(nx=3), AgeGrid(na=8, a_max=1.0)
        message = f"^singular one-step matrix at age index 6: nonpositive pivot {pivot} at row 0$"
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(EvolutionError, match=message):
            build_evolution(model, mesh, grid, birth=np.full(mesh.nx, birth))

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


class TestSteps:
    ROBIN = ModelSpec(
        a_max=1.0,
        D=parse_expr("1 + a * x + exp(-a)"), g=parse_expr("p - 2 * u * exp(-u)"), h=parse_expr("0.2 * u"),
        mu=parse_expr("1 + a * u^2"), b=Num(1.0), nu0=0.7,
    )

    @pytest.mark.parametrize("name", ["logistic_diffusion.cfg", "logistic_decay.cfg", "robin"])
    @pytest.mark.parametrize("batched", [False, True])
    def test_factors_have_the_bits_of_the_scaled_oracle_bands(self, name, batched):
        # step k is factor_tridiag(da * lower, 1 + da * diag, da * upper) of
        # A(u_k, a_{k+1}), on a march or on a frozen field of 3 columns
        model = self.ROBIN if name == "robin" else load_problem(name)[0]
        mesh, grid = SpatialMesh(nx=9), AgeGrid(na=8, a_max=model.a_max)
        if batched:
            u = np.random.default_rng(5).uniform(0, 2, (grid.na + 1, mesh.nx, 3))
            ev = build_evolution(model, mesh, grid, u)
        else:
            ev = build_evolution(model, mesh, grid, birth=np.linspace(0.2, 1.0, mesh.nx))
        da = grid.da
        for k, step in enumerate(ev.steps):
            lower, diag, upper = assemble_general(model, mesh, grid.ages[k + 1], ev.source[k])
            want = factor_tridiag(da * lower, 1.0 + da * diag, da * upper)
            assert step.shape == want.shape == ev.source.shape[1:]
            for got_f, want_f in ((step.mult, want.mult), (step.piv, want.piv), (step.upper, want.upper)):
                assert (got_f is None) == (want_f is None)
                if want_f is not None:
                    assert np.array_equal(got_f, want_f) and np.array_equal(np.signbit(got_f), np.signbit(want_f))


class TestCallsPerBuild:
    """Every build, marched or frozen, single or batched, calls assemble
    and factor_tridiag once per age, and build_linearized and
    reformulation_residual each assemble once more per age.  The
    benchmark's tracer counts the work of a run by these calls: assemble
    is na * (builds + build_linearized + reformulation_residual) calls and
    factor_tridiag na * builds, so a change that skips one of them must
    change the tracer with it."""

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
    @pytest.mark.parametrize("kind", ["march", "frozen", "batched"])
    def test_one_assemble_and_one_factor_per_age(self, name, kind, monkeypatch):
        model, mesh, grid = load_problem(name)
        calls = self.counted(monkeypatch, (evolution, "assemble"), (evolution, "factor_tridiag"))
        rng = np.random.default_rng(8)
        if kind == "march":
            build_evolution(model, mesh, grid, birth=rng.uniform(0.5, 1.5, mesh.nx))
        else:
            shape = (grid.na + 1, mesh.nx) + ((4,) if kind == "batched" else ())
            build_evolution(model, mesh, grid, rng.uniform(0.0, 1.5, shape))
        assert calls == {"evolution.assemble": grid.na, "evolution.factor_tridiag": grid.na}, (
            f"a build of {grid.na} ages made {calls}; the tracer's identities need one call of each per age")

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
        with pytest.raises(EvolutionError, match="linear evolution"):
            apply_K0(build_evolution(model, mesh, grid, np.zeros((5, 3, 2))), f)

    def test_source_shape_checked(self):
        mesh = SpatialMesh(nx=3)
        grid = AgeGrid(na=4, a_max=1.0)
        ev = build_evolution(decay_model(), mesh, grid)
        other = np.ones((5, 2))
        with pytest.raises(EvolutionError, match="match"):
            apply_K0(ev, other)
