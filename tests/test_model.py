import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from agequil.expr import (
    MAX_DEPTH,
    Add,
    Exp,
    ExprError,
    Mul,
    Neg,
    Num,
    Pow,
    Sub,
    Var,
    VARIABLES,
    diff,
    evaluate,
    evaluate_on,
    parse_expr,
    to_text,
    variables,
)
from agequil.model import (
    ModelError,
    ModelSpec,
    parse_grid,
    parse_model,
    serialize_model,
    validate_model,
    with_cb,
)

BASE_CFG = """
[domain]
a_max = 1.0
nx = 8
na = 12

[coefficients]
D = 1
g = 0
h = 0
mu = 1 + u
b = 1
"""


def cfg(**overrides) -> str:
    """BASE_CFG with individual coefficient or domain lines replaced."""
    lines = []
    for line in BASE_CFG.strip().splitlines():
        key = line.split("=")[0].strip()
        if key in overrides:
            lines.append(f"{key} = {overrides.pop(key)}")
        else:
            lines.append(line)
    assert not overrides, f"unused overrides: {overrides}"
    return "\n".join(lines)


class TestExprParsing:
    def test_literal_and_variables(self):
        assert parse_expr("2.5") == Num(2.5)
        assert parse_expr("u") == Var("u")
        assert parse_expr("exp(-u)") == Exp(Neg(Var("u")))

    def test_precedence(self):
        assert parse_expr("1 + u * p") == Add(Num(1.0), Mul(Var("u"), Var("p")))
        assert parse_expr("-u^2") == Neg(Pow(Var("u"), 2))
        assert parse_expr("(1 + u)^2") == Pow(Add(Num(1.0), Var("u")), 2)
        assert parse_expr("u**3") == Pow(Var("u"), 3)

    def test_left_associativity(self):
        assert parse_expr("1 - u - p") == Sub(Sub(Num(1.0), Var("u")), Var("p"))

    def test_scientific_notation(self):
        assert parse_expr("1e-3") == Num(1e-3)
        assert parse_expr("2.5E+2") == Num(250.0)

    @pytest.mark.parametrize("bad", [
        "", "1 +", "u / 2", "sin(u)", "y", "u^-1", "u^p", "u^1.5",
        "(1 + u", "1 2", "exp u", "$", "1..2",
    ])
    def test_rejects(self, bad):
        with pytest.raises(ExprError):
            parse_expr(bad)

    @pytest.mark.parametrize("text", [
        "-" * 3000 + "u",
        "(" * 3000 + "u" + ")" * 3000,
        "0" + "+0*u" * 3000,  # a left-deep sum: the parser loops, the tree is deep
    ], ids=["minus-signs", "parentheses", "left-deep-sum"])
    def test_rejects_deep_nesting(self, text):
        with pytest.raises(ExprError, match=f"nests deeper than {MAX_DEPTH} levels"):
            parse_expr(text)

    @pytest.mark.parametrize("text", [
        "-" * (MAX_DEPTH - 1) + "u",
        "(" * MAX_DEPTH + "u" + ")" * MAX_DEPTH,
        "u" + " * u" * (MAX_DEPTH - 1),
        "exp(-" * (MAX_DEPTH // 2 - 1) + "u" + ")" * (MAX_DEPTH // 2 - 1),
    ], ids=["minus-signs", "parentheses", "left-deep-product", "exp-calls"])
    def test_nesting_at_the_limit_evaluates_and_round_trips(self, text):
        # the limit sits far enough below the recursion limit for every
        # walk of the tree, its derivative's included
        node = parse_expr(text)
        assert parse_expr(to_text(node)) == node
        assert np.isfinite(evaluate(diff(node, "u"), {"u": 0.5}))

    def test_one_level_more_is_rejected(self):
        for text in (
            "-" * MAX_DEPTH + "u",
            "(" * (MAX_DEPTH + 1) + "u" + ")" * (MAX_DEPTH + 1),
            "u" + " * u" * MAX_DEPTH,
        ):
            with pytest.raises(ExprError, match="nests deeper"):
                parse_expr(text)

    def test_variables(self):
        node = parse_expr("a * x + exp(u) * p^2")
        assert variables(node) == frozenset({"a", "x", "u", "p"})
        assert variables(parse_expr("1 + a")) == frozenset({"a"})

    def test_evaluate_scalar(self):
        node = parse_expr("1 + 2 * u - p^2")
        assert evaluate(node, {"u": 3.0, "p": 2.0}) == pytest.approx(3.0)
        with pytest.raises(ExprError):
            evaluate(parse_expr("u"), {})

    def test_evaluate_on_broadcasts(self):
        out = evaluate_on(parse_expr("3"), 5)
        assert out.shape == (5,) and np.all(out == 3.0)
        out = evaluate_on(parse_expr("x^2"), 3, x=np.array([0.0, 1.0, 2.0]))
        assert np.array_equal(out, np.array([0.0, 1.0, 4.0]))


_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(lambda v: Num(abs(v))),
    st.sampled_from(VARIABLES).map(Var),
)
_expr_trees = st.recursive(
    _leaf,
    lambda kids: st.one_of(
        st.builds(Neg, kids),
        st.builds(Add, kids, kids),
        st.builds(Sub, kids, kids),
        st.builds(Mul, kids, kids),
        st.builds(Pow, kids, st.integers(min_value=0, max_value=4)),
        st.builds(Exp, kids),
    ),
    max_leaves=20,
)


class TestExprRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(_expr_trees)
    def test_parse_inverts_to_text(self, tree):
        assert parse_expr(to_text(tree)) == tree

    @settings(max_examples=100, deadline=None)
    @given(
        _expr_trees,
        st.floats(min_value=-2, max_value=2, allow_nan=False),
        st.floats(min_value=-2, max_value=2, allow_nan=False),
    )
    def test_text_preserves_value(self, tree, u, p):
        env = {"u": u, "p": p, "a": 0.5, "x": 0.25}
        with np.errstate(all="ignore"):
            before = evaluate(tree, env)
            after = evaluate(parse_expr(to_text(tree)), env)
        assert np.array_equal(np.asarray(before), np.asarray(after), equal_nan=True)


def _largest_value(tree, env) -> float:
    """Largest magnitude among the values of a tree's subtrees, the scale
    of the rounding errors its evaluation makes."""
    kids = [v for v in vars(tree).values() if isinstance(v, (Num, Var, Neg, Add, Sub, Mul, Pow, Exp))]
    return max([abs(float(evaluate(tree, env)))] + [_largest_value(kid, env) for kid in kids])


class TestDiff:
    def test_a_tree_free_of_the_variable_gives_zero(self):
        assert diff(parse_expr("0.1 * p"), "u") == Num(0.0)
        assert diff(parse_expr("exp(-u) + u^2 - 3"), "p") == Num(0.0)
        assert diff(parse_expr("p^0"), "p") == Num(0.0)
        assert diff(Var("u"), "u") == Num(1.0)

    @pytest.mark.parametrize("text, var, want", [
        ("u^3 * p", "u", lambda u, p: 3 * u**2 * p),
        ("u^4 - p^0", "u", lambda u, p: 4 * u**3),
        ("-(u - p)^2", "p", lambda u, p: 2 * (u - p)),
        ("exp(2 * u) - p * u", "p", lambda u, p: -u),
        ("exp(u * p) * (1 + u)", "u", lambda u, p: np.exp(u * p) * (p * (1 + u) + 1)),
    ])
    def test_closed_forms(self, text, var, want):
        env = {"u": 0.7, "p": -0.3}
        assert evaluate(diff(parse_expr(text), var), env) == pytest.approx(want(**env), rel=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(
        _expr_trees,
        st.sampled_from(("u", "p")),
        st.floats(min_value=-2, max_value=2, allow_nan=False),
        st.floats(min_value=-2, max_value=2, allow_nan=False),
    )
    def test_matches_central_differences(self, tree, var, u, p):
        # a central difference is only as good as its step allows, and a
        # steep tree needs a small one, so the exact value has to match the
        # difference at one of a range of steps; the rounding errors of
        # both sides scale with the largest value a subtree takes
        env = {"u": np.float64(u), "p": np.float64(p), "a": 0.5, "x": 0.25}
        at = env[var]
        steps = (1.0 + abs(at)) * 10.0 ** -np.arange(3.0, 12.0)

        def shifted(h):
            return {**env, var: at + h}, {**env, var: at - h}

        deriv = diff(tree, var)
        try:
            with np.errstate(all="ignore"):
                exact = float(evaluate(deriv, env))
                round_exact = _largest_value(deriv, env)
                diffs = [(evaluate(tree, hi) - evaluate(tree, lo)) / (2.0 * h) for h in steps for hi, lo in [shifted(h)]]
                round_tree = max(_largest_value(tree, e) for h in steps for e in shifted(h))
        except OverflowError:  # a power of a Python float raises on overflow
            assume(False)
        # only draws that overflow are left out
        assume(np.all(np.isfinite([exact, round_exact, round_tree, *diffs])))
        slack = 1e3 * np.finfo(float).eps * (round_tree / steps + round_exact)
        assert np.min(np.abs(np.array(diffs) - exact) - slack) <= 1e-6 * abs(exact)


class TestParseModel:
    def test_parses_base(self):
        spec = parse_model(BASE_CFG)
        assert spec.a_max == 1.0
        assert spec.nu0 == 0.0 and spec.cb == 1.0
        assert not spec.pure_decay
        assert spec.mu == Add(Num(1.0), Var("u"))

    def test_grid_keys(self):
        assert parse_grid(BASE_CFG) == (8, 12)
        assert parse_grid(cfg(nx="16")) == (16, 12)
        no_grid = "\n".join(
            line for line in BASE_CFG.strip().splitlines()
            if not line.startswith(("nx", "na"))
        )
        assert parse_grid(no_grid) == (None, None)
        with pytest.raises(ModelError):
            parse_grid(cfg(nx="1"))
        with pytest.raises(ModelError):
            parse_grid(cfg(na="2.5"))

    def test_pure_decay_flag(self):
        text = BASE_CFG.replace("na = 12", "na = 12\npure_decay = yes")
        assert parse_model(text).pure_decay

    def test_optional_sections(self):
        text = BASE_CFG + "\n[boundary]\nnu0 = 0.5\n\n[normalization]\ncb = 2.0\n"
        spec = parse_model(text)
        assert spec.nu0 == 0.5 and spec.cb == 2.0

    def test_comments_ignored(self):
        spec = parse_model(cfg(mu="1 + u  # logistic"))
        assert spec.mu == Add(Num(1.0), Var("u"))

    @pytest.mark.parametrize("text,needle", [
        (cfg(a_max="-1"), "a_max"),
        (cfg(D="0"), "D must be positive"),
        (cfg(D="x - 2"), "D must be positive"),
        (cfg(g="1"), "g(0,0) must vanish"),
        (cfg(mu="u - 1"), "mu must be nonnegative"),
        (cfg(mu="u"), "theta"),
        (cfg(b="0"), "b must be positive"),
        (cfg(b="u - 1"), "b must be positive"),
        (cfg(D="u"), "uses variable"),
        (cfg(mu="1 + x"), "uses variable"),
        (cfg(b="1 + a"), "uses variable"),
        (cfg(mu="1 +"), "coefficient"),
        (BASE_CFG + "\n[boundary]\nnu0 = -1\n", "nu0"),
        (BASE_CFG + "\n[normalization]\ncb = 0\n", "cb"),
        (BASE_CFG + "\nbogus = 3\n", "unknown key"),
        (BASE_CFG + "\n[extra]\nk = 1\n", "unknown section"),
        ("[domain]\na_max = 1.0\n", "coefficients"),
        ("not an ini file", "syntax"),
    ])
    def test_rejects(self, text, needle):
        with pytest.raises(ModelError, match=None) as err:
            parse_model(text)
        assert needle in str(err.value)

    def test_missing_coefficient(self):
        text = "\n".join(
            line for line in BASE_CFG.strip().splitlines() if not line.startswith("b ")
        )
        with pytest.raises(ModelError, match="missing coefficient"):
            parse_model(text)


class TestSerialize:
    def test_round_trip(self):
        text = cfg(mu="1 + u^2", g="u * p", D="1 + x * a", b="exp(-u)")
        spec = parse_model(text)
        again = parse_model(serialize_model(spec))
        assert again == spec

    def test_grid_round_trip(self):
        out = serialize_model(parse_model(BASE_CFG), nx=10, na=20)
        assert parse_grid(out) == (10, 20)

    def test_bundled_models_round_trip(self, decay_problem, diffusion_problem, shell_problem):
        for model, _, _ in (decay_problem, diffusion_problem, shell_problem):
            assert parse_model(serialize_model(model)) == model

    def test_with_cb(self):
        spec = parse_model(BASE_CFG)
        scaled = with_cb(spec, 2.5)
        assert scaled.cb == 2.5
        assert scaled.mu == spec.mu and scaled.a_max == spec.a_max

    def test_validate_direct_construction(self):
        spec = parse_model(BASE_CFG)
        validate_model(spec)
        bad = ModelSpec(
            a_max=1.0, D=Num(1.0), g=Num(0.0), h=Num(0.0),
            mu=Num(0.0), b=Num(1.0),
        )
        with pytest.raises(ModelError, match="theta"):
            validate_model(bad)
