"""Model definition: coefficient family, config parsing, validation.

A model describes one population on the unit interval with a maximal age
``a_max``.  Space carries a Dirichlet condition at x = 0 and a Robin
condition  dw/dx + nu0 * w = 0  at x = 1.  The per-age spatial operator is

    A(u, a) w = -(D(a,x) w')' + g(u,p) w' + h(u,p) w        (p = du/dx)

and the total decay operator adds the mortality mu(u,a).  Newborns enter
through the birth integral with fertility  cb * b(u).

Config grammar (INI-style, ``#`` starts a comment, unknown keys rejected)::

    [domain]
    a_max = 1.0
    nx = 40              # optional grid defaults picked up by the CLI
    na = 80              # optional
    pure_decay = false   # optional: drop the derivative terms of A entirely

    [coefficients]
    D  = 1.0             # variables allowed: a, x   (must be positive)
    g  = u * p           # variables allowed: u, p   (must vanish at (0,0))
    h  = u^2             # variables allowed: u, p
    mu = 1 + u           # variables allowed: u, a   (nonnegative for u >= 0)
    b  = exp(-u)         # variables allowed: u      (positive)

    [boundary]
    nu0 = 0.0            # optional, default 0

    [normalization]
    cb = 1.0             # optional, default 1

``pure_decay = true`` keeps only the zero-order terms h + mu, so the
propagator acts node-by-node; it is the harness for models without spatial
transport.  Validation samples coefficients on a finite grid (ages in
[0, a_max], positions in [0, 1], densities u >= 0); it is a guard against
obvious mistakes, not a proof of regularity.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
import math
from dataclasses import dataclass

import numpy as np

from .expr import Expr, ExprError, evaluate, parse_expr, to_text, variables


class ModelError(ValueError):
    """Raised for malformed config text or invariant violations."""


_COEFF_VARS = {
    "D": frozenset({"a", "x"}),
    "g": frozenset({"u", "p"}),
    "h": frozenset({"u", "p"}),
    "mu": frozenset({"u", "a"}),
    "b": frozenset({"u"}),
}

_SECTIONS = {
    "domain": {"a_max", "nx", "na", "pure_decay"},
    "coefficients": {name.lower() for name in _COEFF_VARS},  # configparser lowercases keys
    "boundary": {"nu0"},
    "normalization": {"cb"},
}

# sample sets for the finite validation sweep; densities are restricted to
# the reachable nonnegative range
_U_SAMPLES = np.array([0.0, 0.25, 1.0, 4.0])
_N_AXIS_SAMPLES = 9


@dataclass(frozen=True)
class ModelSpec:
    """Immutable model parameters. Construct via parse_model for validation."""

    a_max: float
    D: Expr
    g: Expr
    h: Expr
    mu: Expr
    b: Expr
    nu0: float = 0.0
    cb: float = 1.0
    pure_decay: bool = False


def _read_config(text: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        cp.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ModelError(f"config syntax error: {exc}") from exc
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ModelError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in _SECTIONS[section]:
                raise ModelError(f"unknown key {key!r} in section [{section}]")
    return cp


def _get_float(cp: configparser.ConfigParser, section: str, key: str, default=None) -> float:
    if not cp.has_option(section, key):
        if default is None:
            raise ModelError(f"missing required key {key!r} in section [{section}]")
        return default
    try:
        return float(cp.get(section, key))
    except ValueError as exc:
        raise ModelError(f"key {key!r} in [{section}] is not a number: {exc}") from exc


def _get_expr(cp: configparser.ConfigParser, name: str) -> Expr:
    key = name.lower()  # configparser lowercases keys; errors name the coefficient as written
    if not cp.has_option("coefficients", key):
        raise ModelError(f"missing coefficient {name!r} in section [coefficients]")
    try:
        node = parse_expr(cp.get("coefficients", key))
    except ExprError as exc:
        raise ModelError(f"coefficient {name!r}: {exc}") from exc
    stray = variables(node) - _COEFF_VARS[name]
    if stray:
        allowed = ", ".join(sorted(_COEFF_VARS[name])) or "none"
        raise ModelError(
            f"coefficient {name!r} uses variable {sorted(stray)[0]!r}; allowed: {allowed}"
        )
    return node


def parse_model(text: str) -> ModelSpec:
    """Parse config text into a validated ModelSpec."""
    cp = _read_config(text)
    if not cp.has_section("domain") or not cp.has_section("coefficients"):
        raise ModelError("config requires [domain] and [coefficients] sections")
    a_max = _get_float(cp, "domain", "a_max")
    try:
        pure_decay = cp.getboolean("domain", "pure_decay", fallback=False)
    except ValueError as exc:
        raise ModelError(f"pure_decay must be a boolean: {exc}") from exc
    spec = ModelSpec(
        a_max=a_max,
        **{name: _get_expr(cp, name) for name in _COEFF_VARS},
        nu0=_get_float(cp, "boundary", "nu0", 0.0),
        cb=_get_float(cp, "normalization", "cb", 1.0),
        pure_decay=pure_decay,
    )
    validate_model(spec)
    return spec


def parse_grid(text: str) -> tuple[int | None, int | None]:
    """Optional (nx, na) grid defaults stored alongside the model."""
    cp = _read_config(text)
    out = []
    for key in ("nx", "na"):
        if cp.has_option("domain", key):
            try:
                val = cp.getint("domain", key)
            except ValueError as exc:
                raise ModelError(f"{key} must be an integer: {exc}") from exc
            if val < 2:
                raise ModelError(f"{key} must be at least 2")
            out.append(val)
        else:
            out.append(None)
    return out[0], out[1]


def serialize_model(spec: ModelSpec, nx: int | None = None, na: int | None = None) -> str:
    """Render a ModelSpec back to config text (round-trips through parse_model)."""
    lines = ["[domain]", f"a_max = {spec.a_max!r}"]
    if nx is not None:
        lines.append(f"nx = {nx}")
    if na is not None:
        lines.append(f"na = {na}")
    if spec.pure_decay:
        lines.append("pure_decay = true")
    lines += [
        "",
        "[coefficients]",
        *(f"{name} = {to_text(getattr(spec, name))}" for name in _COEFF_VARS),
        "",
        "[boundary]",
        f"nu0 = {spec.nu0!r}",
        "",
        "[normalization]",
        f"cb = {spec.cb!r}",
        "",
    ]
    return "\n".join(lines)


def _sampled(name: str, values, where: str) -> np.ndarray:
    # an overflow or a NaN is refused as such, before a sign test misnames it
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ModelError(f"{name} is not finite on sampled {where}")
    return values


def validate_model(spec: ModelSpec) -> None:
    """Sampled invariant checks; raises ModelError naming the violated one."""
    if not (math.isfinite(spec.a_max) and spec.a_max > 0):
        raise ModelError("a_max must be positive and finite")
    if not (math.isfinite(spec.nu0) and spec.nu0 >= 0):
        raise ModelError("nu0 must be nonnegative and finite")
    if not (math.isfinite(spec.cb) and spec.cb > 0):
        raise ModelError("cb must be positive and finite")

    a_s = np.linspace(0.0, spec.a_max, _N_AXIS_SAMPLES)
    x_s = np.linspace(0.0, 1.0, _N_AXIS_SAMPLES)
    aa, xx = np.meshgrid(a_s, x_s)
    # an overflowing sample is refused by _sampled, with no numpy warning first
    with np.errstate(over="ignore", invalid="ignore"):
        d_vals = _sampled("D", evaluate(spec.D, {"a": aa, "x": xx}), "ages and positions")
        if not np.all(d_vals > 0):
            raise ModelError("D must be positive")

        g00 = float(_sampled("g(0,0)", evaluate(spec.g, {"u": 0.0, "p": 0.0}), "zero density and gradient"))
        if abs(g00) > 1e-12:
            raise ModelError("g(0,0) must vanish")

        uu, aa2 = np.meshgrid(_U_SAMPLES, a_s)
        mu_vals = _sampled("mu", evaluate(spec.mu, {"u": uu, "a": aa2}), "nonnegative densities")
        if not np.all(mu_vals >= 0):
            raise ModelError("mu must be nonnegative on sampled nonnegative densities")

        h00 = float(evaluate(spec.h, {"u": 0.0, "p": 0.0}))
        theta = _sampled("theta(a) = mu(0,a) + h(0,0)", evaluate(spec.mu, {"u": 0.0, "a": a_s}) + h00, "ages")
        if not np.all(theta > 0):
            raise ModelError("theta(a) = mu(0,a) + h(0,0) must be positive")

        b_vals = _sampled("b", evaluate(spec.b, {"u": _U_SAMPLES}), "nonnegative densities")
        if not np.all(b_vals > 0):
            raise ModelError("b must be positive on sampled nonnegative densities")


def with_cb(spec: ModelSpec, cb: float) -> ModelSpec:
    """Copy of the model with a different fertility scale."""
    return dataclasses.replace(spec, cb=cb)
