"""In-memory tracer for agequil, installed from outside the package.

The package imports its layers by name (``from .evolution import
build_evolution``), so a function is wrapped wherever a module holds a
reference to it, and ``FactoredTridiag.solve`` is wrapped on its class.
Coarse calls (``cli.main`` down to ``build_evolution`` and ``propagate``)
keep one span each: name, start, end and the index of the enclosing span.
The high-frequency leaves (``assemble``, ``evaluate_on``,
``factor_tridiag`` and ``solve``) only bump aggregates, so a traced run
stays close to an untraced one.  Every function also gets a call count,
a failure count (calls that raised), inclusive time and self time, which
is inclusive time minus the time spent in wrapped callees.

Usage::

    with Tracer() as tracer:
        agequil.cli.main(argv)
    tracer.metrics()

Leaving the block restores every original function.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass
from time import perf_counter

# (module, function, keeps spans); every module of the package is loaded
# first so that each by-name reference can be found and patched
LAYERS = (
    ("cli", "main", True),
    ("continuation", "trace_branch", True),
    ("continuation", "first_step", True),
    ("continuation", "correct", True),
    ("reproduction", "normalize", True),
    ("linearized", "build_linearized", True),
    ("linearized", "reformulation_residual", True),
    ("fixedpoint", "solve_fixedpoint", True),
    ("fixedpoint", "check_shell_conditions", True),
    ("reproduction", "assemble_Q", True),
    ("reproduction", "spectral_radius", True),
    ("evolution", "build_evolution", True),
    ("evolution", "propagate", True),
    ("discretize", "assemble", False),
    ("expr", "evaluate_on", False),
    ("tridiag", "factor_tridiag", False),
)
SOLVE = "tridiag.solve"
BYTES_PER_FLOAT = 8


@dataclass
class LayerStats:
    calls: int = 0
    failed: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top


class Tracer:
    """Wraps agequil's layers while installed; one instance per traced run."""

    def __init__(self) -> None:
        self.stats: dict[str, LayerStats] = {}
        self.spans: list[Span | None] = []
        self.counters = {
            "tridiag.solve.columns": 0,
            "tridiag.flops_computed": 0,
            "tridiag.bytes_computed": 0,
            "continuation.accepted_points": 0,
            "continuation.newton_iters": 0,
            "fixedpoint.iterations": 0,
        }
        # open frames: [child time, index of the innermost open span]
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def __enter__(self) -> "Tracer":
        hooks = {
            "continuation.trace_branch": self._count_branch,
            "fixedpoint.solve_fixedpoint": self._count_fixedpoint,
            "tridiag.factor_tridiag": self._count_factor,
        }
        modules = {name: importlib.import_module(f"agequil.{name}") for name, _, _ in LAYERS}
        package = [m for k, m in list(sys.modules.items()) if k == "agequil" or k.startswith("agequil.")]
        try:
            for mod_name, func_name, keep_span in LAYERS:
                name = f"{mod_name}.{func_name}"
                original = getattr(modules[mod_name], func_name)
                wrapper = self._wrap(name, original, keep_span, hooks.get(name))
                for module in package:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
            solve_cls = importlib.import_module("agequil.tridiag").FactoredTridiag
            self._patch(solve_cls, "solve", self._wrap(SOLVE, solve_cls.solve, False, self._count_solve))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, owner: object, attr: str, wrapper: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, func, keep_span: bool, hook):
        stats = self.stats.setdefault(name, LayerStats())
        stack = self._stack
        spans = self.spans

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            index = parent
            if keep_span:
                index = len(spans)
                spans.append(None)
            frame = [0.0, index]
            stack.append(frame)
            ok = False
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[0]
                if not ok:
                    stats.failed += 1
                if keep_span:
                    spans[index] = Span(name, start, end, parent)
            if hook is not None:
                hook(result)
            return result

        return wrapper

    # -- work counters --------------------------------------------------

    def _count_branch(self, branch) -> None:
        points = branch.nontrivial()
        self.counters["continuation.accepted_points"] += len(points)
        self.counters["continuation.newton_iters"] += sum(p.newton_iters for p in points)

    def _count_fixedpoint(self, result) -> None:
        self.counters["fixedpoint.iterations"] += result.iterations

    def _count_factor(self, factored) -> None:
        # per row: one division, one multiply, one subtract; reads three
        # diagonals and writes multipliers and pivots
        n = factored.piv.shape[0]
        self.counters["tridiag.flops_computed"] += 3 * n
        self.counters["tridiag.bytes_computed"] += 5 * n * BYTES_PER_FLOAT

    def _count_solve(self, out) -> None:
        # per row and column: two flops forward, three backward; the three
        # factor arrays are read once, the right-hand side read and the
        # solution written once per column
        n = out.shape[0]
        columns = 1 if out.ndim == 1 else out.shape[1]
        self.counters["tridiag.solve.columns"] += columns
        self.counters["tridiag.flops_computed"] += 5 * n * columns
        self.counters["tridiag.bytes_computed"] += (3 * n + 2 * n * columns) * BYTES_PER_FLOAT

    # -- results --------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Every count the tracer took; equal inputs give equal counts."""
        out = {f"{name}.calls": s.calls for name, s in self.stats.items()}
        out.update({f"{name}.failed": s.failed for name, s in self.stats.items()})
        out.update(self.counters)
        out["spans"] = len(self.spans)
        return out

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of one traced run, by name, as (value, unit)."""
        s = self.stats
        accepted = self.counters["continuation.accepted_points"]
        correct_calls = s["continuation.correct"].calls
        out: dict[str, tuple[float, str]] = {
            "continuation.correct.calls": (correct_calls, "count"),
            "continuation.correct.failed": (s["continuation.correct"].failed, "count"),
            "continuation.correct.self_s": (s["continuation.correct"].self_s, "s"),
            "continuation.correct.accept_ratio": (
                accepted / correct_calls if correct_calls else 0.0, "ratio",
            ),
            "continuation.newton_iters": (self.counters["continuation.newton_iters"], "count"),
            "continuation.builds_per_point": (
                s["evolution.build_evolution"].calls / accepted if accepted else 0.0, "builds/point",
            ),
            "continuation.first_step.s": (s["continuation.first_step"].total_s, "s"),
            "reproduction.normalize.s": (s["reproduction.normalize"].total_s, "s"),
            "linearized.build_linearized.s": (s["linearized.build_linearized"].total_s, "s"),
            "cli.main.s": (s["cli.main"].total_s, "s"),
            "fixedpoint.iterations": (self.counters["fixedpoint.iterations"], "count"),
            "tridiag.solve.columns": (self.counters["tridiag.solve.columns"], "count"),
            "tridiag.flops_computed": (self.counters["tridiag.flops_computed"], "flop"),
            "tridiag.bytes_computed": (self.counters["tridiag.bytes_computed"], "B"),
        }
        for name in (
            "evolution.build_evolution", "evolution.propagate", "discretize.assemble",
            "expr.evaluate_on", "tridiag.factor_tridiag", SOLVE, "reproduction.assemble_Q",
            "reproduction.spectral_radius", "linearized.reformulation_residual",
        ):
            out[f"{name}.calls"] = (s[name].calls, "count")
            out[f"{name}.self_s"] = (s[name].self_s, "s")
        for name in ("fixedpoint.solve_fixedpoint", "fixedpoint.check_shell_conditions"):
            out[f"{name}.self_s"] = (s[name].self_s, "s")
        return out

