"""Self-test of the benchmark's tracer, output checks and host-speed probe.

    PYTHONPATH=src python3 -m pytest -q bench

The traced command is the criterion 10 trace (pure decay, nx 6, na 24,
three points), which runs in about a second.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from agequil import cli, evolution, tridiag  # noqa: E402
from hostspeed import HostSpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import MODELS, check_trace_decay  # noqa: E402

NA = 24
DECAY = str(MODELS / "logistic_decay.cfg")


def _trace(out: Path, *extra: str) -> int:
    return cli.main(["trace", "--model", DECAY, "--out", str(out / "branch.csv"),
                     "--nx", "6", "--na", str(NA), *extra])


def _traced_run(out: Path) -> Tracer:
    with Tracer() as tracer:
        assert _trace(out, "--max-points", "3") == 0
    return tracer


def _files(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_counts_obey_identities_and_repeat(tmp_path):
    first = _traced_run(tmp_path / "one")
    second = _traced_run(tmp_path / "two")
    assert first.counts() == second.counts()

    calls = {name: s.calls for name, s in first.stats.items()}
    builds = calls["evolution.build_evolution"]
    assert builds > 0
    assert calls["discretize.assemble"] == NA * (
        builds + calls["linearized.build_linearized"] + calls["linearized.reformulation_residual"]
    )
    assert calls["tridiag.factor_tridiag"] == NA * builds
    assert first.counters["continuation.accepted_points"] == 3
    metrics = first.metrics()
    assert metrics["continuation.correct.failed"][0] == 0
    assert 0.0 < metrics["continuation.correct.accept_ratio"][0] <= 1.0


def test_tracing_changes_no_output_and_restores_every_function(tmp_path):
    originals = (cli.main, evolution.build_evolution, evolution.assemble, tridiag.FactoredTridiag.solve)
    _traced_run(tmp_path / "traced")
    assert (cli.main, evolution.build_evolution, evolution.assemble,
            tridiag.FactoredTridiag.solve) == originals
    assert _trace(tmp_path / "plain", "--max-points", "3") == 0
    assert _files(tmp_path / "traced") == _files(tmp_path / "plain")


def test_spans_nest_inside_their_parents(tmp_path):
    spans = _traced_run(tmp_path).spans
    assert spans[0].name == "cli.main" and spans[0].parent == -1
    for span in spans[1:]:
        parent = spans[span.parent]
        assert parent.start <= span.start <= span.end <= parent.end


def test_decay_check_passes_the_solver_and_catches_a_shifted_point(tmp_path):
    assert _trace(tmp_path, "--norm-cap", "0.02") == 0
    assert check_trace_decay(tmp_path, "terminated: amplitude cap 0.02 exceeded") == []

    branch = tmp_path / "branch.csv"
    rows = branch.read_text().splitlines()
    cells = rows[2].split(",")
    cells[1] = repr(float(cells[1]) * (1.0 + 1e-5))
    rows[2] = ",".join(cells)
    branch.write_text("\n".join(rows) + "\n")
    failures = check_trace_decay(tmp_path, "terminated: amplitude cap 0.02 exceeded")
    assert any("scalar oracle" in f for f in failures)


def test_host_speed_probe_samples_and_disarms():
    previous = signal.getsignal(signal.SIGALRM)
    start = perf_counter()
    with HostSpeedProbe() as probe:
        while perf_counter() - start < 0.5:
            pass
    wall = perf_counter() - start
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 2
    assert 0.0 < probe.busy_s < wall
    assert probe.speed() > 0.0
