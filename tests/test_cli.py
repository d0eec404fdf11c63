import hashlib
import os
import re
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis.extra.numpy import arrays

from agequil import cli, continuation, evolution, fixedpoint, linearized, reproduction
from agequil.cli import BRANCH_COLUMNS, main
from agequil.continuation import branch_point
from agequil.discretize import SpatialMesh
from agequil.evolution import AgeGrid, build_evolution, freeze
from agequil.linearized import build_linearized
from agequil.model import parse_grid, parse_model

MODELS = Path(__file__).resolve().parent.parent / "models"
DECAY = str(MODELS / "logistic_decay.cfg")
DIFFUSION = str(MODELS / "logistic_diffusion.cfg")
SHELL = str(MODELS / "shell_decay.cfg")

TRACE_FLAGS = ["--nx", "6", "--na", "24", "--max-points", "3"]


def src_env() -> dict[str, str]:
    """The environment with the package source first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(MODELS.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def run_trace(out_dir: Path, *flags: str) -> Path:
    branch = out_dir / "branch.csv"
    rc = main(["trace", "--model", DECAY, "--out", str(branch), *TRACE_FLAGS, *flags])
    assert rc == 0
    return branch


@pytest.fixture(scope="module")
def traced(tmp_path_factory) -> Path:
    return run_trace(tmp_path_factory.mktemp("trace"))


# row 1 of this branch has eps 7.65e-13 but max B about 1.2e-12: trivial
# by an eps <= 1e-12 rule, nontrivial by the solver's test on B
@pytest.fixture(scope="module")
def traced_tiny(tmp_path_factory) -> Path:
    return run_trace(tmp_path_factory.mktemp("trace_tiny"), "--eps0", "1.2e-12")


class TestNormalize:
    def test_stdout_markers(self, capsys):
        assert main(["normalize", "--model", DECAY]) == 0
        out = capsys.readouterr().out
        assert "r(Q0) before:" in out
        assert "cb after:" in out

    def test_written_config_reparses(self, tmp_path, capsys):
        out = tmp_path / "normalized.cfg"
        assert main(["normalize", "--model", DECAY, "--out", str(out)]) == 0
        text = out.read_text()
        model = parse_model(text)
        assert model.cb == pytest.approx(1.579228722902379, rel=1e-12)
        assert parse_grid(text) == (16, 120)

    def test_written_cb_is_the_one_trace_uses(self, tmp_path, capsys):
        out = tmp_path / "normalized.cfg"
        assert main(["normalize", "--model", DECAY, "--out", str(out), "--nx", "6", "--na", "24"]) == 0
        raw = parse_model(Path(DECAY).read_text())
        lin = build_linearized(raw, SpatialMesh(nx=6), AgeGrid(na=24, a_max=raw.a_max))
        assert parse_model(out.read_text()).cb == lin.model.cb

    def test_grid_must_come_from_somewhere(self, tmp_path, capsys):
        stripped = "\n".join(
            line for line in Path(DECAY).read_text().splitlines()
            if not line.startswith(("nx =", "na ="))
        )
        cfg = tmp_path / "nogrid.cfg"
        cfg.write_text(stripped + "\n")
        assert main(["normalize", "--model", str(cfg)]) == 2
        assert "grid is incomplete" in capsys.readouterr().err
        assert main(["normalize", "--model", str(cfg), "--nx", "6", "--na", "12"]) == 0


class TestTrace:
    def test_writes_branch_and_profiles(self, traced, capsys):
        header = traced.read_text().splitlines()[0]
        assert tuple(header.split(",")) == BRANCH_COLUMNS
        profiles = sorted(traced.parent.glob("branch_profile_*.csv"))
        # trivial row plus three nontrivial points
        assert [p.name for p in profiles] == [
            f"branch_profile_{i:03d}.csv" for i in range(4)
        ]

    def test_reruns_are_byte_identical(self, traced, tmp_path):
        again = run_trace(tmp_path)
        assert again.read_bytes() == traced.read_bytes()
        for prof in sorted(traced.parent.glob("branch_profile_*.csv")):
            twin = tmp_path / prof.name
            assert twin.read_bytes() == prof.read_bytes()


class TestVerify:
    def verify(self, branch: Path) -> int:
        return main([
            "verify", "--model", DECAY, "--nx", "6", "--na", "24",
            "--branch", str(branch),
        ])

    def copy_run(self, traced: Path, dest: Path) -> Path:
        dest.mkdir(exist_ok=True)
        for f in traced.parent.iterdir():
            shutil.copy(f, dest / f.name)
        return dest / traced.name

    def test_clean_run_passes(self, traced, capsys):
        assert self.verify(traced) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "FAIL" not in out
        # every passing check says what it measured
        assert all(": " in line for line in out.splitlines() if line.startswith("ok "))

    def test_tampered_radius_column(self, traced, tmp_path, capsys):
        branch = self.copy_run(traced, tmp_path / "run")
        lines = branch.read_text().splitlines()
        cells = lines[-1].split(",")
        cells[3] = repr(float(cells[3]) * 1.5)
        lines[-1] = ",".join(cells)
        branch.write_text("\n".join(lines) + "\n")
        assert self.verify(branch) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_tampered_profile(self, traced, tmp_path, capsys):
        branch = self.copy_run(traced, tmp_path / "run")
        prof = branch.parent / "branch_profile_002.csv"
        lines = prof.read_text().splitlines()
        for i, line in enumerate(lines[1:], start=1):
            cells = line.split(",")
            lines[i] = ",".join([cells[0]] + [repr(float(c) * 1.01) for c in cells[1:]])
        prof.write_text("\n".join(lines) + "\n")
        assert self.verify(branch) == 1
        assert "FAIL profiles" in capsys.readouterr().out

    # row 2's index must be its row number, or the file is malformed; its
    # identity_residual must be |n r_Qu - 1| of its own row to the bit,
    # its residual_direct, reform_residual, eps and r_Qu those of its
    # profile, and its min_u the profile's minimum to the bit.  A raised
    # r_Qu comes with the identity_residual it implies, and a reform_residual
    # of 9e-6 stays below REFORM_BOUND, so only the replay can catch them
    @pytest.mark.parametrize("column, tamper, failed", [
        ("index", lambda v: 77.0, None),
        ("index", lambda v: v + 0.5, None),
        ("identity_residual", lambda v: 1000.0, "columns satisfy n r(Q_u) = 1"),
        ("identity_residual", lambda v: np.nextafter(v, 1.0), "columns satisfy n r(Q_u) = 1"),
        ("residual_direct", lambda v: 1000.0, "profiles satisfy the reformulation"),
        ("residual_direct", lambda v: v + 2e-12, "profiles satisfy the reformulation"),
        ("reform_residual", lambda v: 9e-6, "profiles satisfy the reformulation"),
        ("reform_residual", lambda v: v + 2e-12, "profiles satisfy the reformulation"),
        ("eps", lambda v: 2.0 * v, "profiles satisfy the reformulation"),
        ("min_u", lambda v: 2.0 * v + 1e-3, "nonnegative densities"),
        ("r_Qu", lambda v: v * (1.0 + 1e-7), "profiles satisfy n r(Q_u) = 1"),
    ], ids=["index", "index-half", "identity", "identity-ulp", "direct", "direct-2e-12", "reform", "reform-2e-12",
            "eps", "min_u", "r_Qu"])
    def test_tampered_column(self, traced, tmp_path, capsys, column, tamper, failed):
        branch = self.copy_run(traced, tmp_path / "run")
        lines = branch.read_text().splitlines()
        cells = lines[3].split(",")
        cells[BRANCH_COLUMNS.index(column)] = repr(float(tamper(float(cells[BRANCH_COLUMNS.index(column)]))))
        if column == "r_Qu":
            n, r_Qu = float(cells[BRANCH_COLUMNS.index("n")]), float(cells[BRANCH_COLUMNS.index("r_Qu")])
            cells[BRANCH_COLUMNS.index("identity_residual")] = repr(abs(n * r_Qu - 1.0))
        lines[3] = ",".join(cells)
        branch.write_text("\n".join(lines) + "\n")
        if failed is None:
            self.assert_malformed(branch, branch, capsys)
            return
        assert self.verify(branch) == 1
        out = capsys.readouterr().out
        assert [line.split(":")[0] for line in out.splitlines() if line.startswith("FAIL")] == [f"FAIL {failed}"]

    # verify's dense radius is its own, apart from the replay's bracket end:
    # raised by 1e-9 it leaves each profile's bracket, and that check alone fails
    def test_dense_radius_check_is_live(self, traced, capsys, monkeypatch):
        real = cli.spectral_radius

        def raised(matrix):
            r, v = real(matrix)
            return r * (1.0 + 1e-9), v

        monkeypatch.setattr(cli, "spectral_radius", raised)
        assert self.verify(traced) == 1
        out = capsys.readouterr().out
        assert [line.split(":")[0] for line in out.splitlines() if line.startswith("FAIL")] == [
            "FAIL dense radii satisfy n r(Q_u) = 1"
        ]
        assert "outside the bracket in rows [1, 2, 3]" in out

    # a shell profile raised to 1000 or 1e300 makes b = exp(-u) underflow
    # to 0, so the replayed r_Qu is 0.0: a zero replay counts as off, and
    # each check fails on its own line, with no division by it
    @pytest.mark.parametrize("profile, value", [(1, "1000"), (2, "1e300")])
    def test_zero_replayed_radius_fails_by_name(self, tmp_path, capsys, profile, value):
        branch = tmp_path / "branch.csv"
        assert main(["trace", "--model", SHELL, "--out", str(branch), *TRACE_FLAGS]) == 0
        prof = branch.parent / f"branch_profile_{profile:03d}.csv"
        lines = prof.read_text().splitlines()
        for i, line in enumerate(lines[1:], start=1):
            cells = line.split(",")
            lines[i] = ",".join([cells[0]] + [value] * (len(cells) - 1))
        prof.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", "--model", SHELL, "--nx", "6", "--na", "24", "--branch", str(branch)]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        failed = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert [line.split(":")[0] for line in failed] == [
            "FAIL nonnegative densities", "FAIL profiles satisfy n r(Q_u) = 1",
            "FAIL dense radii satisfy n r(Q_u) = 1", "FAIL profiles satisfy the reformulation",
        ]
        assert failed[1].endswith(", r_Qu off by inf")
        assert out.splitlines()[-1] == "4 check(s) failed"

    # the replay skips the trivial row, so its profile must be the zero
    # field and its residual_direct and reform_residual 0; only a failure
    # names them.  A reform_residual of 9e-6 stays below REFORM_BOUND
    @pytest.mark.parametrize("tampered, detail", [
        ("profile", "nonzero profile in rows [0]"),
        ("residual_direct", "nonzero residual_direct in rows [0]"),
        ("reform_residual", "nonzero reform_residual in rows [0]"),
    ])
    def test_tampered_trivial_row(self, traced, tmp_path, capsys, tampered, detail):
        branch = self.copy_run(traced, tmp_path / "run")
        path, row, col = (
            (branch.parent / "branch_profile_000.csv", 2, 3) if tampered == "profile"
            else (branch, 1, BRANCH_COLUMNS.index(tampered))
        )
        lines = path.read_text().splitlines()
        cells = lines[row].split(",")
        assert float(cells[col]) == 0.0
        cells[col] = "9e-06" if tampered == "reform_residual" else "123.0"
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        assert self.verify(branch) == 1
        out = capsys.readouterr().out
        assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
            f"FAIL row 0 is the trivial point: n=1.0, eps=0.0, {detail}"
        ]

    def test_trivial_rows_are_the_solvers(self, traced_tiny, capsys):
        _, table = cli._read_table(traced_tiny, lambda first: True)
        B = cli._read_field_csv(cli._profile_path(str(traced_tiny), 1), *cli._load_problem(DECAY, 6, 24)[1:])[0]
        assert table[1, BRANCH_COLUMNS.index("eps")] < 1e-12 <= np.max(np.abs(B))
        assert self.verify(traced_tiny) == 0
        assert "all checks passed" in capsys.readouterr().out

    # a mesh of two nodes, below tridiag.MIN_ROWS, solves every step on
    # factors padded with unit rows, from trace through verify
    @pytest.mark.parametrize("model", [DIFFUSION, DECAY], ids=["diffusion", "decay"])
    def test_two_node_mesh_traces_and_verifies(self, model, tmp_path, capsys):
        branch, grid = str(tmp_path / "branch.csv"), ["--nx", "2", "--na", "8"]
        assert main(["trace", "--model", model, "--out", branch, *grid]) == 0
        assert main(["verify", "--model", model, "--branch", branch, *grid]) == 0
        assert "all checks passed" in capsys.readouterr().out

    # in one process, trace's columns are branch_point's on verify's
    # freeze of each written profile, bit for bit
    @pytest.mark.parametrize("branch", ["traced", "traced_tiny"])
    def test_branch_point_gives_the_written_columns(self, branch, request):
        branch = request.getfixturevalue(branch)
        model, mesh, grid = cli._load_problem(DECAY, 6, 24)
        lin = build_linearized(model, mesh, grid)
        _, table = cli._read_table(branch, lambda first: True)
        for idx, row in enumerate(table.tolist()):
            u = cli._read_field_csv(cli._profile_path(str(branch), idx), mesh, grid)
            point = branch_point(lin, row[1], freeze(lin.model, mesh, grid, u))
            columns = [idx, *(getattr(point, col) for col in BRANCH_COLUMNS[1:])]
            assert [cli.FLOAT % v for v in columns] == [cli.FLOAT % v for v in row]

    def test_missing_profile(self, traced, tmp_path, capsys):
        branch = self.copy_run(traced, tmp_path / "run")
        (branch.parent / "branch_profile_001.csv").unlink()
        self.assert_malformed(branch, branch.parent / "branch_profile_001.csv", capsys)

    @pytest.mark.parametrize("text", ["a,b,c\n1,2,3\n", "\n" + ",".join(BRANCH_COLUMNS) + "\n", ""],
                             ids=["foreign", "empty-first-line", "empty-file"])
    def test_foreign_header_rejected(self, tmp_path, capsys, text):
        bad = tmp_path / "branch.csv"
        bad.write_text(text)
        self.assert_malformed(bad, bad, capsys)

    # a malformed file fails before any check prints
    def assert_malformed(self, branch: Path, bad: Path, capsys) -> None:
        assert self.verify(branch) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert str(bad) in err

    # max and min skip a NaN that does not come first, so a NaN past row 0
    # would pass the column checks; inf in min_u would pass as well
    @pytest.mark.parametrize("cell", ["nan", "inf"])
    @pytest.mark.parametrize("column", ["r_Qu", "reform_residual", "min_u"])
    def test_non_finite_branch_cell_rejected(self, traced, tmp_path, capsys, column, cell):
        branch = self.copy_run(traced, tmp_path / "run")
        lines = branch.read_text().splitlines()
        cells = lines[2].split(",")
        cells[BRANCH_COLUMNS.index(column)] = cell
        lines[2] = ",".join(cells)
        branch.write_text("\n".join(lines) + "\n")
        self.assert_malformed(branch, branch, capsys)

    def test_short_branch_row_rejected(self, traced, tmp_path, capsys):
        branch = self.copy_run(traced, tmp_path / "run")
        lines = branch.read_text().splitlines()
        lines[2] = "1,1.0"
        branch.write_text("\n".join(lines) + "\n")
        self.assert_malformed(branch, branch, capsys)

    @pytest.mark.parametrize(
        "damage", ["empty-first-line", "short-row", "non-numeric-cell", "nan-cell"]
    )
    def test_malformed_profile_rejected(self, traced, tmp_path, capsys, damage):
        branch = self.copy_run(traced, tmp_path / "run")
        prof = branch.parent / "branch_profile_001.csv"
        lines = prof.read_text().splitlines()
        if damage == "empty-first-line":
            lines.insert(0, "")
        elif damage == "short-row":
            lines[3] = lines[3].rsplit(",", 1)[0]
        elif damage == "nan-cell":
            lines[3] = lines[3].rsplit(",", 1)[0] + ",nan"
        else:
            lines[3] = lines[3].replace(",", ",x,", 1).rsplit(",", 1)[0]
        prof.write_text("\n".join(lines) + "\n")
        self.assert_malformed(branch, prof, capsys)


finite = st.floats(allow_nan=False, allow_infinity=False)


class TestTableFormat:
    """Every table cell is FLOAT-formatted, and a profile reads back bit for bit."""

    @given(finite)
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(-2.2250738585072014e-308)
    @example(1.7976931348623157e308)
    @example(-1.79e308)
    @settings(max_examples=500, deadline=None)
    def test_float_format_is_repr_faithful(self, x):
        assert cli.FLOAT % x == format(float(x), ".17g")
        assert float(cli.FLOAT % x) == x and np.signbit(float(cli.FLOAT % x)) == np.signbit(x)

    @pytest.mark.parametrize("x", [
        np.inf, -np.inf, np.nan, np.float64(0.1), np.float32(0.1), np.int64(-3), 7,
    ], ids=["inf", "-inf", "nan", "float64", "float32", "int64", "int"])
    def test_float_format_of_other_values(self, x):
        assert cli.FLOAT % x == format(float(x), ".17g")

    @given(arrays(np.float64, (5, 3), elements=finite))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_field_round_trip_keeps_every_bit(self, tmp_path, u):
        mesh, grid = SpatialMesh(nx=3), AgeGrid(na=4, a_max=2.0)
        path = tmp_path / "profile.csv"
        cli._field_csv(path, u, mesh, grid)
        back = cli._read_field_csv(path, mesh, grid)
        assert back.view(np.int64).tolist() == u.view(np.int64).tolist()


class TestFixedpointCommand:
    def run(self, out_dir: Path) -> tuple[int, Path]:
        stem = out_dir / "fp.csv"
        rc = main(["fixedpoint", "--model", SHELL, "--out", str(stem)])
        return rc, out_dir / "fp"

    def test_writes_three_files(self, tmp_path, capsys):
        rc, stem = self.run(tmp_path)
        assert rc == 0
        report = Path(f"{stem}_report.txt").read_text()
        assert "converged: True" in report
        assert "verdict_small_densities: True" in report
        assert "verdict_large_densities: True" in report
        assert Path(f"{stem}_u.csv").exists()
        assert Path(f"{stem}_B.csv").read_text().startswith("x,B\n")
        assert capsys.readouterr().out.startswith("converged: True")

    def test_reruns_are_byte_identical(self, tmp_path):
        rc1, stem1 = self.run(tmp_path / "one")
        rc2, stem2 = self.run(tmp_path / "two")
        assert rc1 == rc2 == 0
        for suffix in ("_u.csv", "_B.csv", "_report.txt"):
            assert Path(f"{stem1}{suffix}").read_bytes() == Path(f"{stem2}{suffix}").read_bytes()


def written(argv: list[str], out_dir: Path) -> dict[str, bytes]:
    out_dir.mkdir()
    assert main([*argv, "--out", str(out_dir / "out.csv")]) == 0
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


def counted_factors(monkeypatch) -> dict[bool, int]:
    """Counts of the factors a build makes of bands with no coupling (True)
    and of coupled bands (False)."""
    factors, real = {True: 0, False: 0}, evolution.factor_tridiag

    def counting(lower, diag, upper):
        factors[not (np.count_nonzero(lower[1:]) or np.count_nonzero(upper[:-1]))] += 1
        return real(lower, diag, upper)

    monkeypatch.setattr(evolution, "factor_tridiag", counting)
    return factors


class TestFactorPaths:
    """Every one-step matrix of a pure-decay model is diagonal, and
    dividing by it, in march or in freeze, writes the bytes of the banded
    path.  fixedpoint marches and freezes only, so it makes no factor at
    all; trace still factors its linear evolution, with no coupling."""

    @pytest.mark.parametrize("argv, factors", [
        (["fixedpoint", "--model", SHELL], False),
        (["fixedpoint", "--model", SHELL, "--nx", "48", "--tau1", "20", "--seed", "301"], False),
        (["trace", "--model", DECAY, "--max-points", "3"], True),
    ], ids=["fixedpoint", "fixedpoint-wide", "trace"])
    def test_division_writes_the_bytes_of_the_banded_path(self, argv, factors, tmp_path, monkeypatch, capsys):
        counts = counted_factors(monkeypatch)
        divided = written(argv, tmp_path / "divided")
        assert (counts[True] > 0 and counts[False] == 0) if factors else counts == {True: 0, False: 0}
        for module in (continuation, fixedpoint):  # each march a banded build
            monkeypatch.setattr(module, "march", lambda model, mesh, grid, B: build_evolution(model, mesh, grid, birth=B))
        monkeypatch.setattr(fixedpoint, "freeze", build_evolution)  # and each frozen field
        assert written(argv, tmp_path / "banded") == divided


def loop_without_budget(monkeypatch) -> None:
    """Give power iteration no iterations and the dense fallback no eig:
    only a matrix with a closed form still gets a radius."""
    real = reproduction._power_iteration

    def failing(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(reproduction, "_power_iteration", lambda matrix, tol, max_iter: real(matrix, tol, 0))
    monkeypatch.setattr(np.linalg, "eig", failing)


class TestDiagonalRadius:
    """Every reproduction matrix of a pure-decay model is diagonal, and its
    radius needs neither power iteration nor an eigensolve."""

    # the bench's fixedpoint-shell run at seed 1, recorded when three of
    # its six large-shell radii came from np.linalg.eig
    WIDE_SHELL = {
        "out_B.csv": "423a9ebb148503c108427aa55b7ffa6a45ffb7e6e610e8068466102a6b6a5d4c",
        "out_report.txt": "248806a566c4acb51250196ccd55136892fd55b5e5639959512c2f76e2039cc3",
        "out_u.csv": "d27dd3fc9cf91a0b0898755e8d63a57d466e8583a7b7bb4ff502784b6a82db42",
        "stdout": "b764d787b3f4942fc0608812aeb2395d005604356286ee09032c98bd659432ec",
    }

    def test_wide_fixedpoint_keeps_its_bytes(self, tmp_path, capsys, monkeypatch):
        loop_without_budget(monkeypatch)
        argv = ["fixedpoint", "--model", SHELL, "--nx", "48", "--tau1", "20", "--seed", "1"]
        assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
        actual = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(tmp_path.iterdir())}
        stdout = capsys.readouterr().out.replace(str(tmp_path), "<tmp>")
        actual["stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
        assert actual == self.WIDE_SHELL

    def test_coupled_q0_still_takes_the_loop(self, capsys, monkeypatch):
        loop_without_budget(monkeypatch)
        assert main(["normalize", "--model", DECAY]) == 0
        capsys.readouterr()
        assert main(["normalize", "--model", DIFFUSION]) == 1
        assert capsys.readouterr().err.startswith("error: power iteration did not converge")


class TestErrorsAndEntryPoints:
    def test_missing_model_file(self, capsys):
        assert main(["normalize", "--model", "/no/such/model.cfg"]) == 2

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("not a config [[[")
        assert main(["normalize", "--model", str(cfg)]) == 2

    @pytest.mark.parametrize("flags", [
        ["--step", "0"], ["--step", "-0.05"], ["--step", "inf"], ["--step", "nan"],
        ["--max-points", "0"], ["--n-cap", "nan"], ["--norm-cap", "nan"],
        ["--eps0", "0"], ["--eps0", "nan"], ["--tol", "0"], ["--tol", "nan"], ["--tol", "-1"],
    ])
    def test_bad_trace_inputs_exit_1(self, flags, tmp_path, capsys):
        argv = ["trace", "--model", DECAY, "--nx", "4", "--na", "12", "--max-points", "2"]
        assert main([*argv, *flags, "--out", str(tmp_path / "branch.csv")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert flags[0].lstrip("-").replace("-", "_") in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flags", [
        ["--tol", "nan"], ["--tol", "-1"], ["--tol", "inf"], ["--max-iter", "0"],
        ["--seed", "-1"], ["--tau1", "inf"], ["--tau1", "1e308"],
        ["--damping", "0"], ["--damping", "1.5"], ["--starts", "0"],
    ])
    def test_bad_fixedpoint_inputs_exit_1(self, flags, tmp_path, capsys):
        argv = ["fixedpoint", "--model", SHELL, "--out", str(tmp_path / "fp")]
        assert main([*argv, *flags]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert flags[0].lstrip("-").replace("-", "_") in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("h", [
        "-" * 3000 + "u",
        "(" * 3000 + "u" + ")" * 3000,
        "0" + "+0*u" * 3000,
    ], ids=["minus-signs", "parentheses", "left-deep-sum"])
    def test_deep_expression_exits_2(self, h, tmp_path, capsys):
        cfg = tmp_path / "deep.cfg"
        cfg.write_text(Path(DECAY).read_text().replace("\nh = 0\n", f"\nh = {h}\n"))
        assert main(["normalize", "--model", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert err.startswith("error: coefficient 'h': expression nests deeper than")

    @pytest.mark.parametrize("message", ["Unable to allocate 7.28 TiB for an array", ""])
    def test_out_of_memory_exits_1(self, message, capsys, monkeypatch):
        # a layer below the CLI runs out of memory; nothing large is allocated
        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(linearized, "build_evolution", exhausted)
        assert main(["normalize", "--model", DECAY]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert err.startswith("error: out of memory") and message in err

    def test_overflowing_step_prints_one_line(self, tmp_path):
        # numpy's overflow warnings must not reach stderr ahead of the error
        proc = subprocess.run(
            [sys.executable, "-m", "agequil", "trace", "--model", DECAY, "--nx", "4",
             "--na", "12", "--step", "1e300", "--out", str(tmp_path / "branch.csv")],
            env=src_env(), capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1

    @staticmethod
    def _run_edited_decay(tmp_path, edits: dict[str, str], *argv: str) -> subprocess.CompletedProcess:
        text = Path(DECAY).read_text()
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        (tmp_path / "model.cfg").write_text(text)
        return subprocess.run(
            [sys.executable, "-m", "agequil", *argv, "--model", str(tmp_path / "model.cfg")],
            env=src_env(), capture_output=True, text=True,
        )

    def test_overflowing_diffusion_prints_one_line(self, tmp_path):
        # D = 1e308 overflows the diffusion bands; a pivot check turns that into the error
        edits = {"\nD = 1\n": "\nD = 1e308\n", "pure_decay = true": "pure_decay = false"}
        proc = self._run_edited_decay(tmp_path, edits, "trace", "--nx", "6", "--na", "12",
                                      "--out", str(tmp_path / "out" / "branch.csv"))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1

    def test_overflow_in_validation_sample_is_refused_without_a_warning(self, tmp_path):
        # validate_model samples mu at u = 4, where exp(4000) overflows to
        # inf: the model is refused at load, with no overflow warning
        proc = self._run_edited_decay(tmp_path, {"\nmu = 1 + u\n": "\nmu = 1 + exp(1000 * u)\n"}, "normalize")
        assert proc.returncode == 2
        assert proc.stderr == "error: mu is not finite on sampled nonnegative densities\n"

    def test_overflowing_power_is_refused_in_one_line(self, tmp_path, capsys):
        # ((65536^4)^4)^4 overflows a Python float's power; its inf makes
        # mu(0, a) = 0 * inf a NaN, which validate_model refuses as not finite
        cfg = tmp_path / "power.cfg"
        cfg.write_text(Path(DECAY).read_text().replace("\nmu = 1 + u\n", "\nmu = 1 + u * ((65536^4)^4)^4\n"))
        assert main(["fixedpoint", "--model", str(cfg), "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err == "error: mu is not finite on sampled nonnegative densities\n"

    def test_broken_sign_pattern_exits_1(self, tmp_path, capsys):
        # D is positive at every point validate_model samples but -2.9 at
        # x = 1/16, where the nx 16 diffusion stencil reads it
        cfg = tmp_path / "dip.cfg"
        text = Path(DECAY).read_text().replace("\nD = 1\n", "\nD = 1 + 1000 * x * (x - 0.125)\n")
        cfg.write_text(text.replace("pure_decay = true", "pure_decay = false"))
        argv = ["trace", "--model", str(cfg), "--nx", "16", "--na", "12"]
        assert main([*argv, "--out", str(tmp_path / "out" / "branch.csv")]) == 1
        assert capsys.readouterr().err == "error: M-matrix sign pattern violated near row 1\n"
        assert not (tmp_path / "out").exists()

    def test_failed_eigensolve_exits_1(self, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(reproduction, "_power_iteration", failing)
        assert main(["normalize", "--model", DECAY]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: dense eigensolve failed") and len(err.splitlines()) == 1

    def test_shell_flags_checked_before_the_solve(self, tmp_path, capsys, monkeypatch):
        calls = []
        real = cli.solve_fixedpoint

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "solve_fixedpoint", counting)
        argv = ["fixedpoint", "--model", SHELL, "--out", str(tmp_path / "fp"), "--tau1", "inf"]
        assert main(argv) == 1
        assert "tau1" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("flags", [
        ["--damping", "0"], ["--tol", "nan"], ["--max-iter", "0"], ["--starts", "0"],
    ])
    def test_solve_flags_checked_before_the_shells(self, flags, tmp_path, capsys, monkeypatch):
        calls = []
        real = cli.check_shell_conditions

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "check_shell_conditions", counting)
        argv = ["fixedpoint", "--model", SHELL, "--out", str(tmp_path / "fp"), *flags]
        assert main(argv) == 1
        assert flags[0].lstrip("-").replace("-", "_") in capsys.readouterr().err
        assert calls == []

    def test_blas_threads_capped_unless_set(self):
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        probe = f"import os, agequil; print(*(os.environ[v] for v in {names!r}))"
        env = {k: v for k, v in src_env().items() if k not in names}
        for preset, want in ((None, "1 1 1"), ("3", "3 3 3")):
            if preset is not None:
                env.update(dict.fromkeys(names, preset))
            proc = subprocess.run(
                [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.split() == want.split()

    def test_blas_cap_is_in_place_when_numpy_loads(self):
        # the cap acts only if the variable is set before numpy first loads,
        # so an import finder records it at that moment
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        probe = (
            "import os, sys\n"
            "seen = []\n"
            "class Spy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy' and not seen:\n"
            "            seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
            "sys.meta_path.insert(0, Spy())\n"
            "import agequil\n"
            "print(seen)\n"
        )
        env = {k: v for k, v in src_env().items() if k not in names}
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['1']"

    def test_import_loads_every_module_but_cli(self):
        # the bench's setup_s times this import, so the set it loads is fixed
        probe = "import sys, agequil; print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'agequil'))"
        proc = subprocess.run([sys.executable, "-c", probe], env=src_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        modules = ("continuation", "discretize", "evolution", "expr", "fixedpoint",
                   "linearized", "model", "reproduction", "tridiag")
        assert proc.stdout.split() == ["agequil", *(f"agequil.{m}" for m in modules)]

    def test_version_is_the_project_version(self):
        import tomllib

        import agequil

        with open(MODELS.parent / "pyproject.toml", "rb") as f:
            assert agequil.__version__ == tomllib.load(f)["project"]["version"]

    def test_readme_layout_names_every_module(self):
        readme = (MODELS.parent / "README.md").read_text()
        layout = readme.split("## Library layout", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `agequil\.(\w+)` \|", layout, flags=re.MULTILINE)
        files = {p.stem for p in (MODELS.parent / "src" / "agequil").glob("*.py")} - {"__init__", "__main__"}
        assert sorted(rows) == sorted(files)

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "agequil", "--help"],
            env=src_env(), capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "normalize" in proc.stdout

    @pytest.mark.parametrize("script, expected", [
        ("trace_logistic.py", {"branch.csv", *(f"branch_profile_{i:03d}.csv" for i in range(13))}),
        ("fixedpoint_shell.py", {"shell_u.csv", "shell_B.csv", "shell_report.txt"}),
    ], ids=["trace_logistic", "fixedpoint_shell"])
    def test_demo_scripts_run(self, script, expected, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as done:
            runpy.run_path(str(MODELS.parent / "scripts" / script), run_name="__main__")
        assert done.value.code == 0, capsys.readouterr().err
        assert {path.name for path in (tmp_path / "out").iterdir()} == expected

    def test_console_script(self):
        exe = shutil.which("agequil")
        if exe is not None:
            proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        else:
            # no installed script: start the declared entry point as pip's wrapper would
            import tomllib

            with open(MODELS.parent / "pyproject.toml", "rb") as f:
                target = tomllib.load(f)["project"]["scripts"]["agequil"]
            module, func = target.split(":")
            wrapper = f"import sys; sys.argv[0] = 'agequil'; from {module} import {func}; sys.exit({func}())"
            proc = subprocess.run(
                [sys.executable, "-c", wrapper, "--help"],
                env=src_env(), capture_output=True, text=True,
            )
        assert proc.returncode == 0
