import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from agequil import cli, fixedpoint, linearized, reproduction, tridiag
from agequil.cli import BRANCH_COLUMNS, main
from agequil.discretize import SpatialMesh
from agequil.evolution import AgeGrid
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


def run_trace(out_dir: Path) -> Path:
    branch = out_dir / "branch.csv"
    rc = main(["trace", "--model", DECAY, "--out", str(branch), *TRACE_FLAGS])
    assert rc == 0
    return branch


@pytest.fixture(scope="module")
def traced(tmp_path_factory) -> Path:
    return run_trace(tmp_path_factory.mktemp("trace"))


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

    def test_missing_profile(self, traced, tmp_path, capsys):
        branch = self.copy_run(traced, tmp_path / "run")
        (branch.parent / "branch_profile_001.csv").unlink()
        assert self.verify(branch) == 2

    def test_foreign_header_rejected(self, tmp_path, capsys):
        bad = tmp_path / "branch.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        assert self.verify(bad) == 2

    def assert_malformed(self, branch: Path, bad: Path, capsys) -> None:
        assert self.verify(branch) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert str(bad) in err

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


def refusing(*bands):
    raise AssertionError("the Python factor loop ran")


def written(argv: list[str], out_dir: Path) -> dict[str, bytes]:
    out_dir.mkdir()
    assert main([*argv, "--out", str(out_dir / "out.csv")]) == 0
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


def counted_paths(monkeypatch) -> dict[bool, int]:
    """Counts of factors that divide by the diagonal (True) and that do not."""
    paths = {True: 0, False: 0}
    real = tridiag._uncoupled

    def counting(*bands):
        uncoupled = bool(real(*bands))
        paths[uncoupled] += 1
        return uncoupled

    monkeypatch.setattr(tridiag, "_uncoupled", counting)
    return paths


class TestFactorPaths:
    """dgttrf factors every one-step matrix of these diffusion runs, and the
    Python loop it falls back to writes the same bytes; every one-step
    matrix of a pure-decay model is diagonal, and dividing by it writes the
    bytes of the banded path."""

    # at the default tau1 of 5 the large-shell probes of logistic_diffusion
    # make dgttrf interchange rows, and the loop factors them as shipped
    @pytest.mark.parametrize("argv", [
        ["trace", "--model", DIFFUSION, "--max-points", "3"],
        ["fixedpoint", "--model", DIFFUSION, "--nx", "8", "--na", "12", "--tau1", "1"],
    ], ids=["trace", "fixedpoint"])
    def test_loop_writes_the_bytes_of_lapack(self, argv, tmp_path, monkeypatch, capsys):
        paths = counted_paths(monkeypatch)
        with monkeypatch.context() as patch:
            patch.setattr(tridiag, "_factor", refusing)
            lapack = written(argv, tmp_path / "lapack")
        assert paths[False] > 0 and paths[True] == 0
        calls = {"dgttrf": 0, "loop": 0}
        real_dgttrf, real_loop = tridiag.dgttrf, tridiag._factor

        def interchanging(*args):
            calls["dgttrf"] += 1
            *factors, ipiv, info = real_dgttrf(*args)
            ipiv = ipiv.copy()
            ipiv[0] = 2
            return (*factors, ipiv, info)

        def loop(*bands):
            calls["loop"] += 1
            return real_loop(*bands)

        monkeypatch.setattr(tridiag, "dgttrf", interchanging)
        monkeypatch.setattr(tridiag, "_factor", loop)
        assert written(argv, tmp_path / "loop") == lapack
        assert calls["loop"] == calls["dgttrf"] > 0

    @pytest.mark.parametrize("argv", [
        ["fixedpoint", "--model", SHELL],
        ["fixedpoint", "--model", SHELL, "--nx", "48", "--tau1", "20", "--seed", "301"],
        ["trace", "--model", DECAY, "--max-points", "3"],
    ], ids=["fixedpoint", "fixedpoint-wide", "trace"])
    def test_division_writes_the_bytes_of_the_banded_path(self, argv, tmp_path, monkeypatch, capsys):
        paths = counted_paths(monkeypatch)
        divided = written(argv, tmp_path / "divided")
        assert paths[True] > 0 and paths[False] == 0
        monkeypatch.setattr(tridiag, "_uncoupled", lambda *bands: False)
        assert written(argv, tmp_path / "banded") == divided

    # at nx 120 the diffusion couplings da D / dx^2 are nine times those at
    # the model's own nx 40, and the Robin rows double them again
    def test_wide_trace_never_falls_back(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(tridiag, "_factor", refusing)
        written(["trace", "--model", DIFFUSION, "--nx", "120", "--max-points", "3"], tmp_path / "wide")


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

    def test_overflow_in_validation_sample_keeps_stderr_empty(self, tmp_path):
        # validate_model samples mu at u = 4, where exp(4000) overflows to inf
        proc = self._run_edited_decay(tmp_path, {"\nmu = 1 + u\n": "\nmu = 1 + exp(1000 * u)\n"}, "normalize")
        assert proc.returncode == 0 and proc.stderr == ""

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
        real = fixedpoint.solve_fixedpoint

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(fixedpoint, "solve_fixedpoint", counting)
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

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "agequil", "--help"],
            env=src_env(), capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "normalize" in proc.stdout

    def test_demo_scripts_run(self, tmp_path):
        repo = MODELS.parent
        env = src_env()
        for script in ("trace_logistic.py", "fixedpoint_shell.py"):
            proc = subprocess.run(
                [sys.executable, str(repo / "scripts" / script)],
                cwd=tmp_path, env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
        written = {path.name for path in (tmp_path / "out").iterdir()}
        expected = {"branch.csv", "branch_profile_000.csv", "shell_u.csv", "shell_B.csv", "shell_report.txt"}
        assert expected <= written

    def test_console_script(self):
        exe = shutil.which("agequil")
        assert exe is not None
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
