"""Golden digests of the CLI outputs on small runs of the bundled models.

Refactors and speedups of the numerical kernels must leave every output
byte-identical (criterion 10 checks reruns against each other; this
checks them against fixed bytes), on x86-64 with numpy's default float64
arithmetic.  The Thomas factors are a loop on Python floats, which does
the IEEE operations of numpy's; since the solves run in LAPACK's dgttrs,
the bytes also rest on the LAPACK that scipy bundles not fusing a
multiply and an add into one rounding (checked with scipy 1.17.1), and
the solve with the birth block I - Q0/2 rests on the LAPACK that numpy
bundles for numpy.linalg.solve (checked with numpy 2.4.6).  tridiag
takes dgttrs from scipy's compiled module scipy/linalg/_flapack, loaded
by its file path or, where that fails, through scipy.linalg.lapack; both
paths run the same compiled code, so the bytes are the same on either.  A deliberate change of the numbers
re-records them and says
why.  The two trace cases were re-recorded when the corrector's field
became one forward march along the age axis instead of Picard sweeps to
a tolerance: n, eps, r_Qu and the profiles moved by at most 9e-11
relative.  The fixedpoint case was re-recorded when the damped iteration
became the birth map over that march instead of a joint (u, B) update:
it converges in 47 iterations instead of 50, B moved by 1.3e-14 and the
field by 1.9e-15 relative, and the shell probes kept their bits.  It was
re-recorded again when Anderson mixing came to that iteration and the
final march was no longer replayed: 7 iterations instead of 47, B and
the field moved by 1.8e-14 relative, the residual became the birth
defect alone (0 here), and the shell probes kept their bits.
The two trace cases were re-recorded again when the corrector's
finite-difference Jacobian gave way to the exact one, marched on the
march's own factors: each Newton step now lands on slightly different
bits.  Against the previous digests' runs, n, eps, r_Qu, min_u and the
profiles moved by at most 1.8e-11 relative on trace-decay and 4.7e-14 on
trace-diffusion; the residual columns, which sit at rounding level
(1e-17 to 1e-9), moved by up to their own size.  The fixedpoint case
keeps its bytes.

normalize (the written config and stdout, on every bundled model) and
verify (stdout, on the two golden traces) were pinned later, before the
zero-density problem moved onto the general code, at the bits they had
then.  The verify digests were re-recorded when a passing check began to
print what it measured; no output file and no other stdout moved.

The two trace cases and both verify digests were re-recorded when
branch_point began to take a nontrivial point's r_Qu from the
Collatz-Wielandt bracket of its own march, max l(u)/B where B > 0,
instead of power iteration on the assembled Q_u.  Only r_Qu and
identity_residual moved: r_Qu by at most 3.7e-14 relative (3.4e-16 on
trace-decay), and identity_residual, |n r_Qu - 1|, by as much absolutely.
Every other column and every profile kept its bytes.  verify's stdout
moved with them, and by its new line: the dense radius of each profile,
checked against the identity and the bracket.

The two trace cases and the trace-diffusion verify digest were
re-recorded when branch_point began to write reform_residual in closed
form, one linear solve of the birth defect B - n l(u), instead of the
long form, two solves fed by the field's birth data and perturbation
source.  The two agree in exact arithmetic on the march of B.  Only
reform_residual moved, by at most 3.2e-17 absolutely, on values at
rounding level (4e-18 to 2.5e-11); every other column and every profile
kept its bytes.  verify's stdout on trace-diffusion moved with the stored
column and with its long form, now one solve; on trace-decay it kept its
bytes.

The coupled fixedpoint case (logistic_diffusion at cb = 4.0, at nx 8 and
na 12) was added later, at the bits it had then.  It is the one golden
run whose shell probes build and solve on coupled factors; the other
golden runs pin only the solves of marches and of a result's
assemble_Q, or no dgttrs call at all.  The probes were batched, k
fields side by side on (n, k) factors, when it was recorded; built one
field at a time they keep every byte.
"""

import hashlib
import re
from pathlib import Path

import pytest

from agequil.cli import main

MODELS = Path(__file__).resolve().parent.parent / "models"

RUNS = {
    "trace-decay": (
        ["trace", "--model", str(MODELS / "logistic_decay.cfg"),
         "--nx", "6", "--na", "24", "--max-points", "3"],
        {
            "out.csv": "5dde60053a90c6be3998aee5e3f35bd3b62a70f6bd9008fca83073aeeb1758b6",
            "out_profile_000.csv": "8de0fe762ed3100d4d43b6cc600cfacc38904f83cec3713cda386b47db2054f3",
            "out_profile_001.csv": "d45e3ea3b2da56034872c1bd4d4824da2474deeaf3a1933a0cc441d72e07015d",
            "out_profile_002.csv": "0c586cf83899d058ee02ce9749d35b2934a37a885cac3d9ccd190557fca797ac",
            "out_profile_003.csv": "7d7d557ba871b961edba4bf9f54edc90b745bdd710dd5a83d42c493317e734fb",
        },
    ),
    # drift and diffusion: the march assembles the full spatial operator
    "trace-diffusion": (
        ["trace", "--model", str(MODELS / "logistic_diffusion.cfg"),
         "--nx", "8", "--na", "16", "--max-points", "3"],
        {
            "out.csv": "3f4877f9c057bed106415bf87a15634563f46c632bfe472d1cc5b720cb76a050",
            "out_profile_000.csv": "7f30e69585061a581e94362cad36911fec96aa032ce29d05ce1f36af2f3ee869",
            "out_profile_001.csv": "e01d72ea9cd0ef33eaf87a0e1c9f20b0e582237bffd7c54d4cefa593b2d902b5",
            "out_profile_002.csv": "9f07da2f3f9dfb4b4d35ee1bdfe038addf74ac06e89bae1588c55bedcc87f1b3",
            "out_profile_003.csv": "ef9ef2e12b699eb68d18f725c1d10e7995866203497aa128b19e33621a6a66ab",
        },
    ),
    # pure decay: every step is diagonal, so this pins the march's divisions
    # under Anderson mixing, the diagonal assemble_Q of the shell probes
    # with its closed-form radius, and the _u, _B and report files
    "fixedpoint-shell": (
        ["fixedpoint", "--model", str(MODELS / "shell_decay.cfg"), "--seed", "7"],
        {
            "out_B.csv": "dd75b3ae78378d5f01219134803922dcc3ad54c51c0604c47798de45bcc133f1",
            "out_report.txt": "701f0ba4c2cb6abaa60d3ea96d9815d7aac49208a989c375b23cb33795442d07",
            "out_u.csv": "0e30f9302b70169845b8b7c03bbb7fb21818e29102fc1aa563b7c4d59b9c99ec",
        },
    ),
    # logistic_diffusion at cb = 4.0 (CB): the one fixed point on coupled
    # steps, so the shell probes solve on coupled factors beside the
    # marches'; it converges in 28 iterations
    "fixedpoint-diffusion": (
        ["fixedpoint", "--model", str(MODELS / "logistic_diffusion.cfg"),
         "--nx", "8", "--na", "12", "--tau1", "1", "--seed", "7"],
        {
            "out_B.csv": "7eb70135f0ac0585d2ff859bb384aa00811c34ba203eb878f78160b6ccd8f70b",
            "out_report.txt": "e374f4fff635871fcb07501ad723de3e71356f15a83fd5b836d7c4d1dd691fc7",
            "out_u.csv": "1e86f941a4978937903f32a60c1709a74b026ca06b86f96d4370006e98a3d546",
        },
    ),
}

# the cb a case gives its bundled model, in a copy written beside the run's
# directory, so that directory holds only what the run writes
CB = {"fixedpoint-diffusion": "4.0"}

STDOUT = {
    "trace-decay": "400b565eaf559a4f44168f4211a41441f89f6485404cd53323d08ea90a456ba9",
    "trace-diffusion": "6b01f6b1e0d3e4247987d167f21cac8dba90bfd9864cab91a24377d5f3a443d3",
    "fixedpoint-shell": "516222958749e06e6daa7a6fd57c6c152b47a19e1ad0a73c7cd36c77676c1302",
    "fixedpoint-diffusion": "55ec97068ec5bbe764fead9986ef0c1a24c87feef375193c3e91f3d4a26e780e",
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_golden_digests(name, tmp_path, tmp_path_factory, capsys):
    argv, expected = RUNS[name]
    if name in CB:
        model = Path(argv[2])
        config, count = re.subn(r"(?m)^cb = .*$", f"cb = {CB[name]}", model.read_text())
        assert count == 1
        copy = tmp_path_factory.mktemp("model") / model.name
        copy.write_text(config)
        argv = [*argv[:2], str(copy), *argv[3:]]
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
    actual = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
    }
    assert actual == expected, f"{name} digests changed; actual: {actual}"
    # stdout carries values no output file holds, such as r(Q0) before
    # normalization; the output path is replaced by a fixed token
    stdout = capsys.readouterr().out.replace(str(tmp_path), "<tmp>")
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    assert digest == STDOUT[name], f"{name} stdout changed; actual digest: {digest}"


# normalize at each model's own grid; the digest pairs the written config
# and stdout
NORMALIZE = {
    "logistic_decay": (
        "a44f11e2b7035faf70359b004793e7732d7a258f434001831334f3ad915c3873",
        "8e925cf474b6cd0a79b2f6307d0a88cc4c2ff5f255e4187367d2f67e371df24d",
    ),
    "logistic_diffusion": (
        "0e88ee93075d2b72fe7adfa3b245c7b51a562c7950d0d52cafa0e2caedb4c05a",
        "75ac35f571e7f45b4fedc26eb6633e5c775532d6c311bf437f10191f22c1d734",
    ),
    "shell_decay": (
        "1b7f2c77fb7e51181b9db9a676d9ef0c33b9e84531d5f05e2a8579588c8edad3",
        "3394e0fe42a9434475dd4c9722d03a3a55d0be903259d27939f4d1026bdd23c4",
    ),
}

# verify's stdout on the branch each golden trace writes; a passing check
# prints what it measured, so a residual that moves within its tolerance
# still moves the digest
VERIFY = {
    "trace-decay": "1a2f3bcd20f51c1b697ec35f27248d97bb1e76dd481e9e3e6830fbc31c7f282e",
    "trace-diffusion": "14d2051b62b8fc319e3850b3d60153c08fe8597523dc8e22949550cd16d621d6",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(NORMALIZE))
def test_normalize_matches_golden_digests(name, tmp_path, capsys):
    out = tmp_path / "normalized.cfg"
    assert main(["normalize", "--model", str(MODELS / f"{name}.cfg"), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out.replace(str(tmp_path), "<tmp>")
    actual = (_sha(out.read_bytes()), _sha(stdout.encode()))
    assert actual == NORMALIZE[name], f"{name} normalize digests changed; actual: {actual}"


@pytest.mark.parametrize("name", sorted(VERIFY))
def test_verify_stdout_matches_golden_digest(name, tmp_path, capsys):
    argv, _ = RUNS[name]
    branch = tmp_path / "out.csv"
    assert main([*argv, "--out", str(branch)]) == 0
    capsys.readouterr()
    assert main(["verify", *argv[1:7], "--branch", str(branch)]) == 0
    digest = _sha(capsys.readouterr().out.encode())
    assert digest == VERIFY[name], f"{name} verify stdout changed; actual digest: {digest}"
