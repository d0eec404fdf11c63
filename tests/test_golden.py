"""Golden digests of the CLI outputs on small runs of the bundled models.

Refactors and speedups of the numerical kernels must leave every output
byte-identical (criterion 10 checks reruns against each other; this
checks them against fixed bytes).  The digests were recorded before the
vectorized Thomas solve and the shared warm-start evolution landed, and
the stdout digests before the reproduction matrix lost its wrapper, on
x86-64 with numpy's default float64 arithmetic.  A deliberate change of
the numbers re-records them and says why.
"""

import hashlib
from pathlib import Path

import pytest

from agequil.cli import main

MODELS = Path(__file__).resolve().parent.parent / "models"

RUNS = {
    "trace-decay": (
        ["trace", "--model", str(MODELS / "logistic_decay.cfg"),
         "--nx", "6", "--na", "24", "--max-points", "3"],
        {
            "out.csv": "74e1d6d8e7f9ae1bfba35da786d8fe903e364d31a4b04f9fec4efa9aba41b2eb",
            "out_profile_000.csv": "8de0fe762ed3100d4d43b6cc600cfacc38904f83cec3713cda386b47db2054f3",
            "out_profile_001.csv": "722d7b32fd26889bec0ab9fa4a684063c4181c39f878fa38a20ae5b49c8299d5",
            "out_profile_002.csv": "e680097620f7f560a76ab8203f5f9d6e093778e45ce27ba12f1fa589cb656ed3",
            "out_profile_003.csv": "039caa2d3ac485d3500e32910f9b86c42df50ce21ba832457adc816f0fe8adca",
        },
    ),
    # drift and diffusion: covers the Newton corrector's shared warm start
    "trace-diffusion": (
        ["trace", "--model", str(MODELS / "logistic_diffusion.cfg"),
         "--nx", "8", "--na", "16", "--max-points", "3"],
        {
            "out.csv": "840395ffa0ce797ebcdf017063105ceb547fcdd5d3c1ab0efc5198664d37fa79",
            "out_profile_000.csv": "7f30e69585061a581e94362cad36911fec96aa032ce29d05ce1f36af2f3ee869",
            "out_profile_001.csv": "7de1a63781df83e0e8bba76e1b503ec0eb9cf3ea7dc1d8ad1632ac3b4e5bd400",
            "out_profile_002.csv": "ca88174ca9414804fca7fee6a3e0dea20f6fba811fb353dcb92b6b97d9ea6ce6",
            "out_profile_003.csv": "80de065b5bf58f2029fe9e37514b6c6d25304d0d6859ba07e440ea2cd67c58ee",
        },
    ),
    # multi-column Thomas solves inside assemble_Q on every shell probe
    "fixedpoint-shell": (
        ["fixedpoint", "--model", str(MODELS / "shell_decay.cfg"), "--seed", "7"],
        {
            "out_B.csv": "fa9a9cdba972ce5a9e072fffb156cfdd8f37d72085735b3463b8b631456cd9d8",
            "out_report.txt": "13d71f0911a2ff035c7605ab877e181688f78ecdc0ab661f308823f7315e7dee",
            "out_u.csv": "566f1cbecaeebbec38970f8850b098361ac016100e6df371e1a8fbf38f0a45cc",
        },
    ),
}

STDOUT = {
    "trace-decay": "9f10fd633642acf734bf32780dd7db3279ab0854fef59b2e7bb40aee19a2fe37",
    "trace-diffusion": "5b9e7e902761a5288aab158795bbee71770cd2e7c3567896fcdaf5bf438ba303",
    "fixedpoint-shell": "87fb125d44896aa6a2da4b85f2bbdb4f7dd8cee7f70dd26cc1884dc63ad07885",
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_golden_digests(name, tmp_path, capsys):
    argv, expected = RUNS[name]
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
