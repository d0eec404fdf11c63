"""Find the saturating-fertility equilibrium by fixed-point iteration.

Runs the multistart fixed-point solver (the birth map with Anderson
mixing) on the bundled shell model,
checks both shell conditions, and writes the field, birth vector and a
short report under out/.
"""

from pathlib import Path

from agequil.cli import main

if __name__ == "__main__":
    Path("out").mkdir(exist_ok=True)
    code = main([
        "fixedpoint",
        "--model", str(Path(__file__).resolve().parent.parent / "models" / "shell_decay.cfg"),
        "--out", "out/shell",
    ])
    raise SystemExit(code)
