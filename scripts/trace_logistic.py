"""Trace the logistic diffusion branch and print a summary of it.

Writes branch.csv and the per-point profiles under out/.  Equivalent to

    agequil trace --model models/logistic_diffusion.cfg --out out/branch.csv --max-points 12
"""

from pathlib import Path

from agequil.cli import main

if __name__ == "__main__":
    Path("out").mkdir(exist_ok=True)
    code = main([
        "trace",
        "--model", str(Path(__file__).resolve().parent.parent / "models" / "logistic_diffusion.cfg"),
        "--out", "out/branch.csv",
        "--max-points", "12",
    ])
    raise SystemExit(code)
