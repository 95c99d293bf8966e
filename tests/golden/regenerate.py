"""Rewrite the golden `simulate` reports in this directory.

Run from the repository root:

    python tests/golden/regenerate.py

It builds the fixtures with `construct`, runs each case of CASES in-process
through `tests/cli_runner.py` from this directory, and writes `<name>.stdout`,
`<name>.stderr` and `cases.json`: each case's arguments and exit code, and the
numpy version that drew the samples.  numpy does not promise its `Generator`
streams across versions (NEP 19), so `tests/test_golden.py` compares only under
the recorded version.  A change to any file here is listed in CHANGES.md.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE.parent)]

import numpy as np  # noqa: E402

from cli_runner import Runner  # noqa: E402
from cylinderstat.cli import main  # noqa: E402

# (fixture file, construct family, params)
FIXTURES = [
    ("readme.json", "line-gaussian",
     {"omega": "1", "a1": "2", "a2": "-3", "b1": "-4/5", "b2": "-1/5"}),
    ("point-mass-pair.json", "twisted-pair",
     {"sigma": 0, "theta1": "13/10", "theta2": "2/5", "kappa": 0}),
    ("twisted-pair.json", "twisted-pair", {"sigma": 1, "kappa": "1/20"}),
]

SETTINGS = [("1e5-seed0", ["--count", "100000", "--seed", "0"]),
            ("2e4-seed7", ["--count", "20000", "--seed", "7"])]

CASES = {f"{fixture[:-5]}-{label}": ["simulate", "--fixture", fixture, *args]
         for fixture, _, _ in FIXTURES for label, args in SETTINGS}


def regenerate():
    os.chdir(HERE)
    runner = Runner()
    with tempfile.TemporaryDirectory() as tmp:
        for fixture, family, params in FIXTURES:
            path = Path(tmp, "params.json")
            path.write_text(json.dumps(params))
            result = runner.invoke(main, ["construct", "-f", family, "--params", str(path),
                                          "--out", fixture])
            if result.exit_code:
                raise SystemExit(f"construct {fixture}: {result.output}")
    cases = {}
    for name, args in CASES.items():
        result = runner.invoke(main, args)
        Path(f"{name}.stdout").write_text(result.stdout)
        Path(f"{name}.stderr").write_text(result.stderr)
        cases[name] = {"args": args, "exit_code": result.exit_code}
        print(f"{name}: exit {result.exit_code}")
    manifest = {"numpy": np.__version__, "cases": cases}
    Path("cases.json").write_text(json.dumps(manifest, indent=2) + "\n")


if __name__ == "__main__":
    regenerate()
