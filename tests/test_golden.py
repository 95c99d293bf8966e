"""Golden reports: every command's exact stdout, stderr and exit code on pinned inputs.

The files in `tests/golden/` are written by `tests/golden/regenerate.py`, whose
CASES lists the cases.  Each case runs in-process in a fresh directory holding
copies of the golden files its arguments name, so a path in a report is the file
name, and every such file must still read as its golden copy afterwards: a
`construct` case must write the fixture the other cases read.  numpy's
`Generator` streams may change between numpy versions (NEP 19), so the
`simulate` reports are pinned to the recorded version; the exact commands do not
load numpy, and are compared under any.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cylinderstat
from cli_runner import Runner
from cylinderstat.cli import main

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = json.loads((GOLDEN / "cases.json").read_text())


def _check_numpy(args):
    if args[0] == "simulate" and np.__version__ != MANIFEST["numpy"]:
        pytest.fail(f"the golden reports were drawn with numpy {MANIFEST['numpy']}, and this "
                    f"is numpy {np.__version__}: regenerate them with "
                    f"tests/golden/regenerate.py and check the change")


@pytest.mark.parametrize("name", list(MANIFEST["cases"]))
def test_report_is_byte_identical(name, tmp_path, monkeypatch):
    case = MANIFEST["cases"][name]
    _check_numpy(case["args"])
    named = [p for arg in case["args"] for p in arg.split(",") if (GOLDEN / p).is_file()]
    for file in named:
        shutil.copy(GOLDEN / file, tmp_path)
    monkeypatch.chdir(tmp_path)
    result = Runner().invoke(main, case["args"])
    assert result.exit_code == case["exit_code"], result.output
    assert result.stdout == (GOLDEN / f"{name}.stdout").read_text()
    assert result.stderr == (GOLDEN / f"{name}.stderr").read_text()
    for file in named:
        assert (tmp_path / file).read_bytes() == (GOLDEN / file).read_bytes(), file


def test_every_report_file_belongs_to_a_case():
    """Each case of CASES is in the manifest with both its files, and no other report
    file is here."""
    spec = importlib.util.spec_from_file_location("regenerate", GOLDEN / "regenerate.py")
    regenerate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regenerate)
    assert {name: case["args"] for name, case in MANIFEST["cases"].items()} == regenerate.CASES
    reports = {p.name for p in GOLDEN.iterdir() if p.suffix in (".stdout", ".stderr")}
    assert reports == {f"{name}{suffix}" for name in MANIFEST["cases"]
                       for suffix in (".stdout", ".stderr")}


def test_simulate_report_independent_of_the_blas_thread_count():
    """simulate runs BLAS on one thread unless a thread count is set; a fresh interpreter
    with OPENBLAS_NUM_THREADS=2 prints the same report."""
    args = MANIFEST["cases"]["readme-1e5-seed0"]["args"]
    _check_numpy(args)
    src = str(Path(cylinderstat.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", "from cylinderstat.cli import main; main()",
                           *args], cwd=GOLDEN, capture_output=True, text=True, env=env,
                          timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (GOLDEN / "readme-1e5-seed0.stdout").read_text()
