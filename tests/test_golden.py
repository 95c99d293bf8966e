"""Golden reports: `simulate`'s exact stdout, stderr and exit code on pinned fixtures.

The files in `tests/golden/` are written by `tests/golden/regenerate.py`.  Each
case runs in-process from that directory, so the fixture path in a report is
the file name.  numpy's `Generator` streams may change between numpy versions
(NEP 19), so the samples, and with them the reports, are pinned to the
recorded version.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from cli_runner import Runner
from cylinderstat.cli import main

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("name", sorted(MANIFEST["cases"]))
def test_report_is_byte_identical(name, monkeypatch):
    if np.__version__ != MANIFEST["numpy"]:
        pytest.fail(f"the golden reports were drawn with numpy {MANIFEST['numpy']}, and this "
                    f"is numpy {np.__version__}: regenerate them with "
                    f"tests/golden/regenerate.py and check the change")
    case = MANIFEST["cases"][name]
    monkeypatch.chdir(GOLDEN)
    result = Runner().invoke(main, case["args"])
    assert result.exit_code == case["exit_code"], result.output
    assert result.stdout == (GOLDEN / f"{name}.stdout").read_text()
    assert result.stderr == (GOLDEN / f"{name}.stderr").read_text()
