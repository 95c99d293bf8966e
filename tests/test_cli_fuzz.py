"""Fuzzed input files against the CLI's exit-code contract.

Each example takes one input document (a fixture, a `construct` parameter
file or a solenoid base), deletes or replaces the value at one JSON path, and
runs one command on it through `Runner`.  Whatever the input, the command
exits 0, 1 or 2 and never raises: exit 2 prints exactly one stderr line and no
stdout, and exits 0 and 1 print strict JSON.
"""

import copy
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_runner import Runner
from conftest import REF_COEFFS
from cylinderstat.cli import main
from cylinderstat.families import (four_statistic_family, line_gaussian_family,
                                   twisted_torus_pair)
from cylinderstat.fdiff import GridFunction, default_n_grid, default_s_grid, save_grid_csv
from cylinderstat.serialize import family_to_fixture

DELETE = "(delete)"
VALUES = (DELETE, None, True, -1, 0, 1e308, "abc", "1/0", "1" + "0" * 400, [], {})

DOCUMENTS = {
    "reference": family_to_fixture(line_gaussian_family(1, *REF_COEFFS)),
    "twisted-pair": family_to_fixture(twisted_torus_pair(1, kappa=Fraction(1, 20))),
    "four-statistic": family_to_fixture(four_statistic_family(1, Fraction(1, 20))),
    "line-gaussian-params": {"omega": "1", "a1": "2", "a2": "-3", "b1": "-4/5", "b2": "-1/5",
                             "p1": 1, "p2": 1, "q1": 1, "q2": 1, "sigma_scale": 1},
    "torus-params": {"sigma": 1, "theta1": 0, "theta2": 0, "kappa": "1/20"},
    "base": {"base": list(range(2, 18))},
}

# "<doc>" is the mutated document; the other placeholders are valid inputs.
FIXTURE_COMMANDS = (
    ["check", "--fixture", "<doc>"],
    ["simulate", "--fixture", "<doc>", "--count", "200", "--bootstrap", "2"],
    ["solenoid", "--base", "<base>", "--fixture", "<doc>", "--depth", "2"],
    ["reduce", "--mode", "triple", "--input", "<csvs>", "--fixture", "<doc>"],
)
CASES = [(name, args) for name in ("reference", "twisted-pair", "four-statistic")
         for args in FIXTURE_COMMANDS] + [
    ("line-gaussian-params", ["construct", "-f", "line-gaussian", "--params", "<doc>",
                              "--out", "<out>"]),
    ("torus-params", ["construct", "-f", "twisted-pair", "--params", "<doc>", "--out", "<out>"]),
    ("torus-params", ["construct", "-f", "four-statistic", "--params", "<doc>",
                      "--out", "<out>"]),
    ("base", ["solenoid", "--base", "<doc>", "--fixture", "<reference>", "--depth", "2"]),
]


def json_paths(obj, prefix=()):
    """Every path into a JSON document, the root () included."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from json_paths(value, prefix + (key,))


def mutated_text(doc, path, value) -> str:
    """The document with the value at `path` replaced, or deleted; "" for a deleted root."""
    if not path:
        return "" if value == DELETE else json.dumps(value)
    out = copy.deepcopy(doc)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if value == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(out)


mutations = st.sampled_from(CASES).flatmap(lambda case: st.tuples(
    st.just(case), st.sampled_from(list(json_paths(DOCUMENTS[case[0]]))),
    st.sampled_from(VALUES)))


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory, ref_family):
    """Paths of the unmutated inputs a command needs besides the fuzzed one."""
    work = tmp_path_factory.mktemp("fuzz")
    csvs = []
    for j, cf in enumerate(ref_family.cfs):
        grid = GridFunction.sample(lambda s, n, cf=cf: 2 * float(cf.phi(s, n)),
                                   default_s_grid(), default_n_grid())
        save_grid_csv(grid, work / f"psi{j}.csv")
        csvs.append(str(work / f"psi{j}.csv"))
    (work / "reference.json").write_text(json.dumps(DOCUMENTS["reference"]))
    (work / "base.json").write_text(json.dumps(DOCUMENTS["base"]))
    return {"<reference>": str(work / "reference.json"), "<base>": str(work / "base.json"),
            "<csvs>": ",".join(csvs), "<out>": str(work / "out.json"),
            "<doc>": str(work / "doc.json")}


def run_mutation(inputs: dict, case, path, value):
    name, args = case
    with open(inputs["<doc>"], "w") as fh:
        fh.write(mutated_text(DOCUMENTS[name], path, value))
    return Runner().invoke(main, [inputs.get(a, a) for a in args])


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def assert_contract(result):
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exc_info
    assert "Traceback" not in result.output
    assert result.exit_code in (0, 1, 2), result.output
    if result.exit_code == 2:
        assert result.stdout == "", result.stdout
        assert result.stderr.count("\n") == 1 and result.stderr.startswith("error: "), result.stderr
    else:
        json.loads(result.stdout, parse_constant=_reject_constant)


# pytest records warnings instead of printing them; as errors, a numpy
# RuntimeWarning that would add a stderr line in a real run fails the example.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=600, deadline=None)
@given(mutations)
def test_mutated_input_keeps_exit_code_contract(valid_inputs, mutation):
    assert_contract(run_mutation(valid_inputs, *mutation))
