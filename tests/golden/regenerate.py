"""Rewrite the golden reports in this directory: every command's exact output.

Run from the repository root:

    python tests/golden/regenerate.py

It writes the inputs the cases read (parameter files, fixtures, solenoid bases
and grid CSVs), runs each case of CASES in-process through `tests/cli_runner.py`
from this directory, and writes `<name>.stdout`, `<name>.stderr` and
`cases.json`: each case's arguments and exit code, and the numpy version that
drew the `simulate` samples.  numpy does not promise its `Generator` streams
across versions (NEP 19), so `tests/test_golden.py` compares a `simulate` case
only under the recorded version; the exact commands are compared under any.
A `construct` case writes a fixture that later cases read, and the test checks
that it writes the file that is here.  A change to any file here is listed in
CHANGES.md.
"""

import json
import math
import os
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE.parent)]

import numpy as np  # noqa: E402

from cli_runner import Runner  # noqa: E402
from cylinderstat.cli import main  # noqa: E402
from cylinderstat.families import line_gaussian_family, twisted_torus_pair  # noqa: E402
from cylinderstat.fdiff import GridFunction, save_grid_csv  # noqa: E402
from cylinderstat.serialize import dump, family_to_fixture  # noqa: E402
from oracle_charfn import spatial_threshold  # noqa: E402

README = ("1", "2", "-3", "-4/5", "-1/5")  # omega, a1, a2, b1, b2 of the README fixture


def _long_twist() -> Decimal:
    """0.999999 of the largest valid twist at sigma 1/10000, about 2e^{-pi^2/(4/10000)}:
    its exact fraction has a denominator of over 10,000 digits."""
    with localcontext() as ctx:
        ctx.prec = 30
        return Decimal("0.999999") * 2 * (-Decimal(math.pi) ** 2 / Decimal("4e-4")).exp()


def _fraction_text(value: Fraction) -> str:
    """value as "p/q", past the interpreter's limit on the digits of an int's str."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _grid(name: str, fn) -> None:
    """fn sampled at s in [-2, 2] in steps of 1/4 and n in [-3, 3], written to `name`."""
    save_grid_csv(GridFunction.sample(fn, [i / 4 for i in range(-8, 9)], range(-3, 4)), name)


def write_inputs() -> None:
    """The files the cases read; a `construct` case rewrites the fixture it builds."""
    params = {
        "readme-params.json": dict(zip(("omega", "a1", "a2", "b1", "b2"), README)),
        "third-params.json": dict(zip(("omega", "a1", "a2", "b1", "b2"), ("1/3", *README[1:]))),
        "twisted-pair-params.json": {"sigma": 1, "kappa": "1/20"},
        "point-mass-pair-params.json": {"sigma": 0, "theta1": "13/10", "theta2": "2/5",
                                        "kappa": 0},
        # A sign must be a JSON integer: true is refused, not read as +1.
        "p1-true-params.json": dict(zip(("omega", "a1", "a2", "b1", "b2"), README), p1=True),
        # atanh(theta4/theta3(e^-1)), the validity threshold at sigma 1, decides nothing.
        "threshold-params.json": {"sigma": 1, "kappa": str(Fraction(spatial_threshold(1.0)))},
        "long-kappa-params.json": {"sigma": "1/10000",
                                   "kappa": _fraction_text(Fraction(_long_twist()))},
        "long-kappa-decimal-params.json": {"sigma": "1/10000", "kappa": str(_long_twist())},
        # A misspelt "sigma_scale": an unknown key is refused, not left out.
        "readme-sigma-scal-params.json": dict(zip(("omega", "a1", "a2", "b1", "b2"), README),
                                              sigma_scal=2),
    }
    for name, obj in params.items():
        dump(obj, name)
    family = line_gaussian_family(*(Fraction(v) for v in README))
    ref = family_to_fixture(family)
    third = family_to_fixture(line_gaussian_family(Fraction(1, 3), *(Fraction(v) for v in
                                                                     README[1:])))
    dump(ref, "readme.json")
    dump(third, "third.json")

    def copy(changes):
        """The README fixture with `changes(fixture)` applied."""
        fixture = json.loads(json.dumps(ref))
        changes(fixture)
        return fixture
    derived = {
        # Item 1's copy: a of matrix entry (1, 0) changed from 2 to 3.
        "readme-a3.json": lambda f: f["matrix"][1].__setitem__(0, dict(f["matrix"][1][0], a=3)),
        # Statistic 2 recombined with (t, theta) -> (2t, theta): each a of row 2 doubled.
        "readme-recombined.json": lambda f: [e.update(a=str(2 * Fraction(e["a"])))
                                             for e in f["matrix"][2]],
        # sigma_0 raised by 1e-13: its residual is below 1e-10, its certificate not zero.
        "readme-nudged.json": lambda f: f["cfs"][0].update(
            sigma=str(Fraction(f["cfs"][0]["sigma"]) + Fraction(1, 10 ** 13))),
        # sigma_0 past the float range, exact and as a JSON float.
        "readme-sigma-1e400.json": lambda f: f["cfs"][0].update(sigma="1e400"),
        "readme-sigma-float-1e308.json": lambda f: f["cfs"][0].update(sigma=1e308),
        # Refusals that name the place of the value.
        "readme-kappa-x.json": lambda f: f["cfs"][2].update(kappa="x"),
        "readme-no-sigma.json": lambda f: f["cfs"][1].pop("sigma"),
        # A misspelt "twist" on member 0: refused, not read as twist 0.
        "readme-twst.json": lambda f: f["cfs"][0].update(twst="1/20"),
        # Entries (1, 0) and (2, 0) the identity: a1 = b1 = 1, which the subgroup
        # classifier refuses.
        "readme-degenerate.json": lambda f: [row.__setitem__(0, dict(a=1, c=0, p=1))
                                             for row in f["matrix"][1:]],
    }
    for name, changes in derived.items():
        dump(copy(changes), name)
    # The twisted pair with member 0's twist, and so the twist sum, past the float range.
    pair = family_to_fixture(twisted_torus_pair(1, kappa=Fraction(1, 20)))
    pair["cfs"][0]["twist"] = "1e400"
    dump(pair, "twisted-pair-twist-1e400.json")
    # The slope-1/3 fixture with every scalar written as a JSON float.
    floats = json.loads(json.dumps(third))
    for row in floats["matrix"]:
        for cell in row:
            cell["a"], cell["c"] = float(Fraction(cell["a"])), float(Fraction(cell["c"]))
    for cf in floats["cfs"]:
        cf.update({k: float(Fraction(v)) for k, v in cf.items() if k != "kind"})
    floats["omega"] = float(Fraction(floats["omega"]))
    dump(floats, "third-float.json")

    for name, base in (("base-2-17.json", list(range(2, 18))), ("base-235-3.json", [2, 3, 5]),
                       ("base-235-15.json", [2, 3, 5] * 5), ("base-unit.json", [1])):
        dump({"base": base}, name)
    dump({"base": [2, 3, 5], "period": [2, 3, 5]}, "base-235-period.json")  # an unknown key
    _grid("quadratic.csv", lambda s, n: s * s + n * n)
    _grid("profile.csv", lambda s, n: 2 * s * s + n * s + n * n)
    _grid("quartic.csv", lambda s, n: s ** 4)
    for j, cf in enumerate(family.cfs):
        _grid(f"psi{j}.csv", lambda s, n, cf=cf: 2 * float(cf.phi(s, n)))
    _grid("huge.csv", lambda s, n: 1e308 if round(4 * s) % 2 else -1e308)
    # NaN at every point: a GridFunction refuses it, so it is written as text.
    Path("nan.csv").write_text("s,n,re,im\n" + "".join(f"{i / 4!r},{n},nan,0.0\n"
                                                       for i in range(-8, 9) for n in range(-3, 4)))


def _construct(name, family, params, out):
    return f"construct-{name}", ["construct", "-f", family, "--params", params, "--out", out]


def _check(name, fixture, *args):
    return f"check-{name}", ["check", "--fixture", fixture, *args]


def _reduce(name, mode, inputs, *args):
    return f"reduce-{name}", ["reduce", "--mode", mode, "--input", inputs, *args]


def _solenoid(name, base, fixture, *args):
    return f"solenoid-{name}", ["solenoid", "--base", base, "--fixture", fixture, *args]


def _conditions(name, a1, a2, b1, b2):
    return f"conditions-{name}", ["conditions", "--a1", a1, "--a2", a2, "--b1", b1, "--b2", b2]


SETTINGS = [("1e5-seed0", ["--count", "100000", "--seed", "0"]),
            ("2e4-seed7", ["--count", "20000", "--seed", "7"])]

# name: arguments, in the order they run; the `construct` cases come first.
CASES = dict([
    _construct("readme", "line-gaussian", "readme-params.json", "readme.json"),
    _construct("third", "line-gaussian", "third-params.json", "third.json"),
    _construct("twisted-pair", "twisted-pair", "twisted-pair-params.json", "twisted-pair.json"),
    _construct("point-mass-pair", "twisted-pair", "point-mass-pair-params.json",
               "point-mass-pair.json"),
    _construct("four-statistic", "four-statistic", "twisted-pair-params.json",
               "four-statistic.json"),
    _construct("p1-true", "line-gaussian", "p1-true-params.json", "p1-true.json"),
    _construct("threshold-twist", "twisted-pair", "threshold-params.json", "threshold.json"),
    _construct("long-kappa", "twisted-pair", "long-kappa-params.json", "long-kappa.json"),
    _construct("long-kappa-decimal", "twisted-pair", "long-kappa-decimal-params.json",
               "long-kappa.json"),
    _construct("readme-sigma-scal", "line-gaussian", "readme-sigma-scal-params.json",
               "readme-sigma-scal.json"),
    _check("readme", "readme.json"),
    _check("readme-dense", "readme.json", "--grid", "dense"),
    _check("readme-a3", "readme-a3.json"),
    _check("readme-a3-dense", "readme-a3.json", "--grid", "dense"),
    _check("readme-recombined", "readme-recombined.json"),
    _check("readme-nudged", "readme-nudged.json"),
    _check("third-float", "third-float.json"),
    _check("twisted-pair", "twisted-pair.json"),
    _check("twisted-pair-twist-1e400", "twisted-pair-twist-1e400.json"),
    _check("point-mass-pair", "point-mass-pair.json"),
    _check("four-statistic", "four-statistic.json"),
    _check("readme-sigma-1e400", "readme-sigma-1e400.json"),
    _check("readme-sigma-float-1e308", "readme-sigma-float-1e308.json"),
    _check("readme-kappa-x", "readme-kappa-x.json"),
    _check("readme-no-sigma", "readme-no-sigma.json"),
    _check("readme-degenerate", "readme-degenerate.json"),
    _check("readme-twst", "readme-twst.json"),
    _conditions("readme", "2", "-3", "-4/5", "-1/5"),
    _conditions("rejected", "1", "-2", "-2", "1"),
    _conditions("zero", "0", "1", "1", "1"),
    _reduce("degree", "degree", "quadratic.csv", "--max-degree", "3"),
    _reduce("profile", "profile", "profile.csv"),
    _reduce("profile-quartic", "profile", "quartic.csv"),
    _reduce("triple", "triple", "psi0.csv,psi1.csv,psi2.csv", "--fixture", "readme.json"),
    _reduce("triple-huge", "triple", "huge.csv,huge.csv,huge.csv", "--fixture", "readme.json"),
    _reduce("degree-nan", "degree", "nan.csv"),
    _solenoid("readme", "base-2-17.json", "readme.json", "--depth", "6"),
    _solenoid("readme-base-235-3", "base-235-3.json", "readme.json", "--depth", "6"),
    _solenoid("readme-base-235-15", "base-235-15.json", "readme.json", "--depth", "6"),
    _solenoid("readme-unit-base", "base-unit.json", "readme.json"),
    _solenoid("readme-nudged", "base-2-17.json", "readme-nudged.json"),
    _solenoid("readme-sigma-1e400", "base-2-17.json", "readme-sigma-1e400.json"),
    _solenoid("readme-base-period", "base-235-period.json", "readme.json"),
    *((f"{fixture}-{label}", ["simulate", "--fixture", f"{fixture}.json", *args])
      for fixture in ("readme", "point-mass-pair", "twisted-pair") for label, args in SETTINGS),
    ("simulate-bootstrap-0", ["simulate", "--fixture", "readme.json", "--bootstrap", "0"]),
    ("simulate-count-0", ["simulate", "--fixture", "readme.json", "--count", "0"]),
])


def regenerate():
    os.chdir(HERE)
    write_inputs()
    runner = Runner()
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
