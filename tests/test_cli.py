"""End-to-end CLI behavior: commands, exit codes, JSON reports."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cylinderstat
from cli_runner import Runner
from conftest import REF_COEFFS, random_valid_coefficients
from cylinderstat.charfn import CylinderCF
from cylinderstat.cli import main
from cylinderstat.families import line_gaussian_family, twisted_torus_pair
from cylinderstat.fdiff import GridFunction, default_n_grid, default_s_grid, save_grid_csv
from cylinderstat.groups import CylinderAuto
from cylinderstat.independence import DualGrid, StatMatrix, independence_blocks
from cylinderstat.serialize import dump, family_from_fixture, family_to_fixture, load
from oracle_charfn import spatial_threshold


@pytest.fixture
def runner():
    return Runner()


def write_json(path, obj):
    dump(obj, path)
    return str(path)


REF_PARAMS = {"omega": "1", "a1": "2", "a2": "-3", "b1": "-4/5", "b2": "-1/5"}


@pytest.fixture
def ref_fixture_path(tmp_path, runner):
    params = write_json(tmp_path / "params.json", REF_PARAMS)
    out = tmp_path / "fixture.json"
    result = runner.invoke(main, ["construct", "-f", "line-gaussian",
                                  "--params", params, "--out", str(out)])
    assert result.exit_code == 0, result.output
    return str(out)


def _circle_fixture(n: int, sigma0) -> dict:
    """n circle members under the all-identity sign matrix: point masses, sigma0 on member 0."""
    return {"family": "custom", "kind": "torus",
            "matrix": [[{"a": 1, "c": 0, "p": 1}] * n] * n,
            "cfs": [{"kind": "torus", "sigma": sigma0 if j == 0 else 0, "theta": 0, "twist": 0}
                    for j in range(n)]}


class TestConstruct:
    def test_line_gaussian_fixture(self, ref_fixture_path):
        fixture = load(ref_fixture_path)
        assert fixture["family"] == "line-gaussian"
        assert [cf["sigma"] for cf in fixture["cfs"]] == ["1", "1", "1"]
        assert fixture["omega"] == "1"

    def test_four_statistic_zero_twist_exits_2(self, tmp_path, runner):
        params = write_json(tmp_path / "p.json", {"sigma": 1, "kappa": 0})
        result = runner.invoke(main, ["construct", "-f", "four-statistic",
                                      "--params", params, "--out",
                                      str(tmp_path / "o.json")])
        assert result.exit_code == 2
        assert "not a counterexample" in result.output

    def test_twisted_pair_signed_mass_exits_2(self, tmp_path, runner):
        params = write_json(tmp_path / "p.json", {"sigma": 0, "kappa": 0.1})
        result = runner.invoke(main, ["construct", "-f", "twisted-pair",
                                      "--params", params, "--out",
                                      str(tmp_path / "o.json")])
        assert result.exit_code == 2
        assert "not a probability" in result.output

    @pytest.mark.parametrize("family", ["twisted-pair", "four-statistic"])
    def test_string_kappa(self, tmp_path, runner, family):
        params = write_json(tmp_path / "p.json", {"sigma": 1, "kappa": "1/20"})
        out = tmp_path / "o.json"
        result = runner.invoke(main, ["construct", "-f", family, "--params", params,
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        twists = [cf["twist"] for cf in load(out)["cfs"]]
        assert twists[0] == "1/20" and "-1/20" in twists

    def test_exact_sigma_below_the_float_range_is_not_a_probability_measure(self, tmp_path,
                                                                            runner):
        params = write_json(tmp_path / "p.json", _table_fixture("tiny-exact-sigma-params"))
        result = runner.invoke(main, ["construct", "-f", "twisted-pair", "--params", params,
                                      "--out", str(tmp_path / "out.json")])
        assert result.exit_code == 2
        assert "first member is not a probability measure" in result.stderr

    def test_no_positive_solution_exits_2(self, tmp_path, runner):
        params = write_json(tmp_path / "p.json",
                            {"omega": "1", "a1": "1", "a2": "-2", "b1": "-2", "b2": "1"})
        result = runner.invoke(main, ["construct", "-f", "line-gaussian",
                                      "--params", params, "--out",
                                      str(tmp_path / "o.json")])
        assert result.exit_code == 2
        assert "no positive sigma" in result.output


class TestCheck:
    def test_certified_fixture_passes(self, ref_fixture_path, runner):
        result = runner.invoke(main, ["check", "--fixture", ref_fixture_path])
        assert result.exit_code == 0, result.output
        report = json.loads(result.stdout)
        assert report["independence"]["residual"] == 0.0
        assert report["independence"]["grid_size"] == 35 ** 3
        assert report["system"]["max"] == 0.0
        assert report["support"]["kind"] == "line"
        assert report["support"]["omega"] == 1.0
        assert report["subgroups"]["case"] == 1
        assert report["pass"] is True

    def test_workers_flag_same_report(self, ref_fixture_path, runner):
        r1 = runner.invoke(main, ["check", "--fixture", ref_fixture_path])
        r2 = runner.invoke(main, ["check", "--fixture", ref_fixture_path,
                                  "--workers", "3"])
        assert json.loads(r1.stdout) == json.loads(r2.stdout)

    def test_dense_grid(self, ref_fixture_path, runner):
        result = runner.invoke(main, ["check", "--fixture", ref_fixture_path,
                                      "--grid", "dense"])
        assert result.exit_code == 0, result.output
        report = json.loads(result.stdout)
        assert report["independence"]["grid_size"] == 100_000
        assert report["independence"]["residual"] == 0.0

    @pytest.mark.parametrize("sigma,exit_code", [(0, 0), (1, 1)])
    def test_twenty_circle_members_dense_grid(self, tmp_path, runner, sigma, exit_code):
        """9**20 dense tuples, past int64: point masses pass, sigma 1 on one member fails."""
        path = write_json(tmp_path / "twenty.json", _circle_fixture(20, sigma))
        result = runner.invoke(main, ["check", "--fixture", path, "--grid", "dense"])
        assert result.exit_code == exit_code, result.output
        independence = json.loads(result.stdout)["independence"]
        assert independence["grid_size"] == 100_000
        assert np.isfinite(independence["residual"])
        assert (independence["residual"] > 0) == (sigma != 0)

    @pytest.mark.parametrize("command", ["default", "dense", "solenoid"])
    def test_zero_certificate_computes_one_tuple(self, ref_fixture_path, tmp_path, runner,
                                                 monkeypatch, command):
        """The grid only sizes the report: at most grid[0] is ever computed."""
        indexed = []
        getitem = DualGrid.__getitem__
        monkeypatch.setattr(DualGrid, "__getitem__",
                            lambda grid, k: indexed.append(k) or getitem(grid, k))
        if command == "solenoid":
            base = write_json(tmp_path / "base.json", {"base": list(range(2, 18))})
            args = ["solenoid", "--base", base, "--fixture", ref_fixture_path]
        else:
            args = ["check", "--fixture", ref_fixture_path, "--grid", command]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert indexed in ([], [0])

    def test_perturbed_fixture_fails_naming_equation(self, ref_fixture_path,
                                                     tmp_path, runner):
        fixture = load(ref_fixture_path)
        fixture["matrix"][2][0]["c"] = "-17/10"  # d1 off by 1/10
        bad = write_json(tmp_path / "bad.json", fixture)
        result = runner.invoke(main, ["check", "--fixture", bad])
        assert result.exit_code == 1
        report = json.loads(result.stdout)
        assert report["independence"]["residual"] > 1e-10
        assert report["system"]["residuals"]["shift-d"] == pytest.approx(0.2)
        assert "d" in report["system"]["worst"]

    def test_report_names_method_and_failing_blocks(self, ref_fixture_path,
                                                    tmp_path, runner):
        ok = json.loads(runner.invoke(main, ["check", "--fixture", ref_fixture_path]).stdout)
        assert ok["independence"]["method"] == "certificate"
        assert ok["independence"]["twist_sum"] == 0.0
        assert "nonzero_blocks" not in ok["independence"]
        fixture = load(ref_fixture_path)
        fixture["matrix"][2][0]["c"] = "-17/10"  # d1 off by 1/10
        result = runner.invoke(main, ["check", "--fixture",
                                      write_json(tmp_path / "bad.json", fixture)])
        assert result.exit_code == 1
        report = json.loads(result.stdout)["independence"]
        assert report["method"] == "certificate"
        assert report["nonzero_blocks"] == [[0, 2], [1, 2]]

    @pytest.mark.parametrize("sigma", [1e308, float("inf"), float("nan"), "1" + "0" * 400])
    def test_non_finite_input_exits_2(self, ref_fixture_path, tmp_path, runner, sigma):
        fixture = load(ref_fixture_path)
        fixture["cfs"][0]["sigma"] = sigma  # json writes inf and nan as Infinity, NaN
        path = write_json(tmp_path / "huge.json", fixture)
        result = runner.invoke(main, ["check", "--fixture", path])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.output.startswith("error: ") and "Traceback" not in result.output

    def test_degenerate_fixture_point_support(self, tmp_path, runner):
        identity = {"a": 1, "c": 0, "p": 1}
        cf = {"kind": "cylinder", "sigma": 0, "kappa": 0, "lambda": 0,
              "tau": "1", "theta": "2", "twist": 0}
        fixture = write_json(tmp_path / "degenerate.json", {
            "family": "custom", "kind": "cylinder",
            "matrix": [[identity] * 3,
                       [{"a": 2, "c": 0, "p": 1}, {"a": -3, "c": 0, "p": 1}, identity],
                       [{"a": "-4/5", "c": 0, "p": 1}, {"a": "-1/5", "c": 0, "p": 1}, identity]],
            "cfs": [cf, cf, cf],
        })
        result = runner.invoke(main, ["check", "--fixture", fixture])
        assert result.exit_code == 0, result.output
        report = json.loads(result.stdout)
        assert report["support"]["kind"] == "point"

    def test_torus_fixture_report(self, tmp_path, runner):
        params = write_json(tmp_path / "p.json", {"sigma": 1, "kappa": 0.05})
        out = tmp_path / "four.json"
        assert runner.invoke(main, ["construct", "-f", "four-statistic",
                                    "--params", params, "--out", str(out)]).exit_code == 0
        result = runner.invoke(main, ["check", "--fixture", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads(result.stdout)
        assert report["kind"] == "torus"
        assert all(m["gaussian"] is False for m in report["members"])
        assert all(m["valid"] is True for m in report["members"])
        assert report["twist_sum"] == pytest.approx(0.0)

    def test_one_twist_sum(self, tmp_path, runner):
        # 1/10 + 1/5 - 3/10 is 0 exactly, but 5.551115123125783e-17 summed as floats.
        fixture = dict(_circle_fixture(3, 1), matrix=[[{"a": 1, "c": 0, "p": p} for p in row]
                                                      for row in ((1, 1, 1), (1, -1, 1), (-1, 1, 1))])
        for cf, twist in zip(fixture["cfs"], ("1/10", "1/5", "-3/10")):
            cf.update(sigma=2, twist=twist)
        result = runner.invoke(main, ["check", "--fixture", write_json(tmp_path / "three.json",
                                                                       fixture)])
        report = json.loads(result.stdout)
        assert report["twist_sum"] == report["independence"]["twist_sum"] == 0.0

    def test_invalid_member_fails_check(self, tmp_path, runner):
        fixture = write_json(tmp_path / "over.json", _table_fixture("overtwisted-pair"))
        result = runner.invoke(main, ["check", "--fixture", fixture])
        assert result.exit_code == 1, result.output
        report = json.loads(result.stdout)
        assert report["independence"]["residual"] == 0.0
        assert [m["valid"] for m in report["members"]] == [False, True]
        assert report["pass"] is False

    def test_malformed_fixture_exits_2(self, tmp_path, runner):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = runner.invoke(main, ["check", "--fixture", str(bad)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("family,params", [
        ("line-gaussian", REF_PARAMS),
        ("twisted-pair", {"sigma": 1, "kappa": 0.05}),
        ("four-statistic", {"sigma": 1, "kappa": 0.05}),
    ])
    def test_every_construct_output_checks_clean(self, tmp_path, runner,
                                                 family, params):
        p = write_json(tmp_path / "p.json", params)
        out = tmp_path / "f.json"
        assert runner.invoke(main, ["construct", "-f", family, "--params", p,
                                    "--out", str(out)]).exit_code == 0
        result = runner.invoke(main, ["check", "--fixture", str(out)])
        assert result.exit_code == 0, result.output


class TestConditions:
    def test_reference_tuple(self, runner):
        result = runner.invoke(main, ["conditions", "--a1", "2", "--a2", "-3",
                                      "--b1", "-4/5", "--b2", "-1/5"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["cubic_identity"] == "0"
        assert report["sign_row"] == 2
        assert report["cross_det"] == "14/5"
        assert report["corner_det"] == "-42/5"

    def test_failing_tuple_exits_1(self, runner):
        result = runner.invoke(main, ["conditions", "--a1", "1", "--a2", "-2",
                                      "--b1", "-2", "--b2", "1"])
        assert result.exit_code == 1
        assert json.loads(result.stdout)["cubic_identity"] == "9"

    def test_zero_coefficient_exits_2(self, runner):
        result = runner.invoke(main, ["conditions", "--a1", "0", "--a2", "1",
                                      "--b1", "1", "--b2", "1"])
        assert result.exit_code == 2


class TestReduce:
    def _write_grid(self, tmp_path, fn, name="grid.csv"):
        from cylinderstat.fdiff import GridFunction, save_grid_csv, default_s_grid, default_n_grid
        f = GridFunction.sample(fn, default_s_grid(), default_n_grid())
        path = tmp_path / name
        save_grid_csv(f, path)
        return str(path)

    def test_degree_mode(self, tmp_path, runner):
        path = self._write_grid(tmp_path, lambda s, n: s * s + n * n)
        result = runner.invoke(main, ["reduce", "--input", path, "--mode", "degree"])
        assert result.exit_code == 0
        assert json.loads(result.stdout)["degree"] == 2

    def test_profile_mode(self, tmp_path, runner):
        path = self._write_grid(tmp_path, lambda s, n: 2 * s * s + n * s + n * n)
        result = runner.invoke(main, ["reduce", "--input", path, "--mode", "profile"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["sigma"] == pytest.approx(2.0, abs=1e-9)

    def test_profile_rejection_exits_1(self, tmp_path, runner):
        path = self._write_grid(tmp_path, lambda s, n: s ** 4)
        result = runner.invoke(main, ["reduce", "--input", path, "--mode", "profile"])
        assert result.exit_code == 1

    def test_triple_mode(self, tmp_path, runner, ref_fixture_path, ref_family):
        paths = []
        for j, cf in enumerate(ref_family.cfs):
            paths.append(self._write_grid(
                tmp_path, lambda s, n, cf=cf: 2 * float(cf.phi(s, n)), f"psi{j}.csv"))
        result = runner.invoke(main, ["reduce", "--input", ",".join(paths),
                                      "--mode", "triple",
                                      "--fixture", ref_fixture_path])
        assert result.exit_code == 0, result.output
        report = json.loads(result.stdout)
        assert max(report["residuals"]) <= 1e-9

    def test_missing_csv_exits_2(self, runner):
        result = runner.invoke(main, ["reduce", "--input", "/nonexistent.csv",
                                      "--mode", "degree"])
        assert result.exit_code == 2

    @pytest.mark.filterwarnings("error")
    def test_differences_beyond_the_float_range_get_a_verdict(self, tmp_path, runner):
        # +-1e308 alternating in s: no degree, and third differences of 8e308.
        path = self._write_grid(tmp_path, lambda s, n: 1e308 if round(4 * s) % 2 else -1e308)
        result = runner.invoke(main, ["reduce", "--input", path, "--mode", "degree"])
        assert (result.exit_code, result.stderr) == (1, "")
        assert json.loads(result.stdout) == {"mode": "degree", "degree": None}
        result = runner.invoke(main, ["reduce", "--input", path, "--mode", "profile"])
        assert (result.exit_code, result.stderr) == (1, "")
        assert json.loads(result.stdout)["error"] == (
            "third s-differences do not vanish: 8.000e+308")

    def test_profile_of_exact_samples_is_exact(self, tmp_path, runner):
        # Quarter-step samples of 2s^2 + 4ns + 2n^2 are floats exactly, so the fit is.
        path = self._write_grid(tmp_path, lambda s, n: 2 * s * s + 4 * n * s + 2 * n * n)
        report = json.loads(runner.invoke(main, ["reduce", "--input", path,
                                                 "--mode", "profile"]).stdout)
        assert report["sigma"] == 2.0
        assert report["kappa"] == [4.0 * n for n in report["n"]]
        assert report["lambda"] == [2.0 * n * n for n in report["n"]]

    def test_rational_csv_values_are_exact(self, tmp_path, runner):
        # s^2/3 on s in {-1, 0, 1}: no float holds 1/3, a "p/q" field does.
        path = tmp_path / "thirds.csv"
        path.write_text("s,n,re,im\n" + "".join(f"{s},{n},{s * s}/3,0\n"
                                                for s in (-1, 0, 1) for n in (-1, 0, 1)))
        report = json.loads(runner.invoke(main, ["reduce", "--input", str(path), "--mode",
                                                 "profile", "--tol", "0"]).stdout)
        assert report["sigma"] == 1 / 3 and report["kappa"] == report["lambda"] == [0.0] * 3


# Option parsing: each row is a command, its exit code and a substring of
# its one stderr line (None: it ran, with no error line).  "<fixture>" stands for a
# valid fixture; the other paths are relative to an empty directory.
@pytest.mark.parametrize("args,exit_code,named", [
    # An option's value may start with "-".
    (["conditions", "--a1", "2", "--a2", "-3", "--b1", "-4/5", "--b2", "-1/5"], 0, None),
    (["conditions", "--a1=2", "--a2=-3", "--b1=-4/5", "--b2=-1/5"], 0, None),
    (["check", "--fixture", "<fixture>", "--grid", "-x"], 2, "error: check: argument --grid"),
    # An abbreviated option is refused.
    (["check", "--fix", "<fixture>"], 2, "error: check: "),
    (["check", "--fixture", "<fixture>", "--gri", "dense"], 2, "error: check: "),
    # A usage error names its command and its option.
    (["simulate", "--fixture", "<fixture>", "--seed", "-1"], 2,
     "error: simulate: argument --seed: -1 is not in the range x>=0."),
    (["simulate", "--fixture", "<fixture>", "--count", "x"], 2,
     "error: simulate: argument --count: 'x' is not a valid integer."),
    (["reduce", "--input", "grid.csv", "--mode", "x"], 2, "error: reduce: argument --mode"),
    (["check"], 2, "error: check: the following arguments are required: --fixture"),
    (["check", "--fixture"], 2, "error: check: argument --fixture: expected one argument"),
    (["check", "--fixture", "missing.json"], 2,
     "error: check: argument --fixture: Path 'missing.json' does not exist."),
    (["check", "--fixture", "<fixture>", "extra"], 2, "error: check: unrecognized arguments"),
    ([], 2, "error: cylinderstat: "),
    (["nosuch"], 2, "error: cylinderstat: "),
    # --workers is accepted, with no effect; -f is --family.
    (["check", "--fixture", "<fixture>", "--workers", "2"], 0, None),
    (["construct", "-f", "twisted-pair", "--params", "<pair-params>", "--out", "<out>"], 0,
     None),
])
def test_option_parsing(tmp_path, monkeypatch, runner, ref_fixture_path, args, exit_code,
                        named):
    monkeypatch.chdir(tmp_path)
    inputs = {"<fixture>": ref_fixture_path, "<out>": str(tmp_path / "out.json"),
              "<pair-params>": write_json(tmp_path / "pair.json", {"sigma": 1, "kappa": "1/20"})}
    result = runner.invoke(main, [inputs.get(a, a) for a in args])
    assert result.exit_code == exit_code, result.output
    if named is None:
        assert result.stderr in ("", f"wrote certified fixture to {tmp_path / 'out.json'}\n")
    else:
        assert result.stdout == "" and result.stderr.count("\n") == 1, result.output
        assert named in result.stderr, result.stderr


class TestSimulate:
    def test_line_gaussian_consistent(self, ref_fixture_path, runner, tmp_path):
        result = runner.invoke(main, [
            "simulate", "--fixture", ref_fixture_path,
            "--count", "8000", "--seed", "3", "--bootstrap", "60",
            "--samples-out", str(tmp_path / "samples"),
        ])
        assert result.exit_code == 0, result.output
        report = json.loads(result.stdout, parse_constant=_reject_constant)
        assert report["consistent_with_zero"] is True
        assert report["null"] == "gaussian"
        assert 0 < report["p_value"] <= 1
        assert (tmp_path / "samples" / "xi1.csv").exists()

    def test_torus_simulation(self, tmp_path, runner):
        params = write_json(tmp_path / "p.json", {"sigma": 1, "kappa": 0.05})
        out = tmp_path / "pair.json"
        assert runner.invoke(main, ["construct", "-f", "twisted-pair",
                                    "--params", params, "--out", str(out)]).exit_code == 0
        result = runner.invoke(main, ["simulate", "--fixture", str(out),
                                      "--count", "8000", "--seed", "1",
                                      "--bootstrap", "60"])
        assert result.exit_code == 0, result.output

    def test_omega_is_informational(self, ref_fixture_path, tmp_path, runner):
        # Each member is drawn from its own bundle, so "omega" changes no sample.
        fixture = {k: v for k, v in load(ref_fixture_path).items() if k != "omega"}
        args = ["--count", "2000", "--bootstrap", "5"]
        with_omega, without = (
            dict(json.loads(runner.invoke(main, ["simulate", "--fixture", path, *args]).stdout),
                 fixture=None)
            for path in (ref_fixture_path, write_json(tmp_path / "f.json", fixture)))
        assert with_omega == without

    def test_member_shift_is_sampled(self, ref_fixture_path, tmp_path, runner):
        # Member 0 shifted by (tau, theta) = (3, 1): its samples carry the shift.
        fixture = load(ref_fixture_path)
        fixture["cfs"][0].update(tau=3, theta=1)
        result = runner.invoke(main, ["simulate", "--fixture",
                                      write_json(tmp_path / "f.json", fixture),
                                      "--count", "20000", "--samples-out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        t, theta = np.loadtxt(tmp_path / "xi1.csv", delimiter=",", skiprows=1).T
        assert abs(np.angle(np.exp(1j * theta).mean()) - 1) <= 0.05
        assert abs(t.mean() - 3) <= 0.05


class TestSolenoid:
    def test_flat_fixture_passes(self, tmp_path, runner):
        params = write_json(tmp_path / "p.json", dict(REF_PARAMS, omega="0"))
        fixture = tmp_path / "flat.json"
        assert runner.invoke(main, ["construct", "-f", "line-gaussian",
                                    "--params", params, "--out", str(fixture)]).exit_code == 0
        base = write_json(tmp_path / "base.json",
                          {"base": list(range(2, 18))})
        result = runner.invoke(main, ["solenoid", "--base", base,
                                      "--fixture", str(fixture), "--depth", "6"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout)["residual"] == 0.0

    def test_report_names_method(self, ref_fixture_path, tmp_path, runner):
        base = write_json(tmp_path / "base.json", {"base": list(range(2, 18))})
        result = runner.invoke(main, ["solenoid", "--base", base,
                                      "--fixture", ref_fixture_path, "--depth", "6"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout)["method"] == "certificate"

    def test_incompatible_base_exits_2(self, tmp_path, runner):
        params = write_json(tmp_path / "p.json", dict(REF_PARAMS, omega="0"))
        fixture = tmp_path / "flat.json"
        assert runner.invoke(main, ["construct", "-f", "line-gaussian",
                                    "--params", params, "--out", str(fixture)]).exit_code == 0
        obj = load(fixture)
        obj["matrix"][1][0]["a"] = "1/7"  # incompatible with a dyadic base
        bad = write_json(tmp_path / "bad.json", obj)
        base = write_json(tmp_path / "base.json", {"base": [2] * 16})
        result = runner.invoke(main, ["solenoid", "--base", base,
                                      "--fixture", bad, "--depth", "6"])
        assert result.exit_code == 2
        assert "1/7" in result.output

    def test_torus_fixture_rejected(self, tmp_path, runner):
        params = write_json(tmp_path / "p.json", {"sigma": 1, "kappa": 0.05})
        out = tmp_path / "pair.json"
        assert runner.invoke(main, ["construct", "-f", "twisted-pair",
                                    "--params", params, "--out", str(out)]).exit_code == 0
        base = write_json(tmp_path / "base.json", {"base": [2, 3, 4]})
        result = runner.invoke(main, ["solenoid", "--base", base,
                                      "--fixture", str(out), "--depth", "1"])
        assert result.exit_code == 2


def _float_fixture(fixture: dict) -> dict:
    """The fixture with every scalar of its matrix, bundles and slope rounded to a JSON float."""
    out = json.loads(json.dumps(fixture))
    for row in out["matrix"]:
        for cell in row:
            cell["a"], cell["c"] = float(Fraction(cell["a"])), float(Fraction(cell["c"]))
    for cf in out["cfs"]:
        cf.update({k: float(Fraction(v)) for k, v in cf.items() if k != "kind"})
    if "omega" in out:
        out["omega"] = float(Fraction(out["omega"]))
    return out


def _run(runner, args) -> tuple:
    """(exit code, JSON report) of a command; a certified support is never the full cylinder."""
    result = runner.invoke(main, args)
    assert result.exception is None or isinstance(result.exception, SystemExit), result.output
    report = json.loads(result.stdout, parse_constant=_reject_constant)
    if report.get("support", {}).get("certified"):
        assert report["support"]["kind"] != "full", report
    return result.exit_code, report


def _ref_fixture(**changes) -> dict:
    """The reference fixture (slope 1) with member 0's fields changed by the given amounts."""
    fixture = family_to_fixture(line_gaussian_family(1, *REF_COEFFS))
    for key, delta in changes.items():
        fixture["cfs"][0][key] = str(Fraction(fixture["cfs"][0][key]) + delta)
    return fixture


class TestInputRounding:
    """A JSON float is read exactly, and each verdict allows for its rounding and no more."""

    def test_exact_fixture_has_a_zero_bound(self, tmp_path, runner):
        code, report = _run(runner, ["check", "--fixture",
                                     write_json(tmp_path / "ref.json", _ref_fixture())])
        assert code == 0 and report["inputs"] == "exact"
        assert report["independence"]["bound"] == 0.0
        assert report["support"]["relation_bound"] == 0.0
        assert [m["valid"] for m in report["members"]] == [True] * 3

    def test_bounds_evaluated_only_for_float_inputs(self, tmp_path, runner, monkeypatch):
        """An exact fixture's predicates are evaluated once; a float one's also at both envelopes."""
        from cylinderstat import cli
        calls = []
        monkeypatch.setattr(cli, "independence_blocks",
                            lambda *args: calls.append(1) or independence_blocks(*args))
        exact = _ref_fixture()
        for fixture, count in ((exact, 1), (_float_fixture(exact), 3)):
            calls.clear()
            code, _ = _run(runner, ["check", "--fixture", write_json(tmp_path / "f.json", fixture)])
            assert code == 0 and len(calls) == count

    def test_exact_perturbation_below_the_old_tolerance_fails(self, tmp_path, runner):
        # The residual (about 1e-11) is below 1e-10, but the certificate is not zero.
        path = write_json(tmp_path / "nudged.json", _ref_fixture(sigma=Fraction(1, 10 ** 13)))
        code, report = _run(runner, ["check", "--fixture", path])
        assert code == 1 and report["inputs"] == "exact"
        assert 0.0 < report["independence"]["residual"] < 1e-10
        assert report["independence"]["nonzero_blocks"] == [[0, 1], [0, 2], [1, 2]]
        assert report["support"]["kind"] == "full" and report["support"]["certified"] is False
        base = write_json(tmp_path / "base.json", {"base": list(range(2, 18))})
        code, report = _run(runner, ["solenoid", "--base", base, "--fixture", path])
        assert code == 1 and report["pass"] is False and 0.0 < report["residual"] < 1e-10

    def test_float_reference_reads_a_zero_certificate(self, tmp_path, runner):
        fixture = family_to_fixture(line_gaussian_family(0, *REF_COEFFS, sigma_scale=1.5))
        fixture["cfs"] = _float_fixture(fixture)["cfs"]
        code, report = _run(runner, ["check", "--fixture",
                                     write_json(tmp_path / "flat.json", fixture)])
        assert code == 0 and report["inputs"] == "float"
        assert report["independence"]["residual"] == 0.0

    def test_member_outside_the_psd_cone(self, tmp_path, runner):
        path = write_json(tmp_path / "low.json", _ref_fixture(**{"lambda": Fraction(-1, 100)}))
        code, report = _run(runner, ["check", "--fixture", path])
        assert code == 1
        assert [m["valid"] for m in report["members"]] == [False, True, True]
        result = runner.invoke(main, ["simulate", "--fixture", path, "--count", "2000",
                                      "--bootstrap", "5"])
        assert result.exit_code == 2
        assert result.stderr == "error: simulate: member 0 is not a probability measure\n"

    def test_twisted_line_member_is_not_valid(self, tmp_path, runner):
        fixture = _ref_fixture()
        fixture["cfs"][0]["twist"] = "1/20"
        code, report = _run(runner, ["check", "--fixture",
                                     write_json(tmp_path / "twisted.json", fixture)])
        assert code == 1
        assert [m["valid"] for m in report["members"]] == [False, True, True]
        assert report["independence"]["nonzero_blocks"] == []

    def test_fixture_computed_in_floats_is_held_to_its_inputs(self, tmp_path, runner):
        """A float is the exact value it denotes, not the real it was meant to round.

        Here the entries c = (a - p)*omega and lam = sigma*omega*omega are computed
        in float arithmetic, so each is rounded twice, not once from its exact value.
        Its certificate C_01 then lies outside the bound of its inputs' rounding
        (the residual is about 1e-14): the fixture fails, while every member and
        the support still pass.
        """
        omega = Fraction(-1, 3)
        coeffs = (Fraction(37, 6), Fraction(-29, 4), -9, Fraction(-2697, 1373))
        fixture = family_to_fixture(line_gaussian_family(omega, *coeffs, 1, -1, 1, 1))
        w = float(omega)
        for row in fixture["matrix"][1:]:
            for cell in row[:2]:
                cell["a"] = float(Fraction(cell["a"]))
                cell["c"] = (cell["a"] - cell["p"]) * w
        for cf in fixture["cfs"]:
            s = float(Fraction(cf["sigma"]))
            cf.update({"sigma": s, "kappa": 2 * s * w, "lambda": s * w * w})
        code, report = _run(runner, ["check", "--fixture",
                                     write_json(tmp_path / "computed.json", fixture)])
        assert code == 1 and report["inputs"] == "float"
        assert report["independence"]["nonzero_blocks"] == [[0, 1]]
        assert 0.0 < report["independence"]["residual"] < 1e-10
        assert [m["valid"] for m in report["members"]] == [True] * 3
        assert report["support"]["certified"] is True

    @settings(max_examples=25, deadline=None)
    @given(coeffs=st.one_of(st.just(REF_COEFFS), st.integers(0, 2 ** 32 - 1).map(
               lambda seed: random_valid_coefficients(np.random.default_rng(seed)))),
           omega=st.builds(Fraction, st.integers(-12, 12), st.integers(1, 11)),
           signs=st.tuples(*[st.sampled_from((1, -1))] * 4),
           cell=st.sampled_from([(1, 0), (1, 1), (2, 0), (2, 1)]))
    @example(coeffs=REF_COEFFS, omega=Fraction(1, 3), signs=(1, 1, 1, 1), cell=(1, 0))
    @example(coeffs=REF_COEFFS, omega=Fraction(-7, 5), signs=(-1, 1, 1, -1), cell=(2, 1))
    def test_rounded_independent_families_pass(self, tmp_path_factory, coeffs, omega, signs,
                                               cell):
        """Rounded to floats, an independent family passes; 10^3 bounds off, it fails.

        The bound is a few ulps of the certificate's largest term: every entry has
        degree 3, so its rounding moves it by at most about 3 * 2^-53 of its
        terms, which with every sign +1 and every input |x| add up to that term.
        Moving c of matrix entry (i, j) by d moves entry c01 of the block C_0i by
        2*sigma_j*d, so d = 10^3 * bound / (2*sigma_j) puts it 10^3 bounds off.
        """
        runner, work = Runner(), tmp_path_factory.mktemp("rounded")
        fixture = _float_fixture(family_to_fixture(line_gaussian_family(omega, *coeffs, *signs)))
        code, report = _run(runner, ["check", "--fixture", write_json(work / "f.json", fixture)])
        assert code == 0, report
        assert report["inputs"] == "float"
        fam = family_from_fixture(fixture)
        terms, _ = independence_blocks(
            [CylinderCF(cf.sigma, abs(cf.kappa), cf.lam) for cf in fam.cfs],
            StatMatrix.from_rows([[CylinderAuto(abs(e.a), abs(e.c)) for e in row]
                                  for row in fam.matrix.rows]))
        largest = max(v for block in terms.values() for row in block for v in row)
        assert 0 < report["independence"]["bound"] <= 2 ** -51 * largest
        assert [m["valid"] for m in report["members"]] == [True] * 3
        assert report["support"]["kind"] == "line" and report["support"]["certified"] is True
        i, j = cell
        shift = 1000 * Fraction(report["independence"]["bound"]) / (
            2 * Fraction(fixture["cfs"][j]["sigma"]))
        fixture["matrix"][i][j]["c"] = float(Fraction(fixture["matrix"][i][j]["c"]) + shift)
        code, report = _run(runner, ["check", "--fixture", write_json(work / "g.json", fixture)])
        assert code == 1 and [0, i] in report["independence"]["nonzero_blocks"]


# Runs commands through cli.main in a fresh interpreter and prints, per
# command, its exit code, which of click and numpy are loaded after it, its
# stdout and the cylinderstat submodules loaded after it.
_STARTUP_SCRIPT = """
import contextlib, io, json, sys

def state(code, out):
    modules = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("cylinderstat."))
    return [code, [m for m in ("click", "numpy") if m in sys.modules], out, modules]

import cylinderstat
after = {"import cylinderstat": state(None, "")}
from cylinderstat import cli
after["import cylinderstat.cli"] = state(None, "")
for name, args in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(args, standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code
    after[name] = state(code, out.getvalue())
print(json.dumps(after))
"""


def _startup(commands) -> dict:
    """What `_STARTUP_SCRIPT` prints for `commands`, run in turn in one fresh interpreter."""
    src = str(Path(cylinderstat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", _STARTUP_SCRIPT, json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _startup_commands(tmp_path):
    """(the commands that run without click and numpy, those that load numpy), as (name, args)."""
    ref = family_to_fixture(line_gaussian_family(1, *REF_COEFFS))
    perturbed = json.loads(json.dumps(ref))
    perturbed["matrix"][1][0]["a"] = "21/10"
    fixture = write_json(tmp_path / "ref.json", ref)
    perturbed = write_json(tmp_path / "perturbed.json", perturbed)
    pair = write_json(tmp_path / "pair.json",
                      family_to_fixture(twisted_torus_pair(1, kappa=Fraction(1, 20))))
    base = write_json(tmp_path / "base.json", {"base": list(range(2, 18))})
    params = write_json(tmp_path / "params.json", REF_PARAMS)
    pair_params = write_json(tmp_path / "pair_params.json", {"sigma": 1, "kappa": "1/20"})
    grid = tmp_path / "grid.csv"
    save_grid_csv(GridFunction.sample(lambda s, n: s * s + n * n, default_s_grid(),
                                      default_n_grid()), grid)
    exact = [
        ("conditions", ["conditions", "--a1", "2", "--a2", "-3",
                        "--b1", "-4/5", "--b2", "-1/5"]),
        ("construct", ["construct", "-f", "line-gaussian", "--params", params,
                       "--out", str(tmp_path / "built.json")]),
        ("check reference", ["check", "--fixture", fixture, "--grid", "default"]),
        ("check reference dense", ["check", "--fixture", fixture, "--grid", "dense"]),
        ("check perturbed", ["check", "--fixture", perturbed, "--grid", "default"]),
        ("check perturbed dense", ["check", "--fixture", perturbed, "--grid", "dense"]),
        ("check pair", ["check", "--fixture", pair, "--grid", "default"]),
        ("construct pair", ["construct", "-f", "twisted-pair", "--params", pair_params,
                            "--out", str(tmp_path / "built_pair.json")]),
        ("construct four", ["construct", "-f", "four-statistic", "--params", pair_params,
                            "--out", str(tmp_path / "built_four.json")]),
        ("solenoid", ["solenoid", "--base", base, "--fixture", fixture]),
        ("reduce degree", ["reduce", "--input", str(grid), "--mode", "degree"]),
        ("reduce profile", ["reduce", "--input", str(grid), "--mode", "profile"]),
        ("reduce triple", ["reduce", "--input", ",".join([str(grid)] * 3), "--mode", "triple",
                           "--fixture", fixture]),
    ]
    rest = [
        ("simulate", ["simulate", "--fixture", fixture, "--count", "2000", "--bootstrap", "5"]),
    ]
    return exact, rest


# The cylinderstat submodules loaded after each command, run alone in a fresh interpreter.
_SECTIONS = ["charfn", "cli", "groups", "independence"]
_FIXTURE = sorted([*_SECTIONS, "families", "serialize"])
_LOADED = {
    "conditions": _SECTIONS,
    "construct": _FIXTURE, "construct pair": _FIXTURE, "construct four": _FIXTURE,
    "check reference": _FIXTURE, "check reference dense": _FIXTURE,
    "check perturbed": _FIXTURE, "check perturbed dense": _FIXTURE, "check pair": _FIXTURE,
    "solenoid": sorted([*_FIXTURE, "solenoid"]),
    "reduce degree": sorted([*_SECTIONS, "fdiff"]),
    "reduce profile": sorted([*_SECTIONS, "fdiff"]),
    "reduce triple": sorted([*_FIXTURE, "fdiff"]),
    "simulate": sorted([*_FIXTURE, "montecarlo"]),
}


class TestStartup:
    """The exact commands, every reduce mode and a failing check included, run without
    importing click or numpy; simulate loads numpy.  Each command imports only the
    library modules it runs."""

    def test_exact_commands_leave_numpy_unloaded(self, tmp_path):
        exact, rest = _startup_commands(tmp_path)
        after = _startup(exact + rest)
        for name in ["import cylinderstat", "import cylinderstat.cli", *dict(exact)]:
            assert after[name][1] == [], f"{name} loaded {after[name][1]}"
        failing = {"check perturbed", "check perturbed dense"}
        assert [after[name][0] for name, _ in exact] == [int(name in failing) for name, _ in exact]
        assert json.loads(after["check reference"][2])["independence"]["residual"] == 0.0
        for name in failing:
            report = json.loads(after[name][2])
            assert report["independence"]["residual"] > 1e-10
            assert report["independence"]["nonzero_blocks"]
        assert json.loads(after["reduce degree"][2])["degree"] == 2
        assert after["simulate"][:2] == [0, ["numpy"]]

    def test_imports_load_no_library_module(self):
        after = _startup([])
        assert after["import cylinderstat"][3] == []
        assert after["import cylinderstat.cli"][3] == ["cli"]

    def test_each_command_loads_only_its_modules(self, tmp_path):
        exact, rest = _startup_commands(tmp_path)
        assert set(_LOADED) == set(dict(exact + rest))
        for name, args in exact + rest:
            code, _, _, modules = _startup([(name, args)])[name]
            assert code in (0, 1), f"{name} exited {code}"
            assert modules == _LOADED[name], name


# The largest twist at which a circle law of sigma 1 is a probability measure,
# atanh(theta4/theta3(e^-1)): there the validity test agrees to 1e-9 and decides nothing.
THRESHOLD_TWIST = Fraction(spatial_threshold(1.0))


def _table_fixture(name: str) -> dict:
    ref = family_to_fixture(line_gaussian_family(1, *REF_COEFFS))
    pair = family_to_fixture(twisted_torus_pair(1, kappa=Fraction(1, 20)))
    if name == "reference":
        return ref
    if name == "cylinder-labelled-torus":
        return dict(ref, kind="torus")
    if name == "torus-labelled-cylinder":
        return dict(pair, kind="cylinder")
    if name == "two-cfs-for-three-statistics":
        return dict(ref, cfs=ref["cfs"][:2])
    if name == "huge-sigma-torus":
        return dict(pair, cfs=[{"kind": "torus", "sigma": 1e300, "theta": 0, "twist": t}
                               for t in (0.1, -0.1)])
    if name == "huge-exact-sigma-reference":
        return family_to_fixture(line_gaussian_family(1, *REF_COEFFS, sigma_scale=10**400))
    if name == "huge-exact-sigma-params":
        return {"sigma": "1" + "0" * 400, "kappa": "1/20"}
    if name == "reference-params":
        return REF_PARAMS
    if name == "reference-without-omega":
        return {k: v for k, v in ref.items() if k != "omega"}
    if name == "huge-exact-theta-reference":
        return dict(ref, cfs=[dict(ref["cfs"][0], theta="1" + "0" * 400), *ref["cfs"][1:]])
    if name == "integer-cfs":
        return dict(ref, cfs=[1, 2, 3])
    if name == "overtwisted-pair":  # the validity threshold at sigma = 1 is about 0.171
        return dict(pair, cfs=[dict(cf, twist=t) for cf, t in zip(pair["cfs"], ("3/2", "-3/2"))])
    if name == "threshold-twist-pair":  # twists +-THRESHOLD_TWIST: validity undecided
        return dict(pair, cfs=[dict(cf, twist=str(t)) for cf, t in
                               zip(pair["cfs"], (THRESHOLD_TWIST, -THRESHOLD_TWIST))])
    if name == "threshold-twist-params":
        return {"sigma": 1, "kappa": str(THRESHOLD_TWIST)}
    if name == "small-sigma-pair":  # 82 Fourier modes to sample
        return family_to_fixture(twisted_torus_pair(Fraction(1, 200), kappa=0))
    if name == "tiny-sigma-pair":  # more than 512 Fourier modes to sample
        return family_to_fixture(twisted_torus_pair(1e-6, kappa=0))
    if name == "point-mass-pair":  # its residual (about 1e-12) lies below the whole null band
        return family_to_fixture(twisted_torus_pair(0, Fraction(13, 10), Fraction(2, 5)))
    if name == "huge-exact-sigma-pair":  # 64 Fourier modes sample it, as for any sigma >= 1/120
        return family_to_fixture(twisted_torus_pair(10 ** 400, kappa=Fraction(1, 20)))
    if name == "tiny-exact-twist-params":  # a twist below the float range: a valid law
        return {"sigma": 1, "kappa": "1/1" + "0" * 400}
    if name == "tiny-exact-sigma-params":  # a sigma below the float range: invalid at kappa 1/20
        return {"sigma": "1/1" + "0" * 400, "kappa": "1/20"}
    if name.startswith("reference-p-"):  # a sign p that is not a JSON integer
        p = {"reference-p-float": 1.5, "reference-p-true": True, "reference-p-string": "1"}[name]
        return dict(ref, matrix=[[dict(e, p=p) for e in row] for row in ref["matrix"]])
    if name == "reference-kappa-x":  # member 2's kappa is not a number
        return dict(ref, cfs=[*ref["cfs"][:2], dict(ref["cfs"][2], kappa="x")])
    if name == "reference-a-true":  # the a of matrix entry (2, 1) is not a number
        matrix = [list(row) for row in ref["matrix"]]
        matrix[2][1] = dict(matrix[2][1], a=True)
        return dict(ref, matrix=matrix)
    if name == "reference-without-sigma-1":  # member 1 has no "sigma"
        return dict(ref, cfs=[ref["cfs"][0], {k: v for k, v in ref["cfs"][1].items()
                                              if k != "sigma"}, ref["cfs"][2]])
    if name == "reference-entry-int":  # matrix entry (1, 0) is a number, not an object
        return dict(ref, matrix=[ref["matrix"][0], [5, *ref["matrix"][1][1:]], ref["matrix"][2]])
    if name == "reference-row-int":  # matrix row 1 is a number, not an array
        return dict(ref, matrix=[ref["matrix"][0], 3, ref["matrix"][2]])
    if name == "reference-matrix-int":
        return dict(ref, matrix=5)
    if name == "reference-cfs-int":
        return dict(ref, cfs=5)
    if name == "reference-without-cfs":
        return {k: v for k, v in ref.items() if k != "cfs"}
    if name == "reference-in-a-list":  # the fixture is a JSON array, not an object
        return [ref]
    if name == "reference-params-without-b2":
        return {k: v for k, v in REF_PARAMS.items() if k != "b2"}
    if name == "reference-params-in-a-list":
        return [REF_PARAMS]
    if name == "reference-params-p1-true":
        return dict(REF_PARAMS, p1=True)
    if name == "reference-params-q2-float":
        return dict(REF_PARAMS, q2=1.0)
    if name == "rejected-params":  # the variance system has no positive solution
        return dict(REF_PARAMS, a1="1", a2="-2", b1="-2", b2="1")
    raise ValueError(name)


def _write_table_input(tmp_path, name: str) -> str:
    """Path of the input an `@name` argument of the exit-code table stands for."""
    if name == "base-with-unit-entry":
        return write_json(tmp_path / "base.json", {"base": [1, 2]})
    if name == "base":
        return write_json(tmp_path / "base.json", {"base": list(range(2, 18))})
    if name == "base-without-key":
        return write_json(tmp_path / "base.json", {"foo": 1})
    if name == "base-int":
        return write_json(tmp_path / "base.json", 5)
    if name == "base-string":
        return write_json(tmp_path / "base.json", "abc")
    if name == "base-with-float-entry":
        return write_json(tmp_path / "base.json", {"base": [2.9, 3]})
    if name == "csv-without-re-im":
        path = tmp_path / "values.csv"
        path.write_text("s,n,value\n0.0,0,1.0\n")
        return str(path)
    if name.startswith("csv-2x2"):
        path = tmp_path / f"{name}.csv"
        path.write_text("s,n,re,im\n" + "".join(f"{s},{n},1.0,0.0\n"
                                                for s in (0.0, 0.5) for n in (0, 1)))
        return str(path)
    if name == "csv-repeated-row":  # (0.5, 0) twice and (0.5, 1) missing: still four rows
        path = tmp_path / f"{name}.csv"
        path.write_text("s,n,re,im\n0.0,0,1.0,0.0\n0.0,1,1.0,0.0\n0.5,0,1.0,0.0\n0.5,0,1.0,0.0\n")
        return str(path)
    if name == "csv-inf-s":  # the s of lines 4 and 5 is infinite
        path = tmp_path / f"{name}.csv"
        path.write_text("s,n,re,im\n0.0,0,1.0,0.0\n0.0,1,1.0,0.0\ninf,0,1.0,0.0\ninf,1,1.0,0.0\n")
        return str(path)
    if name == "csv-p-over-zero":
        path = tmp_path / f"{name}.csv"
        path.write_text("s,n,re,im\n0.0,0,1/0,0.0\n")
        return str(path)
    if name == "csv-huge":  # +-1e308 alternating in s: the s-differences leave the float range
        path = tmp_path / f"{name}.csv"
        save_grid_csv(GridFunction.sample(lambda s, n: 1e308 if round(4 * s) % 2 else -1e308,
                                          default_s_grid(), default_n_grid()), path)
        return str(path)
    if name.startswith("csv-nan"):  # NaN at every point of the default grid
        path = tmp_path / f"{name}.csv"
        path.write_text("s,n,re,im\n" + "".join(f"{float(s)!r},{int(n)},nan,0.0\n"
                                                for s in default_s_grid()
                                                for n in default_n_grid()))
        return str(path)
    if name.startswith("csv-odd-quartic"):
        # s**3 + 5*n**4 + 7*s is not even, so a valid tol rejects its profile.
        path = tmp_path / f"{name}.csv"
        save_grid_csv(GridFunction.sample(lambda s, n: s ** 3 + 5 * n ** 4 + 7 * s,
                                          default_s_grid(), default_n_grid()), path)
        return str(path)
    if name == "existing-file":
        path = tmp_path / "taken"
        path.write_text("")
        return str(path)
    if name == "directory":
        return str(tmp_path)
    if name == "missing":
        return str(tmp_path / "missing.json")
    raise ValueError(name)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("fixture,args,exit_code,gaussian", [
    ("cylinder-labelled-torus", ["check"], 2, None),
    ("cylinder-labelled-torus", ["simulate", "--count", "2000", "--bootstrap", "5"], 2, None),
    ("torus-labelled-cylinder", ["check"], 2, None),
    ("two-cfs-for-three-statistics", ["check"], 2, None),
    ("two-cfs-for-three-statistics", ["simulate", "--count", "2000", "--bootstrap", "5"], 2, None),
    ("huge-sigma-torus", ["check"], 0, [False, False]),
    ("reference", ["solenoid", "--depth", "-1"], 2, None),
    ("reference", ["solenoid", "--depth", "-20"], 2, None),
    ("reference", ["simulate", "--count", "2000", "--bootstrap", "-1"], 2, None),
    ("reference", ["simulate", "--count", "2000", "--bootstrap", "-200"], 2, None),
    ("huge-exact-sigma-params", ["construct", "-f", "twisted-pair"], 0, None),
    ("huge-exact-sigma-params", ["construct", "-f", "four-statistic"], 0, None),
    ("huge-exact-sigma-reference", ["simulate", "--count", "2000", "--bootstrap", "5"], 2, None),
    ("reference", ["solenoid", "--base", "@base-with-unit-entry", "--depth", "2"], 2, None),
    ("reference", ["solenoid", "--base", "@base-without-key", "--depth", "2"], 2, None),
    ("reference", ["solenoid", "--base", "@base-string", "--depth", "2"], 2, None),
    ("reference-without-omega", ["simulate", "--count", "2000", "--bootstrap", "5"], 0, None),
    ("huge-exact-theta-reference", ["check"], 2, None),
    ("integer-cfs", ["check"], 2, None),
    (None, ["reduce", "--mode", "degree", "--input", "@csv-without-re-im"], 2, None),
    (None, ["reduce", "--mode", "degree", "--input", "@csv-2x2"], 2, None),
    ("reference", ["reduce", "--mode", "triple",
                   "--input", "@csv-2x2-a,@csv-2x2-b,@csv-2x2-c"], 2, None),
    ("reference", ["simulate", "--count", "2000", "--bootstrap", "5",
                   "--samples-out", "@existing-file"], 2, None),
    ("reference-params", ["construct", "-f", "line-gaussian", "--out", "@directory"], 2, None),
    (None, ["check", "--fixture", "@missing"], 2, None),
    (None, ["reduce", "--mode", "profile", "--tol", "nan", "--input", "@csv-odd-quartic"], 2, None),
    (None, ["reduce", "--mode", "profile", "--tol", "inf", "--input", "@csv-odd-quartic"], 2, None),
    (None, ["reduce", "--mode", "degree", "--tol", "-1", "--input", "@csv-odd-quartic"], 2, None),
    (None, ["reduce", "--mode", "degree", "--max-degree", "-1",
            "--input", "@csv-odd-quartic"], 2, None),
    ("reference", ["reduce", "--mode", "triple", "--tol", "nan", "--input",
                   "@csv-odd-quartic-a,@csv-odd-quartic-b,@csv-odd-quartic-c"], 2, None),
    ("overtwisted-pair", ["check"], 1, [False, False]),
    ("small-sigma-pair", ["simulate", "--count", "20000", "--bootstrap", "50"], 0, None),
    ("tiny-sigma-pair", ["simulate", "--count", "2000", "--bootstrap", "5"], 2, None),
    ("point-mass-pair", ["simulate", "--count", "20000", "--bootstrap", "50"], 0, None),
    ("huge-exact-sigma-pair", ["simulate", "--count", "2000", "--bootstrap", "5"], 0, None),
    ("tiny-exact-twist-params", ["construct", "-f", "twisted-pair"], 0, None),
    ("tiny-exact-sigma-params", ["construct", "-f", "twisted-pair"], 2, None),
    ("reference-p-float", ["check"], 2, None),
    ("reference-p-true", ["check"], 2, None),
    ("reference-p-string", ["check"], 2, None),
    ("reference", ["solenoid", "--base", "@base-with-float-entry", "--depth", "2"], 2, None),
    ("reference-params-p1-true", ["construct", "-f", "line-gaussian"], 2, None),
    ("reference-params-q2-float", ["construct", "-f", "line-gaussian"], 2, None),
    (None, ["reduce", "--mode", "degree", "--input", "@csv-huge"], 1, None),
    (None, ["reduce", "--mode", "profile", "--input", "@csv-huge"], 1, None),
])
def test_exit_code_table(tmp_path, runner, fixture, args, exit_code, gaussian):
    """Malformed or extreme inputs get their contract exit code and never a traceback.

    Exit 2 is one line on stderr and nothing on stdout; exits 0 and 1 print
    strict JSON.
    """
    args = [",".join(_write_table_input(tmp_path, p[1:]) for p in a.split(","))
            if a.startswith("@") else a for a in args]
    if fixture is not None:
        path = write_json(tmp_path / "fixture.json", _table_fixture(fixture))
        if args[0] == "solenoid" and "--base" not in args:
            args = args + ["--base", write_json(tmp_path / "base.json",
                                                {"base": list(range(2, 18))})]
        if args[0] == "construct":
            args = [*args, "--params", path]
            if "--out" not in args:
                args += ["--out", str(tmp_path / "out.json")]
        else:
            args = [args[0], "--fixture", path, *args[1:]]
    result = runner.invoke(main, args)
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exc_info
    assert "Traceback" not in result.output
    assert result.exit_code == exit_code, result.output
    if exit_code == 2:
        assert result.stdout == "" and result.stderr.count("\n") == 1, result.output
        assert result.stderr.startswith("error: "), result.stderr
    else:
        report = json.loads(result.stdout, parse_constant=_reject_constant)
        if gaussian is not None:
            assert [m["gaussian"] for m in report["members"]] == gaussian


@pytest.mark.parametrize("fixture,args,named", [
    ("reference", ["simulate", "--count", "2000", "--bootstrap", "5", "--seed", "-1"], "--seed"),
    (None, ["reduce", "--mode", "degree", "--input", ","], "--input"),
    ("reference", ["simulate", "--count", "2000", "--bootstrap", "0"], "--bootstrap"),
    (None, ["reduce", "--mode", "profile", "--tol", "nan", "--input", "@csv-odd-quartic"], "tol"),
    (None, ["reduce", "--mode", "degree", "--max-degree", "-1",
            "--input", "@csv-odd-quartic"], "max_deg"),
    ("tiny-sigma-pair", ["simulate", "--count", "2000", "--bootstrap", "5"], "sigma"),
    ("reference-p-true", ["check"], '"p": expected an int, got True'),
    ("reference-params-p1-true", ["construct", "-f", "line-gaussian"],
     "p1: expected an int, got True"),
    ("reference", ["simulate", "--count", "0", "--bootstrap", "5"], "--count"),
    ("reference-kappa-x", ["check"], 'cfs[2]."kappa"'),
    ("reference-a-true", ["check"], 'matrix[2][1]."a"'),
    ("reference-without-sigma-1", ["check"], 'cfs[1]."sigma": missing'),
    ("reference-entry-int", ["check"], "matrix[1][0] must be a JSON object, got int"),
    ("reference-row-int", ["check"], "matrix[1] must be a JSON array, got int"),
    ("reference-matrix-int", ["check"], '"matrix" must be a JSON array, got int'),
    ("reference-cfs-int", ["check"], '"cfs" must be a JSON array, got int'),
    ("reference-without-cfs", ["check"], '"cfs": missing'),
    ("reference-in-a-list", ["check"], "fixture must be a JSON object, got list"),
    ("reference", ["solenoid", "--base", "@base-without-key"], '"base": missing'),
    ("reference", ["solenoid", "--base", "@base-int"], "base must be a JSON array, got int"),
    ("reference-params-without-b2", ["construct", "-f", "line-gaussian"], '"b2": missing'),
    ("reference-params-in-a-list", ["construct", "-f", "line-gaussian"],
     "params must be a JSON object, got list"),
    ("reference", ["solenoid", "--base", "@base", "--depth", "-1"], "--depth"),
    (None, ["reduce", "--mode", "degree", "--input", "@csv-nan"], "(-5.0, -6) is not finite"),
    (None, ["reduce", "--mode", "profile", "--input", "@csv-nan"], "(-5.0, -6) is not finite"),
    ("reference", ["reduce", "--mode", "triple", "--input", "@csv-nan-a,@csv-nan-b,@csv-nan-c"],
     "(-5.0, -6) is not finite"),
    (None, ["reduce", "--mode", "degree", "--input", "@csv-repeated-row"],
     "repeats the row (s, n) = (0.5, 0)"),
    (None, ["reduce", "--mode", "degree", "--input", "@csv-inf-s"], "line 4: s = inf"),
    ("threshold-twist-pair", ["check"], "agree to 1e-9"),
    ("threshold-twist-params", ["construct", "-f", "twisted-pair"], "agree to 1e-9"),
    ("rejected-params", ["construct", "-f", "line-gaussian"], "no positive sigma"),
    (None, ["reduce", "--mode", "profile", "--input", "@csv-inf-s"], "line 4: s = inf"),
    (None, ["reduce", "--mode", "degree", "--input", "@csv-p-over-zero"], "ZeroDivisionError"),
])
def test_input_error_names_the_problem(tmp_path, runner, fixture, args, named):
    """A negative seed or count, an empty --input, a null band of no resamples, a
    tolerance or degree bound out of range, a sigma too small to sample, a sign that
    is not a JSON integer, in a fixture or in params, a fixture scalar that is not a
    number, a fixture key, entry or row that is missing or of the wrong type, a fixture,
    base or parameter file of the wrong type or without a key it needs, a negative
    solenoid depth, a grid CSV value or s that is not finite or a "p/0" value, a repeated
    grid row, a twist at the validity threshold and a coefficient tuple without positive
    variances exit 2.

    The one stderr line names the key or option at fault, and a fixture key its place.
    """
    args = [",".join(_write_table_input(tmp_path, p[1:]) for p in a.split(","))
            if a.startswith("@") else a for a in args]
    if fixture is not None:
        path = write_json(tmp_path / "fixture.json", _table_fixture(fixture))
        args = ([*args, "--params", path, "--out", str(tmp_path / "out.json")]
                if args[0] == "construct" else [args[0], "--fixture", path, *args[1:]])
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert result.stdout == "" and result.stderr.count("\n") == 1, result.output
    assert result.stderr.startswith(f"error: {args[0]}: ") and named in result.stderr, result.stderr
