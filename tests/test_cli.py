"""End-to-end CLI behavior: commands, exit codes, JSON reports."""

import json
from fractions import Fraction

import pytest
from click.testing import CliRunner

from conftest import REF_COEFFS
from cylinderstat.cli import main
from cylinderstat.families import line_gaussian_family, twisted_torus_pair
from cylinderstat.serialize import dump, family_to_fixture, load


@pytest.fixture
def runner():
    return CliRunner()


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
        assert report["twist_sum"] == pytest.approx(0.0)

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


class TestSimulate:
    def test_line_gaussian_consistent(self, ref_fixture_path, runner, tmp_path):
        result = runner.invoke(main, [
            "simulate", "--fixture", ref_fixture_path,
            "--count", "8000", "--seed", "3", "--bootstrap", "60",
            "--samples-out", str(tmp_path / "samples"),
        ])
        assert result.exit_code == 0, result.output
        report = json.loads(result.stdout)
        assert report["consistent_with_zero"] is True
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
    raise ValueError(name)


def _write_table_input(tmp_path, name: str) -> str:
    """Path of the input an `@name` argument of the exit-code table stands for."""
    if name == "base-with-unit-entry":
        return write_json(tmp_path / "base.json", {"base": [1, 2]})
    if name == "base-without-key":
        return write_json(tmp_path / "base.json", {"foo": 1})
    if name == "base-string":
        return write_json(tmp_path / "base.json", "abc")
    if name == "csv-without-re-im":
        path = tmp_path / "values.csv"
        path.write_text("s,n,value\n0.0,0,1.0\n")
        return str(path)
    if name.startswith("csv-2x2"):
        path = tmp_path / f"{name}.csv"
        path.write_text("s,n,re,im\n" + "".join(f"{s},{n},1.0,0.0\n"
                                                for s in (0.0, 0.5) for n in (0, 1)))
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
    ("huge-exact-sigma-params", ["construct", "-f", "twisted-pair"], 2, None),
    ("huge-exact-sigma-params", ["construct", "-f", "four-statistic"], 2, None),
    ("huge-exact-sigma-reference", ["simulate", "--count", "2000", "--bootstrap", "5"], 2, None),
    ("reference", ["solenoid", "--base", "@base-with-unit-entry", "--depth", "2"], 2, None),
    ("reference", ["solenoid", "--base", "@base-without-key", "--depth", "2"], 2, None),
    ("reference", ["solenoid", "--base", "@base-string", "--depth", "2"], 2, None),
    ("reference-without-omega", ["simulate", "--count", "2000", "--bootstrap", "5"], 2, None),
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
