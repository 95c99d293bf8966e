"""The package namespace: every public name resolves on first use to its defining object."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import cylinderstat
from cylinderstat import cli

PUBLIC = [
    "AdicInteger", "BaseSequence", "ConditionReport", "ConstructionError", "CylinderAuto",
    "CylinderCF", "CylinderPoint", "DegenerateFormError", "DualPoint", "Family",
    "GridFunction", "IncompatibleAutoError", "InconclusiveError", "OffGridError",
    "ProfileError", "ProfileFit", "SampleSet", "SingularSystemError", "StatMatrix",
    "StepSubgroups", "SubgroupTag", "TorusCF", "adic_add", "adic_add_carries", "charfn",
    "classify_step_subgroups", "classify_support", "coefficient_conditions", "convolve",
    "default_grid", "delta", "empirical_cf", "empirical_independence", "families", "fdiff",
    "fit_quadratic_profile", "four_statistic_family", "gaussian_system_check", "groups",
    "ha_member", "independence", "independence_residual", "is_gaussian",
    "is_valid_probability", "line_gaussian_family", "montecarlo", "nu_support_check", "pair",
    "polynomial_degree", "pullback_residual", "reflect",
    "sample_line_gaussian", "sample_torus_twisted", "solenoid", "solve_sigmas",
    "support_line", "symmetrize", "torus_triple_verdict", "twisted_torus_pair",
    "verify_triple_differences",
]

SUBMODULES = ["charfn", "families", "fdiff", "groups", "independence", "montecarlo",
              "solenoid"]

# The names the benchmark's tracer wraps on `cli`, and the one a test patches there.
CLI_NAMES = [
    "line_gaussian_family", "twisted_torus_pair", "four_statistic_family", "default_grid",
    "independence_residual", "gaussian_system_check", "classify_step_subgroups",
    "symmetrized_convolution", "nu_support_check", "coefficient_conditions", "is_gaussian",
    "classify_support", "support_line", "pullback_residual", "load_grid_csv",
    "polynomial_degree", "fit_quadratic_profile", "verify_triple_differences",
    "sample_line_gaussian", "sample_torus_twisted", "empirical_independence",
    "independence_blocks",
]


class TestPackage:
    def test_all_is_the_frozen_list(self):
        assert len(PUBLIC) == 60
        assert cylinderstat.__all__ == PUBLIC

    @pytest.mark.parametrize("name", PUBLIC)
    def test_name_is_its_defining_object(self, name):
        value = getattr(cylinderstat, name)
        if name in SUBMODULES:
            assert value is importlib.import_module(f"cylinderstat.{name}")
        else:
            assert value.__module__.startswith("cylinderstat.")
            assert getattr(sys.modules[value.__module__], name) is value

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from cylinderstat import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == PUBLIC
        assert all(namespace[name] is getattr(cylinderstat, name) for name in PUBLIC)

    def test_unknown_attribute_is_named(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            cylinderstat.no_such_name  # noqa: B018
        assert "delta" in dir(cylinderstat)


class TestCliNames:
    @pytest.mark.parametrize("name", CLI_NAMES)
    def test_name_resolves_to_the_library_object(self, name):
        value = getattr(cli, name)
        assert getattr(sys.modules[value.__module__], name) is value

    def test_unknown_attribute_is_named(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            cli.no_such_name  # noqa: B018

    def test_a_bound_name_is_kept(self, monkeypatch):
        """A wrapper set on cli, even before any command bound the name, is what runs."""
        calls = []
        original = cli.coefficient_conditions
        monkeypatch.delitem(vars(cli), "coefficient_conditions")
        monkeypatch.setitem(vars(cli), "coefficient_conditions",
                            lambda *args: calls.append(args) or original(*args))
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["conditions", "--a1", "2", "--a2", "-3", "--b1", "-4/5", "--b2", "-1/5"],
                     standalone_mode=False)
        assert exit_info.value.code == 0 and calls == [("2", "-3", "-4/5", "-1/5")]


def _load_by_path(path: Path, monkeypatch):
    """The module in the file at `path`, loaded as `perfbench_<stem>` without sys.path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkTracer:
    def test_every_layer_call_is_wrapped_and_restored(self, monkeypatch):
        """Each name the benchmark's tracer wraps still exists in its namespace; installing
        the tracer replaces every one with its wrapper and uninstalling puts it back."""
        perfbench = Path(__file__).resolve().parents[1] / "perfbench"
        workloads = _load_by_path(perfbench / "workloads.py", monkeypatch)
        tracing = _load_by_path(perfbench / "tracing.py", monkeypatch)
        tracer = tracing.Tracer(workloads)
        where = {key: tracer.namespaces[key[0]] for key in tracing.LAYER_CALLS}
        originals = {key: getattr(module, key[1]) for key, module in where.items()}
        tracer.install()
        try:
            for key, module in where.items():
                wrapped = getattr(module, key[1])
                assert wrapped is not originals[key] and wrapped.__wrapped__ is originals[key], key
        finally:
            tracer.uninstall()
        assert all(getattr(module, key[1]) is originals[key] for key, module in where.items())
