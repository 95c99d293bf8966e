"""Characteristic-function toolkit for independence of linear statistics on cylinders.

The library verifies, at desk scale and exactly where possible, the calculus
behind Gaussian characterization by independent linear statistics on the
cylinder group R x T and on the rational dual of a solenoid: duality and
automorphism actions, closed-form characteristic-function bundles and their
convolution algebra, the independence functional equation and the parameter
systems it forces, finite-difference structure detection, explicit verified
families, exact a-adic arithmetic, and Monte-Carlo corroboration.

The public names resolve on first use (PEP 562): `import cylinderstat` loads no
submodule, and `cylinderstat.fdiff` or `cylinderstat.delta` imports `fdiff` and
what it imports, nothing else.
"""

import importlib

__version__ = "0.1.0"

# Each public name by the submodule that defines it; a submodule's own name is the module.
_EXPORTS = {
    "charfn": ("CylinderCF", "InconclusiveError", "TorusCF", "charfn", "classify_support",
               "convolve", "is_gaussian", "is_valid_probability", "reflect", "support_line",
               "symmetrize"),
    "families": ("ConstructionError", "Family", "families", "four_statistic_family",
                 "line_gaussian_family", "torus_triple_verdict", "twisted_torus_pair"),
    "fdiff": ("GridFunction", "OffGridError", "ProfileError", "ProfileFit", "delta", "fdiff",
              "fit_quadratic_profile", "polynomial_degree", "verify_triple_differences"),
    "groups": ("CylinderAuto", "CylinderPoint", "DualPoint", "groups", "pair"),
    "independence": ("ConditionReport", "DegenerateFormError", "SingularSystemError",
                     "StatMatrix", "StepSubgroups", "SubgroupTag", "classify_step_subgroups",
                     "coefficient_conditions", "default_grid", "gaussian_system_check",
                     "independence", "independence_residual", "nu_support_check",
                     "solve_sigmas"),
    "montecarlo": ("SampleSet", "empirical_cf", "empirical_independence", "montecarlo",
                   "sample_line_gaussian", "sample_torus_twisted"),
    "solenoid": ("AdicInteger", "BaseSequence", "IncompatibleAutoError", "adic_add",
                 "adic_add_carries", "ha_member", "pullback_residual", "solenoid"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
