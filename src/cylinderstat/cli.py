"""Command-line frontend: construct fixtures, check them, reduce grids, simulate.

All reports are JSON on stdout; human-readable progress goes to stderr.  Exit
codes: 0 success, 1 verification failure, 2 input error.  Input errors are
decided in one place, `main`: the parser's usage errors and the library's
exceptions propagate to it from the commands, and it turns each into one
stderr line `error: <command>: <message>`.

Options are parsed with the standard library's argparse.  An option's value is
the next argument even when it starts with "-" (`--b1 -4/5`), and an
abbreviated option is refused.  `main(args, standalone_mode=False)` returns
where a command returns instead of exiting 0.

Each command imports only the library modules it runs, when it starts: a command
finishes its own work in milliseconds, so importing every module for every
command would be most of its time.  `conditions` loads `groups`, `charfn` and
`independence`; `check` and `construct` add `families` and `serialize`,
`solenoid` adds `solenoid`, and `reduce` adds `fdiff`.  Only `simulate` loads
numpy, through `montecarlo`.  The names the commands call still resolve as
`cli.<name>` before any command has run (PEP 562), and a name already set on
this module, such as a wrapper a tracer or a test put there, is kept: the
command calls it, and no later import puts the original back over it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from dataclasses import replace
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .families import Family

# The library names the commands call, by the module that defines it; a module's own
# name is the module.  `nu_support_check`, `sample_line_gaussian` and
# `sample_torus_twisted` are called by no command; the benchmark's tracer looks them up.
_NAMES = {
    "charfn": ("CylinderCF", "classify_support", "is_gaussian", "is_valid_probability",
               "psd_gap", "support_line"),
    "families": ("four_statistic_family", "line_gaussian_family", "twisted_torus_pair"),
    "fdiff": ("ProfileError", "check_tol", "fit_quadratic_profile", "load_grid_csv",
              "polynomial_degree", "verify_triple_differences"),
    "independence": ("DegenerateFormError", "classify_step_subgroups",
                     "coefficient_conditions", "default_grid", "gaussian_system_check",
                     "independence_blocks", "independence_residual", "nu_support_check",
                     "reduced_coefficients", "support_identity_gap",
                     "symmetrized_convolution"),
    "montecarlo": ("empirical_independence", "sample_bundle", "sample_line_gaussian",
                   "sample_torus_twisted", "save_samples_csv"),
    "serialize": ("serialize",),
    "solenoid": ("pullback_residual",),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}


def _bind(*modules) -> None:
    """Import `modules` and bind the names the commands use from them, except a name
    already bound."""
    for module in modules:
        loaded = importlib.import_module(f"{__package__}.{module}")
        for name in _NAMES[module]:
            if name not in globals():
                globals()[name] = loaded if name == module else getattr(loaded, name)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_HOME[name])
    return globals()[name]


# What the library raises on bad input; its own input errors, such as
# ConstructionError and InconclusiveError, are ValueErrors, and so are usage errors.
# A fault on valid input (say an AttributeError or an AssertionError) is not
# listed, so it keeps its traceback.
_INPUT_ERRORS = (OSError, LookupError, TypeError, ValueError, ArithmeticError)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are ValueErrors, for `main` to report."""

    def error(self, message):
        raise ValueError(message)


# The commands by name: (function, options), each option (flags, argparse keywords).
_COMMANDS = {}


def _command(*options):
    def register(fn):
        _COMMANDS[fn.__name__] = (fn, options)
        return fn
    return register


def _option(*flags, **kwargs):
    return flags, kwargs


def _existing(path: str) -> str:
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"Path {path!r} does not exist.")
    return path


def _int_from(low: int):
    """The argparse type of an integer option with minimum `low`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a valid integer.") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is not in the range x>={low}.")
        return value
    return parse


def _parser() -> _Parser:
    parser = _Parser(prog="cylinderstat", description=main.__doc__, allow_abbrev=False)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (fn, options) in _COMMANDS.items():
        sub = commands.add_parser(name, help=fn.__doc__, description=fn.__doc__,
                                  allow_abbrev=False)
        for flags, kwargs in options:
            sub.add_argument(*flags, **kwargs)
    return parser


def _values_attached(args: list) -> list:
    """args with each option's value attached as `--option=value`, so that argparse
    reads a value starting with "-", such as -4/5, as the value."""
    if not args or args[0] not in _COMMANDS:
        return args
    long_flag = {flag: flags[0] for flags, _ in _COMMANDS[args[0]][1] for flag in flags}
    out, rest = args[:1], iter(args[1:])
    for arg in rest:
        value = next(rest, None) if arg in long_flag else None
        out.append(arg if value is None else f"{long_flag[arg]}={value}")
    return out


def main(args=None, standalone_mode: bool = True):
    """Verification toolkit for independent linear statistics on the cylinder."""
    args = sys.argv[1:] if args is None else list(args)
    name = args[0] if args and args[0] in _COMMANDS else "cylinderstat"
    try:
        options = vars(_parser().parse_args(_values_attached(args)))
        _COMMANDS[options.pop("command")][0](**options)
    except _INPUT_ERRORS as exc:
        text = str(exc)
        if isinstance(exc, (LookupError, ArithmeticError)) or not text:
            text = f"{type(exc).__name__}: {text}"  # "KeyError: 're'", not "'re'"
        _log(f"error: {name}: {' '.join(text.split())}")
        sys.exit(2)
    if standalone_mode:
        sys.exit(0)


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2, allow_nan=False))


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _has_sections(fam: Family) -> bool:
    """Whether `check` reports the system, subgroup and support sections."""
    return (fam.kind == "cylinder" and fam.n == 3 and fam.matrix.is_reduced()
            and all(cf.twist == 0 for cf in fam.cfs))


def _predicates(cfs, matrix, positive: bool = False, sections: bool = False) -> dict:
    """The exact polynomials the verdicts read: ("C", i, k, r, c) for C_ik[r][c],
    ("T",) for the twist sum, ("psd", j) for member j's PSD gap and, with
    `sections`, ("relation",) for nu's and ("quartic",) for the quartic identity.
    positive=True makes every coefficient positive, as the certificate's already are.
    """
    blocks, twist_sum = independence_blocks(cfs, matrix)
    out = {("C", *pair, r, c): v for pair, block in blocks.items()
           for r, row in enumerate(block) for c, v in enumerate(row)}
    out[("T",)] = twist_sum
    out.update({("psd", j): psd_gap(cf.cylinder, positive) for j, cf in enumerate(cfs)})
    if sections:
        out[("relation",)] = psd_gap(symmetrized_convolution(cfs).cylinder, positive)
        # A float fixture's envelope need not be reduced; it has the same layout.
        multipliers = reduced_coefficients(matrix, check=not positive)[:4]
        out[("quartic",)] = support_identity_gap(*multipliers, positive=positive)
    return out


def _load_fixture(path: str):
    """(the fixture's JSON object, its family)."""
    obj = serialize.load(path)
    return obj, serialize.family_from_fixture(obj)


def _verdict_inputs(obj: dict, fam: Family):
    """(the values of fam's `_predicates`, their input-rounding bounds)."""
    predicates = partial(_predicates, sections=_has_sections(fam))
    values = predicates(fam.cfs, fam.matrix)
    return values, serialize.rounding_bounds(obj, predicates, values.keys())


def _certificate(values: dict, bounds: dict):
    """(the certificate entries outside their bound, the largest bound)."""
    keys = [key for key in values if key[0] in ("C", "T")]
    return [key for key in keys if abs(values[key]) > bounds[key]], max(bounds[k] for k in keys)


def _onto_cone_edge(cf, bound):
    """cf with 4*sigma*lam = kappa^2 when its gap lies within `bound` of it, else cf."""
    if isinstance(cf, CylinderCF) and cf.sigma and abs(psd_gap(cf)) <= bound:
        return replace(cf, lam=Fraction(cf.kappa ** 2, 4 * cf.sigma))
    return cf


def _members(fam: Family, bounds: dict) -> list:
    """Per member: Gaussian, its twist, and valid with its PSD gap read within its bound."""
    return [{
        "gaussian": bool(is_gaussian(cf)),
        "twist": serialize.scalar_to_json(cf.twist),
        "valid": is_valid_probability(_onto_cone_edge(cf, bounds[("psd", j)])),
    } for j, cf in enumerate(fam.cfs)]


# The keys each family's parameter file must have; the others have defaults.
_REQUIRED_PARAMS = {"line-gaussian": ("omega", "a1", "a2", "b1", "b2"),
                    "twisted-pair": ("sigma",), "four-statistic": ("sigma", "kappa")}


@_command(
    _option("--family", "-f", dest="family_name", required=True,
            choices=["line-gaussian", "twisted-pair", "four-statistic"]),
    _option("--params", dest="params_path", required=True, type=_existing),
    _option("--out", dest="out_path", required=True))
def construct(family_name, params_path, out_path):
    """Build a certified fixture from a JSON parameter file."""
    _bind("serialize", "families")
    params = serialize.params_from_json(serialize.load(params_path),
                                        _REQUIRED_PARAMS[family_name])
    if family_name == "line-gaussian":
        fam = line_gaussian_family(
            params["omega"],
            params["a1"], params["a2"], params["b1"], params["b2"],
            params.get("p1", 1), params.get("p2", 1),
            params.get("q1", 1), params.get("q2", 1),
            params.get("sigma_scale", 1),
        )
    elif family_name == "twisted-pair":
        fam = twisted_torus_pair(
            params["sigma"], params.get("theta1", 0),
            params.get("theta2", 0), params.get("kappa", 0),
        )
    else:
        fam = four_statistic_family(params["sigma"], params["kappa"])
    serialize.dump(serialize.family_to_fixture(fam), out_path)
    _log(f"wrote certified fixture to {out_path}")
    _emit({"family": fam.label, "out": str(out_path), "certified": True})


def _check_cylinder_sections(fam: Family, values: dict, bounds: dict, report: dict) -> bool:
    if not _has_sections(fam):
        return True
    system = gaussian_system_check(fam.cfs, fam.matrix)
    worst = max(system, key=lambda k: system[k])
    report["system"] = {"residuals": system, "worst": worst, "max": system[worst]}
    try:
        tags = classify_step_subgroups(fam.matrix)
        report["subgroups"] = {
            "col1": tags.col1.value, "col2": tags.col2.value,
            "cross": tags.cross.value, "case": tags.case_index(),
        }
    except DegenerateFormError as exc:
        report["subgroups"] = {"degenerate": str(exc)}
    # Within its bound of a line, nu is classified as the law on the line.
    nu = _onto_cone_edge(symmetrized_convolution(fam.cfs), bounds[("relation",)])
    support = report["support"] = {"kind": classify_support(nu)}
    if support["kind"] == "line":
        support["omega"] = float(support_line(nu))
    support["relation_gap"] = abs(float(values[("relation",)]))
    support["relation_bound"] = float(bounds[("relation",)])
    # Both gaps within their bounds: exactly zero for an exact fixture.
    support["certified"] = all(abs(values[key]) <= bounds[key]
                               for key in (("relation",), ("quartic",)))
    return support["certified"] or support["kind"] == "point"


@_command(
    _option("--fixture", dest="fixture_path", required=True, type=_existing),
    _option("--grid", dest="grid_name", default="default", choices=["default", "dense"]),
    _option("--workers", default=1, type=int,
            help="Accepted for compatibility; has no effect."))
def check(fixture_path, grid_name, workers):
    """Run every applicable exact checker against a fixture."""
    _bind("serialize", "charfn", "independence")
    obj, fam = _load_fixture(fixture_path)
    values, bounds = _verdict_inputs(obj, fam)
    grid = default_grid(fam.n, fam.kind, dense=(grid_name == "dense"))
    outside, bound = _certificate(values, bounds)
    residual, worst_tuple = independence_residual(
        fam.cfs, fam.matrix, grid=grid, workers=workers, return_worst=True)
    if fam.kind == "cylinder":
        worst_json = [[serialize.scalar_to_json(y.s), y.n] for y in worst_tuple]
    else:
        worst_json = list(worst_tuple)
    report = {
        "fixture": str(fixture_path),
        "kind": fam.kind,
        "inputs": "float" if bound else "exact",  # whether a float enters the certificate
        "independence": {
            "residual": residual,
            "bound": float(bound),
            "grid_size": len(grid),
            "worst_tuple": worst_json,
            "method": "certificate",
            "twist_sum": float(values[("T",)]),
        },
    }
    ok = not outside
    if not ok:
        pairs = dict.fromkeys(key[1:3] for key in outside if key[0] == "C")
        report["independence"]["nonzero_blocks"] = [list(pair) for pair in pairs]
    report["members"] = _members(fam, bounds)
    ok = all(m["valid"] for m in report["members"]) and ok
    if fam.kind == "cylinder":
        ok = _check_cylinder_sections(fam, values, bounds, report) and ok
    else:
        report["twist_sum"] = report["independence"]["twist_sum"]
    report["pass"] = ok
    _emit(report)
    sys.exit(0 if ok else 1)


@_command(*(_option(f"--{name}", required=True) for name in ("a1", "a2", "b1", "b2")))
def conditions(a1, a2, b1, b2):
    """Exact condition report for a reduced coefficient tuple."""
    _bind("independence")
    report = coefficient_conditions(a1, a2, b1, b2)
    _emit({
        "a1": a1, "a2": a2, "b1": b1, "b2": b2,
        "cubic_identity": str(report.cubic),
        "sign_row": report.sign_row,
        "distinct_a": report.distinct_a,
        "distinct_b": report.distinct_b,
        "cross_det": str(report.cross_det),
        "corner_det": str(report.corner_det),
        "pass": report.all_pass,
    })
    sys.exit(0 if report.all_pass else 1)


@_command(
    _option("--input", dest="input_paths", required=True,
            help="Grid CSV path; three comma-separated paths for --mode triple."),
    _option("--mode", required=True, choices=["degree", "profile", "triple"]),
    _option("--fixture", dest="fixture_path", type=_existing,
            help="Fixture supplying the statistic matrix (triple mode)."),
    _option("--tol", default=1e-9, type=float),
    _option("--max-degree", default=6, type=int))
def reduce(input_paths, mode, fixture_path, tol, max_degree):
    """Finite-difference reductions of grid-sampled functions."""
    _bind("fdiff")
    grids = [load_grid_csv(p.strip()) for p in input_paths.split(",") if p.strip()]
    if not grids:
        raise ValueError(f"--input {input_paths!r} names no grid CSV")

    if mode == "degree":
        deg = polynomial_degree(grids[0], max_deg=max_degree, tol=tol)
        _emit({"mode": "degree", "degree": deg})
        sys.exit(0 if deg is not None else 1)
    if mode == "profile":
        try:
            fit = fit_quadratic_profile(grids[0], tol=tol)
        except ProfileError as exc:
            _emit({"mode": "profile", "error": str(exc)})
            sys.exit(1)
        _emit({
            "mode": "profile",
            "sigma": fit.sigma,
            "n": list(fit.levels),
            "kappa": [float(k) for k in fit.exact_kappa],
            "lambda": [float(v) for v in fit.exact_lam],
        })
        sys.exit(0)
    # triple mode
    if len(grids) != 3:
        raise ValueError("triple mode needs three comma-separated grid CSVs")
    if fixture_path is None:
        raise ValueError("triple mode needs --fixture for the statistic matrix")
    check_tol(tol)
    _bind("serialize", "independence")
    fam = _load_fixture(fixture_path)[1]
    tags = classify_step_subgroups(fam.matrix)
    residuals = verify_triple_differences(grids, fam.matrix, tags)
    _emit({
        "mode": "triple",
        "residuals": list(residuals),
        "subgroups": {"col1": tags.col1.value, "col2": tags.col2.value,
                      "cross": tags.cross.value},
    })
    sys.exit(0 if max(residuals) <= tol else 1)


def _sample_family(obj: dict, fam: Family, count: int, seed: int):
    """Member j drawn from its own law with seed + j, on its line when within its bound of one."""
    bounds = _verdict_inputs(obj, fam)[1]
    cfs = [_onto_cone_edge(cf, bounds[("psd", j)]) for j, cf in enumerate(fam.cfs)]
    for j, cf in enumerate(cfs):
        if not is_valid_probability(cf):
            raise ValueError(f"member {j} is not a probability measure")
    return [sample_bundle(cf, count, seed + j) for j, cf in enumerate(cfs)]


@_command(
    _option("--fixture", dest="fixture_path", required=True, type=_existing),
    _option("--count", default=100_000, type=_int_from(1)),
    _option("--seed", default=0, type=_int_from(0)),
    _option("--bootstrap", default=200, type=_int_from(1)),
    _option("--samples-out", dest="samples_dir", default=None,
            help="Directory for per-variable sample CSVs (t, theta)."))
def simulate(fixture_path, count, seed, bootstrap, samples_dir):
    """Monte-Carlo corroboration of a fixture's independence."""
    _bind("serialize", "charfn", "independence", "montecarlo")
    obj, fam = _load_fixture(fixture_path)
    samples = _sample_family(obj, fam, count, seed)
    if samples_dir is not None:
        out = Path(samples_dir)
        out.mkdir(parents=True, exist_ok=True)
        for j, s in enumerate(samples):
            save_samples_csv(s, out / f"xi{j + 1}.csv")
        _log(f"wrote {len(samples)} sample CSVs to {out}")
    report = empirical_independence(samples, fam.matrix, bootstrap=bootstrap,
                                    seed=seed, kind=fam.kind)
    report["fixture"] = str(fixture_path)
    report["seed"] = seed
    report["worst_probe"] = list(report["worst_probe"])
    _emit(report)
    sys.exit(0 if report["consistent_with_zero"] else 1)


@_command(
    _option("--base", dest="base_path", required=True, type=_existing),
    _option("--fixture", dest="fixture_path", required=True, type=_existing),
    _option("--depth", default=6, type=_int_from(0)))
def solenoid(base_path, fixture_path, depth):
    """Re-run the independence equation on the rational dual of a solenoid."""
    _bind("serialize", "charfn", "independence", "solenoid")
    base = serialize.base_from_json(serialize.load(base_path))
    obj, fam = _load_fixture(fixture_path)
    if fam.kind != "cylinder":
        raise ValueError("solenoid pullback applies to cylinder fixtures")
    values, bounds = _verdict_inputs(obj, fam)
    residual = pullback_residual(fam.cfs, fam.matrix, base, grid_depth=depth)
    outside, bound = _certificate(values, bounds)
    ok = not outside
    _emit({
        "fixture": str(fixture_path),
        "inputs": "float" if bound else "exact",
        "base": list(base.entries),
        "depth": depth,
        "residual": residual,
        "bound": float(bound),
        "method": "certificate",
        "pass": ok,
    })
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
