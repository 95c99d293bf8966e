"""Command-line frontend: construct fixtures, check them, reduce grids, simulate.

All reports are JSON on stdout; human-readable progress goes to stderr.  Exit
codes: 0 success, 1 verification failure, 2 input error.  Input errors are
decided in one place, `_InputErrorBoundary`: the commands let the library's
exceptions propagate, and the boundary turns each into one stderr line.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from fractions import Fraction
from functools import partial
from pathlib import Path

import click

from . import serialize
from .charfn import (CylinderCF, InconclusiveError, classify_support, is_gaussian,
                     is_valid_probability, psd_gap, support_line)
from .families import (ConstructionError, Family, four_statistic_family,
                       line_gaussian_family, twisted_torus_pair)
from .fdiff import (ProfileError, check_tol, fit_quadratic_profile, load_grid_csv,
                    polynomial_degree, verify_triple_differences)
from .independence import (DegenerateFormError, coefficient_conditions,
                           default_grid, gaussian_system_check,
                           independence_blocks, independence_residual,
                           classify_step_subgroups, reduced_coefficients,
                           support_identity_gap, symmetrized_convolution)
from .montecarlo import empirical_independence, sample_bundle, save_samples_csv
from .solenoid import pullback_residual
# Unused here, since `check` reads the support gaps with their bounds and `simulate`
# draws every member with `sample_bundle`; the benchmark's tracer still looks these
# names up in the cli namespace.
from .independence import nu_support_check  # noqa: F401
from .montecarlo import sample_line_gaussian, sample_torus_twisted  # noqa: F401

# What the library raises on bad input.  A fault on valid input (say an
# AttributeError or an AssertionError) is not listed, so it keeps its traceback.
_INPUT_ERRORS = (OSError, LookupError, TypeError, ValueError, ArithmeticError,
                ConstructionError, InconclusiveError, click.UsageError)


class _InputErrorBoundary(click.Group):
    """Exit 2 with one `error: <command>: <message>` line for any input error."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except _INPUT_ERRORS as exc:
            text = exc.format_message() if isinstance(exc, click.UsageError) else str(exc)
            if isinstance(exc, (LookupError, ArithmeticError)) or not text:
                text = f"{type(exc).__name__}: {text}"  # "KeyError: 're'", not "'re'"
            _log(f"error: {ctx.invoked_subcommand or ctx.info_name}: {' '.join(text.split())}")
            sys.exit(2)


def _emit(report: dict) -> None:
    click.echo(json.dumps(report, indent=2, allow_nan=False))


def _log(message: str) -> None:
    click.echo(message, err=True)


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


@click.group(cls=_InputErrorBoundary)
def main():
    """Verification toolkit for independent linear statistics on the cylinder."""


@main.command()
@click.option("--family", "-f", "family_name", required=True,
              type=click.Choice(["line-gaussian", "twisted-pair", "four-statistic"]))
@click.option("--params", "params_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
def construct(family_name, params_path, out_path):
    """Build a certified fixture from a JSON parameter file."""
    params = serialize.load(params_path)
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


@main.command()
@click.option("--fixture", "fixture_path", required=True, type=click.Path(exists=True))
@click.option("--grid", "grid_name", default="default",
              type=click.Choice(["default", "dense"]))
@click.option("--workers", default=1, type=int,
              help="Accepted for compatibility; has no effect.")
def check(fixture_path, grid_name, workers):
    """Run every applicable exact checker against a fixture."""
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


@main.command()
@click.option("--a1", required=True)
@click.option("--a2", required=True)
@click.option("--b1", required=True)
@click.option("--b2", required=True)
def conditions(a1, a2, b1, b2):
    """Exact condition report for a reduced coefficient tuple."""
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


@main.command()
@click.option("--input", "input_paths", required=True,
              help="Grid CSV path; three comma-separated paths for --mode triple.")
@click.option("--mode", required=True, type=click.Choice(["degree", "profile", "triple"]))
@click.option("--fixture", "fixture_path", type=click.Path(exists=True),
              help="Fixture supplying the statistic matrix (triple mode).")
@click.option("--tol", default=1e-9, type=float)
@click.option("--max-degree", default=6, type=int)
def reduce(input_paths, mode, fixture_path, tol, max_degree):
    """Finite-difference reductions of grid-sampled functions."""
    grids = [load_grid_csv(p.strip()) for p in input_paths.split(",") if p.strip()]
    if not grids:
        raise click.UsageError(f"--input {input_paths!r} names no grid CSV")

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
            "n": [int(n) for n in fit.n_values],
            "kappa": [float(k) for k in fit.kappa],
            "lambda": [float(v) for v in fit.lam],
        })
        sys.exit(0)
    # triple mode
    if len(grids) != 3:
        raise click.UsageError("triple mode needs three comma-separated grid CSVs")
    if fixture_path is None:
        raise click.UsageError("triple mode needs --fixture for the statistic matrix")
    check_tol(tol)
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


@main.command()
@click.option("--fixture", "fixture_path", required=True, type=click.Path(exists=True))
@click.option("--count", default=100_000, type=int)
@click.option("--seed", default=0, type=click.IntRange(min=0))
@click.option("--bootstrap", default=200, type=click.IntRange(min=1))
@click.option("--samples-out", "samples_dir", type=click.Path(), default=None,
              help="Directory for per-variable sample CSVs (t, theta).")
def simulate(fixture_path, count, seed, bootstrap, samples_dir):
    """Monte-Carlo corroboration of a fixture's independence."""
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


@main.command()
@click.option("--base", "base_path", required=True, type=click.Path(exists=True))
@click.option("--fixture", "fixture_path", required=True, type=click.Path(exists=True))
@click.option("--depth", default=6, type=int)
def solenoid(base_path, fixture_path, depth):
    """Re-run the independence equation on the rational dual of a solenoid."""
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
