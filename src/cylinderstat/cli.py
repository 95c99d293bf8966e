"""Command-line frontend: construct fixtures, check them, reduce grids, simulate.

All reports are JSON on stdout; human-readable progress goes to stderr.  Exit
codes: 0 success, 1 verification failure, 2 input error.  Input errors are
decided in one place, `_InputErrorBoundary`: the commands let the library's
exceptions propagate, and the boundary turns each into one stderr line.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import click

from . import serialize
from .charfn import (InconclusiveError, classify_support, is_gaussian,
                     is_valid_probability, support_line)
from .families import (ConstructionError, Family, four_statistic_family,
                       line_gaussian_family, twisted_torus_pair)
from .fdiff import (ProfileError, check_tol, fit_quadratic_profile, load_grid_csv,
                    polynomial_degree, verify_triple_differences)
from .independence import (DegenerateFormError, coefficient_conditions,
                           default_grid, gaussian_system_check,
                           independence_blocks, independence_residual,
                           nonzero_blocks, nu_support_check,
                           classify_step_subgroups, symmetrized_convolution)
from .montecarlo import (empirical_independence, sample_line_gaussian,
                         sample_torus_twisted, save_samples_csv)
from .solenoid import pullback_residual

PASS_TOL = 1e-10

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


def _load_fixture(path: str) -> Family:
    return serialize.family_from_fixture(serialize.load(path))


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


def _check_cylinder_sections(fam: Family, report: dict) -> bool:
    ok = True
    if fam.n == 3 and fam.matrix.is_reduced() and all(cf.twist == 0 for cf in fam.cfs):
        system = gaussian_system_check(fam.cfs, fam.matrix)
        worst = max(system, key=lambda k: system[k])
        report["system"] = {"residuals": system, "worst": worst, "max": system[worst]}
        ok = ok and system[worst] <= PASS_TOL
        try:
            tags = classify_step_subgroups(fam.matrix)
            report["subgroups"] = {
                "col1": tags.col1.value, "col2": tags.col2.value,
                "cross": tags.cross.value, "case": tags.case_index(),
            }
        except DegenerateFormError as exc:
            report["subgroups"] = {"degenerate": str(exc)}
        nu = symmetrized_convolution(fam.cfs)
        support = {"kind": classify_support(nu)}
        if support["kind"] == "line":
            support["omega"] = float(support_line(nu))
        support["relation_gap"] = abs(float(4 * nu.sigma * nu.lam - nu.kappa * nu.kappa))
        nu_ok = nu_support_check(fam.cfs, fam.matrix)
        support["certified"] = nu_ok
        report["support"] = support
        if support["kind"] not in ("point",):
            ok = ok and nu_ok
    return ok


def _check_torus_sections(fam: Family, report: dict) -> bool:
    members = [{
        "gaussian": bool(is_gaussian(cf)),
        "twist": serialize.scalar_to_json(cf.twist),
        "valid": is_valid_probability(cf),
    } for cf in fam.cfs]
    report["members"] = members
    report["twist_sum"] = float(sum(float(cf.twist) for cf in fam.cfs))
    return all(m["valid"] for m in members)


@main.command()
@click.option("--fixture", "fixture_path", required=True, type=click.Path(exists=True))
@click.option("--grid", "grid_name", default="default",
              type=click.Choice(["default", "dense"]))
@click.option("--workers", default=1, type=int,
              help="Accepted for compatibility; has no effect.")
def check(fixture_path, grid_name, workers):
    """Run every applicable exact checker against a fixture."""
    fam = _load_fixture(fixture_path)
    grid = default_grid(fam.n, fam.kind, dense=(grid_name == "dense"))
    blocks, twist_sum = independence_blocks(fam.cfs, fam.matrix)
    residual, worst_tuple = independence_residual(
        fam.cfs, fam.matrix, grid=grid, workers=workers, return_worst=True)
    if fam.kind == "cylinder":
        worst_json = [[serialize.scalar_to_json(y.s), y.n] for y in worst_tuple]
    else:
        worst_json = list(worst_tuple)
    report = {
        "fixture": str(fixture_path),
        "kind": fam.kind,
        "independence": {
            "residual": residual,
            "grid_size": len(grid),
            "worst_tuple": worst_json,
            "method": "certificate",
            "twist_sum": float(twist_sum),
        },
    }
    ok = residual <= PASS_TOL
    if not ok:
        report["independence"]["nonzero_blocks"] = [list(pair) for pair in nonzero_blocks(blocks)]
    if fam.kind == "cylinder":
        ok = _check_cylinder_sections(fam, report) and ok
    else:
        ok = _check_torus_sections(fam, report) and ok
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
    report = coefficient_conditions(Fraction(a1), Fraction(a2), Fraction(b1), Fraction(b2))
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
    fam = _load_fixture(fixture_path)
    tags = classify_step_subgroups(fam.matrix)
    residuals = verify_triple_differences(grids, fam.matrix, tags)
    _emit({
        "mode": "triple",
        "residuals": list(residuals),
        "subgroups": {"col1": tags.col1.value, "col2": tags.col2.value,
                      "cross": tags.cross.value},
    })
    sys.exit(0 if max(residuals) <= tol else 1)


def _sample_family(fam: Family, count: int, seed: int):
    if fam.label == "line-gaussian":
        if fam.omega is None:
            raise ValueError('line-gaussian fixture has no "omega" key, which the sampler needs')
        return [sample_line_gaussian(float(cf.sigma), float(fam.omega), count, seed + j)
                for j, cf in enumerate(fam.cfs)]
    if fam.kind == "torus":
        return [sample_torus_twisted(cf, count, seed + j)
                for j, cf in enumerate(fam.cfs)]
    raise ValueError(f"fixture family {fam.label!r} is not supported by the sampler")


@main.command()
@click.option("--fixture", "fixture_path", required=True, type=click.Path(exists=True))
@click.option("--count", default=100_000, type=int)
@click.option("--seed", default=0, type=int)
@click.option("--bootstrap", default=200, type=click.IntRange(min=1))
@click.option("--samples-out", "samples_dir", type=click.Path(), default=None,
              help="Directory for per-variable sample CSVs (t, theta).")
def simulate(fixture_path, count, seed, bootstrap, samples_dir):
    """Monte-Carlo corroboration of a fixture's independence."""
    fam = _load_fixture(fixture_path)
    samples = _sample_family(fam, count, seed)
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
    fam = _load_fixture(fixture_path)
    if fam.kind != "cylinder":
        raise ValueError("solenoid pullback applies to cylinder fixtures")
    residual = pullback_residual(fam.cfs, fam.matrix, base, grid_depth=depth)
    ok = residual <= PASS_TOL
    _emit({
        "fixture": str(fixture_path),
        "base": list(base.entries),
        "depth": depth,
        "residual": residual,
        "method": "certificate",
        "pass": ok,
    })
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
