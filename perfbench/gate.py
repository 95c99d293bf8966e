"""Correctness gate: one verdict per command, from its exit code and output.

An operation fails when any of these holds:
  * the exit code is not the one the mathematics predicts;
  * stdout is not strict JSON (unparsable, or containing NaN or Infinity);
  * stderr contains a traceback;
  * an independent exact fixture reports a residual that is not exactly 0.0;
  * a float fixture reports a residual above 1e-10;
  * a perturbed fixture reports a residual at or below 1e-10;
  * simulate reports consistent_with_zero false or max_residual >= 0.02.
"""

from __future__ import annotations

import json

RESIDUAL_TOL = 1e-10
SIMULATE_MAX_RESIDUAL = 0.02  # acceptance criterion 7


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    """Parse standard JSON only: NaN, Infinity and -Infinity are refused."""
    return json.loads(text, parse_constant=_reject_constant)


def _residual_problem(rule: str, residual) -> str | None:
    if rule == "exact" and residual != 0.0:
        return f"exact fixture residual {residual!r} is not 0.0"
    if rule == "float" and not residual <= RESIDUAL_TOL:
        return f"float fixture residual {residual!r} above {RESIDUAL_TOL}"
    if rule == "perturbed" and not residual > RESIDUAL_TOL:
        return f"perturbed fixture residual {residual!r} at or below {RESIDUAL_TOL}"
    return None


def judge(op, exit_code: int, stdout: str, stderr: str):
    """(problems, report) for one finished command; no problems means it passed."""
    problems = []
    if exit_code != op.exit:
        problems.append(f"exit code {exit_code}, expected {op.exit}")
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    try:
        report = strict_json(stdout)
    except ValueError as exc:
        problems.append(f"stdout is not strict JSON: {exc}")
        return problems, None
    if not isinstance(report, dict):
        problems.append("stdout is not a JSON object")
        return problems, None
    try:
        command = op.args[0]
        if op.residual is not None:
            residual = (report["independence"]["residual"] if command == "check"
                        else report["residual"])
            problem = _residual_problem(op.residual, residual)
            if problem:
                problems.append(problem)
        if command == "simulate":
            if report["consistent_with_zero"] is not True:
                problems.append("consistent_with_zero is not true")
            if not report["max_residual"] < SIMULATE_MAX_RESIDUAL:
                problems.append(f"max_residual {report['max_residual']!r} >= "
                                f"{SIMULATE_MAX_RESIDUAL}")
    except (KeyError, TypeError) as exc:
        problems.append(f"report lacks an expected field: {exc!r}")
    return problems, report
