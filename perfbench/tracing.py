"""Spans around the layer functions the CLI calls, recorded from outside.

`Tracer.install` replaces each layer function named in LAYER_CALLS, in the
namespaces that call it, with a wrapper that records a span: name, layer,
start, end, parent span and the operation id shared by the spans of one
command.  Spans stay in memory until the run writes them out.  No file of
the package is changed; `uninstall` puts the original functions back.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter

import cylinderstat.cli
import cylinderstat.montecarlo
import cylinderstat.serialize
from cylinderstat.solenoid import BaseSequence, rational_dual_grid

LAYERS = ("cli", "serialize", "families", "charfn", "independence", "solenoid",
          "fdiff", "montecarlo")

# (namespace the call is looked up in, function name) -> metric group.
# `groups` has no public call the CLI makes; its cost shows inside
# independence and solenoid.
LAYER_CALLS = {
    ("serialize", "load"): "serialize.load",
    ("serialize", "family_from_fixture"): "serialize.load",
    ("serialize", "base_from_json"): "serialize.load",
    ("cli", "line_gaussian_family"): "families.construct",
    ("cli", "twisted_torus_pair"): "families.construct",
    ("cli", "four_statistic_family"): "families.construct",
    ("setup", "line_gaussian_family"): "families.construct",
    ("setup", "twisted_torus_pair"): "families.construct",
    ("setup", "four_statistic_family"): "families.construct",
    ("cli", "default_grid"): "independence.grid",
    ("cli", "independence_residual"): "independence.residual",
    ("cli", "gaussian_system_check"): "independence.sections",
    ("cli", "classify_step_subgroups"): "independence.sections",
    ("cli", "symmetrized_convolution"): "independence.sections",
    ("cli", "nu_support_check"): "independence.sections",
    ("cli", "coefficient_conditions"): "independence.sections",
    ("cli", "is_gaussian"): "charfn.sections",
    ("cli", "classify_support"): "charfn.sections",
    ("cli", "support_line"): "charfn.sections",
    ("cli", "pullback_residual"): "solenoid.pullback",
    ("cli", "load_grid_csv"): "fdiff.load",
    ("cli", "polynomial_degree"): "fdiff.reduce",
    ("cli", "fit_quadratic_profile"): "fdiff.reduce",
    ("cli", "verify_triple_differences"): "fdiff.reduce",
    ("cli", "sample_line_gaussian"): "montecarlo.sample",
    ("cli", "sample_torus_twisted"): "montecarlo.sample",
    ("montecarlo", "statistic_samples"): "montecarlo.statistics",
    ("cli", "empirical_independence"): "montecarlo.empirical",
}


@functools.lru_cache(maxsize=None)
def _pullback_tuples(base: tuple, depth: int, n_slots: int) -> int:
    return len(rational_dual_grid(BaseSequence(base), depth, n_slots))


def _work_count(group: str, args, kwargs, result) -> int:
    """Work units of one call: dual tuples, draws or replicates; 0 where none."""
    if group == "independence.grid":
        return len(result)
    if group == "independence.residual":
        return len(kwargs["grid"])
    if group == "solenoid.pullback":
        cfs, matrix, base = args
        return _pullback_tuples(base.entries, kwargs["grid_depth"], matrix.n)
    if group == "montecarlo.sample":
        return result.count
    if group == "montecarlo.empirical":
        return kwargs.get("bootstrap", 200)
    return 0


class Tracer:
    """In-memory span recorder with wrappers installed around layer calls."""

    def __init__(self, setup_module):
        self.namespaces = {"cli": cylinderstat.cli, "serialize": cylinderstat.serialize,
                           "montecarlo": cylinderstat.montecarlo, "setup": setup_module}
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    def _open(self, name: str, group: str) -> dict:
        span = {"id": len(self.spans), "name": name, "group": group, "op": self.op,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, group: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(fn.__name__, group)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                self._close(span)
            span["work"] = _work_count(group, args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        for (where, name), group in LAYER_CALLS.items():
            module = self.namespaces[where]
            original = getattr(module, name)
            self._saved.append((module, name, original))
            setattr(module, name, self._wrap(group, original))

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    @contextlib.contextmanager
    def root(self, op_id: str, name: str, group: str):
        """Span of one whole command (or of set-up); its layer spans share op_id."""
        self.op = op_id
        span = self._open(name, group)
        try:
            yield span
        except SystemExit:
            raise
        except BaseException as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            self._close(span)
            self.op = None

    def write(self, path, origin: float) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                rec = dict(span, start=span["start"] - origin, end=span["end"] - origin)
                fh.write(json.dumps(rec) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the part its direct children cover."""
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    return [s["end"] - s["start"] - child_time.get(s["id"], 0.0) for s in spans]


def escaped_errors(spans) -> dict:
    """Per layer, exceptions that escaped a command, charged to the innermost span."""
    errors = dict.fromkeys(LAYERS, 0)
    by_id = {s["id"]: s for s in spans}
    marked_parents = {s["parent"] for s in spans if "error" in s}
    for s in spans:
        if "error" not in s or s["id"] in marked_parents:
            continue
        root = s
        while root["parent"] is not None:
            root = by_id[root["parent"]]
        if "error" in root:  # the exception left the command
            layer = s["group"].split(".")[0]
            errors[layer if layer in errors else "cli"] += 1
    return errors


# Metric names for call and work counts, by group.
CALL_COUNTS = {"serialize.load": "serialize.load_calls",
               "families.construct": "families.construct_calls",
               "independence.residual": "independence.residual_calls"}
WORK_COUNTS = {"independence.grid": "independence.grid_tuples",
               "independence.residual": "independence.residual_tuples",
               "solenoid.pullback": "solenoid.pullback_tuples",
               "montecarlo.sample": "montecarlo.draws",
               "montecarlo.empirical": "montecarlo.replicates"}


def layer_metrics(spans) -> dict:
    """Per-layer times and counts for the spans of one traced pass.

    Times are self times, except montecarlo.empirical_s, which is the whole
    call as the CLI makes it.  A time is present only for a group that ran.
    """
    seconds, calls, work = Counter(), Counter(), Counter()
    for span, own in zip(spans, self_times(spans)):
        group = span["group"]
        if group in ("cli", "setup"):
            continue
        seconds[group] += span["end"] - span["start"] if group == "montecarlo.empirical" else own
        calls[group] += 1
        work[group] += span.get("work", 0)
    metrics = {f"{group}_s": value for group, value in seconds.items()}
    metrics.update({name: calls[group] for group, name in CALL_COUNTS.items()})
    metrics.update({name: work[group] for group, name in WORK_COUNTS.items()})
    if calls["independence.residual"]:
        metrics["independence.residual_tuples_per_s"] = (
            work["independence.residual"] / seconds["independence.residual"])
    metrics.update({f"{layer}.errors": n for layer, n in escaped_errors(spans).items()})
    return metrics
