"""JSON interchange for automorphisms, CF bundles, fixtures, and bases.

Exact rationals travel as "p/q" strings (integers as JSON numbers), so a
fixture written by the constructors and read back keeps every certification
exact.  A JSON float is read as the dyadic rational it is, and
`rounding_bounds` bounds what its rounding can change in a verdict.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .charfn import CylinderCF, TorusCF
from .families import Family
from .groups import CylinderAuto, as_int, as_rational, named
from .independence import StatMatrix
from .solenoid import BaseSequence, HaRational


def scalar_to_json(value):
    if isinstance(value, bool):
        raise TypeError("booleans are not serializable scalars")
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, int):
        return value
    return float(value)


# An int as itself, a "p/q" string or a finite float as the Fraction it denotes.
scalar_from_json = as_rational


def auto_to_json(e: CylinderAuto) -> dict:
    return {"a": scalar_to_json(e.a), "c": scalar_to_json(e.c), "p": e.p}


def _field(obj: dict, key: str, read=scalar_from_json, default=None):
    """read(obj[key]), or read(default) for an absent key given a default; a refusal names it."""
    return named(f'"{key}"', read, obj[key] if default is None else obj.get(key, default))


def auto_from_json(obj: dict) -> CylinderAuto:
    return CylinderAuto(_field(obj, "a"), _field(obj, "c"), _field(obj, "p", as_int))


def cf_to_json(cf) -> dict:
    if isinstance(cf, CylinderCF):
        return {
            "kind": "cylinder",
            "sigma": scalar_to_json(cf.sigma),
            "kappa": scalar_to_json(cf.kappa),
            "lambda": scalar_to_json(cf.lam),
            "tau": scalar_to_json(cf.tau),
            "theta": scalar_to_json(cf.theta),
            "twist": scalar_to_json(cf.twist),
        }
    if isinstance(cf, TorusCF):
        return {
            "kind": "torus",
            "sigma": scalar_to_json(cf.sigma),
            "theta": scalar_to_json(cf.theta),
            "twist": scalar_to_json(cf.twist),
        }
    raise TypeError(f"cannot serialize {type(cf).__name__}")


def cf_from_json(obj: dict, where: str = "CF entry", scalar=scalar_from_json):
    """The bundle of a JSON object, each field read by `scalar`."""
    if not isinstance(obj, dict):
        raise TypeError(f"{where} must be a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind == "cylinder":
        rest = ("kappa", "lambda", "tau", "theta", "twist")
        return CylinderCF(_field(obj, "sigma", scalar), *(_field(obj, k, scalar, 0) for k in rest))
    if kind == "torus":
        rest = ("theta", "twist")
        return TorusCF(_field(obj, "sigma", scalar), *(_field(obj, k, scalar, 0) for k in rest))
    raise ValueError(f"unknown CF kind: {kind!r}")


def matrix_to_json(m: StatMatrix) -> list:
    return [[auto_to_json(e) for e in row] for row in m.rows]


def matrix_from_json(rows: list) -> StatMatrix:
    return StatMatrix.from_rows([[auto_from_json(e) for e in row] for row in rows])


def family_to_fixture(family: Family) -> dict:
    out = {
        "family": family.label,
        "kind": family.kind,
        "matrix": matrix_to_json(family.matrix),
        "cfs": [cf_to_json(cf) for cf in family.cfs],
    }
    if family.omega is not None:
        out["omega"] = scalar_to_json(family.omega)
    return out


def family_from_fixture(obj: dict) -> Family:
    matrix = matrix_from_json(obj["matrix"])
    cfs = tuple(cf_from_json(cf, f"cfs[{j}]") for j, cf in enumerate(obj["cfs"]))
    omega = _field(obj, "omega") if "omega" in obj else None
    family = Family(obj.get("family", "custom"), matrix, cfs, omega=omega)
    if family.kind != obj.get("kind"):
        raise ValueError(f"fixture kind {obj.get('kind')!r} disagrees with its "
                         f"{family.kind} bundles")
    return family


def rounding_bounds(obj: dict, predicates, keys) -> dict:
    """The input-rounding bound of each of a fixture's predicates(bundles, matrix, positive),
    named by `keys`.

    A JSON float x stands for any real within r = ulp(x)/2 of it, an exact scalar
    for itself (r = 0).  With P+ the polynomial P with every coefficient made
    positive, |P(x') - P(x)| <= P+(|x| + r) - P+(|x|) when |x' - x| <= r (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 2-3): P passes when |P(x)|
    is at most that.  P+ is `predicates` with positive=True on the fixture read with
    every scalar as |x| or |x| + r, every sign p as +1, circle bundles as slices.
    With no JSON float among the scalars every bound is 0, and neither is evaluated.
    """
    scalars = [e[key] for row in obj["matrix"] for e in row for key in ("a", "c")]
    scalars += [v for cf in obj["cfs"] for key, v in cf.items() if key != "kind"]
    if not any(isinstance(v, float) for v in scalars):
        return dict.fromkeys(keys, 0)

    def side(k):
        def read(value):  # half an ulp bounds the rounding of a JSON float
            radius = Fraction(math.ulp(value)) / 2 if isinstance(value, float) else 0
            return abs(scalar_from_json(value)) + k * radius
        rows = [[CylinderAuto(read(e["a"]), read(e["c"]), 1) for e in row] for row in obj["matrix"]]
        cfs = tuple(cf_from_json(cf, scalar=read).cylinder for cf in obj["cfs"])
        return predicates(cfs, StatMatrix.from_rows(rows), positive=True)
    hi, lo = side(1), side(0)
    return {key: hi[key] - lo[key] for key in hi}


def ha_rational_to_json(h: HaRational) -> dict:
    return {"value": str(h.value), "depth": h.depth}


def ha_rational_from_json(obj: dict) -> HaRational:
    return HaRational(as_rational(obj["value"]), as_int(obj["depth"]))


def base_from_json(obj) -> BaseSequence:
    return BaseSequence(obj["base"] if isinstance(obj, dict) else obj)


def dump(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def load(path):
    with open(path) as fh:
        return json.load(fh)
