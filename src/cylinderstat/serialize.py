"""JSON interchange for automorphisms, CF bundles, fixtures, and bases.

Exact rationals travel as "p/q" strings (integers as JSON numbers), so a
fixture written by the constructors and read back keeps every certification
exact.  Floats stay floats.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .charfn import CylinderCF, TorusCF
from .families import Family
from .groups import CylinderAuto
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


def scalar_from_json(value):
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, bool):
        raise TypeError("booleans are not valid scalars")
    if isinstance(value, int):
        return value
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"scalar {value!r} is not finite")
    return out


def auto_to_json(e: CylinderAuto) -> dict:
    return {"a": scalar_to_json(e.a), "c": scalar_to_json(e.c), "p": e.p}


def auto_from_json(obj: dict) -> CylinderAuto:
    return CylinderAuto(scalar_from_json(obj["a"]), scalar_from_json(obj["c"]), int(obj["p"]))


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


def cf_from_json(obj: dict):
    kind = obj.get("kind")
    if kind == "cylinder":
        return CylinderCF(
            scalar_from_json(obj["sigma"]),
            scalar_from_json(obj.get("kappa", 0)),
            scalar_from_json(obj.get("lambda", 0)),
            scalar_from_json(obj.get("tau", 0)),
            scalar_from_json(obj.get("theta", 0)),
            scalar_from_json(obj.get("twist", 0)),
        )
    if kind == "torus":
        return TorusCF(
            scalar_from_json(obj["sigma"]),
            scalar_from_json(obj.get("theta", 0)),
            scalar_from_json(obj.get("twist", 0)),
        )
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
    cfs = tuple(cf_from_json(cf) for cf in obj["cfs"])
    omega = scalar_from_json(obj["omega"]) if "omega" in obj else None
    family = Family(obj.get("family", "custom"), matrix, cfs, omega=omega)
    if family.kind != obj.get("kind"):
        raise ValueError(f"fixture kind {obj.get('kind')!r} disagrees with its "
                         f"{family.kind} bundles")
    return family


def ha_rational_to_json(h: HaRational) -> dict:
    return {"value": str(h.value), "depth": h.depth}


def ha_rational_from_json(obj: dict) -> HaRational:
    return HaRational(Fraction(obj["value"]), int(obj["depth"]))


def base_to_json(base: BaseSequence) -> dict:
    return {"base": list(base.entries)}


def base_from_json(obj) -> BaseSequence:
    if isinstance(obj, dict):
        entries = obj["base"]
    else:
        entries = obj
    return BaseSequence(tuple(int(a) for a in entries))


def dump(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def load(path):
    with open(path) as fh:
        return json.load(fh)
