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
from typing import TYPE_CHECKING

from .charfn import CylinderCF, TorusCF, _reduce_param_angle
from .families import Family
from .groups import CylinderAuto, as_int, as_rational, named
from .independence import StatMatrix

if TYPE_CHECKING:
    from .solenoid import BaseSequence


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


_JSON_TYPES = {dict: "object", list: "array"}


def _expect(value, kind: type, where: str):
    """value, refused with its place `where` unless it is a JSON `kind` (dict or list)."""
    if not isinstance(value, kind):
        raise TypeError(f"{where} must be a JSON {_JSON_TYPES[kind]}, got {type(value).__name__}")
    return value


def _key_name(key: str, where: str) -> str:
    return f'{where}."{key}"' if where else f'"{key}"'


def _keys(obj, what: str, required, optional=(), where: str = "") -> dict:
    """obj, refused unless it is a JSON object (named `what`) with every key of `required`
    and no other key than those and `optional`; a refused key is named after its place
    `where` ("cfs[2]") when one is given."""
    _expect(obj, dict, what)
    for key in required:
        if key not in obj:
            raise ValueError(f"{_key_name(key, where)}: missing")
    for key in obj:
        if key not in required and key not in optional:
            raise ValueError(f"{_key_name(key, where)}: unknown key")
    return obj


def _field(obj: dict, key: str, read=scalar_from_json, default=None, where: str = ""):
    """read(obj[key]), or read(default) for an absent key; a refusal names the key, after
    its place `where` when one is given."""
    return named(_key_name(key, where), read, obj.get(key, default))


def auto_from_json(obj: dict, where: str = "matrix entry") -> CylinderAuto:
    _keys(obj, where, ("a", "c", "p"), where=where)
    a, c = (_field(obj, key, where=where) for key in ("a", "c"))
    return CylinderAuto(a, c, _field(obj, "p", as_int, where=where))


# The keys of a bundle of each kind after "kind", in the order of its type's fields.
_CF_KEYS = {"cylinder": ("sigma", "kappa", "lambda", "tau", "theta", "twist"),
            "torus": ("sigma", "theta", "twist")}
_BUNDLES = {"cylinder": CylinderCF, "torus": TorusCF}


def cf_to_json(cf) -> dict:
    for kind, bundle in _BUNDLES.items():
        if isinstance(cf, bundle):
            return {"kind": kind, **dict(zip(_CF_KEYS[kind], map(scalar_to_json, cf._values())))}
    raise TypeError(f"cannot serialize {type(cf).__name__}")


def cf_from_json(obj: dict, where: str = "CF entry", scalar=scalar_from_json):
    """The bundle of a JSON object, each field read by `scalar`, an absent one but "sigma"
    as 0; "theta" is also reduced as the bundle reduces it, so that an angle it refuses
    is named."""
    kind = _expect(obj, dict, where).get("kind")
    if kind not in _CF_KEYS:
        raise ValueError(f"unknown CF kind: {kind!r}")
    keys = _CF_KEYS[kind]
    _keys(obj, where, ("kind", "sigma"), keys, where)

    def read(key):
        reader = (lambda value: _reduce_param_angle(scalar(value))) if key == "theta" else scalar
        return _field(obj, key, reader, 0, where=where)
    return _BUNDLES[kind](*map(read, keys))


def matrix_to_json(m: StatMatrix) -> list:
    return [[auto_to_json(e) for e in row] for row in m.rows]


def matrix_from_json(rows: list) -> StatMatrix:
    for i, row in enumerate(rows):
        _expect(row, list, f"matrix[{i}]")
    return StatMatrix.from_rows([[auto_from_json(e, f"matrix[{i}][{j}]") for j, e in enumerate(row)]
                                 for i, row in enumerate(rows)])


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
    _keys(obj, "fixture", ("matrix", "cfs"), ("family", "kind", "omega"))
    rows, cfs = (_expect(obj[key], list, f'"{key}"') for key in ("matrix", "cfs"))
    matrix = matrix_from_json(rows)
    cfs = tuple(cf_from_json(cf, f"cfs[{j}]") for j, cf in enumerate(cfs))
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


def base_from_json(obj) -> BaseSequence:
    """The base of a JSON array, or of the "base" array of a JSON object."""
    from .solenoid import BaseSequence  # only the solenoid command reads a base

    if isinstance(obj, dict):
        return BaseSequence(_expect(_keys(obj, "base", ("base",))["base"], list, '"base"'))
    return BaseSequence(_expect(obj, list, "base"))


def params_from_json(obj, required, optional) -> dict:
    """A parameter file's JSON object, refused with the first key of `required` it lacks
    or the first key it has outside `required` and `optional`."""
    return _keys(obj, "params", required, optional)


def dump(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def load(path):
    with open(path) as fh:
        return json.load(fh)
