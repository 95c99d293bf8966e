"""Value types for the cylinder group, its dual, and their automorphisms.

The cylinder is R x T with points stored as (t, theta), theta the angle of the
circle coordinate reduced to [0, 2*pi).  Its dual is R x Z with elements
(s, n), and the pairing is <(t, theta), (s, n)> = exp(i*(s*t + n*theta)).

Every topological automorphism of R x Z acts as (s, n) -> (a*s + c*n, p*n)
with a != 0 real and p = +-1; the adjoint action on the cylinder is
(t, theta) -> (a*t, c*t + p*theta mod 2*pi).  Both actions are carried by the
same (a, c, p) triple.

Scalars on the dual side are ints and Fractions, so all algebra stays exact,
which is what the algebraic checkers rely on.  Every module reads its numbers
through the three readers here, run by `named` where a refusal should name the
field read:

  * `as_exact` - an int or a Fraction as itself, a finite float as the dyadic
    rational it is, a numpy integer as an int; it refuses a bool, a str, None,
    a complex and any other type (TypeError) and a non-finite float (ValueError).
  * `as_rational` - a "p/q" string as the Fraction it denotes, anything else
    as `as_exact` reads it.
  * `as_int` - an int that is not a bool; it refuses everything else, a float
    or a Fraction of integer value included (TypeError).

The point side reduces angles mod 2*pi and is therefore float-valued.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

TWO_PI = 2.0 * math.pi


def as_exact(value):
    """An int or a Fraction unchanged, a float as the Fraction it equals, a numpy integer as an int."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"scalar {value!r} is not finite")
        return Fraction(value)
    raise TypeError(f"expected an int, a Fraction or a float, got {value!r}")


def as_rational(value):
    """A "p/q" string as the Fraction it denotes; any other value as `as_exact` reads it."""
    return Fraction(value) if isinstance(value, str) else as_exact(value)


def as_int(value) -> int:
    """An int that is not a bool, unchanged."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an int, got {value!r}")
    return value


def named(name: str, read, value):
    """read(value), a TypeError or ValueError it raises led by `name`."""
    try:
        return read(value)
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"{name}: {exc}") from None


def reduce_angle(theta) -> float:
    """Reduce an angle to [0, 2*pi), with 0.0 for -0.0 so that equal angles share their bits."""
    r = math.fmod(float(theta), TWO_PI) + 0.0
    if r < 0.0:
        r += TWO_PI
    return r if r < TWO_PI else 0.0  # -1e-151 + 2*pi rounds to 2*pi


@dataclass(frozen=True)
class CylinderPoint:
    """Element (t, z) of R x T, with z = exp(i*theta) and theta in [0, 2*pi)."""

    t: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "theta", reduce_angle(self.theta))

    def __add__(self, other: "CylinderPoint") -> "CylinderPoint":
        return CylinderPoint(self.t + other.t, self.theta + other.theta)

    def __neg__(self) -> "CylinderPoint":
        return CylinderPoint(-self.t, -self.theta)

    def __sub__(self, other: "CylinderPoint") -> "CylinderPoint":
        return self + (-other)


@dataclass(frozen=True)
class DualPoint:
    """Element (s, n) of the dual group R x Z; addition is componentwise."""

    s: object
    n: int

    def __post_init__(self):
        as_int(self.n)

    def __add__(self, other: "DualPoint") -> "DualPoint":
        return DualPoint(self.s + other.s, self.n + other.n)

    def __neg__(self) -> "DualPoint":
        return DualPoint(-self.s, -self.n)

    def __sub__(self, other: "DualPoint") -> "DualPoint":
        return self + (-other)


@dataclass(frozen=True)
class CylinderAuto:
    """Automorphism (s, n) -> (a*s + c*n, p*n) of R x Z and its adjoint on R x T."""

    a: object
    c: object = 0
    p: int = 1

    def __post_init__(self):
        object.__setattr__(self, "a", as_exact(self.a))
        object.__setattr__(self, "c", as_exact(self.c))
        if self.a == 0:
            raise ValueError("multiplier a must be nonzero")
        if as_int(self.p) not in (1, -1):
            raise ValueError(f"circle exponent p must be +1 or -1, got {self.p!r}")

    @classmethod
    def identity(cls) -> "CylinderAuto":
        return cls(1, 0, 1)

    @classmethod
    def sign(cls, p: int) -> "CylinderAuto":
        """The automorphism z -> z^p of the circle factor, trivial on R."""
        return cls(1, 0, p)

    def is_identity(self) -> bool:
        return self.a == 1 and self.c == 0 and self.p == 1

    def on_dual(self, y: DualPoint) -> DualPoint:
        return DualPoint(self.a * y.s + self.c * y.n, self.p * y.n)

    def on_point(self, x: CylinderPoint) -> CylinderPoint:
        return CylinderPoint(float(self.a) * x.t, float(self.c) * x.t + self.p * x.theta)

    def __matmul__(self, other: "CylinderAuto") -> "CylinderAuto":
        # Matrix product: applying self after other on the dual side.
        return CylinderAuto(
            self.a * other.a,
            self.a * other.c + self.c * other.p,
            self.p * other.p,
        )

    def inverse(self) -> "CylinderAuto":
        return CylinderAuto(Fraction(1, self.a), Fraction(-self.c * self.p, self.a), self.p)

    def preserves_line(self, omega) -> bool:
        """Whether the line {(t, omega*t mod 2*pi)} is invariant: c = (a - p)*omega, exactly."""
        return self.c == (self.a - self.p) * as_exact(omega)


def pair(x: CylinderPoint, y: DualPoint) -> complex:
    """Value of the character y at the point x: exp(i*(s*t + n*theta))."""
    return cmath.exp(1j * (float(y.s) * x.t + y.n * x.theta))
