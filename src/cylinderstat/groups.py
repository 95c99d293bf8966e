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


def sci(value) -> str:
    """`f"{value:.3e}"` for an exact value >= 0, also outside the float range."""
    try:
        rounded = float(value)
    except OverflowError:
        rounded = 0.0
    if rounded or not value:
        return f"{rounded:.3e}"
    from decimal import Decimal

    return f"{Decimal(value.numerator) / value.denominator:.3e}"


def to_float(value):
    """float(value), or None past the float range."""
    try:
        return float(value)
    except OverflowError:
        return None


def named(name: str, read, value):
    """read(value), a TypeError or ValueError it raises led by `name`."""
    try:
        return read(value)
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"{name}: {exc}") from None


class FrozenInstanceError(AttributeError):
    """Raised on assigning or deleting an attribute of a record."""


_setattr = object.__setattr__


# The package's value types are Records, not dataclasses.  `import dataclasses` loads
# `inspect`, `ast`, `dis` and `tokenize`, 7-9 ms of every command, and each
# `@dataclass(frozen=True)` runs `exec` on six generated methods, 0.5-1 ms per class,
# while a command's own work takes 2-34 ms (2 CPUs, Python 3.11).  A Record reads its
# fields from the class annotations once, when the class is made, and generates no code.
class Record:
    """A frozen value type with the methods `@dataclass(frozen=True)` gives it.

    The fields are the annotated class attributes, in order, and a class attribute of the
    same name is the field's default.  The constructor takes them by position or by name,
    sets them and calls `__post_init__`, which may reset them with `object.__setattr__`;
    `==` compares the fields of two instances of the same class, `hash` hashes them, and
    assigning or deleting an attribute raises FrozenInstanceError.  The repr is the
    dataclass one, `Name(field=value, ...)`.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in fields if name in vars(cls)}
        for before, name in zip(fields, fields[1:]):
            if before in cls._defaults and name not in cls._defaults:
                raise TypeError(f"non-default argument {name!r} follows default argument")

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            _setattr(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values of a call with `args` and `kwargs`; its TypeError is the one
        a function with the fields as parameters raises."""
        names, defaults = cls._fields, cls._defaults
        rest = names[len(args):]
        if len(args) <= len(names):
            if not kwargs and len(rest) <= len(defaults):  # the defaults are the last fields
                return [*args, *map(defaults.__getitem__, rest)]
            if len(kwargs) == len(rest):  # then no keyword is extra if none is missing
                try:
                    return [*args, *map(kwargs.__getitem__, rest)]
                except KeyError:
                    pass
        where = f"{cls.__qualname__}.__init__()"
        for name in kwargs:
            if name not in names:
                raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
            if name not in rest:
                raise TypeError(f"{where} got multiple values for argument {name!r}")
        if len(args) > len(names):
            most = len(names) + 1
            takes = f"from {most - len(defaults)} to {most}" if defaults else most
            raise TypeError(f"{where} takes {takes} positional arguments "
                            f"but {len(args) + 1} were given")
        missing = [repr(name) for name in rest if name not in kwargs and name not in defaults]
        if missing:
            listed = (" and ".join(missing) if len(missing) < 3
                      else ", ".join(missing[:-1]) + ", and " + missing[-1])
            raise TypeError(f"{where} missing {len(missing)} required positional "
                            f"argument{'s' if len(missing) > 1 else ''}: {listed}")
        return [*args, *(kwargs[name] if name in kwargs else defaults[name] for name in rest)]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def replace(obj, /, **changes):
    """A record like `obj` with the fields named in `changes` set to their values, built
    by its constructor, as `dataclasses.replace` builds it."""
    if not isinstance(obj, Record):
        raise TypeError("replace() should be called on record instances")
    return type(obj)(**{**{name: getattr(obj, name) for name in obj._fields}, **changes})


def reduce_angle(theta) -> float:
    """Reduce an angle to [0, 2*pi), with 0.0 for -0.0 so that equal angles share their bits."""
    r = math.fmod(float(theta), TWO_PI) + 0.0
    if r < 0.0:
        r += TWO_PI
    return r if r < TWO_PI else 0.0  # -1e-151 + 2*pi rounds to 2*pi


class CylinderPoint(Record):
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


class DualPoint(Record):
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


class CylinderAuto(Record):
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
