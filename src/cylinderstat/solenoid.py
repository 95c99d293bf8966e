"""Exact arithmetic for a-adic integers and the rational dual of a solenoid.

Fix a base sequence (a_0, a_1, ...) of integers > 1 (stored as a finite
prefix, the working precision).  The a-adic integers are digit sequences
x_k in [0, a_k) added with carries:

    x_0 + y_0 = t_0*a_0 + z_0,   x_{k+1} + y_{k+1} + t_k = t_{k+1}*a_{k+1} + z_{k+1}

with every carry t_k in {0, 1}.  The dual of the corresponding solenoid is
the rational group H = { m / (a_0*a_1*...*a_k) } with the discrete topology;
its elements embed in R as plain rationals, so cylinder characteristic
functions restrict to H x Z by evaluation at exact rational points.  That
restriction is what `pullback_residual` certifies: the independence
functional equation, re-run on a grid of rational dual tuples.

Automorphism multipliers of H are only partially decidable from a finite
prefix; the shipped check is sound (it verifies that a and 1/a map the
generators 1/(a_0...a_k) into H up to the requested depth) but not complete
for pathological bases.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .groups import CylinderAuto, DualPoint, as_exact, as_int
from .independence import DEFAULT_N, DualGrid, StatMatrix, independence_residual


class IncompatibleAutoError(ValueError):
    """A matrix entry does not act on the rational dual of the solenoid."""


@dataclass(frozen=True)
class BaseSequence:
    """Finite prefix of the defining sequence (a_0, a_1, ...), entries > 1."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(as_int(a) for a in self.entries)
        if not entries:
            raise ValueError("base sequence must be nonempty")
        if any(a <= 1 for a in entries):
            raise ValueError("all base entries must be > 1")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_products", tuple(accumulate(entries, operator.mul)))

    def __len__(self) -> int:
        return len(self.entries)

    def product(self, depth: int) -> int:
        """a_0 * a_1 * ... * a_depth."""
        return self._products[depth]

    @classmethod
    def counting(cls, length: int, start: int = 2) -> "BaseSequence":
        """The base (start, start+1, start+2, ...) of the given length."""
        return cls(tuple(range(start, start + length)))

    @classmethod
    def constant(cls, value: int, length: int) -> "BaseSequence":
        return cls((value,) * length)


@dataclass(frozen=True)
class AdicInteger:
    """Digit sequence of an a-adic integer, truncated at the working precision."""

    digits: tuple

    def __post_init__(self):
        object.__setattr__(self, "digits", tuple(as_int(d) for d in self.digits))

    def validate(self, base: BaseSequence) -> None:
        if len(self.digits) != len(base):
            raise ValueError(f"expected {len(base)} digits, got {len(self.digits)}")
        for k, (d, a) in enumerate(zip(self.digits, base.entries)):
            if not 0 <= d < a:
                raise ValueError(f"digit {d} out of range [0, {a}) at position {k}")

    @classmethod
    def zero(cls, base: BaseSequence) -> "AdicInteger":
        return cls((0,) * len(base))

    @classmethod
    def from_int(cls, value: int, base: BaseSequence) -> "AdicInteger":
        """Digits of a nonnegative integer, truncated at the precision."""
        if value < 0:
            raise ValueError("from_int expects a nonnegative integer")
        digits = []
        for a in base.entries:
            value, d = divmod(value, a)
            digits.append(d)
        return cls(tuple(digits))

    def to_int(self, base: BaseSequence) -> int:
        """The integer sum(d_k * a_0*...*a_{k-1}), i.e. the value mod the full product."""
        return sum(d * w for d, w in zip(self.digits, (1, *base._products)))


def adic_add_carries(x: AdicInteger, y: AdicInteger, base: BaseSequence):
    """Digitwise sum with the carry recurrence; returns (sum, carries)."""
    x.validate(base)
    y.validate(base)
    digits = []
    carries = []
    t = 0
    for xd, yd, a in zip(x.digits, y.digits, base.entries):
        t, z = divmod(xd + yd + t, a)
        if t not in (0, 1):
            raise AssertionError("carry left {0, 1}")
        digits.append(z)
        carries.append(t)
    return AdicInteger(tuple(digits)), tuple(carries)


def adic_add(x: AdicInteger, y: AdicInteger, base: BaseSequence) -> AdicInteger:
    return adic_add_carries(x, y, base)[0]


def ha_member(q, base: BaseSequence, depth_limit: int = None):
    """Smallest depth k with denominator(q) | a_0*...*a_k, or None.

    Membership in the rational dual is witnessed by such a depth; the search
    is capped by depth_limit and by the stored prefix length.
    """
    q = as_exact(q)
    last = len(base) - 1 if depth_limit is None else min(depth_limit, len(base) - 1)
    den = q.denominator
    if den == 1:
        return 0
    for k in range(last + 1):
        if base.product(k) % den == 0:
            return k
    return None


@dataclass(frozen=True)
class HaRational:
    """An element of the rational dual together with its membership witness depth."""

    value: Fraction
    depth: int

    @classmethod
    def locate(cls, q, base: BaseSequence, depth_limit: int = None):
        depth = ha_member(q, base, depth_limit)
        if depth is None:
            return None
        return cls(as_exact(q), depth)


def validate_auto(e: CylinderAuto, base: BaseSequence, generator_depth: int = 6) -> None:
    """Check that e acts on H x Z as (r, n) -> (a*r + c*n, p*n): c lies in H, and a and
    1/a map the generators 1/(a_0..a_k), k <= generator_depth, into H.

    Sound but not complete: a failure is definitive only up to the stored
    prefix.  Raises IncompatibleAutoError naming the failing generator.
    """
    if ha_member(e.c, base) is None:
        raise IncompatibleAutoError(f"translation part {e.c} is not in the rational dual")
    top = min(generator_depth, len(base) - 1)
    for mult, tag in ((e.a, "a"), (Fraction(1, e.a), "1/a")):
        for k in range(top + 1):
            g = Fraction(1, base.product(k))
            if ha_member(mult * g, base) is None:
                raise IncompatibleAutoError(
                    f"multiplier {tag} = {mult} maps generator 1/{base.product(k)} "
                    f"outside the rational dual"
                )


def validate_matrix(matrix: StatMatrix, base: BaseSequence, generator_depth: int = 6) -> None:
    """Check every entry of a statistic matrix acts on the rational dual."""
    for i, row in enumerate(matrix.rows):
        for j, entry in enumerate(row):
            try:
                validate_auto(entry, base, generator_depth)
            except IncompatibleAutoError as exc:
                raise IncompatibleAutoError(f"entry ({i}, {j}): {exc}") from exc


def rational_dual_grid(base: BaseSequence, depth: int, n_slots: int,
                       cap: int = 100_000) -> DualGrid:
    """DualGrid of tuples whose s-coordinates are rationals of depth <= depth."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if depth >= len(base):
        raise ValueError(f"depth {depth} exceeds the stored base prefix")
    # dict.fromkeys drops the values that small bases make collide, keeping the order.
    s_values = dict.fromkeys([Fraction(0), Fraction(1),
                              Fraction(-1, base.product(0)),
                              Fraction(1, base.product(depth // 2)),
                              Fraction(-1, base.product(depth)),
                              Fraction(3, base.product(depth))])
    return DualGrid([DualPoint(s, n) for s in s_values for n in DEFAULT_N], n_slots, cap=cap)


def pullback_residual(cfs, matrix: StatMatrix, base: BaseSequence, grid_depth: int) -> float:
    """Independence residual over the rational dual of the solenoid.

    Validates that every matrix entry maps the generators of depth <= grid_depth
    into the rational dual, then re-runs the functional equation on rational dual
    tuples.  Exact bundle parameters give an exactly-zero residual, certifying the
    equation on the rational grid.
    """
    validate_matrix(matrix, base, grid_depth)
    return independence_residual(cfs, matrix, grid=rational_dual_grid(base, grid_depth, matrix.n))
