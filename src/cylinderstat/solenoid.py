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

from dataclasses import dataclass
from fractions import Fraction

from .groups import DualPoint
from .independence import DualGrid, StatMatrix, independence_residual


class IncompatibleAutoError(ValueError):
    """A matrix entry does not act on the rational dual of the solenoid."""


@dataclass(frozen=True)
class BaseSequence:
    """Finite prefix of the defining sequence (a_0, a_1, ...), entries > 1."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(int(a) for a in self.entries)
        if not entries:
            raise ValueError("base sequence must be nonempty")
        if any(a <= 1 for a in entries):
            raise ValueError("all base entries must be > 1")
        object.__setattr__(self, "entries", entries)
        prods = []
        acc = 1
        for a in entries:
            acc *= a
            prods.append(acc)
        object.__setattr__(self, "_products", tuple(prods))

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
        object.__setattr__(self, "digits", tuple(int(d) for d in self.digits))

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
        total = 0
        weight = 1
        for d, a in zip(self.digits, base.entries):
            total += d * weight
            weight *= a
        return total


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
    q = Fraction(q)
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
        return cls(Fraction(q), depth)


@dataclass(frozen=True)
class SolenoidAuto:
    """Automorphism data (a, c, p) acting on H x Z as (r, n) -> (a*r + c*n, p*n)."""

    a: Fraction
    c: Fraction
    p: int

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "c", Fraction(self.c))
        if self.a == 0:
            raise ValueError("multiplier a must be nonzero")
        if self.p not in (1, -1):
            raise ValueError("p must be +1 or -1")

    def validate(self, base: BaseSequence, generator_depth: int = 6) -> None:
        """Check a, 1/a map the generators 1/(a_0..a_k), k <= generator_depth, into H.

        Sound but not complete: a failure is definitive only up to the stored
        prefix.  Raises IncompatibleAutoError naming the failing generator.
        """
        if ha_member(self.c, base) is None:
            raise IncompatibleAutoError(f"translation part {self.c} is not in the rational dual")
        top = min(generator_depth, len(base) - 1)
        for mult, tag in ((self.a, "a"), (1 / self.a, "1/a")):
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
                SolenoidAuto(entry.a, entry.c, entry.p).validate(base, generator_depth)
            except IncompatibleAutoError as exc:
                raise IncompatibleAutoError(f"entry ({i}, {j}): {exc}") from exc


def rational_dual_grid(base: BaseSequence, depth: int, n_slots: int,
                       n_values=(-2, -1, 0, 1, 2), cap: int = 100_000) -> DualGrid:
    """DualGrid of tuples whose s-coordinates are rationals of depth <= depth."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if depth >= len(base):
        raise ValueError(f"depth {depth} exceeds the stored base prefix")
    s_values = [Fraction(0), Fraction(1),
                Fraction(-1, base.product(0)),
                Fraction(1, base.product(depth // 2)),
                Fraction(-1, base.product(depth)),
                Fraction(3, base.product(depth))]
    # Deduplicate while keeping order (small bases can collide).
    seen = []
    for s in s_values:
        if s not in seen:
            seen.append(s)
    points = [DualPoint(s, n) for s in seen for n in n_values]
    return DualGrid(points, n_slots, cap=cap)


def pullback_residual(cfs, matrix: StatMatrix, base: BaseSequence, grid_depth: int,
                      generator_depth: int = None, cap: int = 100_000) -> float:
    """Independence residual over the rational dual of the solenoid.

    Validates that every matrix entry is compatible with the base sequence,
    then re-runs the functional equation on rational dual tuples.  Exact
    bundle parameters give an exactly-zero residual, certifying the equation
    on the rational grid.
    """
    if generator_depth is None:
        generator_depth = grid_depth
    validate_matrix(matrix, base, generator_depth)
    grid = rational_dual_grid(base, grid_depth, matrix.n, cap=cap)
    return independence_residual(cfs, matrix, grid=grid)
