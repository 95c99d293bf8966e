"""Exact checkers for independence of linear statistics in CF form.

Let xi_1..xi_n be independent with nonvanishing characteristic functions
cf_1..cf_n, and let L_i = sum_j m[i][j] xi_j with every entry a topological
automorphism.  The statistics are independent exactly when, for every tuple
(y_1, ..., y_n) of dual elements,

    prod_j cf_j( sum_i m[i][j]~ y_i )  =  prod_j prod_i cf_j( m[i][j]~ y_i )

where ~ denotes the adjoint (which shares the entry's matrix).  In log space,
with l_j(y) = -y^T A_j y + i*(linear in y) + twist_j*(1 - (-1)^n) and entries
acting on y = (s, n) as M = [[a, c], [0, p]], the two sides differ by

    -sum_{i<k} y_i^T C_ik y_k + 2*T*(odd(n_1 + ... + n_m) - #{i : n_i odd})

with C_ik = sum_j M_ij^T (2 A_j) M_kj and T = sum_j twist_j; the linear parts
cancel identically.  This certificate holds on all of R x Z, and on every
subgroup such as the rational dual of a solenoid, exactly when every C_ik
and T vanish.  `independence_residual` reports it with the largest |LHS_log - RHS_log|
over a `DualGrid`, an index space of dual tuples, and the earliest tuple attaining it;
the scan runs in exact integer arithmetic, so ties and rounding do not depend on the
order of summation.

The module also houses the exact real-coefficient condition suite for the
reduced three-statistic problem, the positive-variance solver, the full
parameter system for Gaussian bundles (read off the certificate's blocks),
the step-subgroup classifier that drives the finite-difference
cascade, and the degenerate-support certificate for the symmetrized
convolution.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from fractions import Fraction

from .charfn import CylinderCF, TorusCF, convolve, psd_gap, symmetrize
from .groups import CylinderAuto, DualPoint, Record, as_exact, as_rational, to_float


class SingularSystemError(ValueError):
    """A linear system whose unique-solution precondition fails."""


class DegenerateFormError(ValueError):
    """Statistic matrix outside the classifiable (nondegenerate) branch."""


# --------------------------------------------------------------------------
# Statistic matrices


class StatMatrix(Record):
    """n x n array of automorphisms; row i defines L_i = sum_j rows[i][j] xi_j."""

    rows: tuple

    def __post_init__(self):
        n = len(self.rows)
        if n < 2:
            raise ValueError("need at least two statistics")
        rows = tuple(tuple(row) for row in self.rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("statistic matrix must be square")
            for entry in row:
                if not isinstance(entry, CylinderAuto):
                    raise TypeError(f"entries must be CylinderAuto, got {type(entry).__name__}")
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> CylinderAuto:
        return self.rows[i][j]

    @classmethod
    def from_rows(cls, rows) -> "StatMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @classmethod
    def from_signs(cls, sign_rows) -> "StatMatrix":
        """Matrix of circle automorphisms z -> z^(+-1) from rows of +-1 signs."""
        return cls.from_rows(
            [[CylinderAuto.sign(s) for s in row] for row in sign_rows]
        )

    def is_sign_matrix(self) -> bool:
        return all(e.a == 1 and e.c == 0 for row in self.rows for e in row)

    def is_reduced(self) -> bool:
        """First row all identities and last column identities below the first row."""
        if not all(e.is_identity() for e in self.rows[0]):
            return False
        return all(self.rows[i][self.n - 1].is_identity() for i in range(1, self.n))


def reduced_coefficients(matrix: StatMatrix, check: bool = True):
    """(a1, a2, b1, b2, c1, c2, d1, d2, p1, p2, q1, q2) of a reduced 3x3 matrix.

    check=False reads the same entries of any 3x3 matrix.
    """
    if matrix.n != 3 or (check and not matrix.is_reduced()):
        raise ValueError("expected a reduced 3x3 statistic matrix")
    al1, al2 = matrix.entry(1, 0), matrix.entry(1, 1)
    be1, be2 = matrix.entry(2, 0), matrix.entry(2, 1)
    return (al1.a, al2.a, be1.a, be2.a,
            al1.c, al2.c, be1.c, be2.c,
            al1.p, al2.p, be1.p, be2.p)


# --------------------------------------------------------------------------
# Evaluation grids

DEFAULT_S = (Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0),
             Fraction(1, 2), Fraction(1), Fraction(2))
DENSE_S = (Fraction(-2), Fraction(-3, 2), Fraction(-1), Fraction(-3, 4),
           Fraction(-1, 2), Fraction(-1, 4), Fraction(0), Fraction(1, 4),
           Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(3, 2), Fraction(2))
DEFAULT_N = (-2, -1, 0, 1, 2)
DENSE_N = tuple(range(-4, 5))


def slot_points(kind: str = "cylinder", dense: bool = False):
    """The per-slot dual sample set: DualPoints for the cylinder, ints for the circle."""
    ns = DENSE_N if dense else DEFAULT_N
    if kind == "torus":
        return list(ns)
    ss = DENSE_S if dense else DEFAULT_S
    return [DualPoint(s, n) for s in ss for n in ns]


class DualGrid(Record):
    """Dual tuples over one point set as an index space: tuple k is computed when asked for.

    Tuple k holds the points named by the base-L digits of k*step % total, slot 0 the
    most significant (itertools.product order), where L = len(points), total = L**n_slots
    and the grid has min(total, cap) tuples.  step is 1 up to the cap, so the grid is the
    whole product; past it, step is the least integer >= total/cap coprime to total, so
    the tuples are distinct and spread over the product.  Every slot takes all L points
    whenever len >= L**2.  total and step are attributes, not fields: the fields fix them.
    """

    points: tuple
    n_slots: int
    cap: int = 100_000

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "total", len(self.points) ** self.n_slots)
        step = -(-self.total // self.cap)
        while math.gcd(step, self.total) != 1:
            step += 1
        object.__setattr__(self, "step", step)

    def __len__(self) -> int:
        return min(self.total, self.cap)

    def _digits(self, flat) -> list:
        """Per-slot point indices, slot 0 first, of a flat index."""
        base = len(self.points)
        return [flat // base ** j % base for j in range(self.n_slots - 1, -1, -1)]

    def __getitem__(self, k: int) -> tuple:
        # Iteration runs through here too, and ends at the IndexError.
        if not 0 <= k < len(self):
            raise IndexError(f"grid index {k} outside [0, {len(self)})")
        return tuple(self.points[d] for d in self._digits(k * self.step % self.total))


def default_grid(n_slots: int, kind: str = "cylinder", dense: bool = False,
                 cap: int = 100_000) -> DualGrid:
    return DualGrid(slot_points(kind, dense), n_slots, cap=cap)


# --------------------------------------------------------------------------
# The independence residual


def family_kind(cfs, matrix: StatMatrix) -> str:
    """The group the bundles live on, "cylinder" or "torus", checked against the matrix.

    Raises ValueError when the bundle count differs from the matrix size or
    circle bundles meet a non-sign matrix, TypeError for mixed bundle types.
    """
    n = matrix.n
    if len(cfs) != n:
        raise ValueError(f"need {n} characteristic functions, got {len(cfs)}")
    if all(isinstance(cf, CylinderCF) for cf in cfs):
        return "cylinder"
    if all(isinstance(cf, TorusCF) for cf in cfs):
        if not matrix.is_sign_matrix():
            raise ValueError("circle statistics require sign automorphisms (a=1, c=0)")
        return "torus"
    raise TypeError("characteristic functions must all be CylinderCF or all TorusCF")


def independence_blocks(cfs, matrix: StatMatrix):
    """The certificate ({(i, k): C_ik for i < k}, T) of the module docstring.

    Each C_ik is ((c00, c01), (c10, c11)), exact.  Every monomial of every
    entry has a positive coefficient once each sign p is +1.
    """
    family_kind(cfs, matrix)
    # A circle bundle enters as its s-free slice: A_j = [[0, 0], [0, sigma_j]].
    bundles = [cf.cylinder for cf in cfs]
    blocks = {}
    for i, k in itertools.combinations(range(matrix.n), 2):
        c00 = c01 = c10 = c11 = 0
        for b, e, f in zip(bundles, matrix.rows[i], matrix.rows[k]):
            c00 += 2 * b.sigma * e.a * f.a
            c01 += e.a * (2 * b.sigma * f.c + b.kappa * f.p)
            c10 += f.a * (2 * b.sigma * e.c + b.kappa * e.p)
            c11 += (2 * b.sigma * e.c * f.c + b.kappa * (e.c * f.p + e.p * f.c)
                    + 2 * b.lam * e.p * f.p)
        blocks[(i, k)] = ((c00, c01), (c10, c11))
    return blocks, sum(cf.twist for cf in cfs)


def nonzero_blocks(blocks) -> list:
    """The slot pairs (i, k) whose block C_ik has a nonzero entry."""
    return [pair for pair, (row0, row1) in blocks.items() if any((*row0, *row1))]


def _grid_maximum(blocks, twist_sum, grid: DualGrid, coords):
    """(the float nearest max |LHS_log - RHS_log| over the grid, or None past the float
    range, and the earliest index attaining it).

    Exact throughout: with d the common denominator of the points' s-coordinates and e
    that of the nonzero blocks and 2T, each nonzero C_ik becomes a table of the integers
    -d**2*e * y^T C_ik z over pairs of points, and the twist term an integer multiple of
    2T*d**2*e.  The grid is walked in its own order, one row per run of tuples that share
    every slot but the last two.
    """
    pts = [tuple(as_exact(v) for v in coords(y)) for y in grid.points]
    live = {pair: blocks[pair] for pair in nonzero_blocks(blocks)}
    d = math.lcm(*(s.denominator for s, _ in pts))
    e = math.lcm((2 * twist_sum).denominator,
                 *(c.denominator for rows in live.values() for row in rows for c in row))
    pts = [(int(s * d), n) for s, n in pts]
    tables = {}
    for pair, ((c00, c01), (c10, c11)) in live.items():
        k00, k01, k10, k11 = (int(c) for c in (e * c00, e * d * c01, e * d * c10,
                                                e * d * d * c11))
        u = [(k00 * s + k01 * n, k10 * s + k11 * n) for s, n in pts]
        tables[pair] = [[-(s * u0 + n * u1) for u0, u1 in u] for s, n in pts]
    tw = int(2 * twist_sum * e * d * d)
    odd = [n % 2 for _, n in pts]
    m, size, base, step = grid.n_slots, len(grid), len(grid.points), grid.step
    # The last two slots read as one index r < base**2, slot m-2 at hi[r] and slot m-1 at
    # lo[r], so the tuples that share every other slot are one arithmetic run of r.
    width = base * base
    hi, lo = [r // base for r in range(width)], [r % base for r in range(width)]
    t = tables.get((m - 2, m - 1))
    block = [t[h][l] for h, l in zip(hi, lo)] if t else [0] * width
    # That block plus the twist term, less its -tw*p part, after p odd slots before them.
    inner = [[v + tw * ((p + odd[h] + odd[l]) % 2 - odd[h] - odd[l])
              for v, h, l in zip(block, hi, lo)] for p in (0, 1)]
    head = [(i, j, t) for (i, j), t in tables.items() if j < m - 2]
    tail = [(i, t, hi if j == m - 2 else lo) for (i, j), t in tables.items() if i < m - 2 <= j]
    weights = [base ** j for j in range(m - 3, -1, -1)]
    best, best_idx, k = -1, 0, 0
    while k < size:
        prefix, r = divmod(k * step % grid.total, width)
        a = [prefix // w % base for w in weights]
        run = slice(r, min(width, r + (size - k) * step), step)
        p = sum(map(odd.__getitem__, a))
        const = sum(t[a[i]][a[j]] for i, j, t in head) - tw * p
        values = list(map(sum, zip(inner[p % 2][run],
                                   *(map(t[a[i]].__getitem__, at[run]) for i, t, at in tail))))
        top = max(const + max(values), -const - min(values))
        if top > best:
            best = top
            best_idx = k + next(j for j, v in enumerate(values) if abs(const + v) == top)
        k += len(values)
    try:
        return best / (d * d * e), best_idx  # int / int rounds correctly
    except OverflowError:
        return None, best_idx


def independence_residual(cfs, matrix: StatMatrix, grid: DualGrid = None, workers: int = 1,
                          return_worst: bool = False):
    """Max deviation of the independence functional equation over a DualGrid.

    The verdict is the certificate of `independence_blocks`: when it is zero
    the residual is exactly 0.0 on the whole dual group and the worst tuple
    is grid[0], the only tuple computed.  Otherwise the result is the
    largest modulus of the closed form over the grid, found exactly in
    integers and rounded once to the nearest float, and the earliest tuple
    attaining that exact maximum; a maximum past the float range is None.
    `workers` is accepted for compatibility and has no effect.
    """
    kind = family_kind(cfs, matrix)
    if grid is None:
        grid = default_grid(matrix.n, kind)
    if not isinstance(grid, DualGrid):
        raise TypeError(f"grid must be a DualGrid, got {type(grid).__name__}")
    if not grid:
        raise ValueError("empty evaluation grid")
    if grid.n_slots != matrix.n:
        raise ValueError(f"grid of {grid.n_slots} slots for {matrix.n} statistics")
    blocks, twist_sum = independence_blocks(cfs, matrix)
    if not nonzero_blocks(blocks) and twist_sum == 0:
        best, best_idx = 0.0, 0
    else:
        coords = (lambda y: (0, y)) if kind == "torus" else (lambda y: (y.s, y.n))
        best, best_idx = _grid_maximum(blocks, twist_sum, grid, coords)
    return (best, grid[best_idx]) if return_worst else best


# --------------------------------------------------------------------------
# Exact condition suite for the reduced real-line coefficients

SIGN_TABLE = (
    (1, -1, -1, 1),
    (1, -1, -1, -1),
    (-1, 1, 1, -1),
    (-1, 1, -1, -1),
    (-1, -1, 1, -1),
    (-1, -1, -1, 1),
)


def _as_fraction(x, name: str) -> Fraction:
    """x read by `as_rational`, as a Fraction; a float is refused, not read exactly."""
    if isinstance(x, float):
        raise TypeError(f"{name} must be an exact rational (int, Fraction, or 'p/q' string)")
    return Fraction(as_rational(x))


def cubic_identity(a1, a2, b1, b2):
    """The determinant condition tying the two coefficient rows together.

    Vanishes exactly when the three variance equations admit a common
    nontrivial solution; equals
    a1*b2 - a1*a2*b2 - a1*b1*b2 - a2*b1 + a1*a2*b1 + a2*b1*b2.
    """
    return (a1 * b2 - a1 * a2 * b2 - a1 * b1 * b2
            - a2 * b1 + a1 * a2 * b1 + a2 * b1 * b2)


class ConditionReport(Record):
    """Exact findings for a reduced coefficient tuple (a1, a2, b1, b2)."""

    cubic: Fraction
    sign_row: int | None
    distinct_a: bool
    distinct_b: bool
    cross_det: Fraction
    corner_det: Fraction

    @property
    def all_pass(self) -> bool:
        return (self.cubic == 0 and self.sign_row is not None
                and self.distinct_a and self.distinct_b
                and self.cross_det != 0 and self.corner_det != 0)


def coefficient_conditions(a1, a2, b1, b2) -> ConditionReport:
    """Evaluate the five necessary conditions on nonzero reduced coefficients.

    All arithmetic is exact.  The sign row is the 1-based index into the
    admissible sign table, or None when the sign pattern cannot support
    positive variances.
    """
    a1, a2, b1, b2 = (_as_fraction(v, n) for v, n in
                      ((a1, "a1"), (a2, "a2"), (b1, "b1"), (b2, "b2")))
    if 0 in (a1, a2, b1, b2):
        raise ValueError("all four coefficients must be nonzero")
    signs = tuple(1 if v > 0 else -1 for v in (a1, a2, b1, b2))
    sign_row = SIGN_TABLE.index(signs) + 1 if signs in SIGN_TABLE else None
    return ConditionReport(
        cubic=cubic_identity(a1, a2, b1, b2),
        sign_row=sign_row,
        distinct_a=a1 != a2,
        distinct_b=b1 != b2,
        cross_det=a2 * b1 - a1 * b2,
        corner_det=(a1 - 1) * (b2 - 1) - (a2 - 1) * (b1 - 1),
    )


def solve_sigmas(a1, a2, b1, b2):
    """Positive solution (sigma1, sigma2, sigma3) of the variance system, sigma3 = 1.

    Solves the first two equations by elimination and verifies the third one
    exactly; returns None when the third equation fails or any component is
    not strictly positive.  Raises SingularSystemError when the cross
    determinant a2*b1 - a1*b2 vanishes.
    """
    a1, a2, b1, b2 = (_as_fraction(v, n) for v, n in
                      ((a1, "a1"), (a2, "a2"), (b1, "b1"), (b2, "b2")))
    cross = a2 * b1 - a1 * b2
    if cross == 0:
        raise SingularSystemError("cross determinant a2*b1 - a1*b2 is zero")
    s1 = (b2 - a2) / cross
    s2 = (a1 - b1) / cross
    s3 = Fraction(1)
    if s1 * a1 * b1 + s2 * a2 * b2 + s3 != 0:
        return None
    if s1 <= 0 or s2 <= 0:
        return None
    return (s1, s2, s3)


# --------------------------------------------------------------------------
# Full parameter system for twist-free cylinder triples


def gaussian_system_check(cfs, matrix: StatMatrix):
    """The parameter system the functional equation imposes, read off the certificate.

    Requires a reduced 3x3 matrix and twist-free cylinder bundles.  Each named
    identity is an entry of a block C_ik of `independence_blocks`:
    "sigma-a", "sigma-b", "sigma-ab" are half of c00 of C_01, C_02, C_12;
    "kappa-a", "kappa-b" are c10 of C_01, C_02; "shift-c", "shift-d",
    "shift-ad" are c01 of C_01, C_02, C_12 and "shift-bc" is c10 of C_12.
    The c11 entries pair the integer coordinates, and "n-grid" is the worst
    value of n1*n2*C_01[1][1] + n1*n3*C_02[1][1] + n2*n3*C_12[1][1] over the
    cube {-2..2}^3.  Returns a dict of absolute residuals, each None past the float
    range; everything is zero exactly when the bundles satisfy the independence equation.
    """
    if len(cfs) != 3 or not all(isinstance(cf, CylinderCF) for cf in cfs):
        raise ValueError("expected three cylinder characteristic functions")
    if any(cf.twist != 0 for cf in cfs):
        raise ValueError("the parameter system applies to twist-free bundles only")
    if matrix.n != 3 or not matrix.is_reduced():
        raise ValueError("expected a reduced 3x3 statistic matrix")
    blocks, _ = independence_blocks(cfs, matrix)
    (a00, a01), (a10, a11) = blocks[(0, 1)]
    (b00, b01), (b10, b11) = blocks[(0, 2)]
    (x00, x01), (x10, x11) = blocks[(1, 2)]
    residuals = {
        "sigma-a": a00 / 2, "sigma-b": b00 / 2, "sigma-ab": x00 / 2,
        "kappa-a": a10, "kappa-b": b10,
        "shift-c": a01, "shift-d": b01, "shift-ad": x01, "shift-bc": x10,
    }
    # Affine in each n_i, so its largest modulus on {-2..2}^3 sits on the corners {+-2}^3.
    residuals["n-grid"] = max((n1 * n2 * a11 + n1 * n3 * b11 + n2 * n3 * x11
                               for n1, n2, n3 in itertools.product((-2, 2), repeat=3)),
                              key=abs)
    return {name: to_float(abs(value)) for name, value in residuals.items()}


# --------------------------------------------------------------------------
# Step-subgroup classifier


class SubgroupTag(str, Enum):
    """The two dual subgroups that can arise as difference ranges."""

    REAL_AXIS = "real-axis"   # R x {0}
    DOUBLED = "doubled"       # {2y} = R x 2Z

    def contains(self, y: DualPoint) -> bool:
        if self is SubgroupTag.REAL_AXIS:
            return y.n == 0
        return y.n % 2 == 0

    def step_units(self):
        """Representative difference steps, as (s-units, n) pairs inside the subgroup."""
        if self is SubgroupTag.REAL_AXIS:
            return ((1, 0), (2, 0))
        return ((1, 2), (2, -2), (0, 2))


_CASE_TABLE = {
    (SubgroupTag.REAL_AXIS, SubgroupTag.REAL_AXIS, SubgroupTag.REAL_AXIS): 1,
    (SubgroupTag.REAL_AXIS, SubgroupTag.DOUBLED, SubgroupTag.DOUBLED): 2,
    (SubgroupTag.DOUBLED, SubgroupTag.REAL_AXIS, SubgroupTag.DOUBLED): 3,
    (SubgroupTag.DOUBLED, SubgroupTag.DOUBLED, SubgroupTag.REAL_AXIS): 4,
    (SubgroupTag.DOUBLED, SubgroupTag.DOUBLED, SubgroupTag.DOUBLED): 5,
}


class StepSubgroups(Record):
    """Difference-range subgroups attached to the two nontrivial columns.

    col1 is generated by (entry - I) over the first column, col2 over the
    second, and cross by the differences between the two columns' rows.
    """

    col1: SubgroupTag
    col2: SubgroupTag
    cross: SubgroupTag

    def case_index(self) -> int:
        key = (self.col1, self.col2, self.cross)
        if key not in _CASE_TABLE:
            raise DegenerateFormError(f"subgroup combination {key} is not realizable")
        return _CASE_TABLE[key]

    def as_tuple(self):
        return (self.col1, self.col2, self.cross)


def classify_step_subgroups(matrix: StatMatrix) -> StepSubgroups:
    """Classify the three difference-range subgroups of a reduced 3x3 matrix.

    Each is either the real axis R x {0} or the doubled subgroup R x 2Z.  The
    degenerate situations in which a range fails to be one of the two (both
    multipliers of a column equal to 1, or both columns sharing multipliers)
    raise DegenerateFormError.
    """
    a1, a2, b1, b2, _c1, _c2, _d1, _d2, p1, p2, q1, q2 = reduced_coefficients(matrix)
    if a1 == 1 and b1 == 1:
        raise DegenerateFormError("column-1 condition violated: a1 = b1 = 1")
    if a2 == 1 and b2 == 1:
        raise DegenerateFormError("column-2 condition violated: a2 = b2 = 1")
    if a1 == a2 and b1 == b2:
        raise DegenerateFormError("columns share both multipliers: a1 = a2 and b1 = b2")
    col1 = SubgroupTag.REAL_AXIS if (p1 == 1 and q1 == 1) else SubgroupTag.DOUBLED
    col2 = SubgroupTag.REAL_AXIS if (p2 == 1 and q2 == 1) else SubgroupTag.DOUBLED
    cross = SubgroupTag.REAL_AXIS if (p1 == p2 and q1 == q2) else SubgroupTag.DOUBLED
    tags = StepSubgroups(col1, col2, cross)
    tags.case_index()
    return tags


# --------------------------------------------------------------------------
# Support certificate for the symmetrized convolution


def support_identity_gap(a1, a2, b1, b2, positive: bool = False) -> Fraction:
    """Exact gap of the quartic support identity; zero whenever the cubic identity holds.

    (a2*b1 - a1*b2) * ((1-b2)*(1-a2)*(a1-b1) + (1-b1)*(1-a1)*(b2-a2))
        + (b2-b1)*(a2-a1)*(a1-b1)*(b2-a2)

    positive=True turns each difference into a sum, which on nonnegative inputs
    dominates the gap's polynomial with every coefficient made positive.
    """
    a1, a2, b1, b2 = (as_exact(v) for v in (a1, a2, b1, b2))
    s = 1 if positive else -1  # the sign of every subtracted term
    lhs = (a2 * b1 + s * a1 * b2) * ((1 + s * b2) * (1 + s * a2) * (a1 + s * b1)
                                     + (1 + s * b1) * (1 + s * a1) * (b2 + s * a2))
    return lhs + (b2 + s * b1) * (a2 + s * a1) * (a1 + s * b1) * (b2 + s * a2)


def symmetrized_convolution(cfs) -> CylinderCF:
    """CF of the convolution of the symmetrizations of the given bundles."""
    out = None
    for cf in cfs:
        sym = symmetrize(cf)
        out = sym if out is None else convolve(out, sym)
    return out


def nu_support_check(cfs, matrix: StatMatrix) -> bool:
    """Certify that the symmetrized convolution degenerates onto a line.

    Checks 4*sigma*lam = kappa^2 for the symmetrized convolution (so its
    support is a one-parameter subgroup) and, independently, the exact quartic
    identity on the matrix multipliers that makes the degeneration automatic.
    """
    return (psd_gap(symmetrized_convolution(cfs)) == 0
            and support_identity_gap(*reduced_coefficients(matrix)[:4]) == 0)

