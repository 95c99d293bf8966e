"""Finite differences of grid-sampled functions on R x Z, in exact arithmetic.

Functions live on a uniform s-grid times a contiguous integer n-range.  The
difference operator with step h is (D_h f)(y) = f(y + h) - f(y), with h
restricted to grid steps; iterating it shrinks the domain, so verifications
happen on the interior of the sampled window.

Samples are held exactly, as integer numerators over one common denominator
(a float sample is the dyadic rational it is), so a difference is an integer
subtraction: it cannot overflow or round, and a verdict compares exact values
with the tolerance.  Numpy is imported only to build the array views that
library callers read (`GridFunction.values`, `ProfileFit.kappa`, ...).

The two structural facts used downstream: a function killed by D_h^{d+1} for
every step behaves as a polynomial of degree <= d on the grid, and an even
real function with vanishing third s-differences per integer level is
sigma*s^2 + kappa(n)*s + lambda(n) with a level-independent leading
coefficient, odd kappa and even lambda.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .groups import DualPoint, as_exact, as_rational
from .independence import StatMatrix, StepSubgroups, classify_step_subgroups


class OffGridError(ValueError):
    """A difference step that is not an integer combination of grid steps."""


class ProfileError(ValueError):
    """Sampled function is not of the shared-quadratic-profile form."""


def check_tol(tol) -> None:
    """Raise ValueError unless `tol` is a finite number >= 0.

    A NaN tolerance would make every `gap > tol` false and pass any grid.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")


def _array(data):
    """`data` as a numpy array: the one place this module imports numpy."""
    import numpy as np

    return np.array(data)


def _exceeds(num: int, den: int, bound) -> bool:
    """Whether num / den > bound, exactly, for a finite number `bound`."""
    bound = Fraction(bound)
    return num * bound.denominator > bound.numerator * den


def _sci(value: Fraction) -> str:
    """`f"{value:.3e}"` for an exact value >= 0, also beyond the float range."""
    try:
        return f"{float(value):.3e}"
    except OverflowError:
        from decimal import Decimal

        return f"{Decimal(value.numerator) / value.denominator:.3e}"


def _ratio(value) -> tuple[int, int]:
    """An exact sample as (numerator, denominator); a float's without a Fraction."""
    if type(value) is float:
        return value.as_integer_ratio()
    value = as_rational(value)
    return value.numerator, value.denominator


def _max_abs(rows) -> int:
    return max(abs(v) for row in rows for v in row)


class GridFunction:
    """Samples of f(s, n) on a uniform s-grid times a contiguous n-range, held exactly.

    The sample at (s_start + i*s_step, n_start + k) is (re[i][k] + 1j*im[i][k]) / den:
    integer numerators over one common denominator, with `im` None for a real
    function.  `values` (shape (len(s-grid), len(n-grid))), `s_values` and
    `n_values` are numpy arrays of floats, built on first access.  `values` may be
    a 2-D numpy array or nested sequences of ints, Fractions, "p/q" strings,
    floats and complex numbers.
    """

    def __init__(self, s_start, s_step, n_start, values):
        rows = values.tolist() if hasattr(values, "tolist") else values
        if not (isinstance(rows, (list, tuple)) and rows
                and all(isinstance(row, (list, tuple)) and row and len(row) == len(rows[0])
                        for row in rows)):
            raise ValueError("values must be a nonempty 2-D array")
        re = [[v.real if isinstance(v, complex) else v for v in row] for row in rows]
        im = ([[v.imag for v in row] for row in rows]
              if any(isinstance(v, complex) for row in rows for v in row) else None)
        self._fill(as_exact(s_start), as_exact(s_step), operator.index(n_start), re, im)

    def _fill(self, s_start, s_step, n_start, re, im) -> None:
        """Set the grid from its sample parts: exact numbers, or floats that are not finite."""
        if s_step <= 0:
            raise ValueError("s_step must be positive")
        parts = [re] if im is None else [re, im]
        try:
            ratios = [[[_ratio(v) for v in row] for row in rows] for rows in parts]
        except (ValueError, OverflowError):
            for rows in parts:
                for i, row in enumerate(rows):
                    for k, v in enumerate(row):
                        if isinstance(v, float) and not math.isfinite(v):
                            raise ValueError(
                                f"grid value at (s, n) = ({float(s_start + i * s_step)!r}, "
                                f"{n_start + k}) is not finite: {v}") from None
            raise
        den = math.lcm(*(q for rows in ratios for row in rows for _, q in row))
        re, *im = [[[p * (den // q) for p, q in row] for row in rows] for rows in ratios]
        self.s_start, self.s_step, self.n_start = s_start, s_step, n_start
        self.den, self.re = den, re
        self.im = im[0] if im and any(v for row in im[0] for v in row) else None

    @classmethod
    def _exact(cls, s_start, s_step, n_start, den, re, im) -> "GridFunction":
        f = cls.__new__(cls)
        f.s_start, f.s_step, f.n_start, f.den, f.re, f.im = s_start, s_step, n_start, den, re, im
        return f

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.re), len(self.re[0])

    @cached_property
    def values(self):
        d = self.den
        if self.im is None:
            return _array([[a / d for a in row] for row in self.re])
        return _array([[complex(a / d, b / d) for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.re, self.im)])

    @cached_property
    def s_values(self):
        return _array([float(self.s_start + i * self.s_step) for i in range(self.shape[0])])

    @cached_property
    def n_values(self):
        return _array(range(self.n_start, self.n_start + self.shape[1]))

    @classmethod
    def sample(cls, fn, s_values, n_values) -> "GridFunction":
        """fn(s, n) at every grid point, s passed as a float and n as an int."""
        s_values = list(s_values)
        n_values = [int(n) for n in n_values]
        axes = _axes([as_exact(s) for s in s_values], n_values, 1e-12)
        return cls(*axes, [[fn(float(s), n) for n in n_values] for s in s_values])

    def step_units(self, h) -> tuple[int, int]:
        """Convert a step (DualPoint or (ds, dn) pair) to integer grid units."""
        if isinstance(h, DualPoint):
            ds, dn = as_exact(h.s), h.n
        else:
            ds, dn = as_exact(h[0]), int(h[1])
        j = round(ds / self.s_step)
        if abs(j * self.s_step - ds) > 1e-9 * max(1, abs(ds)):
            raise OffGridError(f"s-step {float(ds)} is not a multiple of the grid step "
                               f"{float(self.s_step)}")
        return j, dn


def _axes(s_values: list, n_values: list, atol: float):
    """(s_start, s_step, n_start) of exact s-values uniform within atol and contiguous n-values."""
    steps = [b - a for a, b in zip(s_values, s_values[1:])]
    if any(abs(step - steps[0]) > atol for step in steps):
        raise ValueError("s-grid must be uniform")
    if any(b - a != 1 for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n-grid must be contiguous")
    return s_values[0], steps[0] if steps else 1, n_values[0]


def default_s_grid() -> list:
    """s from -5 to 5 in steps of 1/4, as floats."""
    return [i / 4 for i in range(-20, 21)]


def default_n_grid() -> list:
    return list(range(-6, 7))


def _shift_slices(length: int, d: int):
    if d >= 0:
        return slice(d, length), slice(0, length - d)
    return slice(0, length + d), slice(-d, length)


def _delta(f: GridFunction, j: int, k: int) -> GridFunction:
    """The difference with step (j s-units, k)."""
    S, N = f.shape
    if abs(j) >= S or abs(k) >= N:
        raise OffGridError(f"step ({j} s-units, {k}) exhausts the {S}x{N} domain")
    (s_hi, s_lo), (n_hi, n_lo) = _shift_slices(S, j), _shift_slices(N, k)

    def diff(rows):
        return [[a - b for a, b in zip(hi[n_hi], lo[n_lo])]
                for hi, lo in zip(rows[s_hi], rows[s_lo])]

    return GridFunction._exact(f.s_start + max(-j, 0) * f.s_step, f.s_step,
                               f.n_start + max(-k, 0), f.den, diff(f.re),
                               None if f.im is None else diff(f.im))


def delta(f: GridFunction, h) -> GridFunction:
    """Difference with step h; the domain shrinks by the step in each direction."""
    return _delta(f, *f.step_units(h))


def _peak(f: GridFunction) -> tuple[int, int]:
    """The numerators (|re|, |im|) over f.den of a sample of largest modulus."""
    if f.im is None:
        return _max_abs(f.re), 0
    return max(((abs(a), abs(b)) for ra, rb in zip(f.re, f.im) for a, b in zip(ra, rb)),
               key=_norm2)


def _norm2(peak: tuple[int, int]) -> int:
    return peak[0] * peak[0] + peak[1] * peak[1]


DEGREE_TEST_STEPS = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1))


def polynomial_degree(f: GridFunction, max_deg: int = 6, tol: float = 1e-9):
    """Smallest d with all (d+1)-fold differences at most tol, or None.

    Steps are drawn from a small representative set including diagonals so
    that mixed terms raise the detected degree.  Raises when the grid is too
    small to apply max_deg + 1 differences of some test step.
    """
    check_tol(tol)
    if max_deg < 0:
        raise ValueError(f"max_deg must be >= 0, got {max_deg!r}")
    S, N = f.shape
    for j, k in DEGREE_TEST_STEPS:
        if abs(j) * (max_deg + 1) >= S or abs(k) * (max_deg + 1) >= N:
            raise ValueError("grid too small for the requested degree bound")
    # current[step] holds the (d+1)-fold difference with that step.
    current = dict.fromkeys(DEGREE_TEST_STEPS, f)
    for d in range(max_deg + 1):
        current = {step: _delta(g, *step) for step, g in current.items()}
        if not any(_exceeds(_norm2(_peak(g)), f.den ** 2, Fraction(tol) ** 2)
                   for g in current.values()):
            return d
    return None


@dataclass(frozen=True)
class ProfileFit:
    """Result of the shared-quadratic-profile fit f = sigma*s^2 + kappa(n)*s + lambda(n).

    The fit is exact: level n = n_start + k has the linear and constant
    coefficients exact_kappa[k] and exact_lam[k], and exact_sigma is the mean of
    the levels' leading coefficients.  `sigma` is exact_sigma as a float;
    `n_values`, `kappa` and `lam` are numpy arrays of floats, built on first access.
    """

    exact_sigma: Fraction
    n_start: int
    exact_kappa: tuple
    exact_lam: tuple

    @property
    def sigma(self) -> float:
        return float(self.exact_sigma)

    @property
    def levels(self) -> range:
        return range(self.n_start, self.n_start + len(self.exact_kappa))

    @cached_property
    def n_values(self):
        return _array(self.levels)

    @cached_property
    def kappa(self):
        return _array([float(v) for v in self.exact_kappa])

    @cached_property
    def lam(self):
        return _array([float(v) for v in self.exact_lam])

    def evaluate(self, s, n: int) -> float:
        i = int(n - self.n_start)
        return self.sigma * s * s + float(self.exact_kappa[i]) * s + float(self.exact_lam[i])


def fit_quadratic_profile(f: GridFunction, tol: float = 1e-9) -> ProfileFit:
    """Fit f(s, n) = sigma*s^2 + kappa(n)*s + lambda(n) with shared sigma, exactly.

    Requires a real even function (f(-y) = f(y)) on a symmetric grid of at least
    three s-values whose third s-differences vanish per level.  Each level's
    quadratic passes through its samples at the first, middle and last s, and
    must meet every other sample.  kappa must come out odd and lambda even;
    lambda is otherwise unconstrained.  Every requirement is checked exactly,
    up to tol times the largest |f| (at least 1); raises ProfileError when one fails.
    """
    check_tol(tol)
    den = f.den
    if f.im is not None and _exceeds(_max_abs(f.im), den, tol):
        raise ProfileError("function is not real-valued")
    v = f.re
    S, N = f.shape
    bound = Fraction(tol) * max(1, Fraction(_max_abs(v), den))

    s0, h = f.s_start, f.s_step
    if not (abs(2 * s0 + (S - 1) * h) <= 1e-9 and f.n_start == -(f.n_start + N - 1)):
        raise ProfileError("grid is not symmetric about the origin")
    even_gap = max(abs(a - b) for row, mirror in zip(v, reversed(v))
                   for a, b in zip(row, reversed(mirror)))
    if _exceeds(even_gap, den, bound):
        raise ProfileError(f"function is not even: max |f(y) - f(-y)| = "
                           f"{_sci(Fraction(even_gap, den))}")

    third_gap = max((abs(d - 3 * c + 3 * b - a)
                     for rows in zip(v, v[1:], v[2:], v[3:]) for a, b, c, d in zip(*rows)),
                    default=0)
    if _exceeds(third_gap, den, bound):
        raise ProfileError(f"third s-differences do not vanish: {_sci(Fraction(third_gap, den))}")
    if S < 3:
        raise ProfileError(f"a quadratic in s needs at least three s-values, got {S}")

    # Per level, in the index x = (s - s0)/h: D*p(x) = alpha*x^2 + beta*x + gamma is
    # D times the quadratic through x = 0, m, L, with D = m*L*(L - m).
    m, L = (S - 1) // 2, S - 1
    D = m * L * (L - m)
    coeffs = []
    for v0, v1, v2 in zip(v[0], v[m], v[L]):
        alpha = v0 * (L - m) - v1 * L + v2 * m
        beta = -v0 * (L - m) * (m + L) + v1 * L * L - v2 * m * m
        coeffs.append((alpha, beta, v0 * D))
    fit_gap = max(abs(D * v[x][k] - (alpha * x + beta) * x - gamma)
                  for x in range(S) for k, (alpha, beta, gamma) in enumerate(coeffs))
    if _exceeds(fit_gap, D * den, bound):
        raise ProfileError(f"quadratic fit residual {_sci(Fraction(fit_gap, D * den))} "
                           f"exceeds tol")

    # In s, the level's quadratic is a*(s - s0)^2 + b*(s - s0) + c.
    sig, kap, lam = [], [], []
    for alpha, beta, gamma in coeffs:
        a, b, c = (Fraction(alpha, D * den) / (h * h), Fraction(beta, D * den) / h,
                   Fraction(gamma, D * den))
        sig.append(a)
        kap.append(b - 2 * a * s0)
        lam.append(c - b * s0 + a * s0 * s0)
    sig_gap = max(sig) - min(sig)
    if sig_gap > bound:
        raise ProfileError(f"leading coefficient varies across levels by {_sci(sig_gap)}")
    odd_gap = max(abs(a + b) for a, b in zip(kap, reversed(kap)))
    even_lam_gap = max(abs(a - b) for a, b in zip(lam, reversed(lam)))
    if odd_gap > bound:
        raise ProfileError(f"linear coefficient is not odd in n: {_sci(odd_gap)}")
    if even_lam_gap > bound:
        raise ProfileError(f"constant coefficient is not even in n: {_sci(even_lam_gap)}")

    return ProfileFit(exact_sigma=sum(sig) / N, n_start=f.n_start,
                      exact_kappa=tuple(kap), exact_lam=tuple(lam))


FREE_STEPS = ((1, 0), (0, 1), (1, 1), (2, -1))


def verify_triple_differences(psis, matrix: StatMatrix, tags: StepSubgroups = None):
    """Max third mixed differences of the three log-CF samples, steps per subgroup.

    psis are three GridFunctions; the middle and inner steps are drawn from
    the classified step subgroups (function 1 pairs cross with col1, function
    2 cross with col2, function 3 col1 with col2), the outer step is free.
    Returns the residual triple: each the exact largest modulus, rounded to a float.
    """
    if len(psis) != 3:
        raise ValueError("expected three sampled log-CFs")
    if tags is None:
        tags = classify_step_subgroups(matrix)
    pairs = (
        (tags.cross, tags.col1),
        (tags.cross, tags.col2),
        (tags.col1, tags.col2),
    )
    out = []
    for f, (ktag, ltag) in zip(psis, pairs):
        worst, inner = (0, 0), {}
        for h in FREE_STEPS:
            for kk in ktag.step_units():
                for ll in ltag.step_units():
                    if (kk, ll) not in inner:
                        inner[kk, ll] = _delta(_delta(f, *ll), *kk)
                    worst = max(worst, _peak(_delta(inner[kk, ll], *h)), key=_norm2)
        out.append(math.hypot(worst[0] / f.den, worst[1] / f.den))
    return tuple(out)


# --------------------------------------------------------------------------
# CSV interchange (columns: s, n, re, im)


def _csv_text(num: int, den: int) -> str:
    """num / den as written to a grid CSV: the shortest repr of the float it is
    exactly, and "p/q" for a value that is not a float."""
    try:
        x = num / den
        p, q = x.as_integer_ratio()
    except OverflowError:
        return str(Fraction(num, den))
    return repr(x) if p * den == num * q else str(Fraction(num, den))


def save_grid_csv(f: GridFunction, path) -> None:
    S, N = f.shape
    im = f.im or [[0] * N] * S
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "n", "re", "im"])
        for i in range(S):
            s = f.s_start + i * f.s_step
            s_text = _csv_text(s.numerator, s.denominator)
            for k in range(N):
                writer.writerow([s_text, f.n_start + k, _csv_text(f.re[i][k], f.den),
                                 _csv_text(im[i][k], f.den)])


def _csv_number(text: str):
    """A grid CSV field: a decimal as the float it denotes, whose exact value is the
    sample's, as save_grid_csv writes it; "p/q" as the Fraction it denotes."""
    try:
        return float(text)
    except ValueError:
        return as_rational(text)


def load_grid_csv(path) -> GridFunction:
    """The grid a CSV with columns s, n, re and im samples.

    Raises ValueError on a non-finite s (naming its line), a repeated or missing
    (s, n) point, a non-uniform s-grid (beyond 1e-9) or a gap in n.
    """
    index = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            s = _csv_number(row["s"])
            if isinstance(s, float) and not math.isfinite(s):
                raise ValueError(f"grid CSV line {reader.line_num}: s = {row['s']} "
                                 f"is not finite")
            key = (s, int(row["n"]))
            if key in index:
                raise ValueError(f"grid CSV repeats the row (s, n) = ({float(s)!r}, {key[1]})")
            index[key] = (_csv_number(row["re"]), _csv_number(row["im"]))
    if not index:
        raise ValueError("empty grid CSV")
    s_values = sorted({s for s, _ in index})
    n_values = sorted({n for _, n in index})
    if len(index) != len(s_values) * len(n_values):
        raise ValueError("grid CSV does not cover a full rectangle")
    f = GridFunction.__new__(GridFunction)
    f._fill(*_axes([as_exact(s) for s in s_values], n_values, 1e-9),
            [[index[(s, n)][0] for n in n_values] for s in s_values],
            [[index[(s, n)][1] for n in n_values] for s in s_values])
    return f
