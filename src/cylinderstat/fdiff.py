"""Finite differences of grid-sampled functions on R x Z.

Functions live on a uniform s-grid times a contiguous integer n-range.  The
difference operator with step h is (D_h f)(y) = f(y + h) - f(y), with h
restricted to grid steps; iterating it shrinks the domain, so verifications
happen on the interior of the sampled window.

The two structural facts used downstream: a function killed by D_h^{d+1} for
every step behaves as a polynomial of degree <= d on the grid, and an even
real function with vanishing third s-differences per integer level is
sigma*s^2 + kappa(n)*s + lambda(n) with a level-independent leading
coefficient, odd kappa and even lambda.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .groups import DualPoint
from .independence import StatMatrix, StepSubgroups, classify_step_subgroups


class OffGridError(ValueError):
    """A difference step that is not an integer combination of grid steps."""


class ProfileError(ValueError):
    """Sampled function is not of the shared-quadratic-profile form."""


class SingularCornerError(ValueError):
    """Corner determinant vanished where a unique solution was required."""


@dataclass(frozen=True)
class GridFunction:
    """Samples of f(s, n) on a uniform s-grid times a contiguous n-range."""

    s_start: float
    s_step: float
    n_start: int
    values: np.ndarray  # shape (len(s-grid), len(n-grid))

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError("values must be a nonempty 2-D array")
        if self.s_step <= 0:
            raise ValueError("s_step must be positive")
        object.__setattr__(self, "values", v)

    @property
    def s_values(self) -> np.ndarray:
        return self.s_start + self.s_step * np.arange(self.values.shape[0])

    @property
    def n_values(self) -> np.ndarray:
        return self.n_start + np.arange(self.values.shape[1])

    @classmethod
    def sample(cls, fn, s_values, n_values) -> "GridFunction":
        s_values = np.asarray(s_values, dtype=float)
        n_values = np.asarray(n_values, dtype=int)
        steps = np.diff(s_values)
        if len(s_values) > 1 and not np.allclose(steps, steps[0], rtol=0, atol=1e-12):
            raise ValueError("s-grid must be uniform")
        if np.any(np.diff(n_values) != 1):
            raise ValueError("n-grid must be contiguous")
        vals = np.array([[fn(float(s), int(n)) for n in n_values] for s in s_values])
        step = float(steps[0]) if len(s_values) > 1 else 1.0
        return cls(float(s_values[0]), step, int(n_values[0]), vals)

    def step_units(self, h) -> tuple[int, int]:
        """Convert a step (DualPoint or (ds, dn) pair) to integer grid units."""
        if isinstance(h, DualPoint):
            ds, dn = float(h.s), h.n
        else:
            ds, dn = float(h[0]), int(h[1])
        j = round(ds / self.s_step)
        if abs(j * self.s_step - ds) > 1e-9 * max(1.0, abs(ds)):
            raise OffGridError(f"s-step {ds} is not a multiple of the grid step {self.s_step}")
        return j, dn


def default_s_grid():
    return np.arange(-5.0, 5.0 + 1e-9, 0.25)


def default_n_grid():
    return np.arange(-6, 7)


def _shift_slices(length: int, d: int):
    if d >= 0:
        return slice(d, length), slice(0, length - d)
    return slice(0, length + d), slice(-d, length)


def delta(f: GridFunction, h) -> GridFunction:
    """Difference with step h; the domain shrinks by the step in each direction."""
    j, k = f.step_units(h)
    S, N = f.values.shape
    if abs(j) >= S or abs(k) >= N:
        raise OffGridError(f"step ({j} s-units, {k}) exhausts the {S}x{N} domain")
    sj_hi, sj_lo = _shift_slices(S, j)
    nk_hi, nk_lo = _shift_slices(N, k)
    vals = f.values[sj_hi, :][:, nk_hi] - f.values[sj_lo, :][:, nk_lo]
    new_s_start = f.s_start + (max(-j, 0)) * f.s_step
    new_n_start = f.n_start + max(-k, 0)
    return GridFunction(new_s_start, f.s_step, new_n_start, vals)


DEGREE_TEST_STEPS = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1))


def polynomial_degree(f: GridFunction, max_deg: int = 6, tol: float = 1e-9):
    """Smallest d with all (d+1)-fold differences below tol, or None.

    Steps are drawn from a small representative set including diagonals so
    that mixed terms raise the detected degree.  Raises when the grid is too
    small to apply max_deg + 1 differences of some test step.
    """
    steps = list(DEGREE_TEST_STEPS)
    S, N = f.values.shape
    for j, k in steps:
        if abs(j) * (max_deg + 1) >= S or abs(k) * (max_deg + 1) >= N:
            raise ValueError("grid too small for the requested degree bound")
    # diffs[i] holds the current (d+1)-fold difference for step i.
    current = {step: f for step in steps}
    for d in range(max_deg + 1):
        worst = 0.0
        for step in steps:
            nxt = delta(current[step], (step[0] * f.s_step, step[1]))
            current[step] = nxt
            worst = max(worst, float(np.abs(nxt.values).max()))
        if worst <= tol:
            return d
    return None


@dataclass(frozen=True)
class ProfileFit:
    """Result of the shared-quadratic-profile fit f = sigma*s^2 + kappa(n)*s + lambda(n)."""

    sigma: float
    n_values: np.ndarray
    kappa: np.ndarray
    lam: np.ndarray

    def evaluate(self, s, n: int) -> float:
        i = int(n - self.n_values[0])
        return self.sigma * s * s + self.kappa[i] * s + self.lam[i]


def fit_quadratic_profile(f: GridFunction, tol: float = 1e-9) -> ProfileFit:
    """Fit f(s, n) = sigma*s^2 + kappa(n)*s + lambda(n) with shared sigma.

    Requires a real even function (f(-y) = f(y)) on a symmetric grid whose
    third s-differences vanish per level.  kappa must come out odd and lambda
    even; lambda is otherwise unconstrained.  Raises ProfileError when any of
    the structural requirements fails beyond tol.
    """
    vals = f.values
    if np.iscomplexobj(vals):
        if float(np.abs(vals.imag).max()) > tol:
            raise ProfileError("function is not real-valued")
        vals = vals.real
    s = f.s_values
    n = f.n_values
    scale = max(1.0, float(np.abs(vals).max()))

    sym_s = abs(s[0] + s[-1]) <= 1e-9 and abs(f.s_step * round(-2 * s[0] / f.s_step) + 2 * s[0]) <= 1e-9
    sym_n = n[0] == -n[-1]
    if not (sym_s and sym_n):
        raise ProfileError("grid is not symmetric about the origin")
    even_gap = float(np.abs(vals - vals[::-1, ::-1]).max())
    if even_gap > tol * scale:
        raise ProfileError(f"function is not even: max |f(y) - f(-y)| = {even_gap:.3e}")

    third = np.diff(vals, n=3, axis=0)
    third_gap = float(np.abs(third).max()) if third.size else 0.0
    if third_gap > tol * scale:
        raise ProfileError(f"third s-differences do not vanish: {third_gap:.3e}")

    # Per-level least-squares quadratic in s.
    V = np.vander(s, 3)  # columns s^2, s, 1
    coef, *_ = np.linalg.lstsq(V, vals, rcond=None)
    fitted = V @ coef
    fit_gap = float(np.abs(fitted - vals).max())
    if fit_gap > tol * scale:
        raise ProfileError(f"quadratic fit residual {fit_gap:.3e} exceeds tol")

    sig, kap, lam = coef[0], coef[1], coef[2]
    sig_gap = float(sig.max() - sig.min())
    if sig_gap > tol * scale:
        raise ProfileError(f"leading coefficient varies across levels by {sig_gap:.3e}")
    odd_gap = float(np.abs(kap + kap[::-1]).max())
    even_lam_gap = float(np.abs(lam - lam[::-1]).max())
    if odd_gap > tol * scale:
        raise ProfileError(f"linear coefficient is not odd in n: {odd_gap:.3e}")
    if even_lam_gap > tol * scale:
        raise ProfileError(f"constant coefficient is not even in n: {even_lam_gap:.3e}")

    return ProfileFit(sigma=float(sig.mean()), n_values=n.copy(), kappa=kap, lam=lam)


FREE_STEPS = ((1, 0), (0, 1), (1, 1), (2, -1))


def _tag_steps(tag, s_step):
    return [(j * s_step, k) for (j, k) in tag.step_units()]


def verify_triple_differences(psis, matrix: StatMatrix, tags: StepSubgroups = None,
                              free_steps=FREE_STEPS):
    """Max third mixed differences of the three log-CF samples, steps per subgroup.

    psis are three GridFunctions; the middle and inner steps are drawn from
    the classified step subgroups (function 1 pairs cross with col1, function
    2 cross with col2, function 3 col1 with col2), the outer step is free.
    Returns the residual triple.
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
        hs = [(j * f.s_step, k) for (j, k) in free_steps]
        ks = _tag_steps(ktag, f.s_step)
        ls = _tag_steps(ltag, f.s_step)
        worst = 0.0
        for h in hs:
            for kk in ks:
                for ll in ls:
                    g = delta(delta(delta(f, ll), kk), h)
                    worst = max(worst, float(np.abs(g.values).max()))
        out.append(worst)
    return tuple(out)


def verify_cross_linearity(kappas, n_values, a1, a2, b1, b2, kappa_total,
                           tol: float = 1e-9) -> bool:
    """Check that three measured cross-coefficient profiles are forced linear.

    kappas are three sequences kappa_j(n) aligned with n_values.  They must
    satisfy the two elimination identities
        (a1-1)*kappa_1(n) + (a2-1)*kappa_2(n) = -kappa_total * n
        (b1-1)*kappa_1(n) + (b2-1)*kappa_2(n) = -kappa_total * n
    together with kappa_1 + kappa_2 + kappa_3 = kappa_total * n, and each
    ratio kappa_j(n)/n must be constant over n != 0.  Raises when the corner
    determinant (a1-1)(b2-1) - (a2-1)(b1-1) vanishes.
    """
    a1, a2, b1, b2 = (float(v) for v in (a1, a2, b1, b2))
    corner = (a1 - 1) * (b2 - 1) - (a2 - 1) * (b1 - 1)
    if corner == 0:
        raise SingularCornerError("corner determinant vanishes; profiles are not pinned down")
    k1, k2, k3 = (np.asarray(k, dtype=float) for k in kappas)
    n = np.asarray(n_values, dtype=float)
    kt = float(kappa_total)
    scale = max(1.0, float(np.abs(np.concatenate([k1, k2, k3])).max()), abs(kt) * float(np.abs(n).max()))

    row_a = (a1 - 1) * k1 + (a2 - 1) * k2 + kt * n
    row_b = (b1 - 1) * k1 + (b2 - 1) * k2 + kt * n
    total = k1 + k2 + k3 - kt * n
    if max(float(np.abs(row_a).max()), float(np.abs(row_b).max()),
           float(np.abs(total).max())) > tol * scale:
        return False
    nz = n != 0
    for k in (k1, k2, k3):
        ratios = k[nz] / n[nz]
        if ratios.size and float(ratios.max() - ratios.min()) > tol * max(1.0, float(np.abs(ratios).max())):
            return False
    return True


# --------------------------------------------------------------------------
# CSV interchange (columns: s, n, re, im)


def save_grid_csv(f: GridFunction, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "n", "re", "im"])
        vals = np.asarray(f.values, dtype=complex)
        for i, s in enumerate(f.s_values):
            for k, n in enumerate(f.n_values):
                v = vals[i, k]
                writer.writerow([repr(float(s)), int(n),
                                 repr(float(v.real)), repr(float(v.imag))])


def load_grid_csv(path) -> GridFunction:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            rows.append((float(row["s"]), int(row["n"]),
                         float(row["re"]), float(row["im"])))
    if not rows:
        raise ValueError("empty grid CSV")
    s_values = sorted({r[0] for r in rows})
    n_values = sorted({r[1] for r in rows})
    if len(rows) != len(s_values) * len(n_values):
        raise ValueError("grid CSV does not cover a full rectangle")
    steps = np.diff(s_values)
    if len(s_values) > 1 and not np.allclose(steps, steps[0], rtol=0, atol=1e-9):
        raise ValueError("s-grid must be uniform")
    if any(b - a != 1 for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n-grid must be contiguous")
    index = {(r[0], r[1]): complex(r[2], r[3]) for r in rows}
    vals = np.array([[index[(s, n)] for n in n_values] for s in s_values])
    if float(np.abs(vals.imag).max()) == 0.0:
        vals = vals.real
    step = float(steps[0]) if len(s_values) > 1 else 1.0
    return GridFunction(float(s_values[0]), step, int(n_values[0]), vals)
