"""Characteristic functions in closed parametric form on R x T, T, and Z(2).

Everything here is a log-characteristic-function parameter bundle:

    cylinder: l(s, n) = -(sigma*s^2 + kappa*s*n + lam*n^2)
                        + i*(tau*s + theta*n) + twist*(1 - (-1)^n)
    circle:   l(n)    = -sigma*n^2 + i*theta*n + twist*(1 - (-1)^n)

so evaluation never vanishes, convolution is parameter addition, and all of
the independence checkers can work in log space with no branch ambiguity.
The twist term is the log-characteristic function of a (possibly signed)
measure on the two-element subgroup {+-1} of the circle; it is the only
non-Gaussian ingredient in the whole library.

Parameters are type preserving: Fraction parameters keep every log value
exact.  `eval` goes through `cmath.exp` and is always a float complex.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .groups import TWO_PI, CylinderAuto, DualPoint, exact_div, is_exact, reduce_angle


class InconclusiveError(RuntimeError):
    """A numeric certificate could not be produced at the requested truncation."""


def _reduce_param_angle(theta):
    """Reduce an angle parameter, keeping exact values already in [0, 2*pi)."""
    if is_exact(theta) and 0 <= theta < TWO_PI:
        return theta
    return reduce_angle(theta)


def _check_nonneg(name, value):
    if is_exact(value):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    elif value < -1e-12:
        raise ValueError(f"{name} must be >= 0, got {value}")


def _parity_term(twist, n: int):
    # twist * (1 - (-1)^n): 0 at even n, 2*twist at odd n.
    return 2 * twist if n % 2 else 0


@dataclass(frozen=True)
class CylinderCF:
    """Log-CF bundle on R x T (dual variable y = (s, n))."""

    sigma: object
    kappa: object = 0
    lam: object = 0
    tau: object = 0
    theta: object = 0
    twist: object = 0

    def __post_init__(self):
        _check_nonneg("sigma", self.sigma)
        _check_nonneg("lam", self.lam)
        disc = 4 * self.sigma * self.lam - self.kappa * self.kappa
        if is_exact(disc):
            if disc < 0:
                raise ValueError(f"quadratic form not PSD: 4*sigma*lam - kappa^2 = {disc}")
        else:
            slack = 1e-12 * max(1.0, abs(float(self.kappa)) ** 2, 4.0 * float(self.sigma) * float(self.lam))
            if float(disc) < -slack:
                raise ValueError(f"quadratic form not PSD: 4*sigma*lam - kappa^2 = {float(disc)}")
        object.__setattr__(self, "theta", _reduce_param_angle(self.theta))

    def log_parts(self, s, n: int):
        """Real and imaginary part of the log-CF at (s, n), type preserving."""
        re = -(self.sigma * s * s + self.kappa * s * n + self.lam * n * n)
        if self.twist != 0:
            re = re + _parity_term(self.twist, n)
        im = self.tau * s + self.theta * n
        return re, im

    def phi(self, s, n: int):
        """The nonnegative exponent phi with CF = exp(i*linear) * exp(-phi)."""
        re, _ = self.log_parts(s, n)
        return -re

    def eval(self, y) -> complex:
        if isinstance(y, DualPoint):
            s, n = y.s, y.n
        else:
            s, n = y
        re, im = self.log_parts(s, n)
        return cmath.exp(complex(float(re), float(im)))

    def shift_free(self) -> bool:
        return self.tau == 0 and self.theta == 0


@dataclass(frozen=True)
class TorusCF:
    """Log-CF bundle on the circle (dual variable n in Z)."""

    sigma: object
    theta: object = 0
    twist: object = 0

    def __post_init__(self):
        _check_nonneg("sigma", self.sigma)
        object.__setattr__(self, "theta", _reduce_param_angle(self.theta))

    def log_parts(self, n: int):
        re = -(self.sigma * n * n)
        if self.twist != 0:
            re = re + _parity_term(self.twist, n)
        return re, self.theta * n

    def phi(self, n: int):
        re, _ = self.log_parts(n)
        return -re

    def eval(self, n: int) -> complex:
        re, im = self.log_parts(n)
        return cmath.exp(complex(float(re), float(im)))

    def shift_free(self) -> bool:
        return self.theta == 0


@dataclass(frozen=True)
class Z2SignedMeasure:
    """Signed measure on {+1, -1} in the circle, total mass one.

    Its characteristic function is n -> p1 + pm1*(-1)^n, which equals
    exp(twist*(1 - (-1)^n)) for p1 = (1 + e^{2*twist})/2, pm1 = (1 - e^{2*twist})/2.
    """

    p1: float
    pm1: float

    def __post_init__(self):
        total = self.p1 + self.pm1
        if is_exact(total):
            if total != 1:
                raise ValueError(f"masses must sum to 1, got {total}")
        elif abs(float(total) - 1.0) > 1e-12:
            raise ValueError(f"masses must sum to 1, got {total}")

    @classmethod
    def from_twist(cls, twist) -> "Z2SignedMeasure":
        e = math.exp(2.0 * float(twist)) if twist != 0 else 1
        return cls(exact_div(1 + e, 2), exact_div(1 - e, 2))

    def cf_value(self, n: int):
        return self.p1 + self.pm1 * (-1) ** (n % 2)

    def is_signed(self) -> bool:
        return self.p1 < 0 or self.pm1 < 0


def convolve(cf1, cf2):
    """CF of the convolution: parameters add componentwise (masses multiply on Z(2))."""
    if isinstance(cf1, CylinderCF) and isinstance(cf2, CylinderCF):
        return CylinderCF(
            cf1.sigma + cf2.sigma,
            cf1.kappa + cf2.kappa,
            cf1.lam + cf2.lam,
            cf1.tau + cf2.tau,
            _reduce_param_angle(cf1.theta + cf2.theta),
            cf1.twist + cf2.twist,
        )
    if isinstance(cf1, TorusCF) and isinstance(cf2, TorusCF):
        return TorusCF(
            cf1.sigma + cf2.sigma,
            _reduce_param_angle(cf1.theta + cf2.theta),
            cf1.twist + cf2.twist,
        )
    if isinstance(cf1, Z2SignedMeasure) and isinstance(cf2, Z2SignedMeasure):
        return Z2SignedMeasure(
            cf1.p1 * cf2.p1 + cf1.pm1 * cf2.pm1,
            cf1.p1 * cf2.pm1 + cf1.pm1 * cf2.p1,
        )
    raise TypeError(f"cannot convolve {type(cf1).__name__} with {type(cf2).__name__}")


def reflect(cf):
    """CF of the reflected distribution mu(-B): conjugate, i.e. negate the shifts."""
    if isinstance(cf, CylinderCF):
        return replace(cf, tau=-cf.tau, theta=_reduce_param_angle(-cf.theta))
    if isinstance(cf, TorusCF):
        return replace(cf, theta=_reduce_param_angle(-cf.theta))
    raise TypeError(f"cannot reflect {type(cf).__name__}")


def symmetrize(cf):
    """CF of mu convolved with its reflection: shifts cancel, everything else doubles."""
    return convolve(cf, reflect(cf))


def transform(cf, e: CylinderAuto):
    """CF of the image of the distribution under the automorphism carried by e.

    On the dual side this is l(e(s, n)); for a cylinder bundle the parameters
    map to (sigma*a^2, 2*sigma*a*c + kappa*a*p, sigma*c^2 + kappa*c*p + lam,
    tau*a, tau*c + theta*p, twist).
    """
    if isinstance(cf, CylinderCF):
        a, c, p = e.a, e.c, e.p
        return CylinderCF(
            cf.sigma * a * a,
            2 * cf.sigma * a * c + cf.kappa * a * p,
            cf.sigma * c * c + cf.kappa * c * p + cf.lam,
            cf.tau * a,
            _reduce_param_angle(cf.tau * c + cf.theta * p),
            cf.twist,
        )
    if isinstance(cf, TorusCF):
        if e.a != 1 or e.c != 0:
            raise ValueError("a circle automorphism must have a = 1 and c = 0")
        return TorusCF(cf.sigma, _reduce_param_angle(cf.theta * e.p), cf.twist)
    raise TypeError(f"cannot transform {type(cf).__name__}")


_GAUSS_GRID_CYL = [(0, 0), (1, 0), (0, 1), (-1, 1), (Fraction(1, 2), 2)]
_GAUSS_GRID_TOR = [0, 1, -1, 2, 3]


def _parallelogram_gap(phi, points):
    """(max |phi(u+v) + phi(u-v) - 2*phi(u) - 2*phi(v)|, rounding scale) over point pairs.

    The rounding scale is the largest |phi| the float gaps subtract; exact
    gaps carry no rounding and add nothing to it.
    """
    worst = scale = 0.0
    for u in points:
        for v in points:
            if isinstance(u, tuple):
                up, um = (u[0] + v[0], u[1] + v[1]), (u[0] - v[0], u[1] - v[1])
                values = (phi(*up), phi(*um), phi(*u), phi(*v))
            else:
                values = (phi(u + v), phi(u - v), phi(u), phi(v))
            gap = values[0] + values[1] - 2 * values[2] - 2 * values[3]
            worst = max(worst, abs(float(gap)))
            if not is_exact(gap):
                scale = max(scale, *map(abs, values))
    return worst, scale


def is_gaussian(cf, tol: float = 1e-9) -> bool:
    """Whether the bundle is Gaussian (degenerate distributions count as Gaussian).

    The quadratic exponent always satisfies the parallelogram identity
    phi(u+v) + phi(u-v) = 2*phi(u) + 2*phi(v); the twist term breaks it, so the
    verdict is twist == 0.  A grid evaluation of the identity double-checks
    the verdict against the actual exponent, within `tol` relative to the
    larger of 1, the expected gap and the largest |phi| a float gap subtracts.
    """
    if isinstance(cf, CylinderCF):
        gap, scale = _parallelogram_gap(cf.phi, _GAUSS_GRID_CYL)
    elif isinstance(cf, TorusCF):
        gap, scale = _parallelogram_gap(cf.phi, _GAUSS_GRID_TOR)
    else:
        raise TypeError(f"is_gaussian expects a CF bundle, got {type(cf).__name__}")
    verdict = cf.twist == 0
    # The grid gap is exactly 8*|twist| at its worst pair; insist the numeric
    # evidence agrees with the parameter verdict.
    expected = 0.0 if verdict else 8.0 * abs(float(cf.twist))
    if abs(gap - expected) > tol * max(1.0, expected, scale):
        raise AssertionError(
            f"parallelogram self-check disagrees with twist parameter: gap={gap}, twist={cf.twist}"
        )
    return verdict


def is_valid_probability(cf: TorusCF, truncation: int = 64, tol: float = 1e-9,
                         grid_points: int = 1024) -> bool:
    """Whether the circle bundle is the CF of a genuine probability measure.

    Decided by Fourier inversion: the density on a uniform angle grid must be
    real and nonnegative up to `tol`.  The sigma = 0 case is decided exactly
    (point mass convolved with the two-point measure, which is a probability
    iff twist <= 0).  Raises InconclusiveError when the neglected tail of the
    Fourier series is not provably below `tol`.
    """
    if not isinstance(cf, TorusCF):
        raise TypeError("is_valid_probability expects a TorusCF")
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    if cf.sigma == 0:
        # exp(twist*(1-(-1)^n)) is the CF of masses ((1+e^{2t})/2, (1-e^{2t})/2);
        # the mass at -1 is negative exactly when twist > 0.
        return cf.twist <= 0

    sigma = float(cf.sigma)
    twist = float(cf.twist)
    # |CF(n)| <= exp(-sigma*n^2 + 2*max(twist, 0)); geometric tail bound past n = truncation.
    ratio = math.exp(-2.0 * sigma * (truncation + 1))
    tail = 2.0 * math.exp(2.0 * max(twist, 0.0)) * math.exp(-sigma * (truncation + 1) ** 2) / (1.0 - ratio)
    if tail > tol:
        raise InconclusiveError(
            f"Fourier tail bound {tail:.3e} exceeds tol={tol:.1e} at truncation={truncation}"
        )

    _, density, imag = fourier_density(cf, truncation, grid_points)
    return float(density.min()) >= -tol and float(np.abs(imag).max()) <= tol


def fourier_density(cf: TorusCF, truncation: int, grid_points: int):
    """(angles, density, imaginary part) of a circle bundle by Fourier inversion.

    The CF's Fourier series over the modes -truncation..truncation, summed at
    `grid_points` uniform angles in [0, 2*pi).
    """
    ns = np.arange(-truncation, truncation + 1)
    coeffs = np.array([cf.eval(int(n)) for n in ns])
    angles = np.linspace(0.0, TWO_PI, grid_points, endpoint=False)
    sums = (coeffs[None, :] * np.exp(-1j * np.outer(angles, ns))).sum(axis=1)
    return angles, sums.real / TWO_PI, sums.imag / TWO_PI


def support_line(cf: CylinderCF, tol: float = 1e-10):
    """Slope omega of the line subgroup carrying the distribution, if there is one.

    Requires a shift-free, twist-free bundle.  Returns kappa/(2*sigma) when
    sigma > 0 and 4*sigma*lam = kappa^2 (the quadratic form degenerates on a
    line); returns None when the support is not a line through the identity
    of that shape (two-dimensional support, circle support, or a point).
    """
    if cf.twist != 0:
        raise ValueError("support_line requires twist = 0")
    if not cf.shift_free():
        raise ValueError("support_line requires tau = theta = 0")
    if cf.sigma == 0:
        return None
    gap = 4 * cf.sigma * cf.lam - cf.kappa * cf.kappa
    if is_exact(gap):
        if gap != 0:
            return None
    elif abs(float(gap)) > tol:
        return None
    return exact_div(cf.kappa, 2 * cf.sigma)


def classify_support(cf: CylinderCF, tol: float = 1e-10) -> str:
    """Support shape of a shift-free, twist-free bundle: point, line, circle, or full."""
    if cf.sigma == 0 and cf.lam == 0 and cf.kappa == 0:
        return "point"
    if cf.sigma == 0:
        return "circle"
    return "line" if support_line(cf, tol=tol) is not None else "full"
