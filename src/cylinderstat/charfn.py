"""Characteristic functions in closed parametric form on R x T and T.

Everything here is a log-characteristic-function parameter bundle:

    cylinder: l(s, n) = -(sigma*s^2 + kappa*s*n + lam*n^2)
                        + i*(tau*s + theta*n) + twist*(1 - (-1)^n)
    circle:   l(n)    = -sigma*n^2 + i*theta*n + twist*(1 - (-1)^n)

so evaluation never vanishes, convolution is parameter addition, and all of
the independence checkers can work in log space with no branch ambiguity.
The twist term is the log-characteristic function of a (possibly signed)
measure on the two-element subgroup {+-1} of the circle; it is the only
non-Gaussian ingredient in the whole library: a bundle is Gaussian exactly
when its twist is zero.  A circle bundle is the s-free slice of a cylinder
bundle (`TorusCF.cylinder`: sigma = kappa = tau = 0, lam the circle
variance), so the bundle algebra is computed once, on cylinder bundles.

Parameters are ints and Fractions (a float argument is read as the dyadic
rational it is), so every log value is exact but for angles, which reduce as
floats.  `eval` goes through `cmath.exp` and is always a float complex.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction

from .groups import TWO_PI, DualPoint, Record, as_exact, reduce_angle, replace, sci


class InconclusiveError(ValueError):
    """A numeric certificate could not be produced."""


def _reduce_param_angle(theta):
    """Reduce an angle parameter as a float, keeping an exact one already in [0, 2*pi).

    An exact angle past the float range is refused: the float it reduces as does not exist.
    """
    if isinstance(theta, float) or not 0 <= theta < TWO_PI:
        if abs(theta) > sys.float_info.max:
            raise ValueError(f"angle {sci(abs(theta))} is too large to reduce")
        return reduce_angle(theta)
    return theta


def _nonneg(name, value):
    """`value`, exact, checked to be >= 0."""
    value = as_exact(value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


class CylinderCF(Record):
    """Log-CF bundle on R x T (dual variable y = (s, n)), PSD or not: see `is_valid_probability`."""

    sigma: object
    kappa: object = 0
    lam: object = 0
    tau: object = 0
    theta: object = 0
    twist: object = 0

    def __post_init__(self):
        for name in ("kappa", "tau", "twist"):
            object.__setattr__(self, name, as_exact(getattr(self, name)))
        object.__setattr__(self, "sigma", _nonneg("sigma", self.sigma))
        object.__setattr__(self, "lam", _nonneg("lam", self.lam))
        object.__setattr__(self, "theta", _reduce_param_angle(self.theta))

    def log_parts(self, s, n: int):
        """Real and imaginary part of the log-CF at (s, n), exact for an exact s."""
        re = -(self.sigma * s * s + self.kappa * s * n + self.lam * n * n)
        if self.twist != 0:  # twist * (1 - (-1)^n): 0 at even n, 2*twist at odd n
            re = re + (2 * self.twist if n % 2 else 0)
        im = self.theta * n
        if self.tau != 0:  # adding a zero tau*s would turn a phase of -0.0 into 0.0
            im = self.tau * s + im
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
        # e^{-10^4} is 0.0 already; the clip keeps an exact exponent past the float range finite.
        return cmath.exp(complex(float(max(re, -10_000)), float(im)))

    def shift_free(self) -> bool:
        return self.tau == 0 and self.theta == 0

    @property
    def cylinder(self) -> "CylinderCF":
        """The bundle itself; a circle bundle embeds through `TorusCF.cylinder`."""
        return self


class TorusCF(Record):
    """Log-CF bundle on the circle (dual variable n in Z)."""

    sigma: object
    theta: object = 0
    twist: object = 0

    def __post_init__(self):
        object.__setattr__(self, "sigma", _nonneg("sigma", self.sigma))
        object.__setattr__(self, "theta", _reduce_param_angle(self.theta))
        object.__setattr__(self, "twist", as_exact(self.twist))

    @property
    def cylinder(self) -> CylinderCF:
        """The same law on {0} x T inside R x T: an s-free cylinder bundle."""
        return CylinderCF(0, 0, self.sigma, 0, self.theta, self.twist)

    def log_parts(self, n: int):
        return self.cylinder.log_parts(0, n)

    def eval(self, n: int) -> complex:
        return self.cylinder.eval((0, n))


def _cylinders(verb: str, *cfs) -> list:
    """The cylinder bundles of `cfs`, which must all be CylinderCF or all TorusCF."""
    if len({type(cf) for cf in cfs}) != 1 or not isinstance(cfs[0], (CylinderCF, TorusCF)):
        raise TypeError(f"cannot {verb} {' with '.join(type(cf).__name__ for cf in cfs)}")
    return [cf.cylinder for cf in cfs]


def _like(cf, out: CylinderCF):
    """`out` as a bundle of the type of `cf`: a circle bundle reads back its slice."""
    return TorusCF(out.lam, out.theta, out.twist) if isinstance(cf, TorusCF) else out


def convolve(cf1, cf2):
    """CF of the convolution: parameters add componentwise."""
    a, b = _cylinders("convolve", cf1, cf2)
    return _like(cf1, CylinderCF(
        a.sigma + b.sigma,
        a.kappa + b.kappa,
        a.lam + b.lam,
        a.tau + b.tau,
        _reduce_param_angle(a.theta + b.theta),
        a.twist + b.twist,
    ))


def reflect(cf):
    """CF of the reflected distribution mu(-B): conjugate, i.e. negate the shifts."""
    (b,) = _cylinders("reflect", cf)
    return _like(cf, replace(b, tau=-b.tau, theta=_reduce_param_angle(-b.theta)))


def symmetrize(cf):
    """CF of mu convolved with its reflection: shifts cancel, everything else doubles."""
    return convolve(cf, reflect(cf))


def is_gaussian(cf) -> bool:
    """Whether the bundle is Gaussian (degenerate distributions count as Gaussian).

    The quadratic exponent satisfies the parallelogram identity
    phi(u+v) + phi(u-v) = 2*phi(u) + 2*phi(v) and the twist term breaks it,
    so the verdict is twist == 0, in closed form.
    """
    if not isinstance(cf, (CylinderCF, TorusCF)):
        raise TypeError(f"is_gaussian expects a CF bundle, got {type(cf).__name__}")
    return cf.twist == 0


def psd_gap(cf: CylinderCF, positive: bool = False):
    """4*sigma*lam - kappa^2, >= 0 exactly on a PSD form; positive=True adds kappa^2 instead."""
    return 4 * cf.sigma * cf.lam + (1 if positive else -1) * cf.kappa * cf.kappa


def _log(x) -> float:
    """log of a positive int or Fraction, also where float(x) underflows."""
    x = Fraction(x)
    return math.log(x.numerator) - math.log(x.denominator)


def conditional_circle(cf: CylinderCF) -> TorusCF:
    """A PSD bundle's circle law given t, less the rotation (kappa/(2*sigma))*t: TorusCF(v,
    theta, twist) with v = lam - kappa^2/(4*sigma), or lam if sigma = 0."""
    return TorusCF(Fraction(psd_gap(cf), 4 * cf.sigma) if cf.sigma else cf.lam, cf.theta, cf.twist)


def is_valid_probability(cf) -> bool:
    """Whether the cylinder or circle bundle is the CF of a genuine probability measure.

    A cylinder bundle needs a PSD form; given the line coordinate, the circle one is
    then its `conditional_circle` law, so as the twist acts on it alone, that law decides.

    For a circle bundle, with W the wrapped normal of CF e^{-sigma*n^2}, the law
    has the density a*W(x) + b*W(x + pi), rotated by theta, where a = (1 + e^{2t})/2
    and b = (1 - e^{2t})/2 for twist t.  So it is a probability measure exactly when
    t <= 0 or tanh(t) <= W(pi)/W(0) = theta4/theta3(q), q = e^{-sigma}
    (Jacobi triple product; Whittaker and Watson, ch. 21).  The two sides are
    compared as logs of negative logs: -log tanh(t) = 2*atanh(e^{-2t}), and
    -log theta4/theta3(q) = 4*sum_{k odd} atanh(q^k) for sigma >= 1; below, the
    imaginary transformation theta4/theta3(q) = theta2/theta3(p) with
    p = e^{-pi^2/sigma} converges in a few terms and cannot underflow.  For t, sigma >= 1
    the logs are log 2 - 2t + ... and log 4 - sigma + ..., with sigma - 2t taken exactly,
    and below 1 log t and log sigma are, so sides outside the float range are still
    decided.  Raises InconclusiveError when the two sides agree to 1e-9 relative.
    """
    if isinstance(cf, CylinderCF):
        if psd_gap(cf) < 0:
            return False
        cf = conditional_circle(cf)
    if not isinstance(cf, TorusCF):
        raise TypeError("is_valid_probability expects a CylinderCF or a TorusCF")
    if cf.twist <= 0:
        return True
    if cf.sigma == 0:
        # Point masses (1+e^{2t})/2 at theta and (1-e^{2t})/2 < 0 at theta + pi.
        return False
    # The difference of the logs is gap + rest: gap = sigma - 2t over the terms with t, sigma >= 1,
    # and rest, the remaining terms, which are the same for any t or sigma past 1000.
    t, sigma = float(min(cf.twist, 1000)), float(min(cf.sigma, 1000))
    a = cf.sigma if sigma >= 1 else 0
    b = 2 * cf.twist if t >= 1 else 0
    # Any |gap| past 10^4 decides; clipping it exactly keeps a side past the float range finite.
    gap = float(max(-10_000, min(a - b, 10_000)))
    if t < 1:  # -log tanh(t) = -log t - log(tanh(t)/t)
        rest = math.log(-_log(cf.twist) - math.log(math.tanh(t) / t if t else 1.0))
    else:  # -log tanh(t) = 2 * atanh(x) with x = e^{-2t}, whose log is in gap
        x = math.exp(-2 * t)
        rest = math.log(2 * (math.atanh(x) / x if x else 1.0))
    if sigma >= 1:  # the sum is q * (1 + O(q^2)) with q = e^{-sigma}, whose log is in gap
        q = math.exp(-sigma)
        rest -= math.log(4 * (sum(math.atanh(q ** k) for k in range(1, 40, 2)) / q if q else 1.0))
    else:
        # theta2/theta3(p) = 2 * p^{1/4} * prod_{n>=1} ((1 + p^{2n}) / (1 + p^{2n-1}))^2, so
        # the side is pi^2/(4*sigma) - c, whose log takes log sigma from the exact sigma.
        p = math.exp(-math.pi ** 2 / sigma) if sigma else 0.0
        c = math.log(2) + 2 * sum((-1) ** k * math.log1p(p ** k) for k in range(1, 5))
        rest -= (math.log(math.pi ** 2 / 4) - _log(cf.sigma)
                 + math.log1p(-4 * sigma * c / math.pi ** 2))
    diff = gap + rest
    if -math.expm1(-abs(diff)) <= 1e-9:
        raise InconclusiveError(f"log tanh(twist) and the log validity threshold agree to "
                                f"1e-9 relative at sigma {sci(cf.sigma)}, twist {sci(cf.twist)}")
    return diff > 0


def support_line(cf: CylinderCF):
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
    if cf.sigma == 0 or psd_gap(cf) != 0:
        return None
    return Fraction(cf.kappa, 2 * cf.sigma)


def classify_support(cf: CylinderCF) -> str:
    """Support shape of a shift-free, twist-free bundle: point, line, circle, or full."""
    if cf.sigma == 0 and cf.lam == 0 and cf.kappa == 0:
        return "point"
    if cf.sigma == 0:
        return "circle"
    return "line" if support_line(cf) is not None else "full"
