"""Generators for the explicit verified families.

Each constructor assembles a statistic matrix together with the matching
characteristic functions and certifies its own advertised properties before
returning (the closed-form independence certificate of `independence_blocks`,
validity of every member; a line family's support line holds by construction),
so downstream code can treat the outputs as certified fixtures.

Families:
  * line-gaussian - three Gaussian bundles supported on the line
    {(t, omega*t)} in R x T with three independent statistics; exists for any
    coefficient tuple whose variance system has a positive solution, and for
    arbitrary signs on the circle factor.
  * twisted-pair - two circle bundles twisted by opposite signed measures
    whose sum and difference are independent.
  * four-statistic - four twisted circle bundles with the four orthogonal
    sign statistics independent although no member is Gaussian.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .charfn import CylinderCF, TorusCF, Z2SignedMeasure, is_valid_probability
from .groups import CylinderAuto, as_int, as_rational, named
from .independence import (StatMatrix, family_kind, independence_blocks, nonzero_blocks,
                           solve_sigmas)


class ConstructionError(RuntimeError):
    """A requested family does not exist or failed its own certification."""


@dataclass(frozen=True)
class Family:
    """A certified fixture: statistic matrix plus member characteristic functions."""

    label: str            # "line-gaussian" | "twisted-pair" | "four-statistic"
    matrix: StatMatrix
    cfs: tuple
    omega: object = None  # slope of the carrying line, cylinder families only

    @property
    def n(self) -> int:
        return self.matrix.n

    @property
    def kind(self) -> str:
        """The group the bundles live on, "cylinder" or "torus" (see `family_kind`)."""
        return family_kind(self.cfs, self.matrix)


def line_gaussian_family(omega, a1, a2, b1, b2, p1=1, p2=1, q1=1, q2=1,
                         sigma_scale=1) -> Family:
    """Three independent Gaussian bundles carried by the line of slope omega.

    The statistic matrix is the reduced form with second-row multipliers
    (a1, a2) and third-row multipliers (b1, b2); the off-diagonal entries are
    c_i = (a_i - p_i)*omega and d_i = (b_i - q_i)*omega, which is exactly the
    condition for every entry to preserve the carrying line.  The member
    variances come from the exact solver (scaled by sigma_scale) and the
    bundles are sigma_j*(s + omega*n)^2 in the exponent.

    Raises ConstructionError when the variance system has no positive
    solution, and certifies the full parameter system (the independence
    certificate) before returning; entries and members keep the line exactly.
    """
    omega, a1, a2, b1, b2, scale = (Fraction(as_rational(v))
                                    for v in (omega, a1, a2, b1, b2, sigma_scale))
    for name, sign in (("p1", p1), ("p2", p2), ("q1", q1), ("q2", q2)):
        if named(name, as_int, sign) not in (1, -1):
            raise ValueError(f"{name} must be +1 or -1")
    if scale <= 0:
        raise ValueError("sigma_scale must be positive")

    sigmas = solve_sigmas(a1, a2, b1, b2)
    if sigmas is None:
        raise ConstructionError(
            f"no positive sigma solution for coefficients ({a1}, {a2}, {b1}, {b2})"
        )
    sigmas = tuple(s * scale for s in sigmas)

    ident = CylinderAuto.identity()
    alpha1 = CylinderAuto(a1, (a1 - p1) * omega, p1)
    alpha2 = CylinderAuto(a2, (a2 - p2) * omega, p2)
    beta1 = CylinderAuto(b1, (b1 - q1) * omega, q1)
    beta2 = CylinderAuto(b2, (b2 - q2) * omega, q2)
    matrix = StatMatrix.from_rows([
        [ident, ident, ident],
        [alpha1, alpha2, ident],
        [beta1, beta2, ident],
    ])
    cfs = tuple(CylinderCF(sigma=s, kappa=2 * s * omega, lam=s * omega * omega)
                for s in sigmas)

    _certify_independence(cfs, matrix)
    return Family("line-gaussian", matrix, cfs, omega=omega)


def _certify_independence(cfs, matrix: StatMatrix) -> None:
    """Raise ConstructionError unless the independence certificate vanishes exactly."""
    blocks, twist_sum = independence_blocks(cfs, matrix)
    if nonzero_blocks(blocks) or twist_sum != 0:
        raise ConstructionError(f"certification failed: nonzero independence certificate "
                                f"blocks {nonzero_blocks(blocks)}, twist sum {twist_sum}")


def _certified_circle_family(label: str, matrix: StatMatrix, cfs, members) -> Family:
    """The family once each named member is a probability measure and the certificate vanishes.

    `members` pairs a name for error messages with each distinct bundle.
    """
    for pos, cf in members:
        if not is_valid_probability(cf):
            raise ConstructionError(f"{pos} member is not a probability measure: {cf}")
    _certify_independence(cfs, matrix)
    return Family(label, matrix, cfs)


def twisted_torus_pair(sigma, theta1=0, theta2=0, kappa=0) -> Family:
    """Two circle bundles with opposite twists whose sum and difference are independent.

    Both members must be genuine probability measures; otherwise the failing
    member is named in the raised ConstructionError.
    """
    sigma, theta1, theta2, kappa = (Fraction(as_rational(v))
                                    for v in (sigma, theta1, theta2, kappa))
    cf1 = TorusCF(sigma, theta1, kappa)
    cf2 = TorusCF(sigma, theta2, -kappa if kappa != 0 else 0)
    return _certified_circle_family("twisted-pair", StatMatrix.from_signs([[1, 1], [1, -1]]),
                                    (cf1, cf2), (("first", cf1), ("second", cf2)))


HADAMARD_SIGNS = ((1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1))


def four_statistic_family(sigma, kappa) -> Family:
    """Four twisted circle bundles with the four orthogonal sign statistics independent.

    Members one and two carry twist +kappa, members three and four -kappa, all
    with the same Gaussian part; no member is Gaussian (kappa must be nonzero,
    that is the whole point), yet the four statistics are independent.
    """
    sigma, kappa = Fraction(as_rational(sigma)), Fraction(as_rational(kappa))
    if kappa == 0:
        raise ConstructionError("not a counterexample: kappa = 0 makes every member Gaussian")
    if not (sigma > 0):
        raise ValueError("sigma must be positive")
    cf_plus = TorusCF(sigma, 0, kappa)
    cf_minus = TorusCF(sigma, 0, -kappa)
    return _certified_circle_family("four-statistic", StatMatrix.from_signs(HADAMARD_SIGNS),
                                    (cf_plus, cf_plus, cf_minus, cf_minus),
                                    (("+twist", cf_plus), ("-twist", cf_minus)))


def z2_signed_measure(kappa) -> Z2SignedMeasure:
    """The measure on {+-1} with CF exp(kappa*(1 - (-1)^n)); signed when kappa != 0."""
    return Z2SignedMeasure.from_twist(kappa)


TRIPLE_SIGNS = ((1, 1, 1), (1, -1, 1), (-1, 1, 1))


@dataclass(frozen=True)
class TriadVerdict:
    """Outcome of the three-sign-statistic scenario on the circle."""

    matrix: StatMatrix
    sigma_solution: tuple
    only_degenerate: bool


def _solve3_exact(rows, rhs):
    """Gaussian elimination over Fractions for a 3x3 system; None when singular."""
    m = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(3):
        piv = next((r for r in range(col, 3) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = m[col][col]
        m[col] = [v / inv for v in m[col]]
        for r in range(3):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [v - factor * w for v, w in zip(m[r], m[col])]
    return tuple(m[r][3] for r in range(3))


def torus_triple_verdict() -> TriadVerdict:
    """Solve the variance balance forced by three sign statistics on the circle.

    Pairwise sum/difference reductions force sigma1 + sigma3 = sigma2,
    sigma2 + sigma3 = sigma1 and sigma1 + sigma2 = sigma3; the system is
    nonsingular, so the only solution is (0, 0, 0): every member is
    degenerate.
    """
    rows = ((1, -1, 1), (-1, 1, 1), (1, 1, -1))
    solution = _solve3_exact(rows, (0, 0, 0))
    if solution is None:
        raise AssertionError("variance balance system unexpectedly singular")
    return TriadVerdict(
        matrix=StatMatrix.from_signs(TRIPLE_SIGNS),
        sigma_solution=solution,
        only_degenerate=(solution == (0, 0, 0)),
    )
