"""Sampling the constructed distributions and empirical independence checks.

`sample_bundle` draws any valid bundle from its own law: the line coordinate
t, then the circle coordinate given t, which is the `conditional_circle` law
rotated by (kappa/(2*sigma))*t; shifts and twists included.  Sampling is chunked
with per-chunk seeds derived from the sample index, so a given (seed, count)
pair yields a bit-identical stream no matter how the work is scheduled.  The
empirical independence check estimates

    | E prod_i (L_i, y_i) - prod_i E (L_i, y_i) |

over a probe grid of dual tuples and calibrates "consistent with zero" by a
Gaussian null.  Characters multiply, c(y) * conj c(y') = c(y - y'), so under
independence (with the empirical marginals) joint - prod(marginals) is, by the
delta method, asymptotically a complex Gaussian whose covariance is a closed
form in the empirical CFs at probe differences and sums (Csorgo 1985, "Testing
for independence by the empirical characteristic function").  Draws of the
max-modulus statistic from that law, on their own derived stream, give the
reported band: the observed residual shifted by their 2.5%/97.5% quantiles.
The verdict is one-sided, like the p-value: the residual is consistent with
zero unless it exceeds the null's 97.5% quantile, that is unless band[0] > 0.

The characters are evaluated once per distinct slot point of each statistic
and summed over blocks of rows, together with the Gram matrices the null
needs, so the memory beyond the samples does not grow with count x probes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

from .charfn import CylinderCF, TorusCF, conditional_circle, is_valid_probability
from .groups import TWO_PI, CylinderPoint, DualPoint, as_exact
from .independence import StatMatrix

# numpy is imported inside each function that uses it: the package imports
# this module, and the exact commands (check, solenoid, construct,
# conditions) must start without paying for numpy.

_CHUNK = 1 << 14


@dataclass(frozen=True)
class SampleSet:
    """Arrays of cylinder samples (t_k, theta_k); circle samples have t = 0."""

    t: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        import numpy as np

        t = np.asarray(self.t, dtype=float)
        theta = np.mod(np.asarray(self.theta, dtype=float), TWO_PI)
        if t.shape != theta.shape or t.ndim != 1:
            raise ValueError("t and theta must be 1-D arrays of equal length")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "theta", theta)

    @property
    def count(self) -> int:
        return len(self.t)


def _chunk_generators(seed: int, count: int):
    import numpy as np

    n_chunks = (count + _CHUNK - 1) // _CHUNK
    seqs = np.random.SeedSequence(seed).spawn(n_chunks)
    sizes = [min(_CHUNK, count - i * _CHUNK) for i in range(n_chunks)]
    return [(np.random.default_rng(s), size) for s, size in zip(seqs, sizes)]


def fourier_density(cf: TorusCF, truncation: int, grid_points: int):
    """(angles, density, imaginary part) of a circle bundle by Fourier inversion.

    The CF's Fourier series over the modes -truncation..truncation, summed at
    `grid_points` uniform angles in [0, 2*pi), in blocks of 512 angles so that
    the table of phases stays small.
    """
    import numpy as np

    ns = np.arange(-truncation, truncation + 1)
    coeffs = np.array([cf.eval(int(n)) for n in ns])
    angles = np.linspace(0.0, TWO_PI, grid_points, endpoint=False)
    sums = np.concatenate([(coeffs * np.exp(-1j * np.outer(block, ns))).sum(axis=1)
                           for block in np.split(angles, range(512, grid_points, 512))])
    return angles, sums.real / TWO_PI, sums.imag / TWO_PI


def _circle_draws(cf: TorusCF, u) -> np.ndarray:
    """Inverse-CDF draws at the uniforms u from a valid circle bundle that is not a point mass.

    Two point masses at theta and theta + pi (sigma = 0) are drawn exactly.
    Otherwise the density comes from Fourier inversion at 4096 angles over the
    modes |n| <= sqrt(30/sigma) + 4, past which e^{-sigma*n^2} is below 1e-12,
    and never fewer than 64.  Raises ValueError when that needs more than 512 modes.
    """
    import numpy as np

    if cf.sigma == 0:
        p1 = (1.0 + math.exp(2.0 * float(cf.twist))) / 2.0
        return np.where(u < p1, float(cf.theta), float(cf.theta) + math.pi)
    reach = math.sqrt(30.0 / float(min(cf.sigma, 1)))  # 64 modes serve every sigma >= 1/120
    if reach > 508:
        raise ValueError(f"circle sigma {float(cf.sigma):g} is too small to sample: its density "
                         f"needs more than 512 Fourier modes")
    grid = 4096
    angles, density, _ = fourier_density(cf, max(64, math.ceil(reach) + 4), grid)
    cdf = np.concatenate([[0.0], np.cumsum(np.clip(density, 0.0, None) * (TWO_PI / grid))])
    cdf /= cdf[-1]
    return np.interp(u, cdf, np.concatenate([angles, [TWO_PI]]))


def sample_bundle(cf, count: int, seed: int) -> SampleSet:
    """Draws from a valid cylinder bundle, or from a circle bundle through `cf.cylinder`.

    t is normal with mean 0 and variance 2*sigma, so that the empirical CF tends
    to exp(-sigma*s^2), or 0 when sigma = 0.  theta is (kappa/(2*sigma))*t plus a
    draw of the `conditional_circle` law, from uniforms that each chunk's
    generator gives after its normals; a point mass takes none.  Then tau is added to t.
    """
    import numpy as np

    if count < 1:
        raise ValueError("count must be >= 1")
    if not is_valid_probability(cf):
        raise ValueError(f"not a probability measure: {cf}")
    cf = cf.cylinder
    circle = conditional_circle(cf)
    point = circle.sigma == 0 and circle.twist == 0
    std = math.sqrt(2.0 * float(cf.sigma))
    if not math.isfinite(std):
        raise ValueError(f"sigma {float(cf.sigma)!r} is too large to sample")
    t, u = np.zeros(count), np.empty(0 if point else count)
    for k, (rng, size) in enumerate(_chunk_generators(seed, count)):
        rows = slice(k * _CHUNK, k * _CHUNK + size)
        if cf.sigma:
            t[rows] = rng.normal(0.0, std, size)
        if not point:
            u[rows] = rng.random(size)
    offset = float(circle.theta) if point else _circle_draws(circle, u)
    with np.errstate(over="raise"):  # FloatingPointError for a huge slope or shift
        theta = float(Fraction(cf.kappa, 2 * cf.sigma)) * t if cf.sigma else np.zeros(count)
        theta += offset
        t += float(cf.tau)
    return SampleSet(t, theta)


def sample_line_gaussian(sigma, omega, count: int, seed: int,
                         shift: CylinderPoint = None) -> SampleSet:
    """`sample_bundle` of the Gaussian of CF exp(-sigma*(s + omega*n)^2), shifted."""
    sigma, omega = as_exact(sigma), as_exact(omega)
    shift = shift or CylinderPoint(0, 0)
    return sample_bundle(CylinderCF(sigma, 2 * sigma * omega, sigma * omega * omega,
                                    shift.t, shift.theta), count, seed)


def sample_torus_twisted(cf: TorusCF, count: int, seed: int) -> SampleSet:
    """`sample_bundle` of a twisted circle bundle."""
    return sample_bundle(cf, count, seed)


def empirical_cf(samples: SampleSet, y) -> complex:
    """Empirical characteristic function at a dual point (or integer for the circle)."""
    import numpy as np

    if isinstance(y, DualPoint):
        y = (y.s, y.n)
    s, n = y if isinstance(y, tuple) else (0, y)
    return complex(np.exp(1j * (float(s) * samples.t + int(n) * samples.theta)).mean())


def statistic_samples(samples, matrix: StatMatrix):
    """Apply the statistic matrix rowwise to per-variable sample sets.

    Raises FloatingPointError, an ArithmeticError, when a statistic overflows
    a float, as a huge matrix entry can make it do.
    """
    import numpy as np

    if len(samples) != matrix.n:
        raise ValueError(f"need {matrix.n} sample sets, got {len(samples)}")
    if len({s.count for s in samples}) != 1:
        raise ValueError("sample sets must have equal counts")
    out = []
    with np.errstate(over="raise", invalid="raise"):
        for row in matrix.rows:
            t = np.zeros(samples[0].count)
            theta = np.zeros(samples[0].count)
            for entry, xi in zip(row, samples):
                t += float(entry.a) * xi.t
                theta += float(entry.c) * xi.t + entry.p * xi.theta
            out.append(SampleSet(t, theta))
    return out


_CYL_PROBE_BASE = ((0.25, 0), (0.5, 1), (-0.25, 1), (1.0, 0), (0.5, -1), (-1.0, 2))
_TOR_PROBE_BASE = (1, -1, 2, -2, 3)


def default_probes(n_slots: int, kind: str = "cylinder", count: int = 16,
                   seed: int = 2024):
    """A deterministic probe set of dual tuples, one (s, n) or integer per slot."""
    import numpy as np

    base = _CYL_PROBE_BASE if kind == "cylinder" else _TOR_PROBE_BASE
    if count > len(base) ** n_slots:
        raise ValueError(f"count {count} exceeds the {len(base) ** n_slots} distinct "
                         f"{kind} probes of {n_slots} slots")
    rng = np.random.default_rng(seed)
    probes = {}  # a dict keeps the first draw of each tuple, in order
    while len(probes) < count:
        probes.setdefault(tuple(base[int(rng.integers(len(base)))] for _ in range(n_slots)))
    return list(probes)


# Rows per block of the character pass: its work arrays hold about
# _ROW_BLOCK x (n_stats + 1) x P complex values, whatever the count.
_ROW_BLOCK = 4096


def _slot_points(probes, i: int, kind: str):
    """Statistic i's distinct slot points as (s, n) arrays, and each probe's index into them."""
    import numpy as np

    points = {}
    index = [points.setdefault((float(y[0]), int(y[1])) if kind == "cylinder" else (0.0, int(y)),
                               len(points)) for y in (probe[i] for probe in probes)]
    s, n = np.array(list(points), dtype=float).T
    return s, n, np.array(index)


def _character_moments(stats, probes, kind: str):
    """Row means and Gram matrices of the probe characters, summed over row blocks.

    Statistic i's character at probe p is x_ip = exp(i(s t + n theta)) at
    its slot point (s, n) of p.  Returns (joint, means, grams, pseudos): the
    row means of prod_i x_i and of each x_i, shape (P,), and per statistic
    G_i = X_i^T conj(X_i) / N and H_i = X_i^T X_i / N, shape (P, P).  A block
    evaluates one exp per row and distinct slot point; the Grams are summed
    over the distinct points and read off at each probe's.

    The means equal full-array means bit for bit: numpy adds the rows of a
    C-ordered array with two or more columns in order, so each block's sum
    starts from the previous block's, carried as its first row.  A single
    column is summed pairwise, so one probe takes a single block.
    """
    import numpy as np

    count, n_stats = stats[0].count, len(stats)
    block = _ROW_BLOCK if len(probes) > 1 else count
    slots = [_slot_points(probes, i, kind) for i in range(n_stats)]
    # Each statistic's characters, then their product; row 0 carries the sums.
    cols = np.empty((n_stats + 1, min(block, count) + 1, len(probes)), dtype=complex)
    grams = [0.0] * n_stats
    pseudos = [0.0] * n_stats
    sums = None
    for start in range(0, count, block):
        stop = min(start + block, count)
        rows = slice(1, stop - start + 1)
        for i, (stat, (s, n, index)) in enumerate(zip(stats, slots)):
            x = np.exp(1j * (np.multiply.outer(stat.t[start:stop], s)
                             + np.multiply.outer(stat.theta[start:stop], n)))
            grams[i] = grams[i] + x.T @ x.conj()
            pseudos[i] = pseudos[i] + x.T @ x
            np.take(x, index, axis=1, out=cols[i, rows], mode="clip")
        cols[-1, rows] = cols[0, rows]
        for i in range(1, n_stats):
            cols[-1, rows] *= cols[i, rows]
        if sums is not None:
            cols[:, 0] = sums
            rows = slice(0, rows.stop)
        sums = [c[rows].sum(axis=0) for c in cols]
    means = np.array(sums[:-1]) / count
    grams = [g[np.ix_(index, index)] / count for g, (_, _, index) in zip(grams, slots)]
    pseudos = [h[np.ix_(index, index)] / count for h, (_, _, index) in zip(pseudos, slots)]
    return sums[-1] / count, means, grams, pseudos


def _null_covariance(means, grams, pseudos, count: int) -> np.ndarray:
    """Covariance of (Re D, Im D), D = joint - prod of marginals, under independence.

    By the delta method D is, to first order, the row mean of
    prod_i x_i - M - sum_i w_i (x_i - m_i), with M = prod_i m_i and
    w_i = prod_{j != i} m_j.  Independence makes the second moments of the
    product the entrywise product of per-statistic Gram matrices
    G_i = X_i^T conj(X_i) / N (and H_i = X_i^T X_i / N for the pseudo-covariance),
    whose entries are the empirical CFs at probe differences (and sums).
    """
    import numpy as np

    means = np.array(means)
    total = means.prod(axis=0)
    gram_prod = pseudo_prod = 1.0
    gram_lin = pseudo_lin = 0.0
    for i, (g, h, m) in enumerate(zip(grams, pseudos, means)):
        w = np.delete(means, i, axis=0).prod(axis=0)
        gram_prod = gram_prod * g
        pseudo_prod = pseudo_prod * h
        gram_lin = gram_lin + np.outer(w, w.conj()) * (g - np.outer(m, m.conj()))
        pseudo_lin = pseudo_lin + np.outer(w, w) * (h - np.outer(m, m))
    gamma = (gram_prod - np.outer(total, total.conj()) - gram_lin) / count
    pseudo = (pseudo_prod - np.outer(total, total) - pseudo_lin) / count
    return np.block([[(gamma + pseudo).real, (pseudo - gamma).imag],
                     [(pseudo + gamma).imag, (gamma - pseudo).real]]) / 2


# Null draws per block: bounds the work array at _NULL_BLOCK x 2P floats.
# Blocks consume the generator in order, so the draws do not depend on it.
_NULL_BLOCK = 4096


def _null_maxima(cov: np.ndarray, draws: int, rng) -> np.ndarray:
    """max_p |D| for `draws` vectors of the centred Gaussian with covariance `cov`.

    Negative eigenvalues are rounding (the matrix is singular for one row,
    repeated probes or constant statistics) and are clipped to 0.
    """
    import numpy as np

    vals, vecs = np.linalg.eigh(cov)
    factor = (vecs * np.sqrt(np.clip(vals, 0.0, None))).T
    half = cov.shape[0] // 2
    out = np.empty(draws)
    for start in range(0, draws, _NULL_BLOCK):
        z = rng.standard_normal((min(_NULL_BLOCK, draws - start), cov.shape[0]))
        # z @ factor, summed in a fixed order: a matmul rounds each row
        # differently depending on how many rows the block has.
        x = np.zeros_like(z)
        for j, row in enumerate(factor):
            x += z[:, j, None] * row
        out[start:start + len(z)] = np.hypot(x[:, :half], x[:, half:]).max(axis=1)
    return out


def empirical_independence(samples, matrix: StatMatrix, probes=None,
                           bootstrap: int = 200, seed: int = 0, kind: str = None):
    """Empirical independence report for the statistics defined by the matrix.

    Returns a dict with the max residual over the probe grid, the worst
    probe, and (when bootstrap > 0) the Gaussian null described in the module
    docstring: `bootstrap` null draws give the band, the verdict
    `consistent_with_zero` and a one-sided `p_value`.
    """
    import numpy as np

    if kind is None:
        kind = "torus" if matrix.is_sign_matrix() and all(
            np.all(s.t == 0) for s in samples) else "cylinder"
    if probes is None:
        probes = default_probes(matrix.n, kind)
    stats = statistic_samples(samples, matrix)
    count = stats[0].count
    joint, means, grams, pseudos = _character_moments(stats, probes, kind)
    marginal = means[0]
    for m in means[1:]:
        marginal = marginal * m
    residuals = np.abs(joint - marginal)
    worst = int(residuals.argmax())
    max_residual = float(residuals[worst])

    report = {
        "count": count,
        "probes": len(probes),
        "max_residual": max_residual,
        "worst_probe": probes[worst],
        "residuals": [float(r) for r in residuals],
        "bootstrap": bootstrap,
    }
    if bootstrap > 0:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB0057]))
        cov = _null_covariance(means, grams, pseudos, count)
        null_stats = _null_maxima(cov, bootstrap, rng)
        lo, hi = np.quantile(null_stats, [0.025, 0.975])
        band = (max_residual - float(hi), max_residual - float(lo))
        report["null"] = "gaussian"
        report["null_band"] = band
        report["p_value"] = (1 + int(np.count_nonzero(null_stats >= max_residual))) / (1 + bootstrap)
        report["consistent_with_zero"] = band[0] <= 0.0
    return report


def save_samples_csv(samples: SampleSet, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "theta"])
        for t, theta in zip(samples.t, samples.theta):
            writer.writerow([repr(float(t)), repr(float(theta))])
