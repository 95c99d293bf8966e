"""Sampling the constructed distributions and empirical independence checks.

Sampling is chunked with per-chunk seeds derived from the sample index, so a
given (seed, count) pair yields a bit-identical stream no matter how the work
is scheduled.  The empirical independence check estimates

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
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .charfn import TorusCF, is_valid_probability
from .groups import TWO_PI, CylinderPoint, DualPoint
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


def sample_line_gaussian(sigma, omega, count: int, seed: int,
                         shift: CylinderPoint = None) -> SampleSet:
    """Draws from the Gaussian carried by the line {(t, omega*t)}, plus a shift.

    t is normal with mean 0 and variance 2*sigma, which makes the empirical
    CF converge to exp(-sigma*(s + omega*n)^2); theta = omega*t exactly, so
    every sample sits on the line before shifting.
    """
    import numpy as np

    if count < 1:
        raise ValueError("count must be >= 1")
    sigma = float(sigma)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    std = math.sqrt(2.0 * sigma)
    if not math.isfinite(std):
        raise ValueError(f"sigma {sigma!r} is too large to sample")
    parts = [rng.normal(0.0, std, size) for rng, size in _chunk_generators(seed, count)]
    t = np.concatenate(parts)
    with np.errstate(over="raise"):  # FloatingPointError for a huge omega
        theta = float(omega) * t
    if shift is not None:
        t = t + shift.t
        theta = theta + shift.theta
    return SampleSet(t, theta)


def fourier_density(cf: TorusCF, truncation: int, grid_points: int):
    """(angles, density, imaginary part) of a circle bundle by Fourier inversion.

    The CF's Fourier series over the modes -truncation..truncation, summed at
    `grid_points` uniform angles in [0, 2*pi).
    """
    import numpy as np

    ns = np.arange(-truncation, truncation + 1)
    coeffs = np.array([cf.eval(int(n)) for n in ns])
    angles = np.linspace(0.0, TWO_PI, grid_points, endpoint=False)
    sums = (coeffs[None, :] * np.exp(-1j * np.outer(angles, ns))).sum(axis=1)
    return angles, sums.real / TWO_PI, sums.imag / TWO_PI


def sample_torus_twisted(cf: TorusCF, count: int, seed: int) -> SampleSet:
    """Inverse-CDF draws from a valid twisted circle bundle.

    The sigma = 0 laws (a point mass, or two point masses at theta and
    theta + pi) are sampled exactly.  Otherwise the density comes from Fourier
    inversion at 4096 angles over the modes |n| <= sqrt(30/sigma) + 4, past
    which e^{-sigma*n^2} is below 1e-12, and never fewer than 64.  Raises
    ValueError when that needs more than 512 modes.
    """
    import numpy as np

    if count < 1:
        raise ValueError("count must be >= 1")
    if not is_valid_probability(cf):
        raise ValueError(f"not a probability measure: {cf}")
    u = np.concatenate([rng.random(size) for rng, size in _chunk_generators(seed, count)])
    if cf.sigma == 0:
        theta0 = float(cf.theta)
        p1 = (1.0 + math.exp(2.0 * float(cf.twist))) / 2.0
        return SampleSet(np.zeros(count), np.where(u < p1, theta0, theta0 + math.pi))
    reach = math.sqrt(30.0 / float(min(cf.sigma, 1)))  # 64 modes serve every sigma >= 1/120
    if reach > 508:
        raise ValueError(f"sigma {float(cf.sigma):g} is too small to sample: its density needs "
                         f"more than 512 Fourier modes")
    grid = 4096
    angles, density, _ = fourier_density(cf, max(64, math.ceil(reach) + 4), grid)
    cdf = np.concatenate([[0.0], np.cumsum(np.clip(density, 0.0, None) * (TWO_PI / grid))])
    cdf /= cdf[-1]
    theta = np.interp(u, cdf, np.concatenate([angles, [TWO_PI]]))
    return SampleSet(np.zeros(count), theta)


def empirical_cf(samples: SampleSet, y) -> complex:
    """Empirical characteristic function at a dual point (or integer for the circle)."""
    import numpy as np

    if isinstance(y, DualPoint):
        s, n = float(y.s), y.n
    elif isinstance(y, tuple):
        s, n = float(y[0]), int(y[1])
    else:
        s, n = 0.0, int(y)
    return complex(np.exp(1j * (s * samples.t + n * samples.theta)).mean())


def statistic_samples(samples, matrix: StatMatrix):
    """Apply the statistic matrix rowwise to per-variable sample sets.

    Raises FloatingPointError, an ArithmeticError, when a statistic overflows
    a float, as a huge matrix entry can make it do.
    """
    import numpy as np

    if len(samples) != matrix.n:
        raise ValueError(f"need {matrix.n} sample sets, got {len(samples)}")
    counts = {s.count for s in samples}
    if len(counts) != 1:
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
    rng = np.random.default_rng(seed)
    probes = []
    seen = set()
    while len(probes) < count:
        tup = tuple(base[int(rng.integers(len(base)))] for _ in range(n_slots))
        if tup not in seen:
            seen.add(tup)
            probes.append(tup)
    return probes


def _probe_characters(stats, probes, kind: str) -> np.ndarray:
    """Array (n_stats, count, n_probes) of character values; one exp per distinct slot point."""
    import numpy as np

    n_stats = len(stats)
    count = stats[0].count
    out = np.empty((n_stats, count, len(probes)), dtype=complex)
    for i in range(n_stats):
        columns = {}
        for pi, probe in enumerate(probes):
            y = probe[i]
            key = (float(y[0]), int(y[1])) if kind == "cylinder" else (0.0, int(y))
            columns.setdefault(key, []).append(pi)
        for (s, n), cols in columns.items():
            out[i][:, cols] = np.exp(1j * (s * stats[i].t + n * stats[i].theta))[:, None]
    return out


def _residuals(chars: np.ndarray, means) -> np.ndarray:
    """|mean of products - product of means| per probe, chars (n_stats, count, P)."""
    import numpy as np

    prod = chars[0].copy()
    for i in range(1, chars.shape[0]):
        prod *= chars[i]
    joint = prod.mean(axis=0)
    marginal = means[0]
    for m in means[1:]:
        marginal = marginal * m
    return np.abs(joint - marginal)


def _null_covariance(chars: np.ndarray, means) -> np.ndarray:
    """Covariance of (Re D, Im D), D = joint - prod of marginals, under independence.

    By the delta method D is, to first order, the row mean of
    prod_i x_i - M - sum_i w_i (x_i - m_i), with M = prod_i m_i and
    w_i = prod_{j != i} m_j.  Independence makes the second moments of the
    product the entrywise product of per-statistic Gram matrices
    G_i = X_i^T conj(X_i) / N (and H_i = X_i^T X_i / N for the pseudo-covariance),
    whose entries are the empirical CFs at probe differences (and sums).
    """
    import numpy as np

    count = chars.shape[1]
    means = np.array(means)
    total = means.prod(axis=0)
    gram_prod = pseudo_prod = 1.0
    gram_lin = pseudo_lin = 0.0
    # One conjugate buffer serves every statistic.  A fresh temporary per
    # statistic made the peak RSS depend on heap history through glibc's
    # dynamic mmap threshold (147 or 171 MB at count 1e5, three statistics).
    conj = np.empty_like(chars[0])
    for i, (x, m) in enumerate(zip(chars, means)):
        g = x.T @ np.conjugate(x, out=conj) / count
        h = x.T @ x / count
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
    chars = _probe_characters(stats, probes, kind)
    means = [x.mean(axis=0) for x in chars]

    residuals = _residuals(chars, means)
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
        null_stats = _null_maxima(_null_covariance(chars, means), bootstrap, rng)
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
