"""Sampling the constructed distributions and empirical independence checks.

`sample_bundle` draws any valid bundle from its own law: the line coordinate
t, then the circle coordinate given t, the `conditional_circle` law rotated by
(kappa/(2*sigma))*t, as a wrapped normal that a uniform keeps or moves by pi;
shifts and twists included.  Sampling is chunked with per-chunk seeds derived
from the sample index, so a given (seed, count) pair yields a bit-identical
stream no matter how the work is scheduled.  The empirical independence check
estimates

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

`stream_bundle` gives a member's draws one chunk at a time, and `sample_bundle`
collects them into arrays.  One pass reads the members' rows a block at a time,
from their streams or as views of their sample sets.  For each block it computes
the statistics, evaluates their characters once per distinct slot point, and
sums them together with the Gram matrices the null needs.  So on streams, as
`simulate` runs it, the memory is one sampler chunk per member and one row
block, whatever the count.
"""

from __future__ import annotations

import csv
import math
import sys
from fractions import Fraction

from .charfn import CylinderCF, TorusCF, conditional_circle, is_valid_probability
from .groups import TWO_PI, CylinderPoint, DualPoint, Record, as_exact, sci
from .independence import StatMatrix

# Last, so that the package's modules compile before numpy is mapped: a lower peak RSS.
import numpy as np

_CHUNK = 1 << 14


class SampleSet(Record):
    """Arrays of cylinder samples (t_k, theta_k); circle samples have t = 0."""

    t: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        theta = np.mod(np.asarray(self.theta, dtype=float), TWO_PI)
        if t.shape != theta.shape or t.ndim != 1:
            raise ValueError("t and theta must be 1-D arrays of equal length")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "theta", theta)

    @classmethod
    def _wrapped(cls, t: np.ndarray, theta: np.ndarray) -> SampleSet:
        """The sample set of float arrays whose theta is already in [0, 2*pi), without
        copying them: wrapping a wrapped angle again may move 2*pi to 0."""
        out = object.__new__(cls)
        object.__setattr__(out, "t", t)
        object.__setattr__(out, "theta", theta)
        return out

    @property
    def count(self) -> int:
        return len(self.t)

    @property
    def chunks(self):
        """The samples as one (t, theta) chunk, as a `SampleStream` gives them in several."""
        return [(self.t, self.theta)]


class SampleStream:
    """`count` samples as an iterator of (t, theta) chunks, theta in [0, 2*pi); read once."""

    def __init__(self, count: int, chunks):
        self.count, self.chunks = count, chunks


def _chunk_generators(seed: int, count: int):
    """Each chunk's generator and size, one at a time."""
    n_chunks = (count + _CHUNK - 1) // _CHUNK
    for k, seq in enumerate(np.random.SeedSequence(seed).spawn(n_chunks)):
        yield np.random.default_rng(seq), min(_CHUNK, count - k * _CHUNK)


def _keep_ratio(circle: TorusCF):
    """y -> f(y)/W(y) at angles y in [-pi, pi), f the circle law less its theta; a if sigma = 0.

    For sigma >= 1, Fourier series over |n| <= 6, by 2cos((n+1)y) = 2cos(y)*2cos(ny)
    - 2cos((n-1)y), whose coefficients `TorusCF.eval` sums exactly.  Below, a + b*W(y
    + pi)/W(y) by the normal's images y + m*pi over the one at m = 0: the sum of
    e^{-m*pi*(m*pi + 2y)/(4*sigma)} over odd m over that over even m, |m| <= 5.  The
    first term left out is below e^{-36}.  At a tiny sigma the odd sum may be inf.
    """
    if circle.sigma >= 1:
        twisted, plain = TorusCF(circle.sigma, 0, circle.twist), TorusCF(circle.sigma)
        coeffs = [(twisted.eval(n).real, plain.eval(n).real) for n in range(1, 7)]
        def ratio(y):
            cos1 = 2 * np.cos(y)
            prev, cos_n, num, den = 2.0, cos1, 1.0, 1.0
            for c, w in coeffs:
                num, den = num + c * cos_n, den + w * cos_n
                prev, cos_n = cos_n, cos1 * cos_n - prev
            return num / den
        return ratio
    twist = float(max(circle.twist, -1000))  # e^{-2000} is 0.0, and float(w) may not exist
    if circle.sigma == 0:
        return lambda y: (1.0 + math.exp(2.0 * twist)) / 2.0
    sigma, b = float(circle.sigma), -math.expm1(2 * twist) / 2
    def ratio(y):
        with np.errstate(all="ignore"):  # sigma may be 0.0 as a float
            odd, even = ([np.exp(-m * math.pi * (m * math.pi + 2 * y) / (4 * sigma)) for m in ms]
                         for ms in ((-5, -3, -1, 1, 3, 5), (-4, -2, 2, 4)))
            return (1 - b) + b * (sum(odd) / (1 + sum(even)))
    return ratio


# Rows per evaluation of the keep ratio, whose work arrays are a dozen of these rows.
_RATIO_ROWS = 2048


def _moved(keep, y: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Whether each draw y moves by pi: its uniform is not below keep(y); a NaN ratio
    (0 * inf, a twist below the float range) keeps.  Evaluated in runs of rows."""
    out = np.empty(len(y), dtype=bool)
    for start in range(0, len(y), _RATIO_ROWS):
        rows = slice(start, start + _RATIO_ROWS)
        np.less_equal(keep(y[rows]), uniforms[rows], out=out[rows])
    return out


def stream_bundle(cf, count: int, seed: int) -> SampleStream:
    """Draws from a valid cylinder bundle, or from a circle bundle through `cf.cylinder`,
    one chunk at a time.

    t is normal with mean 0 and variance 2*sigma, so that the empirical CF tends
    to exp(-sigma*s^2), or 0 when sigma = 0.  theta is (kappa/(2*sigma))*t plus a
    draw of the `conditional_circle` law f of variance v and twist w, less its theta:
    y from the wrapped normal W of CF e^{-v*n^2}, kept if a uniform is below f(y)/W(y)
    and else moved by pi.  f = a*W(x) + b*W(x + pi), a = (1 + e^{2w})/2 = 1 - b, so
    f(x) + f(x + pi) = W(x) + W(x + pi): exactly one of f/W at x and x + pi is >= 1,
    and y has density f; min(1, f/W) is a probability as f >= 0.  Each chunk's
    generator gives the line normals, the circle normals if v > 0, then the
    uniforms if w != 0.  Then the law's theta is added to theta, and tau to t.

    The bundle is checked here; a chunk raises FloatingPointError, an
    ArithmeticError, when its slope or shift overflows a float.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not is_valid_probability(cf):
        raise ValueError(f"not a probability measure: {cf}")
    cf = cf.cylinder
    circle = conditional_circle(cf)
    # Exactly: float(cf.sigma) and float(cf.tau) may not exist.
    if 2 * cf.sigma > sys.float_info.max:
        raise ValueError(f"sigma {sci(cf.sigma)} is too large to sample")
    if abs(cf.tau) > sys.float_info.max:
        raise ValueError(f"tau {sci(abs(cf.tau))} is too large to sample")
    std = math.sqrt(2.0 * float(cf.sigma))
    # Past v = 1000, e^{-v*n^2} is 0.0 at n != 0: W is the uniform law in doubles.
    circle_std = math.sqrt(2.0 * float(min(circle.sigma, 1000)))
    keep = _keep_ratio(circle) if circle.twist else None
    slope = float(Fraction(cf.kappa, 2 * cf.sigma)) if cf.sigma else 0.0
    shift, tau = float(circle.theta), float(cf.tau)

    def chunks():
        for rng, size in _chunk_generators(seed, count):
            # Not across the yield: the caller's code would run under it.
            with np.errstate(over="raise"):  # FloatingPointError for a huge slope or shift
                t = rng.normal(0.0, std, size) if cf.sigma else np.zeros(size)
                if circle.sigma:
                    y = rng.normal(0.0, circle_std, size)
                    y += math.pi
                    np.mod(y, TWO_PI, out=y)
                    y -= math.pi
                else:
                    y = np.zeros(size)
                if circle.twist:
                    moved = _moved(keep, y, rng.random(size))
                y += shift
                if circle.twist:
                    y[moved] += math.pi
                theta = slope * t
                theta += y
                np.mod(theta, TWO_PI, out=theta)
                t += tau
            yield t, theta
    return SampleStream(count, chunks())


def sample_bundle(cf, count: int, seed: int) -> SampleSet:
    """All the draws of `stream_bundle`, collected into two arrays."""
    stream = stream_bundle(cf, count, seed)
    t, theta = np.empty(count), np.empty(count)
    start = 0
    for t_chunk, theta_chunk in stream.chunks:
        stop = start + len(t_chunk)
        t[start:stop], theta[start:stop] = t_chunk, theta_chunk
        start = stop
    return SampleSet._wrapped(t, theta)


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
    if isinstance(y, DualPoint):
        y = (y.s, y.n)
    s, n = y if isinstance(y, tuple) else (0, y)
    return complex(np.exp(1j * (float(s) * samples.t + int(n) * samples.theta)).mean())


def _check_samples(samples, matrix: StatMatrix) -> None:
    """Refuse sample sets that do not fit the matrix, or whose counts differ."""
    if len(samples) != matrix.n:
        raise ValueError(f"need {matrix.n} sample sets, got {len(samples)}")
    if len({s.count for s in samples}) != 1:
        raise ValueError("sample sets must have equal counts")


def _statistic_block(rows, matrix: StatMatrix) -> list:
    """Each statistic over some rows: the matrix applied rowwise to each member's
    (t, theta) over those rows.

    Raises FloatingPointError, an ArithmeticError, when a statistic overflows
    a float, as a huge matrix entry can make it do.
    """
    out = []
    with np.errstate(over="raise", invalid="raise"):
        for row in matrix.rows:
            t = np.zeros(len(rows[0][0]))
            theta = np.zeros(len(rows[0][0]))
            for entry, (xi_t, xi_theta) in zip(row, rows):
                t += float(entry.a) * xi_t
                theta += float(entry.c) * xi_t + entry.p * xi_theta
            out.append(SampleSet(t, theta))
    return out


def statistic_samples(samples, matrix: StatMatrix):
    """Apply the statistic matrix rowwise to per-variable sample sets, over every row.

    The character pass computes the same statistics one row block at a time.

    Raises FloatingPointError, an ArithmeticError, when a statistic overflows
    a float, as a huge matrix entry can make it do.
    """
    _check_samples(samples, matrix)
    return _statistic_block([(s.t, s.theta) for s in samples], matrix)


_CYL_PROBE_BASE = ((0.25, 0), (0.5, 1), (-0.25, 1), (1.0, 0), (0.5, -1), (-1.0, 2))
_TOR_PROBE_BASE = (1, -1, 2, -2, 3)


def default_probes(n_slots: int, kind: str = "cylinder", count: int = 16,
                   seed: int = 2024):
    """A deterministic probe set of dual tuples, one (s, n) or integer per slot."""
    base = _CYL_PROBE_BASE if kind == "cylinder" else _TOR_PROBE_BASE
    if count > len(base) ** n_slots:
        raise ValueError(f"count {count} exceeds the {len(base) ** n_slots} distinct "
                         f"{kind} probes of {n_slots} slots")
    rng = np.random.default_rng(seed)
    probes = {}  # a dict keeps the first draw of each tuple, in order
    while len(probes) < count:
        probes.setdefault(tuple(base[int(rng.integers(len(base)))] for _ in range(n_slots)))
    return list(probes)


# Rows per block of the character pass: its work arrays hold the statistics and
# characters of at most _ROW_BLOCK rows, so its memory is one row block, whatever
# the count.  The Gram matrices are summed per block, and round as their blocks do.
_ROW_BLOCK = 4096
# Rows per product of the probe characters, within a block.
_PRODUCT_ROWS = 256


def _slot_points(probes, i: int, kind: str):
    """Statistic i's distinct slot points as (s, n) arrays, and each probe's index into them."""
    points = {}
    index = [points.setdefault((float(y[0]), int(y[1])) if kind == "cylinder" else (0.0, int(y)),
                               len(points)) for y in (probe[i] for probe in probes)]
    s, n = np.array(list(points), dtype=float).T
    return s, n, np.array(index)


def _blocks(chunks, size: int):
    """The rows of (t, theta) chunks in blocks of `size` rows, the last one shorter:
    views where a block lies within one chunk, else the rows joined."""
    pieces, have = [], 0
    for t, theta in chunks:
        start = 0
        while start < len(t):
            stop = min(len(t), start + size - have)
            pieces.append((t[start:stop], theta[start:stop]))
            have, start = have + stop - start, stop
            if have == size:
                yield _joined(pieces)
                pieces, have = [], 0
    if pieces:
        yield _joined(pieces)


def _joined(pieces) -> tuple:
    return pieces[0] if len(pieces) == 1 else tuple(map(np.concatenate, zip(*pieces)))


def _carried_sum(buf: np.ndarray, size: int, total):
    """total plus the sum of rows 1..size of buf, added in row order; row 0 carries total.

    numpy adds the rows of a C-ordered array with two or more columns in order, so
    sums carried this way equal the full array's bit for bit, however the rows are
    split.  A single column is summed pairwise.
    """
    if total is None:
        return buf[1:size + 1].sum(axis=0)
    buf[0] = total
    return buf[:size + 1].sum(axis=0)


def _character_moments(samples, matrix: StatMatrix, probes, kind: str):
    """Row means and Gram matrices of the probe characters, in one pass over the rows.

    `samples` are the members' `SampleSet`s or `SampleStream`s; the pass reads each
    member's rows a block at a time, as views of its chunks, and computes that
    block of the statistics.  Statistic i's character at probe p is
    x_ip = exp(i(s t + n theta)) at its slot point (s, n) of p.  Returns (joint,
    means, grams, pseudos): the row means of prod_i x_i and of each x_i, shape
    (P,), and per statistic G_i = X_i^T conj(X_i) / N and H_i = X_i^T X_i / N,
    shape (P, P).  A block evaluates one exp per row and distinct slot point; the
    means and Grams are summed over the distinct points and read off at each
    probe's, and the products over the probes are formed _PRODUCT_ROWS rows at a
    time.  The characters, their phases and the products are computed in buffers
    allocated once.

    The means equal full-array means bit for bit (`_carried_sum`).  A single
    column is summed pairwise, so a statistic with one distinct point gets a
    second, zero column, and one probe takes a single block.
    """
    _check_samples(samples, matrix)
    count, n_probes = samples[0].count, len(probes)
    block = _ROW_BLOCK if n_probes > 1 else count
    height = min(block, count)
    part = min(_PRODUCT_ROWS, height) if n_probes > 1 else height
    slots = [_slot_points(probes, i, kind) for i in range(matrix.n)]
    # Each statistic's characters at its distinct points; row 0 carries the sums of
    # the blocks before, as row 0 of `joint` carries those of the probes' products.
    chars = [np.zeros((height + 1, max(len(s), 2 if n_probes > 1 else 1)), dtype=complex)
             for s, _, _ in slots]
    phases = np.empty((2, height, max(len(s) for s, _, _ in slots)))
    joint = np.empty((part + 1, n_probes), dtype=complex)
    factor = np.empty((part, n_probes), dtype=complex)
    grams = [0.0] * matrix.n
    pseudos = [0.0] * matrix.n
    sums = [None] * matrix.n
    joint_sum = None
    for rows in zip(*(_blocks(member.chunks, block) for member in samples), strict=True):
        size = len(rows[0][0])
        stats = _statistic_block(rows, matrix)
        for i, (stat, (s, n, _), buf) in enumerate(zip(stats, slots, chars)):
            x, phase, turns = buf[1:size + 1, :len(s)], *phases[:, :size, :len(s)]
            np.multiply.outer(stat.t, s, out=phase)
            np.multiply.outer(stat.theta, n, out=turns)
            phase += turns
            np.multiply(1j, phase, out=x)
            np.exp(x, out=x)
            # A padded buffer's column is copied, so that its Grams round as an unpadded one's.
            x = np.ascontiguousarray(x)
            grams[i] = grams[i] + x.T @ x.conj()
            pseudos[i] = pseudos[i] + x.T @ x
            sums[i] = _carried_sum(buf, size, sums[i])
        for start in range(0, size, part):
            stop = min(start + part, size)
            product, within = joint[1:stop - start + 1], slice(start + 1, stop + 1)
            np.take(chars[0][within], slots[0][2], axis=1, out=product)
            for buf, (_, _, index) in zip(chars[1:], slots[1:]):
                np.take(buf[within], index, axis=1, out=factor[:stop - start])
                product *= factor[:stop - start]
            joint_sum = _carried_sum(joint, stop - start, joint_sum)
    means = np.array([total[index] for total, (_, _, index) in zip(sums, slots)]) / count
    grams = [g[np.ix_(index, index)] / count for g, (_, _, index) in zip(grams, slots)]
    pseudos = [h[np.ix_(index, index)] / count for h, (_, _, index) in zip(pseudos, slots)]
    return joint_sum / count, means, grams, pseudos


def _null_covariance(means, grams, pseudos, count: int) -> np.ndarray:
    """Covariance of (Re D, Im D), D = joint - prod of marginals, under independence.

    By the delta method D is, to first order, the row mean of
    prod_i x_i - M - sum_i w_i (x_i - m_i), with M = prod_i m_i and
    w_i = prod_{j != i} m_j.  Independence makes the second moments of the
    product the entrywise product of per-statistic Gram matrices
    G_i = X_i^T conj(X_i) / N (and H_i = X_i^T X_i / N for the pseudo-covariance),
    whose entries are the empirical CFs at probe differences (and sums).
    """
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


def _quantiles(values: np.ndarray, qs) -> list:
    """`np.quantile(values, qs)` of finite values, by numpy's default linear rule.

    np.quantile imports numpy.ma, through np.unique, which costs more than the two
    quantiles of a null band.  As numpy does, a fraction of at least 1/2 interpolates
    down from the upper neighbour, so the results are equal.
    """
    ordered = np.sort(values).tolist()
    last = len(ordered) - 1
    out = []
    for q in qs:
        pos = last * q
        i = math.floor(pos)
        if i >= last:
            out.append(ordered[last])
            continue
        a, b, frac = ordered[i], ordered[i + 1], pos - i
        out.append(b - (b - a) * (1 - frac) if frac >= 0.5 else a + (b - a) * frac)
    return out


def empirical_independence(samples, matrix: StatMatrix, probes=None,
                           bootstrap: int = 200, seed: int = 0, kind: str = None):
    """Empirical independence report for the statistics defined by the matrix.

    `samples` are the members' `SampleSet`s, or their `SampleStream`s, which the
    call reads once and which need `kind`.  Returns a dict with the max residual
    over the probe grid, the worst probe, and (when bootstrap > 0) the Gaussian
    null described in the module docstring: `bootstrap` null draws give the band,
    the verdict `consistent_with_zero` and a one-sided `p_value`.
    """
    if kind is None:
        if not all(isinstance(s, SampleSet) for s in samples):
            raise ValueError("empirical_independence: streamed samples need kind "
                             "('cylinder' or 'torus')")
        kind = "torus" if matrix.is_sign_matrix() and all(
            np.all(s.t == 0) for s in samples) else "cylinder"
    if probes is None:
        probes = default_probes(matrix.n, kind)
    joint, means, grams, pseudos = _character_moments(samples, matrix, probes, kind)
    count = samples[0].count
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
        lo, hi = _quantiles(null_stats, (0.025, 0.975))
        band = (max_residual - hi, max_residual - lo)
        report["null"] = "gaussian"
        report["null_band"] = band
        report["p_value"] = (1 + int(np.count_nonzero(null_stats >= max_residual))) / (1 + bootstrap)
        report["consistent_with_zero"] = band[0] <= 0.0
    return report


def tee_samples_csv(samples, path) -> SampleStream:
    """`samples`, a `SampleSet` or `SampleStream`, as a stream that writes each chunk
    to a CSV file at `path` (columns t, theta) as it is read."""
    def chunks():
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "theta"])
            for t, theta in samples.chunks:
                writer.writerows(zip(map(repr, t.tolist()), map(repr, theta.tolist())))
                yield t, theta
    return SampleStream(samples.count, chunks())

