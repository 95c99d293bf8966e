"""Pure-Python references for the closed forms of `cylinderstat.independence`.

`oracle_residual` is the dual-grid scan kept as the reference for
`independence_residual`: it evaluates the independence functional equation
tuple by tuple (fully exact inputs through the scaled-integer scanner,
everything else through the type-preserving generic scanner) and returns
the grid maximum of |LHS_log - RHS_log| and the earliest tuple attaining it.

`oracle_gaussian_system` is the hand expansion of the parameter system in
the reduced coefficients, kept as the reference for `gaussian_system_check`.

`oracle_product_grid` is the tuple-by-tuple stride subsample kept as the
reference for `DualGrid`: the whole product up to the cap, past it the
tuples at the flat indices k*step % total, slot 0 the most significant digit.
"""

import itertools
import math
from fractions import Fraction

from cylinderstat.charfn import CylinderCF
from cylinderstat.independence import reduced_coefficients


def _all_exact(*values) -> bool:
    """True when every value is an int or a Fraction."""
    return all(isinstance(v, (int, Fraction)) for v in values)


def _cf_params(cf):
    if isinstance(cf, CylinderCF):
        return (cf.sigma, cf.kappa, cf.lam, cf.tau, cf.theta, cf.twist)
    return (cf.sigma, cf.theta, cf.twist)


def _collect_slot_points(grid, n):
    """Unique point objects per slot, keyed by identity (grids reuse objects)."""
    slots = [{} for _ in range(n)]
    for tup in grid:
        for i in range(n):
            y = tup[i]
            slots[i].setdefault(id(y), y)
    return slots


def _exact_int_scanner(cfs, matrix, kind, slots):
    """Integer-arithmetic residual scanner for fully exact inputs, or None.

    Clears all denominators once (parameters by M, transformed s-coordinates
    by L), after which both sides of the functional equation are integer
    combinations; the residual at a tuple is then computed exactly and only
    converted to float for the max.
    """
    n = matrix.n
    if not all(_all_exact(*_cf_params(cf)) for cf in cfs):
        return None
    if kind == "cylinder":
        if not all(_all_exact(e.a, e.c) for row in matrix.rows for e in row):
            return None
        if not all(_all_exact(y.s) for slot in slots for y in slot.values()):
            return None

    M = math.lcm(*(Fraction(p).denominator for cf in cfs for p in _cf_params(cf)))

    if kind == "torus":
        params = []
        for cf in cfs:
            sM = int(cf.sigma * M)
            thM = int(cf.theta * M)
            twM2 = int(2 * cf.twist * M)
            params.append((sM, thM, twM2))

        def log_int(j, m):
            sM, thM, twM2 = params[j]
            re = -(sM * m * m)
            if m % 2:
                re += twM2
            return re, thM * m

        tables = [[{} for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                p = matrix.rows[i][j].p
                tab = tables[i][j]
                for key, y in slots[i].items():
                    ty = p * y
                    lr, li = log_int(j, ty)
                    tab[key] = (ty, lr, li)
        scale_re = float(M)
        scale_im = float(M)

        def tuple_residual(tup):
            dre = 0
            dim = 0
            for j in range(n):
                row = tables[0][j]
                hit = row[id(tup[0])]
                arg = hit[0]
                rre = hit[1]
                rim = hit[2]
                for i in range(1, n):
                    hit = tables[i][j][id(tup[i])]
                    arg += hit[0]
                    rre += hit[1]
                    rim += hit[2]
                lre, lim = log_int(j, arg)
                dre += lre - rre
                dim += lim - rim
            return math.hypot(dre / scale_re, dim / scale_im)

        return tuple_residual

    # Cylinder: transformed s-values get a common denominator L.
    transformed = [[dict() for _ in range(n)] for _ in range(n)]
    dens = {1}
    for i in range(n):
        for j in range(n):
            e = matrix.rows[i][j]
            for key, y in slots[i].items():
                ty = e.on_dual(y)
                fs = Fraction(ty.s)
                dens.add(fs.denominator)
                transformed[i][j][key] = (fs, ty.n)
    L = math.lcm(*dens)
    L2 = L * L

    params = []
    for cf in cfs:
        params.append((int(cf.sigma * M), int(cf.kappa * M), int(cf.lam * M),
                       int(cf.tau * M), int(cf.theta * M), int(2 * cf.twist * M)))

    def log_int(j, si, m):
        sM, kM, lM, tM, thM, twM2 = params[j]
        re = -(sM * si * si + kM * si * m * L + lM * m * m * L2)
        if m % 2:
            re += twM2 * L2
        return re, tM * si + thM * m * L

    tables = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            tab = tables[i][j]
            for key, (fs, m) in transformed[i][j].items():
                si = int(fs * L)
                lr, li = log_int(j, si, m)
                tab[key] = (si, m, lr, li)
    scale_re = float(M) * float(L2)
    scale_im = float(M) * float(L)

    def tuple_residual(tup):
        dre = 0
        dim = 0
        for j in range(n):
            hit = tables[0][j][id(tup[0])]
            arg_s = hit[0]
            arg_n = hit[1]
            rre = hit[2]
            rim = hit[3]
            for i in range(1, n):
                hit = tables[i][j][id(tup[i])]
                arg_s += hit[0]
                arg_n += hit[1]
                rre += hit[2]
                rim += hit[3]
            lre, lim = log_int(j, arg_s, arg_n)
            dre += lre - rre
            dim += lim - rim
        return math.hypot(dre / scale_re, dim / scale_im)

    return tuple_residual


def _generic_scanner(cfs, matrix, kind):
    """Type-preserving residual scanner (floats, Fractions, or mixtures)."""
    n = matrix.n
    tables = [[{} for _ in range(n)] for _ in range(n)]
    hypot = math.hypot

    if kind == "torus":
        def tuple_residual(tup):
            dre = 0
            dim = 0
            for j in range(n):
                cf = cfs[j]
                rows = matrix.rows
                arg = 0
                rre = 0
                rim = 0
                for i in range(n):
                    y = tup[i]
                    cache = tables[i][j]
                    hit = cache.get(id(y))
                    if hit is None:
                        ty = rows[i][j].p * y
                        lr, li = cf.log_parts(ty)
                        hit = (ty, lr, li)
                        cache[id(y)] = hit
                    arg += hit[0]
                    rre += hit[1]
                    rim += hit[2]
                lre, lim = cf.log_parts(arg)
                dre += lre - rre
                dim += lim - rim
            return hypot(float(dre), float(dim))
    else:
        def tuple_residual(tup):
            dre = 0
            dim = 0
            for j in range(n):
                cf = cfs[j]
                rows = matrix.rows
                arg_s = 0
                arg_n = 0
                rre = 0
                rim = 0
                for i in range(n):
                    y = tup[i]
                    cache = tables[i][j]
                    hit = cache.get(id(y))
                    if hit is None:
                        ty = rows[i][j].on_dual(y)
                        lr, li = cf.log_parts(ty.s, ty.n)
                        hit = (ty.s, ty.n, lr, li)
                        cache[id(y)] = hit
                    arg_s += hit[0]
                    arg_n += hit[1]
                    rre += hit[2]
                    rim += hit[3]
                lre, lim = cf.log_parts(arg_s, arg_n)
                dre += lre - rre
                dim += lim - rim
            return hypot(float(dre), float(dim))

    return tuple_residual


def oracle_residual(cfs, matrix, grid):
    """(max residual, earliest worst tuple) over the grid, one tuple at a time."""
    kind = "cylinder" if isinstance(cfs[0], CylinderCF) else "torus"
    slots = _collect_slot_points(grid, matrix.n)
    tuple_residual = _exact_int_scanner(cfs, matrix, kind, slots)
    if tuple_residual is None:
        tuple_residual = _generic_scanner(cfs, matrix, kind)
    best = -1.0
    best_idx = -1
    for k, tup in enumerate(grid):
        r = tuple_residual(tup)
        if r > best:
            best = r
            best_idx = k
    return best, grid[best_idx]


N_GRID_RANGE = (-2, -1, 0, 1, 2)


def oracle_gaussian_system(cfs, matrix):
    """The parameter system of three twist-free cylinder bundles, expanded by hand.

    One absolute residual per named identity in the reduced coefficients
    (a, b multipliers, c, d translations, p, q circle signs); "n-grid" is the
    worst value of the remaining pure-integer identity over {-2..2}^3.
    """
    a1, a2, b1, b2, c1, c2, d1, d2, p1, p2, q1, q2 = reduced_coefficients(matrix)
    s1, s2, s3 = (cf.sigma for cf in cfs)
    k1, k2, k3 = (cf.kappa for cf in cfs)
    l1, l2, l3 = (cf.lam for cf in cfs)

    residuals = {
        "sigma-a": s1 * a1 + s2 * a2 + s3,
        "sigma-b": s1 * b1 + s2 * b2 + s3,
        "sigma-ab": s1 * a1 * b1 + s2 * a2 * b2 + s3,
        "kappa-a": k1 * a1 + k2 * a2 + k3,
        "kappa-b": k1 * b1 + k2 * b2 + k3,
        "shift-c": 2 * s1 * c1 + 2 * s2 * c2 + k1 * p1 + k2 * p2 + k3,
        "shift-d": 2 * s1 * d1 + 2 * s2 * d2 + k1 * q1 + k2 * q2 + k3,
        "shift-ad": 2 * s1 * a1 * d1 + 2 * s2 * a2 * d2 + k1 * a1 * q1 + k2 * a2 * q2 + k3,
        "shift-bc": 2 * s1 * b1 * c1 + 2 * s2 * b2 * c2 + k1 * b1 * p1 + k2 * b2 * p2 + k3,
    }

    kc = k1 * c1 + k2 * c2
    kd = k1 * d1 + k2 * d2
    cross = (2 * s1 * c1 * d1 + 2 * s2 * c2 * d2
             + k1 * (c1 * q1 + d1 * p1) + k2 * (c2 * q2 + d2 * p2))
    lam_total = l1 + l2 + l3
    worst = 0
    for n1 in N_GRID_RANGE:
        for n2 in N_GRID_RANGE:
            for n3 in N_GRID_RANGE:
                v = (n1 * n2 * kc + n1 * n3 * kd + n2 * n3 * cross
                     + l1 * (n1 + p1 * n2 + q1 * n3) ** 2
                     + l2 * (n1 + p2 * n2 + q2 * n3) ** 2
                     + l3 * (n1 + n2 + n3) ** 2
                     - lam_total * (n1 * n1 + n2 * n2 + n3 * n3))
                if abs(v) > abs(worst):
                    worst = v
    residuals["n-grid"] = worst
    return {name: abs(float(value)) for name, value in residuals.items()}


def oracle_product_grid(points, n_slots: int, cap: int = 100_000):
    base = len(points)
    total = base ** n_slots
    if total <= cap:
        return [tuple(t) for t in itertools.product(points, repeat=n_slots)]
    step = next(s for s in itertools.count(-(-total // cap)) if math.gcd(s, total) == 1)
    grid = []
    for k in range(cap):
        idx = (k * step) % total
        tup = []
        for _ in range(n_slots):
            idx, r = divmod(idx, base)
            tup.append(points[r])
        grid.append(tuple(reversed(tup)))
    return grid
