"""Independence residual, condition suite, parameter system, classifiers."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import REF_COEFFS, random_rejected_coefficients, random_valid_coefficients
from cylinderstat.charfn import CylinderCF, TorusCF, convolve
from cylinderstat.families import (four_statistic_family, line_gaussian_family,
                                   torus_triple_verdict, twisted_torus_pair)
from cylinderstat.groups import CylinderAuto, DualPoint, replace
from cylinderstat.independence import (DegenerateFormError, DualGrid,
                                       SingularSystemError, StatMatrix, SubgroupTag,
                                       classify_step_subgroups,
                                       coefficient_conditions, cubic_identity,
                                       default_grid, gaussian_system_check,
                                       independence_blocks, independence_residual,
                                       nonzero_blocks, nu_support_check,
                                       slot_points, solve_sigmas,
                                       support_identity_gap)
from cylinderstat.solenoid import BaseSequence, rational_dual_grid
from oracle_charfn import oracle_transform
from oracle_scan import oracle_gaussian_system, oracle_product_grid, oracle_residual


def _perturb_entry(matrix, i, j, dc):
    rows = [list(r) for r in matrix.rows]
    e = rows[i][j]
    rows[i][j] = CylinderAuto(e.a, e.c + dc, e.p)
    return StatMatrix.from_rows(rows)


class TestGrids:
    def test_default_sizes(self):
        assert len(default_grid(3, "cylinder")) == 35 ** 3
        assert len(default_grid(4, "torus")) == 5 ** 4
        assert len(default_grid(2, "torus")) == 25

    def test_cap_and_determinism(self):
        g1 = default_grid(3, "cylinder", dense=True, cap=50_000)
        g2 = default_grid(3, "cylinder", dense=True, cap=50_000)
        assert len(g1) == 50_000
        assert list(g1) == list(g2)

    def test_covers_both_parities(self):
        grid = default_grid(2, "torus", cap=10)
        assert any(any(n % 2 for n in tup) for tup in grid)


def _same_points(grid, reference):
    """Equal tuples holding the very same point objects, slot by slot."""
    return grid == reference and all(
        y is z for tup, ref in zip(grid, reference) for y, z in zip(tup, ref))


class TestGridOracle:
    # trim drops points from the dense set, so that the totals and strides differ.
    @pytest.mark.parametrize("n_slots", [1, 2, 3, 4])
    @pytest.mark.parametrize("cap", [7, 1000, 50_000])
    @pytest.mark.parametrize("trim", [0, 9])
    def test_matches_loop(self, n_slots, cap, trim):
        points = slot_points("cylinder", dense=True)[trim:]
        grid = DualGrid(points, n_slots, cap=cap)
        assert _same_points(list(grid), oracle_product_grid(points, n_slots, cap=cap))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 4), st.integers(1, 3000))
    @example(10, 6, 100_000)  # 10**6 tuples capped at 10**5: each slot still takes all 10
    def test_any_shape_matches_loop(self, n_points, n_slots, cap):
        points = [object() for _ in range(n_points)]
        grid = list(DualGrid(points, n_slots, cap=cap))
        assert len(grid) == min(n_points ** n_slots, cap)
        assert _same_points(grid, oracle_product_grid(points, n_slots, cap=cap))
        assert len(set(grid)) == len(grid)
        if len(grid) >= n_points ** 2:
            assert all(len({tup[i] for tup in grid}) == n_points for i in range(n_slots))

    def test_exact_past_2_to_62(self):
        points = [object() for _ in range(46_341)]
        assert 2 ** 62 < len(points) ** 4 < 2 ** 63
        grid = DualGrid(points, 4, cap=2000)
        assert _same_points(list(grid), oracle_product_grid(points, 4, cap=2000))

    @pytest.mark.parametrize("cap", [7, 100_000])
    def test_index_out_of_range(self, cap):
        grid = default_grid(3, "torus", cap=cap)
        assert grid[len(grid) - 1] == list(grid)[-1]
        for k in (-1, len(grid), len(grid) + 5):
            with pytest.raises(IndexError):
                grid[k]


class TestResidual:
    def test_reference_family_exact_zero(self, ref_family):
        grid = default_grid(3, "cylinder", cap=5000)
        assert independence_residual(ref_family.cfs, ref_family.matrix, grid) == 0.0

    def test_degenerate_members(self):
        cfs = tuple(CylinderCF(0, tau=j, theta=j) for j in range(3))
        m = StatMatrix.from_rows([
            [CylinderAuto(2, 1, -1)] * 3,
            [CylinderAuto(1, 0, 1), CylinderAuto(3, 2, 1), CylinderAuto(1, 1, -1)],
            [CylinderAuto(-1, 0, -1)] * 3,
        ])
        assert independence_residual(cfs, m, default_grid(3, "cylinder", cap=2000)) == 0.0

    def test_worker_invariance(self, ref_family):
        grid = default_grid(3, "cylinder", cap=20_000)
        bad = _perturb_entry(ref_family.matrix, 2, 0, Fraction(1, 10))
        r1, w1 = independence_residual(ref_family.cfs, bad, grid, workers=1,
                                       return_worst=True)
        r3, w3 = independence_residual(ref_family.cfs, bad, grid, workers=3,
                                       return_worst=True)
        assert r1 == r3 and w1 == w3 and r1 > 0

    def test_column_permutation_invariance(self, ref_family):
        grid = default_grid(3, "cylinder", cap=3000)
        perm = (2, 0, 1)
        m2 = StatMatrix.from_rows([[row[j] for j in perm] for row in ref_family.matrix.rows])
        cfs2 = tuple(ref_family.cfs[j] for j in perm)
        r1 = independence_residual(ref_family.cfs, ref_family.matrix, grid)
        r2 = independence_residual(cfs2, m2, grid)
        assert r1 == r2 == 0.0

    def test_shift_invariance_on_symmetrized(self, ref_family):
        from cylinderstat.charfn import symmetrize
        grid = default_grid(3, "cylinder", cap=3000)
        sym = tuple(symmetrize(cf) for cf in ref_family.cfs)
        r0 = independence_residual(sym, ref_family.matrix, grid)
        shifted = tuple(convolve(cf, CylinderCF(0, tau=Fraction(j), theta=Fraction(j)))
                        for j, cf in enumerate(sym))
        r1 = independence_residual(shifted, ref_family.matrix, grid)
        assert abs(r1 - r0) <= 1e-12
        assert r0 == 0.0

    def test_cross_validates_system_check(self, ref_family):
        # Residual zero <=> every parameter identity zero, on the same family
        # and on a perturbation of it.
        grid = default_grid(3, "cylinder", cap=3000)
        ok_sys = gaussian_system_check(ref_family.cfs, ref_family.matrix)
        assert max(ok_sys.values()) == 0.0
        bad = _perturb_entry(ref_family.matrix, 2, 0, Fraction(1, 10))
        bad_sys = gaussian_system_check(ref_family.cfs, bad)
        bad_res = independence_residual(ref_family.cfs, bad, grid)
        assert max(bad_sys.values()) > 1e-12 and bad_res > 1e-12

    def test_mismatched_sizes(self, ref_family):
        with pytest.raises(ValueError):
            independence_residual(ref_family.cfs[:2], ref_family.matrix)

    def test_torus_needs_sign_matrix(self):
        cfs = (TorusCF(1), TorusCF(1))
        m = StatMatrix.from_rows([[CylinderAuto(2, 0, 1)] * 2] * 2)
        with pytest.raises(ValueError):
            independence_residual(cfs, m, default_grid(2, "torus"))

    def test_grid_must_be_a_dual_grid(self, ref_family):
        grid = default_grid(3, "cylinder", cap=20)
        with pytest.raises(TypeError, match="DualGrid"):
            independence_residual(ref_family.cfs, ref_family.matrix, list(grid))

    @pytest.mark.parametrize("n_slots", [2, 4])
    def test_grid_slots_must_match_the_matrix(self, ref_family, n_slots):
        bad = _perturb_entry(ref_family.matrix, 2, 0, Fraction(1, 10))
        with pytest.raises(ValueError, match="slots for 3 statistics"):
            independence_residual(ref_family.cfs, bad, default_grid(n_slots, cap=20))

    def test_float_inputs_small_residual(self):
        fam = line_gaussian_family(1, *REF_COEFFS)
        cfs = tuple(CylinderCF(float(c.sigma), float(c.kappa), float(c.lam))
                    for c in fam.cfs)
        rows = [[CylinderAuto(float(e.a), float(e.c), e.p) for e in row]
                for row in fam.matrix.rows]
        r = independence_residual(cfs, StatMatrix.from_rows(rows),
                                  default_grid(3, "cylinder", cap=3000))
        assert r <= 1e-12

    def test_exact_and_float_paths_agree_off_zero(self, ref_family):
        # A copy rounded to floats is read as the dyadic rationals it holds, so
        # on a genuinely failing family its residual moves only by that rounding.
        grid = default_grid(3, "cylinder", cap=3000)
        bad = _perturb_entry(ref_family.matrix, 2, 0, Fraction(1, 10))
        r_exact = independence_residual(ref_family.cfs, bad, grid)
        cfs_f = tuple(CylinderCF(float(c.sigma), float(c.kappa), float(c.lam))
                      for c in ref_family.cfs)
        rows_f = [[CylinderAuto(float(e.a), float(e.c), e.p) for e in row]
                  for row in bad.rows]
        grid_f = DualGrid([DualPoint(float(y.s), y.n) for y in grid.points], 3, cap=3000)
        assert [[(y.s, y.n) for y in tup] for tup in grid_f] == [
            [(float(y.s), y.n) for y in tup] for tup in grid]
        r_float = independence_residual(cfs_f, StatMatrix.from_rows(rows_f), grid_f)
        assert r_exact > 1.0
        assert r_float == pytest.approx(r_exact, rel=1e-12)

    def test_twisted_cylinder_zero_sum_twists_cancel(self):
        # Same-parity columns plus zero-sum twists cancel identically, so the
        # parameter-level equation holds even though twisted members with
        # positive twist are not genuine probability measures.
        cfs = tuple(CylinderCF(Fraction(1), 0, 0, twist=t)
                    for t in (Fraction(1, 20), Fraction(1, 20), Fraction(-1, 10)))
        ident = CylinderAuto.identity()
        m = StatMatrix.from_rows([
            [ident] * 3,
            [CylinderAuto(2, 0, 1), CylinderAuto(-3, 0, 1), ident],
            [CylinderAuto(Fraction(-4, 5), 0, 1), CylinderAuto(Fraction(-1, 5), 0, 1), ident],
        ])
        assert independence_residual(cfs, m, default_grid(3, "cylinder", cap=2000)) == 0.0

    def test_twisted_cylinder_exact_path(self):
        # Twist terms flow through the scaled-integer scan too.
        cfs = tuple(CylinderCF(Fraction(1), 0, 0, twist=t)
                    for t in (Fraction(1, 20), Fraction(1, 20), Fraction(1, 10)))
        ident = CylinderAuto.identity()
        m = StatMatrix.from_rows([
            [ident] * 3,
            [CylinderAuto(2, 0, 1), CylinderAuto(-3, 0, 1), ident],
            [CylinderAuto(Fraction(-4, 5), 0, 1), CylinderAuto(Fraction(-1, 5), 0, 1), ident],
        ])
        grid = default_grid(3, "cylinder", cap=2000)
        r_exact = independence_residual(cfs, m, grid)
        cfs_f = tuple(CylinderCF(1.0, 0.0, 0.0, twist=float(c.twist)) for c in cfs)
        r_float = independence_residual(cfs_f, m, grid)
        assert r_exact > 0  # twisted members under these statistics are dependent
        assert r_float == pytest.approx(r_exact, rel=1e-9)


def _assert_matches_oracle(cfs, matrix, grid, abs_tol=0.0):
    """Compare the closed form with the pure-Python scan; return the closed form.

    An exact 0.0 must match exactly, worst tuple included.  Above 0.0 the
    values agree within rel 1e-12 (plus abs_tol), and the worst tuples may
    differ only among tuples within that tolerance of the maximum.
    """
    value, worst = independence_residual(cfs, matrix, grid, return_worst=True)
    expected, expected_worst = oracle_residual(cfs, matrix, grid)
    if expected == 0.0 and abs_tol == 0.0:
        assert value == 0.0 and worst == expected_worst
    else:
        close = pytest.approx(expected, rel=1e-12, abs=abs_tol)
        assert value == close
        assert oracle_residual(cfs, matrix, [worst])[0] == close
    return value


def _assert_float_copy_matches_oracle(cfs, matrix, grid):
    """The same family rounded to float parameters and multipliers against the scan.

    The floats are read as the dyadic rationals they are.  The closed form rounds
    at the size of the log-CF terms, not at the size of the residual, so the
    comparison also allows 1e-14 times a bound on the terms.
    """
    n = matrix.n
    if isinstance(cfs[0], TorusCF):
        cfs = tuple(TorusCF(float(cf.sigma), float(cf.theta), float(cf.twist)) for cf in cfs)
        coef = max(abs(cf.sigma) + 2 * abs(cf.twist) for cf in cfs)
        radius = max(abs(y) for tup in grid for y in tup)
    else:
        cfs = tuple(CylinderCF(*(float(v) for v in (cf.sigma, cf.kappa, cf.lam, cf.tau,
                                                      cf.theta, cf.twist))) for cf in cfs)
        matrix = StatMatrix.from_rows([[CylinderAuto(float(e.a), float(e.c), e.p) for e in row]
                                       for row in matrix.rows])
        coef = max(abs(cf.sigma) + abs(cf.kappa) + abs(cf.lam) + 2 * abs(cf.twist) for cf in cfs)
        radius = max(max(abs(y.s), abs(y.n)) for tup in grid for y in tup)
    mult = max(abs(e.a) + abs(e.c) + 1 for row in matrix.rows for e in row)
    term_bound = 2 * n * coef * float(n * mult * radius) ** 2
    return _assert_matches_oracle(cfs, matrix, grid, abs_tol=1e-14 * term_bound)


_ORACLE_GRID = default_grid(3, "cylinder", cap=1500)
_ORACLE_DENSE = default_grid(3, "cylinder", dense=True, cap=1500)
_signs = st.sampled_from((1, -1))
_small = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def admissible_families(draw):
    """A random line-gaussian family: admissible coefficients, signs and slope."""
    coeffs = random_valid_coefficients(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    signs = draw(st.tuples(_signs, _signs, _signs, _signs))
    return line_gaussian_family(draw(_small), *coeffs, *signs)


@st.composite
def perturbed_matrices(draw, matrix):
    """The matrix with one non-identity multiplier (a or c) moved by a nonzero step."""
    i, j = draw(st.sampled_from(((1, 0), (1, 1), (2, 0), (2, 1))))
    delta = draw(_small.filter(lambda d: d != 0))
    e = matrix.entry(i, j)
    if draw(st.booleans()) and e.a + delta != 0:
        changed = CylinderAuto(e.a + delta, e.c, e.p)
    else:
        changed = CylinderAuto(e.a, e.c + delta, e.p)
    rows = [list(row) for row in matrix.rows]
    rows[i][j] = changed
    return StatMatrix.from_rows(rows)


class TestOracle:
    """The closed-form residual agrees with the pure-Python scan it replaced."""

    @settings(max_examples=15, deadline=None)
    @given(admissible_families(), st.booleans())
    def test_random_admissible_families(self, fam, dense):
        grid = _ORACLE_DENSE if dense else _ORACLE_GRID
        assert _assert_matches_oracle(fam.cfs, fam.matrix, grid) == 0.0
        _assert_float_copy_matches_oracle(fam.cfs, fam.matrix, _ORACLE_GRID)

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_perturbed_matrices(self, data):
        fam = data.draw(admissible_families())
        bad = data.draw(perturbed_matrices(fam.matrix))
        _assert_matches_oracle(fam.cfs, bad, _ORACLE_GRID)
        _assert_float_copy_matches_oracle(fam.cfs, bad, _ORACLE_GRID)

    @settings(max_examples=15, deadline=None)
    @given(admissible_families(),
           st.lists(st.fractions(-1, 1, max_denominator=20), min_size=3, max_size=3))
    def test_twisted_cylinders(self, fam, twists):
        cfs = tuple(replace(cf, twist=t) for cf, t in zip(fam.cfs, twists))
        value = _assert_matches_oracle(cfs, fam.matrix, _ORACLE_GRID)
        assert (value == 0.0) == (sum(twists) == 0)
        _assert_float_copy_matches_oracle(cfs, fam.matrix, _ORACLE_GRID)

    @settings(max_examples=15, deadline=None)
    @given(st.fractions(0, 2, max_denominator=8), st.fractions(0, 1, max_denominator=8),
           st.fractions(-1, 1, max_denominator=20))
    def test_torus_families(self, sigma, kappa, extra):
        pair = twisted_torus_pair(1 + sigma, kappa=-kappa / 10)
        four = four_statistic_family(1 + sigma, Fraction(1, 20))
        for fam in (pair, four):
            grid = default_grid(fam.n, "torus")
            assert _assert_matches_oracle(fam.cfs, fam.matrix, grid) == 0.0
            cfs = (replace(fam.cfs[0], twist=fam.cfs[0].twist + extra),) + fam.cfs[1:]
            _assert_matches_oracle(cfs, fam.matrix, grid)
            _assert_float_copy_matches_oracle(cfs, fam.matrix, grid)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.fractions(0, 3, max_denominator=6), min_size=3, max_size=3))
    def test_three_statistic_circle_verdict(self, sigmas):
        matrix = torus_triple_verdict().matrix
        cfs = tuple(TorusCF(s) for s in sigmas)
        value = _assert_matches_oracle(cfs, matrix, default_grid(3, "torus"))
        assert (value == 0.0) == (sigmas == [0, 0, 0])

    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 7), st.data())
    def test_solenoid_rational_grid(self, ref_family_flat, depth, data):
        grid = rational_dual_grid(BaseSequence.counting(8), depth, 3, cap=1500)
        assert _assert_matches_oracle(ref_family_flat.cfs, ref_family_flat.matrix, grid) == 0.0
        bad = data.draw(perturbed_matrices(ref_family_flat.matrix))
        _assert_matches_oracle(ref_family_flat.cfs, bad, grid)


    def test_ties_go_to_the_earliest_tuple(self, ref_family):
        # A twist alone gives bit-identical values on every tuple with the same
        # parity pattern, and the grid spans several evaluation chunks.
        cfs = (replace(ref_family.cfs[0], twist=Fraction(1, 20)),) + ref_family.cfs[1:]
        grid = default_grid(3, "cylinder", cap=20_000)
        assert (independence_residual(cfs, ref_family.matrix, grid, return_worst=True)
                == oracle_residual(cfs, ref_family.matrix, grid))


def _exact_maximum(cfs, matrix, grid):
    """(max |-sum_{i<k} y_i^T C_ik y_k + twist term| over list(grid) in Fractions, earliest tuple).

    The brute-force reference for the integer scan: every tuple of the grid, every
    block, nothing scaled and nothing skipped.
    """
    blocks, twist_sum = independence_blocks(cfs, matrix)
    if isinstance(cfs[0], TorusCF):
        coords = {y: (Fraction(0), y) for y in grid.points}
    else:
        coords = {y: (Fraction(y.s), y.n) for y in grid.points}
    best, worst = -1, None
    for tup in list(grid):
        ys = [coords[y] for y in tup]
        value = -sum(ys[i][0] * (c00 * ys[k][0] + c01 * ys[k][1])
                     + ys[i][1] * (c10 * ys[k][0] + c11 * ys[k][1])
                     for (i, k), ((c00, c01), (c10, c11)) in blocks.items())
        odd = sum(y[1] % 2 for y in ys)
        value += 2 * twist_sum * (odd % 2 - odd)
        if abs(value) > best:
            best, worst = abs(value), tup
    return best, worst


def _assert_exact_maximum(cfs, matrix, grid):
    """The residual is float of the exact maximum, the worst tuple its earliest argmax."""
    value, worst = independence_residual(cfs, matrix, grid, return_worst=True)
    best, expected_worst = _exact_maximum(cfs, matrix, grid)
    assert value == float(best)
    assert worst == expected_worst
    return best


@st.composite
def circle_families(draw, n_slots):
    """n_slots circle bundles with drawn variances and twists under a drawn sign matrix."""
    cfs = tuple(TorusCF(draw(st.fractions(0, 3, max_denominator=6)), 0,
                        draw(st.fractions(-1, 1, max_denominator=20))) for _ in range(n_slots))
    signs = [[draw(_signs) for _ in range(n_slots)] for _ in range(n_slots)]
    return cfs, StatMatrix.from_signs(signs)


# 2000 of the 35**3 tuples: a stride of 22, so runs of one and two tuples share a prefix.
_STRIDED_GRID = default_grid(3, "cylinder", cap=2000)


class TestExactScan:
    """The integer scan against a sum over every tuple in Fractions, compared with ==."""

    @settings(max_examples=10, deadline=None)
    @given(admissible_families())
    def test_random_admissible_families(self, fam):
        assert _assert_exact_maximum(fam.cfs, fam.matrix, _STRIDED_GRID) == 0

    @settings(max_examples=15, deadline=None)
    @given(st.data(), st.sampled_from((_ORACLE_GRID, _ORACLE_DENSE, _STRIDED_GRID)))
    def test_perturbed_matrices(self, data, grid):
        fam = data.draw(admissible_families())
        bad = data.draw(perturbed_matrices(fam.matrix))
        assert _assert_exact_maximum(fam.cfs, bad, grid) > 0

    @settings(max_examples=15, deadline=None)
    @given(admissible_families(),
           st.lists(st.fractions(-1, 1, max_denominator=20), min_size=3, max_size=3))
    def test_twisted_members(self, fam, twists):
        cfs = tuple(replace(cf, twist=t) for cf, t in zip(fam.cfs, twists))
        best = _assert_exact_maximum(cfs, fam.matrix, _STRIDED_GRID)
        assert (best == 0) == (sum(twists) == 0)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 4).flatmap(circle_families), st.booleans())
    def test_circle_families(self, family, dense):
        cfs, matrix = family
        _assert_exact_maximum(cfs, matrix, default_grid(matrix.n, "torus", dense=dense))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 7), st.data())
    def test_solenoid_rational_grid(self, ref_family_flat, depth, data):
        grid = rational_dual_grid(BaseSequence.counting(8), depth, 3, cap=1500)
        bad = data.draw(perturbed_matrices(ref_family_flat.matrix))
        assert _assert_exact_maximum(ref_family_flat.cfs, bad, grid) > 0

    @settings(max_examples=3, deadline=None)
    @given(circle_families(20))
    def test_twenty_circle_slots_past_int64(self, family):
        cfs, matrix = family
        grid = default_grid(20, "torus", dense=True, cap=200)
        assert grid.total == 9 ** 20 > 2 ** 63
        _assert_exact_maximum(cfs, matrix, grid)

    def test_float_points_read_exactly(self, ref_family):
        bad = _perturb_entry(ref_family.matrix, 2, 0, Fraction(1, 10))
        points = [DualPoint(float(y.s) / 3, y.n) for y in slot_points("cylinder")]
        _assert_exact_maximum(ref_family.cfs, bad, DualGrid(points, 3, cap=2000))



class TestBlocks:
    def test_perturbed_reference_has_nonzero_block(self, ref_family):
        blocks, twist_sum = independence_blocks(ref_family.cfs, ref_family.matrix)
        assert twist_sum == 0 and nonzero_blocks(blocks) == []
        assert set(blocks) == {(0, 1), (0, 2), (1, 2)}
        bad = _perturb_entry(ref_family.matrix, 2, 0, Fraction(1, 10))  # d1 off by 1/10
        blocks, twist_sum = independence_blocks(ref_family.cfs, bad)
        assert twist_sum == 0 and nonzero_blocks(blocks) == [(0, 2), (1, 2)]
        assert all(isinstance(v, Fraction) for block in blocks.values()
                   for row in block for v in row)

    def test_non_finite_entry_rejected(self, ref_family):
        # 1e308 is read exactly: the certificate is exact, and only its float
        # residual, which is past the float range, is None.
        cfs = (CylinderCF(1e308, 2e0, 1e0),) + ref_family.cfs[1:]
        blocks, _ = independence_blocks(cfs, ref_family.matrix)
        assert blocks[(0, 1)][0][0] == 4 * Fraction(1e308) - 6 + 2  # sum of 2*sigma_j*a_1j
        assert independence_residual(cfs, ref_family.matrix, _ORACLE_GRID) is None
        system = gaussian_system_check(cfs, ref_family.matrix)
        assert system["sigma-a"] is None and system["kappa-a"] == 0.0


class TestConditions:
    def test_reference_tuple(self):
        rep = coefficient_conditions(*REF_COEFFS)
        assert rep.cubic == 0
        assert rep.sign_row == 2
        assert rep.distinct_a and rep.distinct_b
        assert rep.cross_det == Fraction(14, 5)
        assert rep.corner_det == Fraction(-42, 5)
        assert rep.all_pass

    def test_rejected_tuple(self):
        rep = coefficient_conditions(1, -2, -2, 1)
        assert rep.cubic == 9
        assert not rep.all_pass

    def test_equal_coefficients(self):
        rep = coefficient_conditions(-2, -2, -3, -3)
        assert not rep.distinct_a and not rep.distinct_b

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            coefficient_conditions(0, 1, 1, 1)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            coefficient_conditions(0.5, 1, 1, 1)


class TestSolver:
    def test_reference_solution(self):
        assert solve_sigmas(*REF_COEFFS) == (1, 1, 1)

    def test_third_equation_rejects(self):
        assert solve_sigmas(1, -2, -2, 1) is None

    def test_positivity_rejects(self):
        # All-positive coefficients force a nonpositive component.
        assert solve_sigmas(2, 3, 4, 5) is None

    def test_singular_cross_determinant(self):
        with pytest.raises(SingularSystemError):
            solve_sigmas(1, 2, 2, 4)

    def test_solver_output_satisfies_conditions(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            coeffs = random_valid_coefficients(rng)
            sigmas = solve_sigmas(*coeffs)
            assert sigmas is not None and all(s > 0 for s in sigmas)
            rep = coefficient_conditions(*coeffs)
            assert rep.all_pass, (coeffs, rep)
            # The solution really solves all three equations.
            a1, a2, b1, b2 = coeffs
            s1, s2, s3 = sigmas
            assert s1 * a1 + s2 * a2 + s3 == 0
            assert s1 * b1 + s2 * b2 + s3 == 0
            assert s1 * a1 * b1 + s2 * a2 * b2 + s3 == 0

    def test_rejected_tuples_fail_cubic(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            coeffs = random_rejected_coefficients(rng)
            assert cubic_identity(*coeffs) != 0 or solve_sigmas(*coeffs) is None


class TestSystemCheck:
    def test_zero_for_reference(self, ref_family):
        res = gaussian_system_check(ref_family.cfs, ref_family.matrix)
        assert set(res) == {"sigma-a", "sigma-b", "sigma-ab", "kappa-a", "kappa-b",
                            "shift-c", "shift-d", "shift-ad", "shift-bc", "n-grid"}
        assert max(res.values()) == 0.0

    def test_zero_for_degenerate(self, ref_family):
        cfs = tuple(CylinderCF(0) for _ in range(3))
        assert max(gaussian_system_check(cfs, ref_family.matrix).values()) == 0.0

    def test_perturbed_d1_linear_response(self, ref_family):
        bad = _perturb_entry(ref_family.matrix, 2, 0, Fraction(1, 10))
        res = gaussian_system_check(ref_family.cfs, bad)
        # 2*sigma_1*delta on the d-row; sigma_1 = 1, delta = 1/10.
        assert res["shift-d"] == pytest.approx(0.2)
        assert res["shift-ad"] == pytest.approx(0.4)
        assert res["sigma-a"] == 0.0

    def test_mixed_signs_still_zero(self):
        fam = line_gaussian_family(1, *REF_COEFFS, p1=-1, q2=-1)
        assert max(gaussian_system_check(fam.cfs, fam.matrix).values()) == 0.0

    def test_rejects_twist(self, ref_family):
        cfs = (replace(ref_family.cfs[0], twist=Fraction(1, 10)),) + ref_family.cfs[1:]
        with pytest.raises(ValueError):
            gaussian_system_check(cfs, ref_family.matrix)

    def test_rejects_non_reduced(self, ref_family):
        m = StatMatrix.from_rows([[row[j] for j in (2, 0, 1)] for row in ref_family.matrix.rows])
        with pytest.raises(ValueError):
            gaussian_system_check(ref_family.cfs, m)


@st.composite
def psd_bundles(draw):
    """Three twist-free cylinder bundles with positive semidefinite quadratic parts."""
    cfs = []
    for _ in range(3):
        sigma = draw(st.fractions(0, 3, max_denominator=6))
        extra = draw(st.fractions(0, 3, max_denominator=6))
        kappa = draw(_small) if sigma else Fraction(0)
        lam = kappa * kappa / (4 * sigma) + extra if sigma else extra
        cfs.append(CylinderCF(sigma, kappa, lam, draw(_small), draw(_small)))
    return tuple(cfs)


@st.composite
def reduced_matrices(draw):
    """A reduced 3x3 matrix with random multipliers, translations and circle signs."""
    ident = CylinderAuto.identity()
    nonzero = _small.filter(lambda v: v != 0)
    entries = [CylinderAuto(draw(nonzero), draw(_small), draw(_signs)) for _ in range(4)]
    return StatMatrix.from_rows([[ident] * 3, entries[:2] + [ident], entries[2:] + [ident]])


@st.composite
def system_cases(draw):
    """An admissible, perturbed or random mixed-sign reduced matrix with
    the admissible family's own bundles or random twist-free PSD ones."""
    fam = draw(admissible_families())
    matrix = draw(st.one_of(st.just(fam.matrix), perturbed_matrices(fam.matrix),
                            reduced_matrices()))
    return draw(st.one_of(st.just(fam.cfs), psd_bundles())), matrix


class TestSystemOracle:
    """`gaussian_system_check` reads the blocks; the hand expansion is the reference."""

    @settings(max_examples=60, deadline=None)
    @given(system_cases())
    def test_exact_inputs_give_the_same_dict(self, case):
        cfs, matrix = case
        got = gaussian_system_check(cfs, matrix)
        assert list(got.items()) == list(oracle_gaussian_system(cfs, matrix).items())

    @settings(max_examples=60, deadline=None)
    @given(system_cases())
    def test_float_copies_agree(self, case):
        """Agreement to rel 1e-12 of the largest term an identity sums.

        Both sides round at the size of their terms, so an identity that is
        zero in exact arithmetic reads rounding noise that differs between
        the two summation orders.  Terms are at most 36*P*Q^2 for parameters
        bounded by P and matrix fields by Q (|n| <= 2 on the integer cube).
        """
        cfs, matrix = case
        cfs = tuple(CylinderCF(*(float(v) for v in (cf.sigma, cf.kappa, cf.lam, cf.tau,
                                                      cf.theta))) for cf in cfs)
        matrix = StatMatrix.from_rows([[CylinderAuto(float(e.a), float(e.c), e.p) for e in row]
                                       for row in matrix.rows])
        params = max(1.0, *(abs(v) for cf in cfs for v in (cf.sigma, cf.kappa, cf.lam)))
        fields = max(1.0, *(abs(v) for row in matrix.rows for e in row for v in (e.a, e.c)))
        got = gaussian_system_check(cfs, matrix)
        want = oracle_gaussian_system(cfs, matrix)
        assert list(got) == list(want)
        for name, value in want.items():
            assert got[name] == pytest.approx(value, rel=1e-12,
                                              abs=1e-12 * 36 * params * fields ** 2)


class TestClassifier:
    def test_all_plus_signs(self):
        fam = line_gaussian_family(1, *REF_COEFFS)
        tags = classify_step_subgroups(fam.matrix)
        assert tags.as_tuple() == (SubgroupTag.REAL_AXIS,) * 3
        assert tags.case_index() == 1

    def test_mixed_column_two(self):
        fam = line_gaussian_family(1, *REF_COEFFS, p2=-1)
        tags = classify_step_subgroups(fam.matrix)
        assert tags.as_tuple() == (SubgroupTag.REAL_AXIS, SubgroupTag.DOUBLED,
                                   SubgroupTag.DOUBLED)
        assert tags.case_index() == 2

    def test_equal_negative_signs(self):
        fam = line_gaussian_family(1, *REF_COEFFS, p1=-1, p2=-1, q1=-1, q2=-1)
        tags = classify_step_subgroups(fam.matrix)
        assert tags.as_tuple() == (SubgroupTag.DOUBLED, SubgroupTag.DOUBLED,
                                   SubgroupTag.REAL_AXIS)
        assert tags.case_index() == 4

    def test_sixteen_sign_combinations(self):
        seen_cases = set()
        for p1 in (1, -1):
            for p2 in (1, -1):
                for q1 in (1, -1):
                    for q2 in (1, -1):
                        fam = line_gaussian_family(1, *REF_COEFFS,
                                                   p1=p1, p2=p2, q1=q1, q2=q2)
                        tags = classify_step_subgroups(fam.matrix)
                        expect_col1 = SubgroupTag.REAL_AXIS if p1 == q1 == 1 else SubgroupTag.DOUBLED
                        expect_col2 = SubgroupTag.REAL_AXIS if p2 == q2 == 1 else SubgroupTag.DOUBLED
                        expect_cross = (SubgroupTag.REAL_AXIS
                                        if (p1 == p2 and q1 == q2) else SubgroupTag.DOUBLED)
                        assert tags.as_tuple() == (expect_col1, expect_col2, expect_cross)
                        seen_cases.add(tags.case_index())
        assert seen_cases == {1, 2, 3, 4, 5}

    def test_degenerate_column_raises(self):
        ident = CylinderAuto.identity()
        m = StatMatrix.from_rows([
            [ident] * 3,
            [CylinderAuto(1, Fraction(1), 1), CylinderAuto(-3, 0, 1), ident],
            [CylinderAuto(1, Fraction(2), 1), CylinderAuto(-5, 0, 1), ident],
        ])
        with pytest.raises(DegenerateFormError):
            classify_step_subgroups(m)

    @pytest.mark.parametrize("col1,col2,message", [
        ((2, 3), (1, 1), "column-2 condition violated: a2 = b2 = 1"),
        ((2, 3), (2, 3), "columns share both multipliers: a1 = a2 and b1 = b2"),
    ])
    def test_degenerate_form_is_named(self, col1, col2, message):
        """(a1, b1) and (a2, b2), the multipliers of columns 1 and 2, on a reduced matrix."""
        ident = CylinderAuto.identity()
        m = StatMatrix.from_rows([[ident] * 3,
                                  [CylinderAuto(col1[0]), CylinderAuto(col2[0]), ident],
                                  [CylinderAuto(col1[1]), CylinderAuto(col2[1]), ident]])
        with pytest.raises(DegenerateFormError, match=message):
            classify_step_subgroups(m)

    def test_real_axis_inside_both(self):
        fam = line_gaussian_family(1, *REF_COEFFS, p1=-1, q2=-1)
        tags = classify_step_subgroups(fam.matrix)
        for s in (Fraction(1, 2), Fraction(-3)):
            y = DualPoint(s, 0)
            assert tags.col1.contains(y) and tags.cross.contains(y)


class TestSupportCertificate:
    def test_reference(self, ref_family):
        assert nu_support_check(ref_family.cfs, ref_family.matrix)

    def test_identity_gap_zero_on_valid_tuples(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            coeffs = random_valid_coefficients(rng)
            assert support_identity_gap(*coeffs) == 0

    def test_identity_gap_nonzero_generic(self):
        assert support_identity_gap(1, -2, -2, 1) != 0

    def test_reference_values(self):
        a1, a2, b1, b2 = REF_COEFFS
        lhs = (a2 * b1 - a1 * b2) * ((1 - b2) * (1 - a2) * (a1 - b1)
                                     + (1 - b1) * (1 - a1) * (b2 - a2))
        assert lhs == Fraction(588, 25)
        assert support_identity_gap(a1, a2, b1, b2) == 0

    def test_degenerate_members_trivially_pass(self, ref_family):
        cfs = tuple(CylinderCF(0) for _ in range(3))
        assert nu_support_check(cfs, ref_family.matrix)


class TestNormalForm:
    """Scrambled copies of the reference family, which is in the normal form."""

    def test_scrambled_roundtrip(self, ref_family):
        rng = np.random.default_rng(3)

        def rand_auto():
            a = Fraction(int(rng.integers(1, 6)), int(rng.integers(1, 4)))
            a *= (-1) ** int(rng.integers(2))
            return CylinderAuto(a, Fraction(int(rng.integers(-4, 5))),
                                int(1 - 2 * rng.integers(2)))

        # Scramble: recombine statistics (keeps independence, CFs unchanged)
        # and substitute variables (CFs transform alongside the columns).
        # Stored products are dual-side, so substitutions multiply on the
        # left and recombinations on the right.
        row_mults = [rand_auto() for _ in range(3)]
        col_subs = [rand_auto() for _ in range(3)]
        rows = [[col_subs[j] @ ref_family.matrix.entry(i, j) @ row_mults[i]
                 for j in range(3)] for i in range(3)]
        scrambled = StatMatrix.from_rows(rows)
        scrambled_cfs = tuple(oracle_transform(cf, g.inverse())
                              for cf, g in zip(ref_family.cfs, col_subs))

        grid = default_grid(3, "cylinder", cap=2000)
        assert independence_residual(scrambled_cfs, scrambled, grid) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_substitutions_keep_certificate(self, ref_family, data):
        """Scrambling keeps which certificate blocks are nonzero.

        Variable substitutions (CFs transformed alongside the columns) and
        statistic recombinations of the reference family, perturbed or not.
        """
        matrix = ref_family.matrix
        if data.draw(st.booleans(), label="perturb"):
            matrix = data.draw(perturbed_matrices(matrix))
        autos = st.lists(st.builds(CylinderAuto, _small.filter(lambda a: a != 0), _small,
                                   _signs), min_size=3, max_size=3)
        col_subs, row_mults = data.draw(autos), data.draw(autos)
        scrambled = StatMatrix.from_rows([[col_subs[j] @ matrix.entry(i, j) @ row_mults[i]
                                           for j in range(3)] for i in range(3)])
        scrambled_cfs = tuple(oracle_transform(cf, g.inverse())
                              for cf, g in zip(ref_family.cfs, col_subs))
        expected = nonzero_blocks(independence_blocks(ref_family.cfs, matrix)[0])
        blocks, twist_sum = independence_blocks(scrambled_cfs, scrambled)
        assert nonzero_blocks(blocks) == expected and twist_sum == 0
