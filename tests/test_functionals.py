"""Functionals: evaluation, difference operators, chaos coefficients."""

import itertools
import math

import numpy as np
import pytest

from poisson_chaos import estimation, patterns
from poisson_chaos.config import load_config
from poisson_chaos.errors import (ContractViolationError, EvaluationError,
                                  UnsupportedArityError)
from poisson_chaos.estimation import (McPlan, OracleBudget, PoissonEnumeration,
                                      lattice_shell, shell_size, successor_maps)
from poisson_chaos.functionals import (CHAOS_ORDER_CAP, ChaosVector,
                                       CountPolynomial, Exponential,
                                       LinearCombo, Opaque,
                                       chaos_by_enumeration,
                                       chaos_of_exponential, difference,
                                       difference_counts, difference_rows,
                                       falling_factorial_coeffs,
                                       iterated_difference,
                                       iterated_difference_counts,
                                       poisson_raw_moment, t_coefficient_mc)
from poisson_chaos.patterns import PointPattern
from poisson_chaos.space import Kernel, MeasureSpace
from poisson_chaos.suites.common import POLY4

LN2 = math.log(2.0)


@pytest.fixture
def s1():
    return MeasureSpace(["a"], [1.0])


@pytest.fixture
def s2():
    return MeasureSpace(["a", "b"], [0.5, 1.0])


class TestEvaluation:
    def test_zero_exponent_is_one(self, s2):
        f = Exponential(s2, [0.0, 0.0])
        for counts in ([0, 0], [3, 1], [0, 5]):
            assert f.evaluate(PointPattern(s2, counts)) == 1.0

    def test_exponential_value(self, s1):
        f = Exponential(s1, [LN2])
        assert f.evaluate(PointPattern(s1, [3])) == pytest.approx(0.125)

    def test_count_polynomial_total(self, s2):
        n = CountPolynomial.total_count(s2)
        assert n.evaluate(PointPattern(s2, [2, 1])) == 3.0

    def test_negative_exponent_kernel_rejected(self, s1):
        with pytest.raises(ContractViolationError):
            Exponential(s1, [-0.1])

    def test_overflow_raises_evaluation_error(self, s1):
        f = Opaque(s1, counts_fn=lambda c: np.full(len(c), np.inf))
        with pytest.raises(EvaluationError):
            f.evaluate(PointPattern(s1, [0]))


class TestClosedFormMeans:
    def test_exponential_transform(self, s2):
        f = Exponential(s2, [0.3, 0.7])
        want = math.exp(-(0.5 * (1 - math.exp(-0.3)) + 1.0 * (1 - math.exp(-0.7))))
        assert f.closed_form_mean() == pytest.approx(want)

    def test_count_polynomial_moments(self, s2):
        # E[N_a^2 N_b] with independent Poisson counts
        f = CountPolynomial(s2, [(1.0, (2, 1))])
        want = (0.5 + 0.25) * 1.0
        assert f.closed_form_mean() == pytest.approx(want)

    def test_stirling_moment_helper(self):
        lam = 1.3
        # brute-force Poisson moment by series
        for m in range(5):
            want = sum(k**m * math.exp(-lam) * lam**k / math.factorial(k)
                       for k in range(80))
            assert poisson_raw_moment(lam, m) == pytest.approx(want, rel=1e-12)

    def test_falling_factorial_coeffs(self):
        for k in range(5):
            coeffs = falling_factorial_coeffs(k)
            for n in range(8):
                want = math.perm(n, k) if n >= k else math.prod(n - j for j in range(k))
                got = sum(c * n**i for i, c in enumerate(coeffs))
                assert got == pytest.approx(want)


class TestDifferenceOperators:
    def test_constants_are_annihilated(self, s2):
        c = CountPolynomial(s2, [(4.2, (0, 0))])
        for counts in ([0, 0], [2, 1]):
            assert difference(c, 0, PointPattern(s2, counts)) == 0.0

    def test_exponential_closed_form(self, s1):
        f = Exponential(s1, [LN2])
        chi = PointPattern(s1, [1])
        assert difference(f, 0, chi) == pytest.approx(-0.25)
        assert difference(f, 0, chi) == pytest.approx((0.5 - 1.0) * f.evaluate(chi))

    def test_total_count_has_unit_difference(self, s2):
        n = CountPolynomial.total_count(s2)
        for x in range(2):
            assert difference(n, x, PointPattern(s2, [1, 2])) == 1.0

    def test_second_difference_of_linear_vanishes(self, s2):
        n = CountPolynomial.total_count(s2)
        assert iterated_difference(n, (0, 1), PointPattern(s2, [0, 0])) == 0.0

    def test_iterated_matches_recursion(self, s2):
        f = Exponential(s2, [0.4, 0.9])
        chi = PointPattern(s2, [1, 2])

        def recursive(F, xs, pattern):
            if len(xs) == 1:
                return difference(F, xs[0], pattern)
            head, *tail = xs
            return (recursive(F, tail, pattern.add_point(head))
                    - recursive(F, tail, pattern))

        for n in (1, 2, 3):
            for xs in itertools.product(range(2), repeat=n):
                got = iterated_difference(f, xs, chi)
                want = recursive(f, list(xs), chi)
                assert got == pytest.approx(want, abs=1e-12)

    def test_iterated_is_symmetric_in_the_atoms(self, s2):
        f = Exponential(s2, [0.2, 1.1])
        chi = PointPattern(s2, [2, 0])
        for xs in itertools.permutations((0, 0, 1)):
            assert iterated_difference(f, xs, chi) == pytest.approx(
                iterated_difference(f, (0, 0, 1), chi), abs=1e-14)

    def test_exponential_product_factorization(self, s2):
        f = Exponential(s2, [0.4, 0.9])
        factor = np.exp(-f.v.values) - 1.0
        for total in range(6):
            for ca in range(total + 1):
                chi = PointPattern(s2, [ca, total - ca])
                base = f.evaluate(chi)
                for n in (1, 2, 3):
                    for xs in itertools.product(range(2), repeat=n):
                        want = math.prod(factor[x] for x in xs) * base
                        got = iterated_difference(f, xs, chi)
                        assert got == pytest.approx(want, abs=1e-12)

    def test_order_cap(self, s1):
        f = Exponential(s1, [0.1])
        with pytest.raises(UnsupportedArityError):
            iterated_difference(f, (0,) * 7, PointPattern(s1, [0]))


class TestChaosOfExponential:
    def test_zero_exponent_gives_constant_vector(self, s1):
        cv = chaos_of_exponential(Exponential(s1, [0.0]), 3)
        assert cv.coefficients[0] == 1.0
        for n in range(1, 4):
            assert np.all(cv.coefficients[n].values == 0.0)

    def test_known_values(self, s1):
        cv = chaos_of_exponential(Exponential(s1, [LN2]), 2)
        e = math.exp(-0.5)
        assert cv.coefficients[0] == pytest.approx(e)
        assert cv.coefficients[1].values[0] == pytest.approx(-0.5 * e)
        assert cv.coefficients[2].values[0, 0] == pytest.approx(0.125 * e)

    def test_linearity_over_combinations(self, s1):
        a = Exponential(s1, [0.3])
        b = Exponential(s1, [0.8])
        combo = LinearCombo(s1, [(2.0, a), (-1.0, b)])
        cv = chaos_of_exponential(combo, 3)
        ca = chaos_of_exponential(a, 3)
        cb = chaos_of_exponential(b, 3)
        want = ca * 2.0 + cb * (-1.0)
        assert cv.max_abs_difference(want) < 1e-14

    def test_symmetry_enforced_at_construction(self, s2):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ContractViolationError):
            ChaosVector(s2, [0.0, Kernel(s2, [1.0, 2.0]), Kernel(s2, bad)])


class TestChaosByEnumeration:
    def test_matches_closed_form_for_exponentials(self, s2):
        f = Exponential(s2, [0.3, 0.7])
        budget = OracleBudget.for_space(s2, 1e-12)
        got = chaos_by_enumeration(f, 3, budget)
        want = chaos_of_exponential(f, 3)
        assert got.max_abs_difference(want) < 1e-9

    def test_polynomial_has_finite_order(self, s2):
        f = CountPolynomial.total_count(s2)
        budget = OracleBudget.for_space(s2, 1e-12)
        cv = chaos_by_enumeration(f, 3, budget)
        assert np.allclose(cv.coefficients[1].values, 1.0, atol=1e-10)
        assert np.max(np.abs(cv.coefficients[2].values)) < 1e-10
        assert np.max(np.abs(cv.coefficients[3].values)) < 1e-10


class TestDifferenceMomentEstimates:
    def test_constant_has_zero_moments(self, s1):
        c = CountPolynomial(s1, [(2.5, (0,))])
        est0 = t_coefficient_mc(c, 0, McPlan(2000, 3))
        assert float(est0.values.values) == 2.5
        assert float(est0.se.values) == 0.0
        est1 = t_coefficient_mc(c, 1, McPlan(2000, 3))
        assert float(est1.values.values[0]) == 0.0
        assert float(est1.se.values[0]) == 0.0

    def test_linear_functional_is_noise_free(self, s1):
        n = CountPolynomial.total_count(s1)
        est = t_coefficient_mc(n, 1, McPlan(5000, 5))
        assert float(est.values.values[0]) == 1.0
        assert float(est.se.values[0]) == 0.0

    def test_exponential_first_moment(self, s1):
        f = Exponential(s1, [LN2])
        est = t_coefficient_mc(f, 1, McPlan(100_000, 7))
        want = -0.5 * math.exp(-0.5)
        got = float(est.values.values[0])
        se = float(est.se.values[0])
        assert abs(got - want) <= 4 * se + 1e-6

    def test_order_cap(self, s1):
        with pytest.raises(UnsupportedArityError):
            t_coefficient_mc(Exponential(s1, [0.1]), 5, McPlan(10, 1))

    def test_se_shrinks_with_replicates(self, s1):
        f = Exponential(s1, [LN2])
        ratios = []
        for trial in range(8):
            small = t_coefficient_mc(f, 1, McPlan(2_000, 40 + trial, trial << 20))
            large = t_coefficient_mc(f, 1, McPlan(8_000, 40 + trial, trial << 20))
            ratios.append(float(large.se.values[0] / small.se.values[0]))
        assert 0.35 <= float(np.mean(ratios)) <= 0.65


class TestFunctionalAlgebra:
    def test_exponential_products_stay_exponential(self, s2):
        f = Exponential(s2, [0.3, 0.7])
        g = Exponential(s2, [0.2, 0.1])
        prod = f * g
        assert isinstance(prod, Exponential)
        chi = PointPattern(s2, [1, 2])
        assert prod.evaluate(chi) == pytest.approx(f.evaluate(chi) * g.evaluate(chi))

    def test_polynomial_shift_expansion(self, s2):
        f = CountPolynomial(s2, [(1.0, (2, 1))])
        shifted = f.shifted_by_point(0)
        chi = PointPattern(s2, [1, 3])
        assert shifted.evaluate(chi) == pytest.approx(
            f.evaluate(chi.add_point(0)))

    def test_mixed_combination_evaluates_vectorized(self, s2):
        f = Exponential(s2, [0.3, 0.7]) + CountPolynomial.total_count(s2) * 2.0
        counts = np.array([[0, 0], [2, 1]])
        got = f.evaluate_counts(counts)
        want = [1.0 + 0.0, math.exp(-(2 * 0.3 + 0.7)) + 6.0]
        assert np.allclose(got, want)


class TestDifferenceRows:
    """Columns of ``difference_rows`` are ``difference_counts``, bit for bit."""

    SPACES = {"S1": [1.0], "S2": [0.5, 1.0], "S3": [0.3, 0.3, 0.4]}

    @staticmethod
    def _functionals(space):
        rng = np.random.default_rng(space.size)
        d = space.size
        e1 = Exponential(space, rng.uniform(0.1, 0.9, size=d))
        e2 = Exponential(space, rng.uniform(0.1, 0.9, size=d))
        n = CountPolynomial.total_count(space)
        return [
            e1,
            LinearCombo(space, [(0.5, e1), (-1.5, e2)]),
            n * n + CountPolynomial.atom_count(space, d - 1) * 0.25,
            Opaque(space, counts_fn=lambda c: np.minimum(c.sum(axis=1), 2.0)),
            Opaque(space, fn=lambda p: math.sqrt(1.0 + p.total)),
        ]

    @pytest.mark.parametrize("name", ["S1", "S2", "S3"])
    def test_columns_equal_difference_counts(self, name):
        space = MeasureSpace([f"x{j}" for j in range(len(self.SPACES[name]))],
                             self.SPACES[name])
        counts = np.random.default_rng(7).integers(0, 6, size=(200, space.size))
        for F in self._functionals(space):
            rows = difference_rows(F, counts)
            assert rows.shape == counts.shape
            for x in range(space.size):
                assert np.array_equal(rows[:, x], difference_counts(F, x, counts))


class TestChaosLattice:
    """``chaos_by_enumeration`` reads shifted rows through successor maps;
    every coefficient must equal the per-tuple subset sums of
    ``iterated_difference_counts`` bit for bit."""

    @staticmethod
    def _per_tuple(F, order, budget):
        enum = PoissonEnumeration.get(F.space, budget)
        d = F.space.size
        levels = [float(enum.expectation_of(F))]
        for n in range(1, order + 1):
            vals = np.zeros((d,) * n)
            for tup in itertools.product(range(d), repeat=n):
                diff = iterated_difference_counts(F, tup, enum.counts)
                vals[tup] = enum.expectation_of_values(diff) / math.factorial(n)
            levels.append(vals)
        return levels

    def _assert_identical(self, F, order, budget):
        got = chaos_by_enumeration(F, order, budget)
        want = self._per_tuple(F, order, budget)
        assert got.order == order
        assert got.coefficients[0] == want[0]
        for n in range(1, order + 1):
            assert np.array_equal(got.coefficients[n].values, want[n]), f"level {n}"

    @pytest.mark.parametrize("name", ["S1", "S2", "S3"])
    def test_packaged_spaces(self, name):
        config = load_config()
        space = config.spaces[name]
        functionals = [F for F in config.functionals.values() if F.space.same_as(space)]
        n = CountPolynomial.total_count(space)
        functionals += [n * n, n * 0.5 + CountPolynomial.atom_count(space, 0)
                        * CountPolynomial.atom_count(space, space.size - 1)]
        budgets = [OracleBudget.for_space(space, 1e-10),
                   OracleBudget.for_space(space, 1e-8, growth=POLY4)]
        for F in functionals:
            for budget in budgets:
                for order in range(CHAOS_ORDER_CAP + 1):
                    self._assert_identical(F, order, budget)

    def test_dense_space_order3(self):
        # four atoms of total mass 16: a 249,900-state enumeration and a
        # 66,351-row shell
        space = MeasureSpace(["a", "b", "c", "d"], [2.5, 3.5, 4.0, 6.0])
        budget = OracleBudget.for_space(space, 1e-10)
        assert len(PoissonEnumeration.get(space, budget).counts) == 249_900
        self._assert_identical(Exponential(space, [0.12, 0.3, 0.21, 0.07]), 3, budget)

    def test_opaque_functionals(self, s2):
        s3 = MeasureSpace(["a", "b", "c"], [0.3, 0.3, 0.4])
        w = np.array([0.4, -0.7, 1.1])
        smooth = Opaque(s3, counts_fn=lambda c: np.cos(c @ w) * np.sqrt(1.0 + c[:, 0]))
        self._assert_identical(smooth, 3, OracleBudget.for_space(s3, 1e-10))
        per_pattern = Opaque(s2, fn=lambda p: math.log1p(p.total) + p.counts[0] ** 2)
        self._assert_identical(per_pattern, 2, OracleBudget.for_space(s2, 1e-10))

    def test_wide_space_at_cap_two(self):
        # a mixed-radix key of the lattice would need (2 + 2 + 1)**30 > 2**63
        assert (2 + 2 + 1) ** 30 > np.iinfo(np.int64).max
        d = 30
        space = MeasureSpace([f"x{j}" for j in range(d)], np.full(d, 0.05))
        v = np.linspace(0.05, 0.6, d)
        self._assert_identical(Exponential(space, v), 2, OracleBudget(2, 1.0))

    def test_per_tuple_route_when_lattice_does_not_apply(self, s2, monkeypatch):
        F = Exponential(s2, [0.3, 0.7])
        # a one-row enumeration
        self._assert_identical(F, 2, OracleBudget(0, 1.0))
        # a shell over the state cap
        monkeypatch.setattr(estimation, "ENUMERATION_STATE_CAP", 10)
        self._assert_identical(F, 3, OracleBudget.for_space(s2, 1e-10))

    @pytest.mark.parametrize("d,cap,order,block", [
        (1, 5, 1, 1 << 16), (1, 3, 4, 2), (2, 6, 3, 5), (3, 0, 2, 1 << 16),
        (3, 9, 4, 7), (4, 47, 3, 1 << 16), (30, 2, 2, 1000)])
    def test_successor_maps_match_row_arithmetic(self, d, cap, order, block, monkeypatch):
        monkeypatch.setattr(estimation, "_RANK_BLOCK", block)
        counts = patterns._count_vectors(d, cap)
        shell = lattice_shell(d, cap, order)
        stacked = np.vstack([counts, shell])
        # every count vector of total at most cap + order, each once
        assert len(shell) == shell_size(d, cap, order)
        assert len(stacked) == math.comb(cap + order + d, d)
        assert len(np.unique(stacked, axis=0)) == len(stacked)
        assert np.all(np.diff(shell.sum(axis=1)) >= 0)
        assert shell.sum(axis=1).min() == cap + 1
        succ = successor_maps(counts, shell, cap, order)
        below_top = np.flatnonzero(stacked.sum(axis=1) < cap + order)
        assert succ.shape == (d, len(below_top))
        assert np.array_equal(below_top, np.arange(len(below_top)))
        for x in range(d):
            want = stacked[below_top].copy()
            want[:, x] += 1
            assert np.array_equal(stacked[succ[x]], want)
