"""Functionals: evaluation, difference operators, chaos coefficients."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from poisson_chaos import estimation, patterns
from poisson_chaos.config import load_config
from poisson_chaos.errors import (ContractViolationError, EvaluationError,
                                  UnsupportedArityError)
from poisson_chaos.estimation import McPlan, OracleBudget, PoissonEnumeration
from poisson_chaos.functionals import (CHAOS_ORDER_CAP, ChaosVector, CountPolynomial,
                                       Exponential, LinearCombo, Opaque,
                                       chaos_by_enumeration,
                                       chaos_of_exponential, difference,
                                       difference_counts, difference_rows,
                                       falling_factorial_coeffs,
                                       iterated_difference,
                                       iterated_difference_counts,
                                       poisson_raw_moment, t_coefficient_mc)
from poisson_chaos.patterns import PointPattern, lattice_shell, shell_size, successor_maps
from poisson_chaos.space import Kernel, MeasureSpace, symmetrize
from poisson_chaos.suites.base import POLY4

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

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_one_draw_per_batch(self, n, monkeypatch):
        # one sampled batch serves every atom tuple; each entry is the
        # per-tuple estimate bit for bit
        s3 = MeasureSpace(["a", "b", "c"], [0.4, 1.0, 1.7])
        F = Exponential(s3, [0.3, LN2, 0.1])
        plan = McPlan(65_536, 3)
        draws = []
        sampler = estimation.sample_poisson_counts

        def counting(space, seed, streams):
            draws.append(len(streams))
            return sampler(space, seed, streams)

        monkeypatch.setattr(estimation, "sample_poisson_counts", counting)
        est = t_coefficient_mc(F, n, plan)
        assert draws == [estimation.BATCH_SIZE] * 2
        for tup in itertools.product(range(3), repeat=n):
            def batch(streams, _start, tup=tup):
                return iterated_difference_counts(
                    F, tup, sampler(s3, plan.seed, streams))

            want = estimation.mc_estimate(plan, batch)
            got = (float(est.values.values[tup]), float(est.se.values[tup]))
            assert np.array(got).view(np.uint64).tolist() == \
                np.array([want.mean, want.se]).view(np.uint64).tolist()

    def test_non_finite_difference_raises(self, s1):
        blows_up = Opaque(s1, counts_fn=lambda c: np.where(c[:, 0] > 1, np.nan, 0.0))
        with pytest.raises(EvaluationError):
            t_coefficient_mc(blows_up, 1, McPlan(2000, 3))

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

    def test_exponential_family_algebra(self, s2):
        """Class, terms and values of every sum, scalar and product rule
        of the exponential family, bit for bit against the hand-expanded
        sum of coefficient times exp(-counts @ v)."""
        vf, vg, vh = np.array([0.3, 0.7]), np.array([0.2, 0.1]), np.array([0.5, 0.4])
        f, g, h = (Exponential(s2, v) for v in (vf, vg, vh))
        combo = LinearCombo(s2, [(2.0, g), (-1.5, h)])
        other = LinearCombo(s2, [(0.5, f), (3.0, h)])
        poly = CountPolynomial.total_count(s2) * 2.0
        zero = np.zeros(2)
        counts = np.random.default_rng(11).integers(0, 7, size=(64, 2))
        exp_of = lambda v: np.exp(-(counts @ v))  # noqa: E731
        table = [
            (lambda: f * g, Exponential, [(1.0, vf + vg)]),
            (lambda: f * combo, LinearCombo, [(2.0, vf + vg), (-1.5, vf + vh)]),
            (lambda: combo * f, LinearCombo, [(2.0, vg + vf), (-1.5, vh + vf)]),
            (lambda: combo * other, LinearCombo,
             [(1.0, vg + vf), (6.0, vg + vh), (-0.75, vh + vf), (-4.5, vh + vh)]),
            (lambda: f * 2, LinearCombo, [(2.0, vf)]),
            (lambda: 2 * f, LinearCombo, [(2.0, vf)]),
            (lambda: combo * 2, LinearCombo, [(4.0, vg), (-3.0, vh)]),
            (lambda: f + g, LinearCombo, [(1.0, vf), (1.0, vg)]),
            (lambda: f + combo, LinearCombo, [(1.0, vf), (2.0, vg), (-1.5, vh)]),
            (lambda: combo + f, LinearCombo, [(2.0, vg), (-1.5, vh), (1.0, vf)]),
            (lambda: f + 2, LinearCombo, [(1.0, vf), (2.0, zero)]),
            (lambda: 2 + f, LinearCombo, [(1.0, vf), (2.0, zero)]),
            (lambda: f - g, LinearCombo, [(1.0, vf), (-1.0, vg)]),
            (lambda: -f, LinearCombo, [(-1.0, vf)]),
        ]
        for build, cls, terms in table:
            got = build()
            assert type(got) is cls
            assert [c for c, _ in got.terms()] == [c for c, _ in terms]
            for (_, e), (_, v) in zip(got.terms(), terms):
                assert np.array_equal(e.v.values, v)
            want = np.zeros(len(counts))
            for c, v in terms:
                want += c * exp_of(v)
            assert np.array_equal(got.evaluate_counts(counts), want)
        for got, want in ((f * poly, exp_of(vf) * poly.evaluate_counts(counts)),
                          (f + poly, exp_of(vf) + poly.evaluate_counts(counts))):
            assert type(got) is Opaque
            assert np.array_equal(got.evaluate_counts(counts), want)
        s3 = MeasureSpace(["a", "b"], [0.5, 2.0])
        far = Exponential(s3, vf)
        far_combo = LinearCombo(s3, [(1.0, far)])
        for build in (lambda: f * far, lambda: combo * far_combo, lambda: f + far):
            with pytest.raises(ContractViolationError):
                build()


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
    """``chaos_by_enumeration`` reads shifted rows through successor maps
    and computes one entry per permutation orbit, at its non-decreasing
    (sorted) atom tuple; every entry must equal the subset sum of
    ``iterated_difference_counts`` at its sorted tuple bit for bit."""

    @staticmethod
    def _direct(F, enum, tup):
        """The direct level-``len(tup)`` sum at one atom tuple."""
        diff = iterated_difference_counts(F, tup, enum.counts)
        return enum.expectation_of_values(diff) / math.factorial(len(tup))

    def _per_tuple(self, F, order, budget):
        """Levels 0 to ``order``, each entry the direct sum at its sorted
        tuple: one sum per orbit."""
        enum = PoissonEnumeration.get(F.space, budget)
        d = F.space.size
        levels = [float(enum.expectation_of(F))]
        for n in range(1, order + 1):
            sums = {tup: self._direct(F, enum, tup)
                    for tup in itertools.combinations_with_replacement(range(d), n)}
            vals = np.zeros((d,) * n)
            for tup in itertools.product(range(d), repeat=n):
                vals[tup] = sums[tuple(sorted(tup))]
            levels.append(vals)
        return levels

    @staticmethod
    def _bits(a):
        # bit patterns, so a -0.0 against a +0.0 counts as a difference
        return np.asarray(a, dtype=np.float64).view(np.uint64)

    def _assert_identical(self, F, order, budget):
        got = chaos_by_enumeration(F, order, budget)
        want = self._per_tuple(F, order, budget)
        assert got.order == order
        assert self._bits(got.coefficients[0]) == self._bits(want[0])
        for n in range(1, order + 1):
            assert np.array_equal(self._bits(got.coefficients[n].values),
                                  self._bits(want[n])), f"level {n}"

    def _assert_symmetric(self, chaos):
        for n in range(2, chaos.order + 1):
            k = chaos.coefficients[n]
            for perm in itertools.permutations(range(n)):
                assert np.array_equal(self._bits(np.transpose(k.values, perm)),
                                      self._bits(k.values)), f"level {n}, {perm}"
            assert symmetrize(k) is k

    @staticmethod
    def _rounding_bound(F, enum, tup):
        """How far two summation orders of one entry's terms may fall apart.

        An entry and the direct sum at any reordering of its tuple round
        the same exact value, ``T = E[sum_s +-F(c + s)] / n!`` over the
        ``m = 2^n`` subset shifts s.  Each rounds ``m - 1`` times in a
        row's sum, at most ``L + B - 1`` times in the blocked dot (``L``
        states per block, ``B`` blocks added left to right) and once in
        the division, so each lies within ``gamma_K * S`` of T, with
        ``K = m + L + B - 1``, ``gamma_K = K u / (1 - K u)`` and
        ``S = E[sum_s |F(c + s)|] / n!`` (Higham, *Accuracy and Stability
        of Numerical Algorithms*, 2002, sections 3.1 and 3.5).  The
        computed S has nonnegative terms and the same K, so the exact S is
        at most ``S_hat / (1 - gamma_K)``; the two orders are at most
        twice that apart.
        """
        n = len(tup)
        abs_rows = sum(np.abs(F.evaluate_counts(enum.counts + np.bincount(
            [x for x, bit in zip(tup, bits) if bit], minlength=F.space.size)))
            for bits in itertools.product((0, 1), repeat=n))
        s_hat = enum.expectation_of_values(abs_rows) / math.factorial(n)
        states = len(enum.probs)
        block = min(estimation.ENUMERATION_DOT_BLOCK, states)
        k = 2**n + block + -(-states // block) - 1
        u = np.finfo(np.float64).eps / 2
        gamma = k * u / (1 - k * u)
        return 2 * gamma * s_hat / (1 - gamma)

    def _assert_near_each_permutation(self, F, order, budget):
        """Every level is exactly symmetric, and each entry lies within the
        rounding bound of the direct sum at its own tuple."""
        got = chaos_by_enumeration(F, order, budget)
        self._assert_symmetric(got)
        enum = PoissonEnumeration.get(F.space, budget)
        d = F.space.size
        for n in range(1, order + 1):
            values = got.coefficients[n].values
            for key in itertools.combinations_with_replacement(range(d), n):
                bound = self._rounding_bound(F, enum, key)
                for tup in set(itertools.permutations(key)):
                    gap = abs(values[tup] - self._direct(F, enum, tup))
                    assert gap <= bound, (n, tup, gap, bound)

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
        F = Exponential(space, [0.12, 0.3, 0.21, 0.07])
        # one running sum per depth and one row of shifted values
        tracemalloc.start()
        try:
            chaos_by_enumeration(F, 3, budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 21 * 2**20
        self._assert_identical(F, 3, budget)

    @staticmethod
    def _random_case(seed):
        """A seeded space of 1 to 4 atoms, its budget and three functionals."""
        rng = np.random.default_rng([seed, 0xC4A05])
        d = int(rng.integers(1, 5))
        space = MeasureSpace([f"x{j}" for j in range(d)], rng.uniform(0.05, 0.6, d))
        budget = OracleBudget.for_space(space, 1e-5)
        w = rng.uniform(-1.0, 1.0, d)
        return budget, [
            Exponential(space, rng.uniform(0.0, 1.0, d)),
            Opaque(space, counts_fn=lambda c: np.sin(c @ w) + np.sqrt(c[:, 0] + 0.5)),
            # flat along every atom but the first: many differences are exact zeros
            Opaque(space, counts_fn=lambda c: np.cos(0.9 * c[:, 0]) - 0.25),
        ]

    @pytest.mark.parametrize("seed", range(6))
    def test_random_spaces(self, seed):
        budget, functionals = self._random_case(seed)
        for F in functionals:
            for order in range(CHAOS_ORDER_CAP + 1):
                self._assert_identical(F, order, budget)

    @pytest.mark.parametrize("name", ["S1", "S2", "S3"])
    def test_packaged_levels_symmetric_within_rounding(self, name):
        config = load_config()
        space = config.spaces[name]
        budget = OracleBudget.for_space(space, 1e-10)
        for F in config.functionals.values():
            if F.space.same_as(space):
                self._assert_near_each_permutation(F, CHAOS_ORDER_CAP, budget)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_levels_symmetric_within_rounding(self, seed):
        budget, functionals = self._random_case(seed)
        for F in functionals:
            self._assert_near_each_permutation(F, CHAOS_ORDER_CAP, budget)

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
        # a shell over the state cap; the enumeration is built, and cached,
        # before the cap falls below its size
        budget = OracleBudget.for_space(s2, 1e-10)
        PoissonEnumeration.get(s2, budget)
        monkeypatch.setattr(estimation, "ENUMERATION_STATE_CAP", 10)
        self._assert_identical(F, 3, budget)

    def test_fallback_route_matches_lattice_route(self, monkeypatch):
        space = MeasureSpace(["a", "b", "c", "d"], [0.2, 0.3, 0.4, 0.5])
        budget = OracleBudget(3, 1.0)
        states = len(PoissonEnumeration.get(space, budget).counts)
        assert states == 35 < shell_size(4, 3, 2)
        w = np.array([0.4, -0.7, 1.1, 0.2])
        Fs = [Exponential(space, [0.12, 0.3, 0.21, 0.07]),
              Opaque(space, counts_fn=lambda c: np.cos(c @ w) * np.sqrt(1.0 + c[:, 0]))]
        lattice = [chaos_by_enumeration(F, CHAOS_ORDER_CAP, budget) for F in Fs]
        # the enumeration fits under the cap and no shell from order 2 up does
        monkeypatch.setattr(estimation, "ENUMERATION_STATE_CAP", states)

        def no_lattice(*args):
            raise AssertionError("the lattice route ran")

        monkeypatch.setattr("poisson_chaos.functionals._enumerated_levels", no_lattice)
        for F, want in zip(Fs, lattice):
            for order in range(2, CHAOS_ORDER_CAP + 1):
                got = chaos_by_enumeration(F, order, budget)
                self._assert_symmetric(got)
                assert self._bits(got.coefficients[0]) == self._bits(want.coefficients[0])
                for n in range(1, order + 1):
                    assert np.array_equal(self._bits(got.coefficients[n].values),
                                          self._bits(want.coefficients[n].values)), (order, n)

    @pytest.mark.parametrize("d,cap,order", [
        (1, 5, 1), (1, 3, 4), (2, 6, 3), (3, 0, 2), (3, 9, 4), (4, 47, 3), (30, 2, 2),
        (1, 0, 4), (5, 3, 4), (2, 47, 1)])
    def test_successor_maps_match_row_arithmetic(self, d, cap, order):
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
        assert succ.dtype == np.int32
        below_top = np.flatnonzero(stacked.sum(axis=1) < cap + order)
        assert succ.shape == (d, len(below_top))
        assert np.array_equal(below_top, np.arange(len(below_top)))
        for x in range(d):
            want = stacked[below_top].copy()
            want[:, x] += 1
            assert np.array_equal(stacked[succ[x]], want)
