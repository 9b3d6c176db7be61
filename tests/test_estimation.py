"""Expectation engines: enumeration with certified tails, seeded Monte
Carlo, and the comparison policy."""

import math

import numpy as np
import pytest

from poisson_chaos.errors import BudgetError, ContractViolationError, EvaluationError
from poisson_chaos.estimation import (Estimate, McPlan, OracleBudget,
                                      PoissonEnumeration, TolerancePolicy,
                                      compare, mc_estimate, mc_expectation,
                                      oracle_expectation, poisson_tail,
                                      worker_count)
from poisson_chaos.functionals import CountPolynomial, Exponential, Opaque
from poisson_chaos.patterns import factorial_counts
from poisson_chaos.space import Kernel, MeasureSpace


@pytest.fixture
def s1():
    return MeasureSpace(["a"], [1.0])


@pytest.fixture
def s2():
    return MeasureSpace(["a", "b"], [0.5, 1.0])


class TestOracle:
    def test_normalization(self, s2):
        budget = OracleBudget.for_space(s2, 1e-10)
        one = CountPolynomial(s2, [(1.0, (0, 0))])
        got = oracle_expectation(s2, one, budget)
        assert abs(got - 1.0) <= budget.tail_bound

    def test_empty_pattern_probability(self, s2):
        budget = OracleBudget.for_space(s2, 1e-10)
        empty = Opaque(s2, counts_fn=lambda c: (c.sum(axis=1) == 0).astype(float))
        assert oracle_expectation(s2, empty, budget) == pytest.approx(
            math.exp(-1.5), abs=1e-10)

    def test_second_factorial_moment(self, s2):
        budget = OracleBudget.for_space(s2, 1e-10)
        pairs = Opaque(s2, counts_fn=lambda c: factorial_counts(c, Kernel.constant(s2, 2)))
        assert oracle_expectation(s2, pairs, budget) == pytest.approx(2.25, abs=1e-7)

    def test_tail_bound_is_certified(self, s1):
        budget = OracleBudget.for_space(s1, 1e-10)
        # exact complement of the enumerated mass
        enum = PoissonEnumeration.get(s1, budget)
        assert 1.0 - enum.probs.sum() <= budget.tail_bound * (1 + 1e-9)

    def test_growth_envelope_inflates_cutoff(self, s1):
        plain = OracleBudget.for_space(s1, 1e-8)
        grown = OracleBudget.for_space(s1, 1e-8, growth=lambda n: 4.0**n)
        assert grown.max_total > plain.max_total

    def test_budget_error_on_state_explosion(self):
        wide = MeasureSpace([f"x{i}" for i in range(3)], [4.0, 4.0, 4.0])
        with pytest.raises(BudgetError):
            OracleBudget.for_space(wide, 1e-10, max_states=10)

    def test_budget_error_on_large_mass(self):
        # mass 200 overflowed mass**cutoff with an OverflowError; mass 800
        # underflowed exp(-mass) and certified a cutoff of 1
        for weights in ([100.0, 100.0], [100.0] * 8):
            space = MeasureSpace([f"x{i}" for i in range(len(weights))], weights)
            with pytest.raises(BudgetError):
                OracleBudget.for_space(space, 1e-10, max_states=10**15)

    def test_masses_below_the_overflow_keep_their_cutoff(self):
        # at tol 1e-10 the tail arithmetic overflows from a mass of about 90.7
        for weight, cutoff in ((25.0, 101), (45.0, 157)):
            space = MeasureSpace(["a", "b"], [weight, weight])
            assert OracleBudget.for_space(space, 1e-10, max_states=10**15).max_total == cutoff

    def test_poisson_tail_matches_direct_sum(self):
        mass, cutoff = 1.5, 7
        pmf = math.exp(-mass)
        want = 0.0
        for n in range(1, 150):
            pmf *= mass / n
            if n > cutoff:
                want += pmf
        assert poisson_tail(mass, cutoff) == pytest.approx(want, rel=1e-10)


class TestMonteCarlo:
    def test_constant_has_zero_se(self, s1):
        c = CountPolynomial(s1, [(5.0, (0,))])
        est = mc_expectation(s1, c, McPlan(10_000, 1))
        assert est == Estimate(5.0, 0.0, 10_000)

    def test_mean_count(self, s1):
        n = CountPolynomial.total_count(s1)
        est = mc_expectation(s1, n, McPlan(1_000_000, 2))
        assert est.se < 0.0015
        assert abs(est.mean - 1.0) <= 4 * est.se

    def test_bit_identical_repetition(self, s2):
        f = Exponential(s2, [0.3, 0.7])
        plan = McPlan(50_000, 3)
        assert mc_expectation(s2, f, plan) == mc_expectation(s2, f, plan)

    def test_results_independent_of_worker_count(self, s2, monkeypatch):
        f = Exponential(s2, [0.3, 0.7])
        plan = McPlan(120_000, 4)
        monkeypatch.setenv("POISSON_CHAOS_THREADS", "1")
        a = mc_expectation(s2, f, plan)
        monkeypatch.setenv("POISSON_CHAOS_THREADS", "3")
        b = mc_expectation(s2, f, plan)
        assert a == b

    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv("POISSON_CHAOS_THREADS", "2")
        assert worker_count() == 2
        monkeypatch.setenv("POISSON_CHAOS_THREADS", "junk")
        assert worker_count() >= 1

    def test_non_finite_replicate_is_named(self, s1):
        def batch(streams, start):
            vals = np.ones(len(streams))
            if start == 0:
                vals[7] = np.nan
            return vals

        with pytest.raises(EvaluationError, match="replicate 7"):
            mc_estimate(McPlan(10_000, 5), batch)

    def test_replicates_validated(self):
        with pytest.raises(ContractViolationError):
            McPlan(0, 1)

    def test_se_halves_when_replicates_quadruple(self, s2):
        f = Exponential(s2, [0.3, 0.7])
        ratios = []
        for trial in range(20):
            small = mc_expectation(s2, f, McPlan(4_000, 100 + trial, trial * 1_000_000))
            large = mc_expectation(s2, f, McPlan(16_000, 100 + trial, trial * 1_000_000))
            ratios.append(large.se / small.se)
        mean_ratio = float(np.mean(ratios))
        assert 0.4 <= mean_ratio <= 0.6

    def test_oracle_and_mc_cross_validate(self, s2):
        budget = OracleBudget.for_space(s2, 1e-10)
        battery = [Exponential(s2, [0.3, 0.7]),
                   CountPolynomial.total_count(s2),
                   CountPolynomial(s2, [(1.0, (1, 1)), (0.5, (0, 1))])]
        for i, f in enumerate(battery):
            exact = oracle_expectation(s2, f, budget)
            est = mc_expectation(s2, f, McPlan(200_000, 50 + i))
            assert abs(exact - est.mean) <= 4 * est.se + budget.tail_bound + 1e-9


class TestComparePolicy:
    def test_exact_equality(self):
        v = compare(1.0, 1.0)
        assert v.passed and v.margin == pytest.approx(1e-9)

    def test_wide_se_passes(self):
        assert compare(Estimate(1.00, 0.01, 100), 1.03).passed

    def test_tight_se_fails(self):
        assert not compare(Estimate(1.00, 0.001, 100), 1.03).passed

    def test_combined_se(self):
        v = compare(Estimate(1.0, 0.003, 10), Estimate(1.01, 0.004, 10))
        assert v.se_combined == pytest.approx(0.005)
        assert v.tolerance == pytest.approx(4 * 0.005 + 1e-6)

    @pytest.mark.parametrize("lhs,rhs,kwargs,diff,tolerance,se", [
        # policy threshold, two-sided: z standard errors plus the floor
        (Estimate(1.0, 0.003, 10), Estimate(1.01, 0.004, 10), {},
         0.01, 4 * 0.005 + 1e-6, 0.005),
        # two exact sides: the exact tolerance
        (1.0, 1.5, {}, 0.5, 1e-9, 0.0),
        # fixed tolerance, two-sided, whatever the standard error
        (2.0, 2.5, {"tolerance": 0.1}, 0.5, 0.1, 0.0),
        (Estimate(2.5, 0.2, 10), 2.0, {"tolerance": 0.1}, 0.5, 0.1, 0.2),
        # one-sided: the signed excess, with the absolute floor even when exact
        (1.0, 1.5, {"one_sided": True}, -0.5, 1e-6, 0.0),
        (0.0, Estimate(-0.25, 0.01, 10), {"one_sided": True},
         0.25, 4 * 0.01 + 1e-6, 0.01),
        (3.0, 2.0, {"one_sided": True, "tolerance": 2.0}, 1.0, 2.0, 0.0),
        (3.0, 2.0, {"one_sided": True, "tolerance": 0.5}, 1.0, 0.5, 0.0),
    ])
    def test_modes(self, lhs, rhs, kwargs, diff, tolerance, se):
        v = compare(lhs, rhs, TolerancePolicy(), **kwargs)
        assert v.diff == pytest.approx(diff, abs=1e-15)
        assert v.tolerance == pytest.approx(tolerance, abs=1e-15)
        assert v.se_combined == pytest.approx(se, abs=1e-15)
        assert v.passed == (v.diff <= v.tolerance)
        assert v.margin == v.tolerance - v.diff
        assert (v.lhs, v.rhs) == (getattr(lhs, "mean", lhs), getattr(rhs, "mean", rhs))

    def test_policy_overrides(self):
        policy = TolerancePolicy(z=2.0, abs_tol=0.0, exact_tol=1e-12)
        assert not compare(1.0, 1.0 + 1e-11, policy).passed
        assert compare(Estimate(1.0, 0.01, 10), 1.019, policy).passed
