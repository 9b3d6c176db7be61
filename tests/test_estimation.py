"""Expectation engines: enumeration with certified tails, seeded Monte
Carlo, and the comparison policy."""

import math
import os
import subprocess
import sys
import textwrap
import threading
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

from poisson_chaos import estimation
from poisson_chaos.errors import BudgetError, ContractViolationError, EvaluationError
from poisson_chaos.estimation import (ENUMERATION_CACHE_SIZE, ENUMERATION_DOT_BLOCK,
                                      CountTable, Estimate, McPlan, OracleBudget,
                                      PoissonEnumeration, TolerancePolicy, compare,
                                      mc_batches, mc_estimate, mc_expectation, mc_expectations,
                                      oracle_expectation, poisson_tail, worker_count)
from poisson_chaos.functionals import (ChaosVector, CountPolynomial, Exponential, Opaque,
                                       difference_rows)
from poisson_chaos.patterns import factorial_counts, largest_counts, poisson_law
from poisson_chaos.space import Kernel, MeasureSpace
from poisson_chaos.suites.common import (covariance_conditional_rhs,
                                         covariance_semigroup_rhs, mc_covariance)


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

    def test_one_block_expectation_is_the_dot(self, s2):
        enum = PoissonEnumeration.get(s2, OracleBudget.for_space(s2, 1e-10))
        assert len(enum.probs) <= ENUMERATION_DOT_BLOCK
        values = np.random.default_rng(5).standard_normal(len(enum.probs))
        got = enum.expectation_of_values(values)
        assert got.hex() == float(np.dot(values, enum.probs)).hex()
        with pytest.raises(ContractViolationError, match="one value per state"):
            enum.expectation_of_values(values[1:])

    def test_expectation_is_the_same_on_any_blas_thread_count(self):
        """11,476 states, past the 10,000 terms above which a BLAS dot may
        split across threads and round by their count."""
        script = textwrap.dedent("""
            import numpy as np
            from poisson_chaos.estimation import OracleBudget, PoissonEnumeration
            from poisson_chaos.space import MeasureSpace
            enum = PoissonEnumeration(MeasureSpace(["a", "b"], [40.0, 50.0]),
                                      OracleBudget(150, 1.0))
            assert len(enum.probs) == 11_476
            values = np.random.default_rng(11).standard_normal(len(enum.probs))
            print(enum.expectation_of_values(values).hex())
        """)
        src = str(Path(estimation.__file__).resolve().parents[1])
        path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
        outs = {threads: subprocess.run(
                    [sys.executable, "-c", script], check=True, capture_output=True, text=True,
                    env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
                ).stdout for threads in ("1", "2")}
        assert outs["1"] == outs["2"]

    @pytest.mark.parametrize("weight", [4 * 120 / 9000, 0.5, 1.0, 3.0])
    def test_probabilities_are_the_sampled_law(self, weight):
        """Each atom's probabilities are the ``pmf()`` that inversion
        samples, zero past its largest count.  At weight 4 * 120 / 9000 a
        difference of the CDF gave another P(N = 8)."""
        enum = PoissonEnumeration(MeasureSpace(["a"], [weight]), OracleBudget(10, 1.0))
        pmf = poisson_law(weight).pmf()
        want = np.zeros(max(len(pmf), 11))
        want[:len(pmf)] = pmf
        assert np.array_equal(enum.probs, want[enum.counts[:, 0]])

    def test_growth_envelope_inflates_cutoff(self, s1):
        plain = OracleBudget.for_space(s1, 1e-8)
        grown = OracleBudget.for_space(s1, 1e-8, growth=lambda n: 4.0**n)
        assert grown.max_total > plain.max_total

    def test_enumeration_cache_evicts_least_recent(self, s1, monkeypatch):
        monkeypatch.setattr(PoissonEnumeration, "_cache", OrderedDict())
        monkeypatch.setattr(estimation, "ENUMERATION_CACHE_SIZE", 3)
        budgets = [OracleBudget(k, 1.0) for k in range(1, 5)]
        first = [PoissonEnumeration.get(s1, b) for b in budgets[:3]]
        # a hit returns the cached object and makes it the most recent
        assert PoissonEnumeration.get(s1, budgets[0]) is first[0]
        PoissonEnumeration.get(s1, budgets[3])
        assert len(PoissonEnumeration._cache) == 3
        assert PoissonEnumeration.get(s1, budgets[0]) is first[0]
        assert PoissonEnumeration.get(s1, budgets[2]) is first[2]
        rebuilt = PoissonEnumeration.get(s1, budgets[1])
        assert rebuilt is not first[1]
        assert np.array_equal(rebuilt.probs, first[1].probs)

    def test_enumeration_cache_holds_a_full_run(self, s1, monkeypatch):
        monkeypatch.setattr(PoissonEnumeration, "_cache", OrderedDict())
        kept = [PoissonEnumeration.get(s1, OracleBudget(k, 1.0))
                for k in range(1, ENUMERATION_CACHE_SIZE + 1)]
        assert all(PoissonEnumeration.get(s1, OracleBudget(k, 1.0)) is e
                   for k, e in zip(range(1, ENUMERATION_CACHE_SIZE + 1), kept))

    def test_enumeration_cache_under_threads(self, s1, monkeypatch):
        monkeypatch.setattr(PoissonEnumeration, "_cache", OrderedDict())
        monkeypatch.setattr(estimation, "ENUMERATION_CACHE_SIZE", 3)
        budgets = [OracleBudget(k, 1.0) for k in range(1, 7)]
        errors = []

        def work(i):
            try:
                for r in range(300):
                    budget = budgets[(i * 7 + r) % len(budgets)]
                    if PoissonEnumeration.get(s1, budget).budget != budget:
                        errors.append((i, r))
            except Exception as exc:  # a lost update surfaces as KeyError
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(PoissonEnumeration._cache) == 3

    def test_budget_error_on_state_explosion(self):
        wide = MeasureSpace([f"x{i}" for i in range(3)], [4.0, 4.0, 4.0])
        with pytest.raises(BudgetError):
            OracleBudget.for_space(wide, 1e-10, max_states=10)

    def test_budget_error_on_large_mass(self):
        # mass 800 underflowed exp(-mass) and certified a cutoff of 1
        space = MeasureSpace([f"x{i}" for i in range(8)], [100.0] * 8)
        with pytest.raises(BudgetError, match="too large to enumerate"):
            OracleBudget.for_space(space, 1e-10, max_states=10**15)

    @pytest.mark.parametrize("weights, cutoff", [([300.0], 417), ([250.0, 250.0], 649)])
    def test_large_mass_scans_past_cutoff_399(self, weights, cutoff):
        # the scan stopped at cutoff 399 and raised from a mass of about 285
        space = MeasureSpace([f"x{i}" for i in range(len(weights))], weights)
        budget = OracleBudget.for_space(space, 1e-10, max_states=10**15)
        assert budget.max_total == cutoff
        assert poisson_tail(space.total_mass, cutoff - 1) > 1e-10
        assert poisson_tail(space.total_mass, cutoff) <= budget.tail_bound <= 1e-10

    def test_scan_stops_at_the_state_budget(self):
        # four atoms of total mass 300 pass 2,000,000 states at cutoff 81,
        # long before the tail (cutoff 417) is small
        space = MeasureSpace(list("abcd"), [75.0] * 4)
        with pytest.raises(BudgetError, match="state budget: cutoff 81 needs 2024785"):
            OracleBudget.for_space(space, 1e-10)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan])
    def test_tail_tolerance_must_be_positive(self, s1, tol):
        with pytest.raises(ContractViolationError, match="tail tolerance"):
            OracleBudget.for_space(s1, tol)

    def test_infinite_growth_envelope_is_budget_error(self, s1):
        # an envelope that returns inf rather than raising made a NaN tail
        # past the pmf's underflow, which no tolerance accepts
        with pytest.raises(BudgetError, match="growth envelope overflows"):
            OracleBudget.for_space(s1, 1e-10, growth=lambda n: math.inf)

    def test_masses_below_the_overflow_keep_their_cutoff(self):
        # the tail arithmetic overflowed from a mass of about 90.7 at tol
        # 1e-10; starting it from a pmf recurrence kept every smaller cutoff
        for weight, cutoff in ((25.0, 101), (45.0, 157)):
            space = MeasureSpace(["a", "b"], [weight, weight])
            assert OracleBudget.for_space(space, 1e-10, max_states=10**15).max_total == cutoff

    def test_large_mass_tail_does_not_overflow(self):
        # the tail started from mass**cutoff / cutoff!, which overflowed a
        # float from cutoff 155 at mass 100 and raised BudgetError there
        for weights, cutoff in (([100.0], 170), ([100.0, 100.0], 296)):
            space = MeasureSpace([f"x{i}" for i in range(len(weights))], weights)
            mass = space.total_mass
            budget = OracleBudget.for_space(space, 1e-10, max_states=10**15)
            assert budget.max_total == cutoff
            assert poisson_tail(mass, cutoff - 1) > 1e-10
            want = math.fsum(math.exp(n * math.log(mass) - mass - math.lgamma(n + 1))
                             for n in range(cutoff + 1, cutoff + 400))
            assert poisson_tail(mass, cutoff) == pytest.approx(want, rel=1e-10, abs=0.0)
            assert want < budget.tail_bound < 1e-10

    def test_overflowing_growth_envelope_is_budget_error(self):
        # 4**n overflows a float at n = 512, before the tail of mass 100 is small
        space = MeasureSpace(["a"], [100.0])
        with pytest.raises(BudgetError, match="growth envelope overflows"):
            OracleBudget.for_space(space, 1e-10, growth=lambda n: 4.0**n)

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

    def test_one_replicate_has_zero_se(self):
        est = mc_estimate(McPlan(1, 6), lambda streams, start: np.array([0.25]))
        assert est == Estimate(0.25, 0.0, 1)

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

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_shared_sample_equals_separate_estimates(self, s2, threads, monkeypatch):
        monkeypatch.setenv("POISSON_CHAOS_THREADS", threads)
        battery = [Exponential(s2, [0.3, 0.7]), CountPolynomial.total_count(s2),
                   Opaque(s2, counts_fn=lambda c: np.sqrt(c[:, 0] * 1.5 + c[:, 1]))]
        # three batches, the last one short
        plan = McPlan(2 * estimation.BATCH_SIZE + 123, 8, 17)
        want = [mc_expectation(s2, G, plan) for G in battery]
        draws = []
        sampler = estimation.sample_poisson_counts

        def counting(space, seed, streams):
            draws.append(int(streams[0]))
            return sampler(space, seed, streams)

        monkeypatch.setattr(estimation, "sample_poisson_counts", counting)
        got = mc_expectations(s2, battery, plan)
        for g, w in zip(got, want):
            assert np.float64(g.mean).view(np.uint64) == np.float64(w.mean).view(np.uint64)
            assert np.float64(g.se).view(np.uint64) == np.float64(w.se).view(np.uint64)
            assert g.replicates == w.replicates
        # one draw per batch, at each batch's first stream
        assert sorted(draws) == [17, 17 + estimation.BATCH_SIZE,
                                 17 + 2 * estimation.BATCH_SIZE]

    def test_difference_row_follows_the_functionals(self, s2):
        f, n = Exponential(s2, [0.3, 0.7]), CountPolynomial.total_count(s2)
        plan = McPlan(2 * estimation.BATCH_SIZE + 123, 8, 17)
        lhs, rhs = mc_expectations(s2, [f, n], plan)
        got = mc_expectations(s2, [f, n], plan, difference=True)
        assert got[:2] == [lhs, rhs]
        want = mc_expectation(s2, Opaque(s2, counts_fn=lambda c: f.evaluate_counts(c)
                                         - n.evaluate_counts(c)), plan)
        assert got[2] == want
        with pytest.raises(ContractViolationError, match="exactly two"):
            mc_expectations(s2, [f, n, f], plan, difference=True)

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

    @pytest.mark.parametrize("replicates, stream_base, field", [
        (True, 0, "replicates"), (2.5, 0, "replicates"), (np.float64(3.0), 0, "replicates"),
        (-2, 0, "replicates"), (10, -5, "stream_base"), (10, 2.5, "stream_base"),
        (10, np.bool_(True), "stream_base"), (20, (1 << 64) - 10, "stream_base"),
        (1, 1 << 64, "stream_base")])
    def test_plan_rejects_what_it_cannot_run(self, replicates, stream_base, field):
        # each would run other replicates or streams than it names (a base
        # near 2**64 onto streams 0, 1, ... of another plan), or fail with
        # an error type not the package's
        with pytest.raises(ContractViolationError, match=f"^{field} must be an integer"):
            McPlan(replicates, 1, stream_base)

    def test_plan_takes_numpy_integers_up_to_the_last_stream(self):
        plan = McPlan(np.int64(10), 1, np.uint64((1 << 64) - 10))
        (low_bits,) = mc_batches(plan, lambda streams, start: (streams % 16).astype(float))
        # the streams 2**64 - 10 .. 2**64 - 1, none wrapped
        assert low_bits.tolist() == list(range(6, 16))
        assert McPlan(1, 1, (1 << 64) - 1).stream_base == (1 << 64) - 1

    def test_no_functionals_is_a_contract_violation(self, s2):
        with pytest.raises(ContractViolationError, match="at least one functional"):
            mc_expectations(s2, [], McPlan(10, 1))

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

    @pytest.mark.parametrize("tilt", [0.7, 2.0, 3.0])
    def test_tilted_estimate_is_unbiased(self, s2, tilt):
        # a degree-4 polynomial, whose exact mean the enumeration gives
        f = CountPolynomial(s2, [(1.0, (2, 2)), (-0.5, (0, 3)), (2.0, (1, 0))])
        exact = PoissonEnumeration.get(s2, OracleBudget(60, 0.0)).expectation_of(f)
        est = mc_expectation(s2, f, McPlan(200_000, 9), tilt=tilt)
        assert abs(exact - est.mean) <= 4 * est.se + 1e-9
        assert est.se > 0

    def test_tilt_of_one_is_the_plain_estimate(self, s2):
        f = Exponential(s2, [0.3, 0.7])
        plan = McPlan(5_000, 4)
        assert mc_expectation(s2, f, plan, tilt=1.0) == mc_expectation(s2, f, plan)

    @pytest.mark.parametrize("tilt", [0.0, -1.0, math.inf, math.nan])
    def test_bad_tilt_rejected(self, s2, tilt):
        with pytest.raises(ContractViolationError, match="tilt"):
            mc_expectation(s2, Exponential(s2, [0.3, 0.7]), McPlan(10, 1), tilt=tilt)


class TestCountTable:
    """A table read is evaluation bit for bit, on the counts its box holds."""

    @staticmethod
    def functionals(space):
        e = Exponential(space, [0.3, 0.7])
        return [e, CountPolynomial(space, [(1.0, (2, 1)), (-0.5, (0, 3))]),
                Opaque(space, counts_fn=lambda c: np.sqrt(1.0 + c.sum(axis=1)))]

    def test_reads_equal_evaluation(self, s2):
        functionals = self.functionals(s2)
        bound = largest_counts(s2)
        table = CountTable(functionals, bound, 10_000)
        assert table.box is not None and table.box.cells == np.prod(bound + 1)
        counts = np.random.default_rng(3).integers(0, bound + 1, size=(5_000, 2))
        for got, F in zip(table.read(counts), functionals):
            assert np.array_equal(got, F.evaluate_counts(counts))
        diffs = CountTable(functionals, bound, 10_000, differences=True)
        assert np.array_equal(diffs.box.caps, bound + 1)
        for got, F in zip(diffs.read(counts), functionals):
            assert np.array_equal(got, difference_rows(F, counts))

    def test_one_row_is_evaluated(self, s2, monkeypatch):
        table = CountTable(self.functionals(s2), largest_counts(s2), 10_000)
        monkeypatch.setattr(table.box, "rank", None)
        row = np.array([[2, 3]])
        for got, F in zip(table.read(row), table.functionals):
            assert np.array_equal(got, F.evaluate_counts(row))

    def test_box_over_the_cap_is_evaluated(self, s2, monkeypatch):
        bound = largest_counts(s2)
        cells = int(np.prod(bound + 1))
        monkeypatch.setattr(estimation, "COUNT_TABLE_CELL_CAP", cells)
        assert CountTable([Exponential(s2, [0.3, 0.7])], bound, 10_000).box is not None
        monkeypatch.setattr(estimation, "COUNT_TABLE_CELL_CAP", cells - 1)
        table = CountTable(self.functionals(s2), bound, 10_000)
        assert table.box is None
        # no table to read, so counts past the bound evaluate too
        counts = np.array([[0, 0], [40, 50]])
        for got, F in zip(table.read(counts), table.functionals):
            assert np.array_equal(got, F.evaluate_counts(counts))

    def test_box_over_the_replicates_is_evaluated(self, s2):
        bound = largest_counts(s2)
        cells = int(np.prod(bound + 1))
        assert CountTable([Exponential(s2, [0.3, 0.7])], bound, cells).box is not None
        assert CountTable([Exponential(s2, [0.3, 0.7])], bound, cells - 1).box is None

    @pytest.mark.parametrize("differences", [False, True])
    def test_count_outside_the_box_raises(self, s2, differences):
        bound = largest_counts(s2)
        table = CountTable(self.functionals(s2), bound, 10_000, differences=differences)
        inside = np.array([[0, 0], bound])
        table.read(inside)
        for j in (0, 1):
            outside = inside.copy()
            outside[1, j] += 1
            with pytest.raises(BudgetError,
                               match=f"atom {j}: count {bound[j] + 1}.* {bound[j]}"):
                table.read(outside)

    def test_off_by_one_radix_breaks_the_equality(self, s2):
        functionals = self.functionals(s2)
        bound = largest_counts(s2)
        table = CountTable(functionals, bound, 10_000)
        table.box.radix = table.box.radix - [0, 1]
        counts = np.random.default_rng(5).integers(0, bound + 1, size=(1_000, 2))
        for got, F in zip(table.read(counts), functionals):
            assert not np.array_equal(got, F.evaluate_counts(counts))

    def test_estimators_match_the_evaluated_route(self, s2, monkeypatch):
        functionals = self.functionals(s2)
        plan = McPlan(20_000, 6)
        tabled = [mc_expectation(s2, functionals[1], plan, tilt=2.0),
                  *mc_expectations(s2, functionals[:2], plan, difference=True)]
        monkeypatch.setattr(estimation, "COUNT_TABLE_CELL_CAP", 0)
        assert tabled == [mc_expectation(s2, functionals[1], plan, tilt=2.0),
                          *mc_expectations(s2, functionals[:2], plan, difference=True)]


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

    def test_given_se_replaces_the_independent_one(self):
        # two sides estimated on the same draws carry the se of their difference
        v = compare(Estimate(1.0, 0.003, 10), Estimate(1.01, 0.004, 10), se=0.001)
        assert v.se_combined == 0.001
        assert v.tolerance == pytest.approx(4 * 0.001 + 1e-6)
        assert not v.passed

    def test_policy_overrides(self):
        policy = TolerancePolicy(z=2.0, abs_tol=0.0, exact_tol=1e-12)
        assert not compare(1.0, 1.0 + 1e-11, policy).passed
        assert compare(Estimate(1.0, 0.01, 10), 1.019, policy).passed



# same atoms, other weights: a functional on B read under A's law would
# give a number, just under the wrong law
A = MeasureSpace(["a", "b"], [0.5, 1.0])
B = MeasureSpace(["a", "b"], [2.0, 3.0])
ON_A = Exponential(A, [0.3, 0.2])
ON_B = Exponential(B, [0.3, 0.2])
N_A = CountPolynomial.total_count(A)
N_B = CountPolynomial.total_count(B)
PLAN = McPlan(1_000, 3)
OTHER_SPACE_CALLS = {
    "oracle_expectation": lambda: oracle_expectation(A, ON_B, OracleBudget.for_space(A, 1e-10)),
    "expectation_of": lambda: PoissonEnumeration.get(
        A, OracleBudget.for_space(A, 1e-10)).expectation_of(ON_B),
    "mc_expectation": lambda: mc_expectation(A, ON_B, PLAN),
    "mc_expectations": lambda: mc_expectations(A, [ON_A, ON_B], PLAN),
    "mc_covariance_first": lambda: mc_covariance(A, ON_B, ON_A, PLAN),
    "mc_covariance_second": lambda: mc_covariance(A, ON_A, ON_B, PLAN),
    "chaos_add": lambda: ChaosVector(A, [1.0]) + ChaosVector(B, [2.0]),
    "chaos_max_abs_difference": lambda: ChaosVector(A, [1.0]).max_abs_difference(
        ChaosVector(B, [2.0])),
    "chaos_allclose": lambda: ChaosVector(A, [1.0]).allclose(ChaosVector(B, [1.0])),
    "exponential_product": lambda: ON_A * ON_B,
    "exponential_sum": lambda: ON_A + ON_B,
    "exponential_of_other_kernel": lambda: Exponential(A, ON_B.v),
    "count_polynomial_sum": lambda: N_A + N_B,
    "count_polynomial_product": lambda: N_A * N_B,
    "polynomial_plus_exponential": lambda: N_A + ON_B,
    "exponential_minus_polynomial": lambda: ON_A - N_B,
    "covariance_semigroup_rhs": lambda: covariance_semigroup_rhs(A, ON_B, ON_B, PLAN, 4),
    "covariance_conditional_rhs": lambda: covariance_conditional_rhs(A, ON_B, ON_B, PLAN, 4),
}


@pytest.mark.parametrize("call", list(OTHER_SPACE_CALLS.values()), ids=list(OTHER_SPACE_CALLS))
def test_other_space_rejected(call):
    with pytest.raises(ContractViolationError, match="different space"):
        call()
