"""Suite registry and runner: coverage, determinism, row consistency."""

import dataclasses
import itertools
import math
import sys
from collections import Counter

import numpy as np
import pytest

from poisson_chaos.config import load_config, parse_config
from poisson_chaos import patterns
from poisson_chaos.errors import (BudgetError, ConfigError, ContractViolationError,
                                  EvaluationError)
from poisson_chaos.estimation import (BATCH_SIZE, ENUMERATION_STATE_CAP, CountTable, Estimate,
                                      McPlan, OracleBudget, PoissonEnumeration)
from poisson_chaos.functionals import (CountPolynomial, Exponential, LinearCombo, Opaque,
                                       chaos_of_exponential, difference_rows)
from poisson_chaos import malliavin, rng
from poisson_chaos.malliavin import MehlerDifferences, gauss_legendre_unit
from poisson_chaos.patterns import sample_poisson_counts, thin_counts
from poisson_chaos.report import parse_report, render_csv, render_jsonl
from poisson_chaos.space import MeasureSpace
from poisson_chaos.suites import (SUITES, Case, CasePayload, SuiteContext, SuiteSpec,
                                  covered_identities, derive_case_seed,
                                  run_suite, suite_names)
from poisson_chaos.suites import malliavin_ops as malliavin_suite
from poisson_chaos.suites import semigroup as semigroup_suite
from poisson_chaos.suites import wiener as wiener_suite
from poisson_chaos.suites import common
from poisson_chaos.suites.base import POLY4, run_cases
from poisson_chaos.suites.common import (covariance_conditional_rhs,
                                         covariance_semigroup_rhs, mc_covariance)
from poisson_chaos.suites.correlation import T_NODES, check_monotone
from poisson_chaos.wiener_ito import chaos_reconstruct_counts, wiener_ito_counts

import oracle

# every identity the runner is expected to exercise somewhere
REQUIRED_IDENTITIES = {
    "laplace-functional", "mecke-equation", "multivariate-mecke",
    "factorial-moments", "fock-isometry", "wiener-ito-isometry",
    "chaos-expansion", "pathwise-chaos-sum", "chaos-uniqueness",
    "product-formula-single", "product-formula-general",
    "malliavin-derivative", "duality", "skorohod-isometry",
    "skorohod-pathwise", "ou-generator", "ou-inverse", "mehler-formula",
    "semigroup-commutation", "semigroup-mean", "semigroup-contractivity",
    "covariance-identity-semigroup", "covariance-identity-conditional",
    "thinning-bifurcation", "poincare-inequality", "poincare-l1-extension",
    "fkg-inequality",
}


@pytest.fixture(scope="module")
def quick_config():
    config = load_config()
    config.replicates = 20_000
    return config


class TestRegistry:
    def test_all_suites_registered(self):
        assert len(suite_names()) == 15

    def test_identity_coverage(self):
        missing = REQUIRED_IDENTITIES - covered_identities()
        assert not missing, f"identities with no cases: {missing}"

    def test_case_identities_match_registry(self, quick_config):
        rows = run_suite("laplace", quick_config)
        for row in rows:
            assert row.identity in SUITES["laplace"].identities

    @pytest.mark.parametrize("name", suite_names())
    def test_registered_identities_are_the_built_ones(self, name):
        # the hand-kept identity tuple names exactly what the builder registers
        spec = SUITES[name]
        built = {case.identity for case in spec.build(SuiteContext(load_config(), name))}
        assert sorted(spec.identities) == sorted(built)

    def test_unknown_suite_rejected(self, quick_config):
        with pytest.raises(ConfigError):
            run_suite("nosuch", quick_config)


class TestCaseSeeds:
    def test_stable_and_distinct(self):
        a = derive_case_seed(7, "laplace", "case_one")
        assert a == derive_case_seed(7, "laplace", "case_one")
        assert a != derive_case_seed(7, "laplace", "case_two")
        assert a != derive_case_seed(8, "laplace", "case_one")
        assert a != derive_case_seed(7, "mecke", "case_one")


class TestRowConsistency:
    def test_verdict_follows_diff_and_tolerance(self, quick_config):
        for suite in ("laplace", "poincare", "fkg"):
            for row in run_suite(suite, quick_config):
                assert row.verdict == ("PASS" if row.abs_diff <= row.tolerance
                                       else "FAIL")

    def test_rows_repeat_bit_identically(self, quick_config):
        first = run_suite("laplace", quick_config)
        second = run_suite("laplace", quick_config)
        for a, b in zip(first, second):
            assert (a.lhs, a.rhs, a.se_combined, a.abs_diff, a.tolerance,
                    a.verdict, a.seed) == (b.lhs, b.rhs, b.se_combined,
                                           b.abs_diff, b.tolerance, b.verdict,
                                           b.seed)


class TestQuickSuitePasses:
    """Every suite passes at reduced replicate counts."""

    @pytest.mark.parametrize("suite", [
        "laplace", "mecke", "factorial_moments", "fock_isometry",
        "wi_isometry", "chaos_reconstruction", "product_formula",
        "malliavin_derivative", "duality", "skorohod_isometry",
        "ou_operators", "mehler",
    ])
    def test_suite_green(self, suite, quick_config):
        rows = run_suite(suite, quick_config)
        failures = [r for r in rows if r.verdict != "PASS"]
        assert not failures, failures

    def test_inequality_suites_green(self, quick_config):
        for suite in ("poincare", "fkg"):
            rows = run_suite(suite, quick_config)
            assert all(r.verdict == "PASS" for r in rows)

    def test_covariance_green_small(self, quick_config):
        config = dataclasses.replace(quick_config, replicates=5_000)
        rows = run_suite("covariance", config)
        assert all(r.verdict == "PASS" for r in rows)


class TestCasePlans:
    """A row's seed and replicate count are those of the one plan its case
    sampled with, and exact rows sample nothing."""

    def test_rows_show_the_plans_sampled(self, quick_config, monkeypatch):
        from poisson_chaos import estimation
        recorded = []
        inner = estimation.mc_batches

        def recording(plan, *args, **kwargs):
            recorded.append((plan.seed, plan.replicates))
            return inner(plan, *args, **kwargs)

        monkeypatch.setattr(estimation, "mc_batches", recording)
        monkeypatch.setattr(common, "mc_batches", recording)
        rows = [row for suite in suite_names() for row in run_suite(suite, quick_config)]
        assert all(r.verdict == "PASS" for r in rows)
        shown = Counter((r.seed, r.replicates) for r in rows if r.replicates > 0)
        assert set(shown.values()) == {1}
        assert Counter(recorded) == shown
        exact = {r.seed for r in rows if r.replicates == 0}
        assert exact and not exact & {seed for seed, _ in recorded}
        assert {n for _, n in recorded} == {quick_config.replicates}


class TestLaneOverlap:
    """Stream s of a lane reads words ``[s*n, (s+1)*n)`` (see ``rng.py``),
    so two draws of different ``n`` on one ``(seed, sub1, sub2)`` lane
    would share words wherever those ranges meet."""

    @staticmethod
    def overlaps(draws):
        """Pairs of word ranges, of different ``n`` on one lane, that meet."""
        lanes = {}
        for seed, streams, n, sub1, sub2 in draws:
            keys = np.unique(rng.stream_keys(streams))
            if n == 0 or keys.size == 0:
                continue
            bounds = rng._runs(keys).tolist()
            lanes.setdefault((int(seed), int(sub1), int(sub2)), []).extend(
                (int(keys[lo]) * n, (int(keys[hi - 1]) + 1) * n, n)
                for lo, hi in zip(bounds[:-1], bounds[1:]))
        found = []
        for lane, ranges in lanes.items():
            ranges.sort()
            for i, (lo, hi, n) in enumerate(ranges):
                for other in ranges[i + 1:]:
                    if other[0] >= hi:
                        break
                    if other[2] != n:
                        found.append((lane, (lo, hi, n), other))
        return found

    def test_checker_sees_an_overlap(self):
        two = np.arange(2, dtype=np.uint64)
        # words [0, 6) of n = 3 against [4, 8) of n = 4, then [8, 12) of n = 4
        assert len(self.overlaps([(1, two, 3, 0, 0), (1, two[1:], 4, 0, 0)])) == 1
        assert not self.overlaps([(1, two, 3, 0, 0), (1, two[1:] + 1, 4, 0, 0)])
        assert not self.overlaps([(1, two, 3, 0, 0), (1, two[1:], 4, 1, 0)])
        assert not self.overlaps([(1, two, 3, 0, 0), (1, two[1:], 3, 0, 0)])

    def test_no_suite_draws_overlapping_words(self, quick_config, monkeypatch):
        draws = []
        original = rng.stream_uniforms

        def recorded(seed, streams, n, sub1=0, sub2=0):
            draws.append((seed, np.array(streams), n, sub1, sub2))
            return original(seed, streams, n, sub1, sub2)

        bound = [module for name, module in list(sys.modules.items())
                 if name.startswith("poisson_chaos")
                 and getattr(module, "stream_uniforms", None) is original]
        assert {rng, patterns, malliavin} <= set(bound)
        for module in bound:
            monkeypatch.setattr(module, "stream_uniforms", recorded)
        # two batches per sampled case, so a lane is read more than once
        config = dataclasses.replace(quick_config, replicates=BATCH_SIZE + 1_000)
        for suite in suite_names():
            assert all(r.verdict != "ERROR" for r in run_suite(suite, config)), suite
        lanes = {(seed, sub1, sub2) for seed, _, _, sub1, sub2 in draws}
        assert 1 < len(lanes) < len(draws)
        assert self.overlaps(draws) == []


class TestSuiteContext:
    def test_add_hands_each_case_its_plan(self, quick_config):
        plans = []

        def run(plan):
            plans.append(plan)
            return CasePayload(lhs=Estimate(0.0, 0.0, plan.replicates), rhs=0.0)

        def build(ctx):
            ctx.add("default", "power", run)
            ctx.add("capped", "power", run, replicates=7)
            return ctx.cases

        rows = run_cases(SuiteSpec("power", ("power",), build), quick_config)
        want = [(quick_config.replicates, derive_case_seed(quick_config.seed, "power", "default")),
                (7, derive_case_seed(quick_config.seed, "power", "capped"))]
        assert [(p.replicates, p.seed) for p in plans] == want
        assert [(r.replicates, r.seed) for r in rows] == want

    def test_budget_of_each_growth_envelope(self, quick_config):
        # keyed by id, a second envelope built after the first was freed
        # got the first one's budget (cutoff 21 in place of 11 on S1)
        ctx = SuiteContext(quick_config, "power")
        s1 = quick_config.spaces["S1"]
        assert ctx.budget(s1, lambda n: 4.0**n, 1e-8).max_total == 21
        flat = lambda n: 1.0  # noqa: E731
        assert ctx.budget(s1, flat, 1e-8) == OracleBudget.for_space(s1, 1e-8, growth=flat)


class TestMeckeSharedSample:
    def test_each_case_draws_once_per_batch(self, quick_config, monkeypatch):
        # add_point_* and pair_*_exp evaluate both sides on one sampled batch
        from poisson_chaos import estimation
        draws = []
        sampler = estimation.sample_poisson_counts

        def counting(space, seed, streams, *scale):
            draws.append(seed)
            return sampler(space, seed, streams, *scale)

        monkeypatch.setattr(estimation, "sample_poisson_counts", counting)
        rows = run_suite("mecke", quick_config)
        assert quick_config.replicates <= estimation.BATCH_SIZE
        assert sorted(draws) == sorted(row.seed for row in rows)
        assert all(r.verdict == "PASS" for r in rows)


    def test_paired_row_is_judged_on_its_difference(self, quick_config):
        # both sides of add_point_* read the same patterns, so the row's
        # standard error is that of the per-replicate lhs - rhs
        row = next(r for r in run_suite("mecke", quick_config)
                   if r.case_id == "add_point_S1_exp_weighted")
        space = quick_config.spaces["S1"]
        f = quick_config.functionals["exp_s1_fifth"]  # the name-sorted first on S1
        counts = sample_poisson_counts(space, row.seed,
                                       np.arange(row.replicates, dtype=np.uint64))
        lhs, rhs = np.zeros(row.replicates), np.zeros(row.replicates)
        for x in range(space.size):
            shifted = counts.copy()
            shifted[:, x] += 1
            lhs += counts[:, x] * (1.0 + x) * f.evaluate_counts(counts)
            rhs += space.weights[x] * (1.0 + x) * f.evaluate_counts(shifted)
        n = row.replicates
        se = float(np.std(lhs - rhs, ddof=1)) / math.sqrt(n)
        assert row.se_combined == pytest.approx(se, rel=1e-9)
        assert row.tolerance == pytest.approx(4.0 * se + 1e-6, rel=1e-9)
        # the sides are anticorrelated (about -0.99): taken as independent,
        # they would get a standard error about 16% too small, which runs
        # the row at z = 3.4 instead of 4
        independent = math.hypot(np.std(lhs, ddof=1), np.std(rhs, ddof=1)) / math.sqrt(n)
        assert row.se_combined > 1.1 * independent


class TestTiltedIsometryRows:
    def test_row_se_is_the_tilted_one(self, quick_config):
        """``mc_S2_m3_n3`` samples its degree-6 product at the tilted
        intensity: its standard error is that of the weighted values
        under the tilted law (enumerated here), about 12 times below the
        untilted one."""
        row = next(r for r in run_suite("wi_isometry", quick_config)
                   if r.case_id == "mc_S2_m3_n3")
        space = quick_config.spaces["S2"]
        g = wiener_suite._seeded_kernel(space, 3, 303)
        h = wiener_suite._seeded_kernel(space, 3, 403)
        enum = PoissonEnumeration(space, OracleBudget(60, 0.0))
        values = (wiener_ito_counts(space, g, enum.counts)
                  * wiener_ito_counts(space, h, enum.counts))
        tilt = 1.0 + 6 / (2.0 * space.total_mass)
        total = enum.counts.sum(axis=1)
        weights = np.exp((tilt - 1.0) * space.total_mass - math.log(tilt) * total)
        mean = float(values @ enum.probs)
        tilted_sd = math.sqrt(float(((values * weights - mean) ** 2) @ (enum.probs / weights)))
        plain_sd = math.sqrt(float(((values - mean) ** 2) @ enum.probs))
        assert plain_sd > 10 * tilted_sd
        n = row.replicates
        assert 0.7 < row.se_combined / (tilted_sd / math.sqrt(n)) < 1.4
        assert row.verdict == "PASS"


class TestTruncationCurve:
    """The five ``l2_*`` cases of a functional read one truncation curve."""

    def test_one_curve_per_functional(self, quick_config, monkeypatch):
        curves = []
        inner = wiener_suite._truncation_errors

        def recording(ctx, space, f, order):
            errors = inner(ctx, space, f, order)
            curves.append((ctx, space, f, order, errors))
            return errors

        monkeypatch.setattr(wiener_suite, "_truncation_errors", recording)
        rows = [r for r in run_suite("chaos_reconstruction", quick_config)
                if r.case_id.startswith("l2_")]
        assert rows and all(r.verdict == "PASS" for r in rows)
        assert len(rows) == 5 * len(curves)
        assert len({(space.cache_key(), id(f)) for _, space, f, _, _ in curves}) == len(curves)
        for ctx, space, f, order, errors in curves:
            # each order rebuilt and reconstructed from scratch
            enum = ctx.enumeration(space, growth=None, tol=None)
            exact = f.evaluate_counts(enum.counts)
            want = [enum.expectation_of_values(
                (exact - chaos_reconstruct_counts(space, chaos_of_exponential(f, n),
                                                  enum.counts)) ** 2)
                    for n in range(order + 1)]
            assert np.array(errors).view(np.uint64).tolist() == \
                np.array(want).view(np.uint64).tolist()

    def test_a_raising_curve_errors_every_case(self, quick_config, monkeypatch):
        calls = []

        def raising(ctx, space, f, order):
            calls.append(id(f))
            raise FloatingPointError("curve")

        monkeypatch.setattr(wiener_suite, "_truncation_errors", raising)
        rows = [r for r in run_suite("chaos_reconstruction", quick_config)
                if r.case_id.startswith("l2_")]
        assert rows and all(r.verdict == "ERROR" for r in rows)
        assert len(calls) == len(rows) == 5 * len(set(calls))


def run_payloads(config, payloads):
    """Judge ready-made payloads through the suite runner."""
    def build(ctx):
        return [Case(name, "power", lambda p=p: p) for name, p in payloads]

    return run_cases(SuiteSpec("power", ("power",), build), config)


# each mode of the verdict, as a payload shifted in its failing direction
POWER_MODES = {
    "policy_estimate": lambda bias: CasePayload(lhs=Estimate(1.0, 0.01, 1000),
                                                rhs=1.0 + bias),
    "policy_exact": lambda bias: CasePayload(lhs=2.0, rhs=2.0 - bias),
    "fixed_tolerance": lambda bias: CasePayload(lhs=0.5 + bias, rhs=0.5,
                                                tolerance=1e-6),
    "one_sided_fixed": lambda bias: CasePayload(lhs=1.0 + bias, rhs=1.0,
                                                tolerance=1e-9, one_sided=True),
    "one_sided_policy": lambda bias: CasePayload(lhs=0.0, rhs=Estimate(-bias, 0.01, 1000),
                                                 one_sided=True),
}


class TestPower:
    """The runner fails a case whose identity is off by far more than its
    tolerance, in every mode of the verdict."""

    @pytest.mark.parametrize("mode", sorted(POWER_MODES))
    def test_bias_of_ten_tolerances_fails(self, mode, quick_config):
        make = POWER_MODES[mode]
        (fair,) = run_payloads(quick_config, [(mode, make(0.0))])
        assert fair.verdict == "PASS"
        (biased,) = run_payloads(quick_config, [(mode, make(10 * fair.tolerance))])
        assert biased.tolerance == fair.tolerance
        assert biased.verdict == "FAIL"


# (suite, case-id prefix, suite module, name of one side's function there)
PATHWISE_SIDES = [
    ("wi_isometry", "symmetrization_", wiener_suite, "wiener_ito_counts"),
    ("product_formula", "pathwise_", wiener_suite, "product_formula_rhs"),
    ("chaos_reconstruction", "finite_sum_", wiener_suite, "chaos_finite_sum"),
    ("chaos_reconstruction", "uniqueness_", wiener_suite, "chaos_reconstruct_counts"),
    ("malliavin_derivative", "chaos_vs_", malliavin_suite, "chaos_reconstruct_counts"),
    ("skorohod_isometry", "pathwise_vs_chaos_", malliavin_suite,
     "chaos_reconstruct_counts"),
    ("ou_operators", "pathwise_cancellation_", malliavin_suite, "ou_generator_counts"),
    ("ou_operators", "pathwise_vs_chaos_", malliavin_suite, "ou_generator_counts"),
    ("ou_operators", "linear_example_", malliavin_suite, "ou_generator_counts"),
    ("mehler", "commutation_S", semigroup_suite, "iterated_difference_counts"),
]


def run_matching(config, suite, prefix):
    spec = SUITES[suite]
    build = lambda ctx: [c for c in spec.build(ctx) if c.case_id.startswith(prefix)]
    return run_cases(SuiteSpec(spec.name, spec.identities, build), config)


def perturb_first_row(monkeypatch, module, name, change, every_row=False):
    """Apply ``change`` to the middle row (or to every row) of the first
    array the named function returns, so one side of the scan is off."""
    original = getattr(module, name)
    calls = []

    def patched(*args, **kwargs):
        out = original(*args, **kwargs)
        if not calls:
            out = out.copy()
            rows = slice(None) if every_row else len(out) // 2
            out[rows] = change(out[rows])
        calls.append(1)
        return out

    monkeypatch.setattr(module, name, patched)


class TestPathwisePower:
    """Each pathwise scan FAILs when one row of one side is off by ten
    tolerances, or is NaN."""

    @pytest.mark.parametrize("suite,prefix,module,name", PATHWISE_SIDES,
                             ids=[f"{s}-{p}" for s, p, _, _ in PATHWISE_SIDES])
    def test_one_bad_row_fails(self, suite, prefix, module, name, quick_config,
                               monkeypatch):
        fair = run_matching(quick_config, suite, prefix)
        assert fair and all(r.verdict == "PASS" for r in fair)
        for row in fair:
            case = row.case_id
            with monkeypatch.context() as m:
                # least squares spreads a one-row error over all coefficients
                # (10 tolerances in the middle uniqueness target move them by
                # less than one tolerance), so those cases shift every target
                perturb_first_row(m, module, name, lambda v: v + 10 * row.tolerance,
                                  every_row=prefix == "uniqueness_")
                (biased,) = run_matching(quick_config, suite, case)
            assert biased.verdict == "FAIL", (case, biased.lhs, biased.tolerance)
            with monkeypatch.context() as m:
                perturb_first_row(m, module, name, lambda v: np.nan)
                (broken,) = run_matching(quick_config, suite, case)
            if prefix == "uniqueness_":
                # the recovered kernels refuse a non-finite entry
                assert broken.verdict == "ERROR", (case, broken.lhs)
                assert broken.error.startswith(ContractViolationError.__name__)
                continue
            assert broken.verdict == "FAIL", (case, broken.lhs)


class TestErrorRows:
    """A case that raises becomes an ERROR row; the other rows do not move."""

    @staticmethod
    def with_raising_case(spec):
        def build(ctx):
            cases = spec.build(ctx)

            def boom():
                raise ZeroDivisionError("broken case")

            return cases[:1] + [Case("broken", spec.identities[0], boom)] + cases[1:]

        return SuiteSpec(spec.name, spec.identities, build)

    def test_runner_emits_error_row(self, quick_config):
        spec = SUITES["laplace"]
        clean = run_cases(spec, quick_config)
        rows = run_cases(self.with_raising_case(spec), quick_config)
        (error,) = [r for r in rows if r.verdict == "ERROR"]
        assert error.case_id == "broken" and rows[1] is error
        assert (error.lhs, error.rhs, error.se_combined, error.abs_diff,
                error.tolerance, error.replicates) == (None,) * 5 + (0,)
        assert error.error == "ZeroDivisionError: broken case"
        assert error.seed == derive_case_seed(quick_config.seed, "laplace", "broken")
        others = [r for r in rows if r is not error]
        strip = lambda r: {**r.__dict__, "wall_time_ms": 0}  # noqa: E731
        assert [strip(r) for r in others] == [strip(r) for r in clean]
        for fmt, render in (("csv", render_csv), ("jsonl", render_jsonl)):
            text = render(rows)
            assert text.replace(render([error]).splitlines()[-1] + "\n", "", 1) \
                == render(clean)
            parsed = parse_report(text, fmt)
            assert [p["verdict"] for p in parsed] == [r.verdict for r in rows]
            assert all(parsed[1][col] is None for col in
                       ("lhs", "rhs", "se_combined", "abs_diff", "tolerance"))
            assert parsed[0]["lhs"] == rows[0].lhs
        assert ",broken,,,,,,ERROR,0," in render_csv(rows)

    def test_cli_exits_one_and_reports_the_rest(self, tmp_path, monkeypatch, capsys):
        from poisson_chaos.cli import main

        argv = ["laplace", "--replicates", "5000", "--seed", "3"]
        assert main(argv + ["--report", str(tmp_path / "clean.csv")]) == 0
        monkeypatch.setitem(SUITES, "laplace", self.with_raising_case(SUITES["laplace"]))
        assert main(argv + ["--report", str(tmp_path / "error.csv")]) == 1
        out = capsys.readouterr().out
        assert "[ERROR] laplace/broken: ZeroDivisionError: broken case" in out
        clean = (tmp_path / "clean.csv").read_text().splitlines()
        error = (tmp_path / "error.csv").read_text().splitlines()
        assert error[:2] + error[3:] == clean
        assert error[2].startswith("laplace,broken,,,,,,ERROR,0,")

    def test_config_errors_still_end_the_run(self, quick_config):
        def build(ctx):
            return [Case("needs_s9", "power", lambda: ctx.space("S9"))]

        with pytest.raises(ConfigError):
            run_cases(SuiteSpec("power", ("power",), build), quick_config)


def enumerated_covariance(space, F, G) -> float:
    """Cov(F, G) by enumeration, as the covariance suite computes it."""
    budget = OracleBudget.for_space(space, 1e-8, growth=POLY4)
    enum = PoissonEnumeration.get(space, budget)
    centred_f = F.evaluate_counts(enum.counts) - enum.expectation_of(F)
    centred_g = G.evaluate_counts(enum.counts) - enum.expectation_of(G)
    return enum.expectation_of_values(centred_f * centred_g)


def first_and_last(config, space_name):
    space = config.spaces[space_name]
    pool = [f for f in config.functionals.values() if f.space is space]
    return space, pool[0], pool[-1]


ESTIMATORS = pytest.mark.parametrize("estimator", [
    (covariance_semigroup_rhs, oracle.covariance_semigroup_rhs, False),
    (covariance_conditional_rhs, oracle.covariance_conditional_rhs, True),
], ids=["semigroup", "conditional"])


class TestNestedEstimators:
    """The nested covariance estimators with exact Mehler inner
    expectations: equal to the same estimators on the direct primitives,
    in statistical agreement with the sampled-inner estimators they
    replaced and with the enumerated covariance, and on boxes with no
    table equal to the table reads."""

    # two batches, the second partial
    REPLICATES = (1 << 15) + 17

    @pytest.mark.parametrize("workers", ["1", "2"])
    @ESTIMATORS
    @pytest.mark.parametrize("space_name", ["S1", "S2", "S3"])
    def test_equal_to_direct_primitives(self, space_name, estimator, workers,
                                        quick_config, monkeypatch):
        """Reference: binomial CDF rows for the thinning, evaluated
        differences, and the enumerated field law for the inner sums."""
        monkeypatch.setenv("POISSON_CHAOS_THREADS", workers)
        space, F, G = first_and_last(quick_config, space_name)
        plan = McPlan(self.REPLICATES, 5 + space.size)
        fast, _, conditional = estimator
        got = fast(space, F, G, plan, 4)
        want = oracle.covariance_exact_inner_rhs(space, F, G, plan, 4, conditional)
        assert got.replicates == want.replicates
        assert got.mean == pytest.approx(want.mean, rel=1e-12, abs=1e-15)
        assert got.se == pytest.approx(want.se, rel=1e-9)

    @ESTIMATORS
    @pytest.mark.parametrize("space_name", ["S1", "S2", "S3"])
    @pytest.mark.parametrize("seed", [3, 29])
    def test_agrees_with_sampled_inner_and_enumeration(self, space_name, estimator, seed,
                                                       quick_config):
        space, F, G = first_and_last(quick_config, space_name)
        plan = McPlan(20_000, seed)
        fast, sampled, _ = estimator
        got = fast(space, F, G, plan, 8)
        old = sampled(space, F, G, plan, 8, 4)
        exact = enumerated_covariance(space, F, G)
        assert abs(got.mean - old.mean) <= 4 * math.hypot(got.se, old.se)
        for est in (got, old):
            assert abs(est.mean - exact) <= 4 * est.se

    @ESTIMATORS
    def test_one_and_two_workers_equal(self, estimator, quick_config, monkeypatch):
        space, F, G = first_and_last(quick_config, "S2")
        plan = McPlan(self.REPLICATES, 13)
        results = []
        for workers in ("1", "2"):
            monkeypatch.setenv("POISSON_CHAOS_THREADS", workers)
            results.append(estimator[0](space, F, G, plan, 16))
        assert results[0] == results[1]

    @ESTIMATORS
    def test_no_inner_stream_lanes(self, estimator, quick_config, monkeypatch):
        """Only the pattern (lane 0) and its thinning (lane 1) are drawn;
        the sampled-inner estimators used lanes 2 to 4.  The spy replaces
        the generator in every package module that binds it."""
        lanes = []
        original = rng.stream_uniforms

        def recorded(seed, streams, n, sub1=0, sub2=0):
            lanes.append(sub1)
            return original(seed, streams, n, sub1, sub2)

        bound = [module for name, module in list(sys.modules.items())
                 if name.startswith("poisson_chaos")
                 and getattr(module, "stream_uniforms", None) is original]
        assert patterns in bound
        for module in bound:
            monkeypatch.setattr(module, "stream_uniforms", recorded)
        space, F, G = first_and_last(quick_config, "S2")
        estimator[0](space, F, G, McPlan(self.REPLICATES, 13), 16)
        assert lanes and set(lanes) == {0, 1}

    @staticmethod
    def spy_evaluated(monkeypatch) -> list:
        """Row counts of the kept matrices the fallback route evaluates."""
        calls = []
        original = MehlerDifferences._evaluated

        def recorded(self, node, kept):
            calls.append(len(kept))
            return original(self, node, kept)

        monkeypatch.setattr(MehlerDifferences, "_evaluated", recorded)
        return calls

    @ESTIMATORS
    def test_box_without_table_is_evaluated(self, estimator, quick_config, monkeypatch):
        """A cell cap at the largest refresh field support leaves every box
        without a table, so each node evaluates."""
        fast = estimator[0]
        space, F, G = first_and_last(quick_config, "S2")
        plan = McPlan(2_000, 9)
        want = fast(space, F, G, plan, 4)
        reach = MehlerDifferences(space, gauss_legendre_unit(4)[0], []).reach
        monkeypatch.setattr(malliavin, "COUNT_TABLE_CELL_CAP", int(np.max(np.prod(reach, axis=1))))
        rows = self.spy_evaluated(monkeypatch)
        got = fast(space, F, G, plan, 4)
        assert rows and set(rows) == {2_000}
        assert got.mean == pytest.approx(want.mean, rel=0, abs=1e-14)
        assert got.se == pytest.approx(want.se, rel=0, abs=1e-14)

    @ESTIMATORS
    def test_oversized_field_support_raises(self, estimator):
        # four atoms of mean 30: about 70**4 support points and no table
        space = MeasureSpace(["a", "b", "c", "d"], [30.0] * 4)
        F = CountPolynomial.total_count(space)
        with pytest.raises(BudgetError, match="support"):
            estimator[0](space, F, F, McPlan(100, 1), 4)

class TestCountTable:
    """The count box of :class:`MehlerDifferences`: each functional
    tabulated on it bit for bit, one-point differences read at t = 1,
    and caps sized from the nodes that read it."""

    SPACES = {"S1": [1.0], "S2": [0.5, 1.0], "S3": [0.3, 0.3, 0.4]}

    @classmethod
    def box(cls, name):
        """A space, the operator at t = 1 over functionals of every
        variant, and its box's cells in rank order."""
        weights = cls.SPACES[name]
        space = MeasureSpace([f"x{j}" for j in range(len(weights))], weights)
        rng = np.random.default_rng(space.size)
        d = space.size
        e1 = Exponential(space, rng.uniform(0.1, 0.9, size=d))
        e2 = Exponential(space, rng.uniform(0.1, 0.9, size=d))
        n = CountPolynomial.total_count(space)
        mehler = MehlerDifferences(space, [1.0], [
            e1,
            LinearCombo(space, [(0.5, e1), (-1.5, e2)]),
            n * n + CountPolynomial.atom_count(space, d - 1) * 0.25,
            Opaque(space, counts_fn=lambda c: np.minimum(c.sum(axis=1), 2.0)),
            Opaque(space, fn=lambda p: math.sqrt(1.0 + p.total)),
        ])
        cells = np.array([row[::-1] for row in itertools.product(
            *(range(c + 1) for c in reversed(mehler.caps)))])
        return space, mehler, cells

    @pytest.mark.parametrize("name", ["S1", "S2", "S3"])
    def test_table_route_equals_evaluation(self, name):
        space, mehler, cells = self.box(name)
        caps = mehler.caps
        counts = np.random.default_rng(11).integers(0, caps + 1, size=(300, space.size))
        rank = counts @ np.cumprod([1, *(caps[:-1] + 1)])
        for F, values in zip(mehler.functionals, mehler.values):
            assert np.array_equal(values, F.evaluate_counts(cells))
            assert np.array_equal(values[rank], F.evaluate_counts(counts))

    @pytest.mark.parametrize("name", ["S1", "S2", "S3"])
    def test_difference_table_gather(self, name):
        """The t = 1 read is ``difference_rows`` bit for bit."""
        space, mehler, cells = self.box(name)
        caps = mehler.caps
        # every count below its cap, so each difference stays in the box
        counts = np.random.default_rng(13).integers(0, caps, size=(500, space.size))
        reads = mehler.read(0, counts)
        for F, values, diffs, read in zip(mehler.functionals, mehler.values,
                                          mehler.diffs, reads):
            assert diffs.shape == (len(cells), space.size)
            for x, step in enumerate(mehler.radix):
                # every cell with room for one more point at x
                room = np.flatnonzero(cells[:, x] < caps[x])
                assert np.array_equal(diffs[room, x], values[room + step] - values[room])
            assert np.array_equal(read, difference_rows(F, counts))

    def test_boxes_without_a_table(self, monkeypatch):
        space, mehler, cells = self.box("S2")
        F = mehler.functionals[0]
        monkeypatch.setattr(malliavin, "COUNT_TABLE_CELL_CAP", len(cells))
        full = MehlerDifferences(space, [1.0], [F])
        assert full.values[0].shape == (len(cells),)
        monkeypatch.setattr(malliavin, "COUNT_TABLE_CELL_CAP", len(cells) - 1)
        assert MehlerDifferences(space, [1.0], [F]).smoothed is None

    @pytest.mark.parametrize("seed", range(12))
    def test_caps_fit_the_nodes_that_read_them(self, seed):
        """On a random space of 1 to 3 atoms of weight 0.05 to 3: each cap
        is the largest count inversion draws plus the longest refresh
        field over the nodes, t = 1 included; every node's reads fit the
        box; and every read equals the enumerated inner means, through
        the table or, on a box over the cell cap, the evaluated route."""
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        space = MeasureSpace([f"x{j}" for j in range(d)], rng.uniform(0.05, 3.0, size=d))
        F = Exponential(space, rng.uniform(0.1, 0.9, size=d))
        ts = [float(t) for t in gauss_legendre_unit(T_NODES)[0]] + [1.0]
        mehler = MehlerDifferences(space, ts, [F])
        caps = mehler.caps
        # inversion is monotone, so the largest uniform draws the largest count
        top = np.full((1, d), np.nextafter(1.0, 0.0))
        largest = patterns.poisson_counts_with_uniforms(space, 1.0, top)[0]
        reach = [patterns.poisson_counts_with_uniforms(space, 1.0 - t, top)[0] + 1
                 for t in ts]
        assert np.array_equal(caps, largest + np.max(reach, axis=0))
        kept = np.vstack([rng.integers(0, largest + 1, size=(8, d)), largest,
                          np.where(np.eye(d, dtype=bool), largest, 0)])
        for node, (t, r) in enumerate(zip(mehler.ts, reach)):
            assert np.array_equal(mehler.reach[node], r)
            assert np.all(largest + mehler.reach[node] <= caps)
            (out,) = mehler.read(node, kept)
            want = oracle.exact_inner_means(F, kept, oracle.field_law(space, 1.0 - t))
            np.testing.assert_allclose(out, want, rtol=1e-14, atol=1e-14)


class TestSmoothedTables:
    """Each read of :class:`MehlerDifferences` is the Mehler inner
    expectation ``E[D_x F(kept + field)]``, field ~ Poisson((1 - t)
    lambda), on every row the estimators read."""

    @staticmethod
    def kept_rows(space, mehler, t):
        counts = sample_poisson_counts(space, 41, np.arange(4_000, dtype=np.uint64))
        kept = thin_counts(counts, t, 41, np.arange(4_000, dtype=np.uint64), sub1=1)
        # the far corner of the rows read from the table, and its faces
        corner = mehler.caps - mehler.reach[0]
        faces = np.where(np.eye(space.size, dtype=bool), corner, 0)
        return np.vstack([kept, corner, faces])

    @pytest.mark.parametrize("t", [0.01, 0.3, 0.7, 0.99]
                             + [float(t) for t in gauss_legendre_unit(T_NODES)[0]])
    def test_equal_to_enumerated_field_law(self, t, quick_config):
        for space_name in ("S1", "S2", "S3"):
            space = quick_config.spaces[space_name]
            pool = [f for f in quick_config.functionals.values() if f.space is space]
            mehler = MehlerDifferences(space, [t], pool)
            kept = self.kept_rows(space, mehler, t)
            law = oracle.field_law(space, 1.0 - t)
            for F, got in zip(pool, mehler.read(0, kept)):
                want = oracle.exact_inner_means(F, kept, law)
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("t", [0.01, 0.3, 0.7, 0.99])
    @pytest.mark.parametrize("space_name", ["S1", "S2", "S3"])
    def test_linear_functional_gives_equal_rows(self, space_name, t, quick_config):
        """Integer coefficients give exactly constant differences, so every
        row read is the same float sum; fractional ones round the
        differences themselves."""
        space = quick_config.spaces[space_name]

        def linear(coeffs):
            return CountPolynomial(space, [(c, tuple(int(i == j) for i in range(space.size)))
                                           for j, c in enumerate(coeffs[:space.size])])

        functionals = [CountPolynomial.total_count(space), linear([2.0, -3.0, 5.0]),
                       linear([0.7, -1.3, 2.5])]
        mehler = MehlerDifferences(space, [t], functionals)
        cells = ((np.arange(len(mehler.values[0]))[:, None] // mehler.radix)
                 % (mehler.caps + 1))
        read = np.all(cells + mehler.reach[0] <= mehler.caps, axis=1)
        total, integer, fractional = (smoothed[read] for smoothed in mehler.smoothed[0])
        # the refresh pmfs sum to exactly one, so a unit difference stays one
        assert np.all(total == 1.0)
        assert np.array_equal(integer, np.broadcast_to(integer[0], integer.shape))
        np.testing.assert_allclose(integer[0], [2.0, -3.0, 5.0][:space.size], rtol=1e-15)
        np.testing.assert_allclose(fractional, np.broadcast_to(
            [0.7, -1.3, 2.5][:space.size], fractional.shape), rtol=1e-13)


class TestSampledCountTables:
    """Every Monte Carlo estimator reads its functionals from a
    :class:`~poisson_chaos.estimation.CountTable`; switching the tables
    off (a cell cap of 0) changes no report byte."""

    # the suites with sampled rows; the other five are exact
    MONTE_CARLO_SUITES = ("laplace", "mecke", "factorial_moments", "fock_isometry",
                          "wi_isometry", "ou_operators", "mehler", "covariance",
                          "poincare", "fkg")

    @staticmethod
    def spy_reads(monkeypatch) -> list:
        """Whether each multi-row read of a count table gathered."""
        reads = []
        original = CountTable.read

        def recorded(self, counts):
            if len(counts) > 1:
                reads.append(self.box is not None)
            return original(self, counts)

        monkeypatch.setattr(CountTable, "read", recorded)
        return reads

    @staticmethod
    def tables_off(monkeypatch):
        from poisson_chaos import estimation
        monkeypatch.setattr(estimation, "COUNT_TABLE_CELL_CAP", 0)

    # BATCH_SIZE + 1 leaves a one-row last batch, which is evaluated
    @pytest.mark.parametrize("replicates", [BATCH_SIZE + 1, 20_000])
    def test_reports_equal_evaluation(self, replicates, monkeypatch):
        assert set(self.MONTE_CARLO_SUITES) <= set(SUITES)
        config = dataclasses.replace(load_config(), replicates=replicates)
        reads = self.spy_reads(monkeypatch)
        tabled = {}
        for name in self.MONTE_CARLO_SUITES:
            reads.clear()
            tabled[name] = render_csv(run_suite(name, config))
            assert any(reads), f"{name} gathered from no table"
        self.tables_off(monkeypatch)
        for name in self.MONTE_CARLO_SUITES:
            reads.clear()
            assert render_csv(run_suite(name, config)) == tabled[name], name
            assert reads and not any(reads)

    # a tilted law's box, and a thinned pattern plus its refresh field's
    @pytest.mark.parametrize("suite, case_id", [("wi_isometry", "mc_S2_m3_n3"),
                                                ("mehler", "thinning_mc_S2_s0.75_N2")])
    def test_row_gathers_and_equals_evaluation(self, suite, case_id, quick_config,
                                               monkeypatch):
        reads = self.spy_reads(monkeypatch)
        (tabled,) = run_matching(quick_config, suite, case_id)
        assert reads and all(reads)
        self.tables_off(monkeypatch)
        (evaluated,) = run_matching(quick_config, suite, case_id)
        assert render_csv([tabled]) == render_csv([evaluated])
        assert tabled.verdict == "PASS"

    def test_off_by_one_radix_changes_the_report(self, quick_config, monkeypatch):
        """The equality has power: a table read through a radix one below
        the box's, for every atom after the first, moves the rows of the
        two-atom space."""
        rows = run_matching(quick_config, "mecke", "add_point_S2")
        original = CountTable.__init__

        def mutant(self, *args, **kwargs):
            original(self, *args, **kwargs)
            if self.box is not None:
                self.box.radix = self.box.radix - (np.arange(len(self.box.radix)) > 0)

        monkeypatch.setattr(CountTable, "__init__", mutant)
        mutated = run_matching(quick_config, "mecke", "add_point_S2")
        assert render_csv(mutated) != render_csv(rows)


def moments_reference(space, F, G, plan):
    """The single-threaded covariance loop that ``mc_covariance`` replaced."""
    ranges = [(lo, min(lo + (1 << 15), plan.replicates))
              for lo in range(0, plan.replicates, 1 << 15)]
    f_batches, g_batches = [], []
    for lo, hi in ranges:
        streams = np.arange(plan.stream_base + lo, plan.stream_base + hi, dtype=np.uint64)
        counts = sample_poisson_counts(space, plan.seed, streams)
        f_batches.append(F.evaluate_counts(counts))
        g_batches.append(G.evaluate_counts(counts))
    n = plan.replicates
    mean_f = sum(float(np.sum(b)) for b in f_batches) / n
    mean_g = sum(float(np.sum(b)) for b in g_batches) / n
    prods = [(bf - mean_f) * (bg - mean_g) for bf, bg in zip(f_batches, g_batches)]
    cov = sum(float(np.sum(p)) for p in prods) / n
    spread = sum(float(np.sum((p - cov) ** 2)) for p in prods) / n
    return Estimate(cov, (spread / n) ** 0.5, n)


class TestCovarianceEstimator:
    # three full batches and a partial one
    REPLICATES = 3 * (1 << 15) + 17

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_equals_reference_loop(self, workers, monkeypatch):
        monkeypatch.setenv("POISSON_CHAOS_THREADS", workers)
        space = MeasureSpace(["a", "b"], [0.5, 1.0])
        F = Exponential(space, [0.3, 0.7])
        G = CountPolynomial(space, [(1.0, (1, 1)), (-0.5, (0, 2))])
        for i, (f, g) in enumerate(((F, G), (F, F), (G, G))):
            plan = McPlan(self.REPLICATES, 21 + i, stream_base=1000 * i)
            got = mc_covariance(space, f, g, plan)
            want = moments_reference(space, f, g, plan)
            assert (got.mean, got.se, got.replicates) == (want.mean, want.se,
                                                          want.replicates)

    def test_non_finite_replicate_is_named(self):
        space = MeasureSpace(["a", "b"], [0.5, 1.0])
        plan = McPlan(self.REPLICATES, 7)
        counts = sample_poisson_counts(space, plan.seed,
                                       np.arange(plan.replicates, dtype=np.uint64))
        rare = lambda c: (c[:, 0] >= 3) & (c[:, 1] >= 5)  # noqa: E731
        first = int(np.flatnonzero(rare(counts))[0])
        assert first >= 1 << 15  # past the first batch
        F = CountPolynomial.total_count(space)
        G = Opaque(space, counts_fn=lambda c: np.where(rare(c), np.nan, 1.0))
        with pytest.raises(EvaluationError, match=f"replicate {first}$"):
            mc_covariance(space, F, G, plan)


class TestMonotoneChecker:
    def test_rejects_non_monotone(self):
        space = MeasureSpace(["a", "b"], [0.5, 1.0])
        parity = Opaque(space, counts_fn=lambda c: (c.sum(axis=1) % 2).astype(float))
        assert not check_monotone(space, parity, boundary=1)

    def test_accepts_signed_count(self):
        space = MeasureSpace(["a", "b"], [0.5, 1.0])
        f = CountPolynomial(space, [(1.0, (1, 0)), (-1.0, (0, 1))])
        assert check_monotone(space, f, boundary=1)


class TestConfig:
    def test_default_loads(self):
        config = load_config()
        assert set(config.spaces) == {"S1", "S2", "S3"}
        assert config.suites == suite_names()
        assert config.replicates == 200_000

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({
                "space": {"S1": {"a": 1.0}},
                "kernels": {"bad": {"space": "S1", "values": [1.0, 2.0]}},
            })

    def test_unknown_space_reference_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({
                "space": {"S1": {"a": 1.0}},
                "functionals": {"f": {"kind": "exponential", "space": "S9",
                                      "v": [0.1]}},
            })

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"space": {"S1": {"a": 1.0}}, "suites": ["bogus"]})

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"space": {"S1": {"a": -1.0}}})

    @pytest.mark.parametrize("max_states", [0, -5, ENUMERATION_STATE_CAP + 1])
    def test_max_states_outside_the_enumeration_cap_rejected(self, max_states):
        # above the cap the budget passed and the enumeration raised later
        with pytest.raises(ConfigError, match="max_states"):
            parse_config({"space": {"S1": {"a": 1.0}},
                          "oracle": {"max_states": max_states}})

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, 7.0, True, "3"])
    def test_seed_outside_u64_rejected(self, seed):
        # a negative seed used to reach the streams and wrap
        with pytest.raises(ConfigError, match="mc.seed"):
            parse_config({"space": {"S1": {"a": 1.0}}, "mc": {"seed": seed}})

    def test_seed_at_the_u64_bounds_accepted(self):
        for seed in (0, 2**64 - 1):
            config = parse_config({"space": {"S1": {"a": 1.0}}, "mc": {"seed": seed}})
            assert config.seed == seed

    def test_max_states_at_the_bounds_accepted(self):
        for max_states in (1, ENUMERATION_STATE_CAP):
            config = parse_config({"space": {"S1": {"a": 1.0}},
                                   "oracle": {"max_states": max_states}})
            assert config.max_states == max_states
        assert load_config().max_states == ENUMERATION_STATE_CAP
