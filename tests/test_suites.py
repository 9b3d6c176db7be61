"""Suite registry and runner: coverage, determinism, row consistency."""

import numpy as np
import pytest

from poisson_chaos.config import load_config, parse_config
from poisson_chaos.errors import (ConfigError, ContractViolationError,
                                  EvaluationError)
from poisson_chaos.estimation import Estimate, McPlan
from poisson_chaos.functionals import CountPolynomial, Exponential, Opaque
from poisson_chaos.patterns import sample_poisson_counts
from poisson_chaos.space import MeasureSpace
from poisson_chaos.suites import (SUITES, Case, CasePayload, SuiteSpec,
                                  covered_identities, derive_case_seed,
                                  run_suite, suite_names)
from poisson_chaos.suites import malliavin_ops as malliavin_suite
from poisson_chaos.suites import semigroup as semigroup_suite
from poisson_chaos.suites import wiener as wiener_suite
from poisson_chaos.suites.base import run_cases
from poisson_chaos.suites.common import mc_covariance
from poisson_chaos.suites.correlation import check_monotone

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
        import dataclasses

        config = dataclasses.replace(quick_config, replicates=5_000)
        rows = run_suite("covariance", config)
        assert all(r.verdict == "PASS" for r in rows)


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
                if prefix == "uniqueness_":
                    # the recovered kernels refuse a non-finite entry
                    with pytest.raises(ContractViolationError):
                        run_matching(quick_config, suite, case)
                    continue
                (broken,) = run_matching(quick_config, suite, case)
            assert broken.verdict == "FAIL", (case, broken.lhs)


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
        first = int(np.flatnonzero(counts[:, 1] >= 7)[0])
        assert first >= 1 << 15  # past the first batch
        F = CountPolynomial.total_count(space)
        G = Opaque(space, counts_fn=lambda c: np.where(c[:, 1] >= 7, np.nan, 1.0))
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
