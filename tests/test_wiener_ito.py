"""Stochastic integrals: pathwise values, isometry, products, chaos sums."""

import inspect
import itertools
import math

import numpy as np
import pytest

from poisson_chaos.config import load_config
from poisson_chaos.errors import ContractViolationError, UnsupportedArityError
from poisson_chaos.estimation import (McPlan, OracleBudget, PoissonEnumeration,
                                      mc_expectation)
from poisson_chaos.functionals import (ChaosVector, Exponential, Opaque,
                                       chaos_of_exponential, difference_counts,
                                       difference_rows, iterated_difference_counts)
from poisson_chaos.malliavin import (difference_field, ou_generator_counts,
                                     ou_inverse_quadrature, ou_semigroup_mc,
                                     skorohod_counts)
from poisson_chaos.patterns import PointPattern, _count_vectors, factorial_counts
from poisson_chaos.space import (Kernel, MeasureSpace, inner_product,
                                 symmetrize, tensor_power)
from poisson_chaos.suites.common import seeded_chaos_vector
from poisson_chaos.wiener_ito import (chaos_finite_sum, chaos_reconstruct,
                                      chaos_reconstruct_counts,
                                      patterns_up_to, product_formula_rhs,
                                      wiener_ito, wiener_ito_counts)

import oracle

LN2 = math.log(2.0)


@pytest.fixture
def s1():
    return MeasureSpace(["a"], [1.0])


@pytest.fixture
def s2():
    return MeasureSpace(["a", "b"], [0.5, 1.0])


class TestPathwiseValues:
    def test_first_order_compensation(self, s1):
        eta = PointPattern(s1, [3])
        assert wiener_ito(eta, Kernel.constant(s1, 1)) == pytest.approx(2.0)

    def test_second_order_value(self, s1):
        eta = PointPattern(s1, [3])
        assert wiener_ito(eta, Kernel.constant(s1, 2)) == pytest.approx(1.0)

    def test_order_zero_is_identity(self, s1):
        eta = PointPattern(s1, [5])
        assert wiener_ito(eta, Kernel.scalar(s1, 2.5)) == 2.5

    def test_arity_cap(self, s2):
        eta = PointPattern(s2, [1, 1])
        with pytest.raises(UnsupportedArityError):
            wiener_ito(eta, Kernel.constant(s2, 5))
        with pytest.raises(UnsupportedArityError):
            wiener_ito_counts(s2, Kernel.constant(s2, 5), np.ones((3, 2), dtype=np.int64))

    def test_binomial_form_for_tensor_powers(self, s2):
        # signed binomial expansion over factorial measures of the slices
        rng = np.random.default_rng(0)
        h = Kernel(s2, rng.normal(size=2))
        mu_h = float(np.dot(s2.weights, h.values))
        for pattern in patterns_up_to(s2, 5):
            for n in (1, 2, 3):
                want = sum(math.comb(n, k) * (-1.0) ** (n - k)
                           * oracle.factorial_apply(pattern, tensor_power(h, k))
                           * mu_h ** (n - k)
                           for k in range(n + 1))
                got = wiener_ito(pattern, tensor_power(h, n))
                assert got == pytest.approx(want, abs=1e-10)

    def test_sampled_mean_vanishes(self, s2):
        rng = np.random.default_rng(1)
        for n in (1, 2, 3):
            g = Kernel(s2, rng.normal(size=(2,) * n))
            G = Opaque(s2, counts_fn=lambda c, g=g: wiener_ito_counts(s2, g, c))
            est = mc_expectation(s2, G, McPlan(100_000, 10 + n))
            assert abs(est.mean) <= 4 * est.se + 1e-6

    def test_counts_route_matches_scalar(self, s2):
        rng = np.random.default_rng(2)
        counts = rng.integers(0, 5, size=(40, 2))
        for n in range(1, 5):
            g = Kernel(s2, rng.normal(size=(2,) * n))
            vec = wiener_ito_counts(s2, g, counts)
            ref = [oracle.wiener_ito(oracle.WiState(PointPattern(s2, c)), g)
                   for c in counts]
            assert np.allclose(vec, ref, atol=1e-10)


class TestPatternScan:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("cap", range(-1, 7))
    def test_lexicographic_order(self, d, cap):
        space = MeasureSpace([f"x{i}" for i in range(d)], [1.0] * d)
        # oracle: the product filter over all (cap + 1) ** d tuples
        want = [c for c in itertools.product(range(cap + 1), repeat=d) if sum(c) <= cap]
        scan = patterns_up_to(space, cap)
        # traced item by item, so it stays a generator
        assert inspect.isgenerator(scan)
        assert [tuple(p.counts.tolist()) for p in scan] == want
        assert len(want) == math.comb(cap + d, d)


class TestIsometry:
    def test_orthogonality_by_enumeration(self, s2):
        rng = np.random.default_rng(3)
        budget = OracleBudget.for_space(s2, 1e-8, growth=lambda n: (1.0 + n) ** 4)
        enum = PoissonEnumeration.get(s2, budget)
        for m in (1, 2):
            for n in (1, 2):
                g = Kernel(s2, rng.normal(size=(2,) * m))
                h = Kernel(s2, rng.normal(size=(2,) * n))
                prod = (wiener_ito_counts(s2, g, enum.counts)
                        * wiener_ito_counts(s2, h, enum.counts))
                got = enum.expectation_of_values(prod)
                want = (math.factorial(m)
                        * inner_product(s2, symmetrize(g), symmetrize(h))
                        if m == n else 0.0)
                assert got == pytest.approx(want, abs=1e-6)

    def test_symmetrization_invariance(self, s2):
        rng = np.random.default_rng(4)
        for n in (2, 3):
            g = Kernel(s2, rng.normal(size=(2,) * n))
            gs = symmetrize(g)
            for pattern in patterns_up_to(s2, 6):
                assert wiener_ito(pattern, g) == pytest.approx(
                    wiener_ito(pattern, gs), abs=1e-10)


class TestChaosFiniteSum:
    def test_known_value(self, s1):
        got = chaos_finite_sum(s1, Kernel(s1, [LN2]), np.array([[2]]))
        assert got.tolist() == pytest.approx([0.25])

    def test_empty_pattern(self, s1):
        assert chaos_finite_sum(s1, Kernel(s1, [LN2]), np.array([[0]])).tolist() == [1.0]

    def test_zero_exponent(self, s2):
        v = Kernel(s2, [0.0, 0.0])
        counts = np.array([p.counts for p in patterns_up_to(s2, 4)])
        assert chaos_finite_sum(s2, v, counts) == pytest.approx(np.ones(len(counts)))

    def test_identity_on_all_patterns(self):
        s3 = MeasureSpace(["a", "b", "c"], [0.3, 0.3, 0.4])
        v = Kernel(s3, [0.3, 0.9, 0.15])
        f = Exponential(s3, v)
        counts = np.array([p.counts for p in patterns_up_to(s3, 8)])
        got = chaos_finite_sum(s3, v, counts)
        assert got == pytest.approx(f.evaluate_counts(counts), abs=1e-10)

    def test_negative_exponent_rejected(self, s1):
        with pytest.raises(ContractViolationError):
            chaos_finite_sum(s1, Kernel(s1, [-0.2]), np.array([[0]]))

    def test_exponent_kernel_of_arity_two_rejected(self, s1):
        with pytest.raises(ContractViolationError, match="arity 1"):
            chaos_finite_sum(s1, Kernel(s1, [[0.2]]), np.array([[0]]))


class TestChaosReconstruction:
    def test_constant_vector(self, s2):
        cv = ChaosVector(s2, [2.5])
        for pattern in patterns_up_to(s2, 4):
            assert chaos_reconstruct(pattern, cv) == 2.5

    def test_linear_functional_exact_at_order_one(self, s2):
        cv = ChaosVector(s2, [s2.total_mass, Kernel.constant(s2, 1)])
        for pattern in patterns_up_to(s2, 5):
            got = chaos_reconstruct(pattern, cv)
            assert got == pytest.approx(pattern.total, abs=1e-12)

    def test_truncation_error_shrinks_on_small_patterns(self, s1):
        f = Exponential(s1, [LN2])
        for count in range(4):
            pattern = PointPattern(s1, [count])
            errors = []
            for order in range(5):
                cv = chaos_of_exponential(f, order)
                errors.append(abs(chaos_reconstruct(pattern, cv) - f.evaluate(pattern)))
            assert errors[4] <= errors[0] + 1e-12
            assert errors[4] < 0.05

    def test_enumerated_l2_error_is_monotone(self, s1):
        f = Exponential(s1, [0.2])
        budget = OracleBudget.for_space(s1, 1e-10)
        enum = PoissonEnumeration.get(s1, budget)
        exact = f.evaluate_counts(enum.counts)
        errors = []
        for order in range(5):
            cv = chaos_of_exponential(f, order)
            recon = chaos_reconstruct_counts(s1, cv, enum.counts)
            errors.append(enum.expectation_of_values((exact - recon) ** 2))
        assert all(errors[i + 1] <= errors[i] + 1e-15 for i in range(4))
        assert errors[4] < 1e-6


class TestProductFormula:
    def test_scalar_example(self, s1):
        eta = PointPattern(s1, [3])
        one = Kernel.constant(s1, 1)
        (rhs,) = product_formula_rhs(one, one, eta.counts[None, :])
        assert rhs == pytest.approx(4.0)
        assert rhs == pytest.approx(wiener_ito(eta, one) ** 2)

    def test_zero_factor(self, s1):
        rhs = product_formula_rhs(Kernel.constant(s1, 1),
                                  Kernel.constant(s1, 1, 0.0), np.array([[2]]))
        assert rhs.tolist() == [0.0]

    def test_pathwise_equality_all_patterns(self, s2):
        rng = np.random.default_rng(5)
        for p, q in ((1, 1), (2, 1), (1, 2), (2, 2)):
            f = symmetrize(Kernel(s2, rng.normal(size=(2,) * p)))
            g = symmetrize(Kernel(s2, rng.normal(size=(2,) * q)))
            counts = np.array([p.counts for p in patterns_up_to(s2, 6)])
            lhs = wiener_ito_counts(s2, f, counts) * wiener_ito_counts(s2, g, counts)
            assert product_formula_rhs(f, g, counts) == pytest.approx(lhs, abs=1e-9)

    def test_asymmetric_kernel_rejected(self, s2):
        skew = Kernel(s2, [[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ContractViolationError):
            product_formula_rhs(skew, Kernel(s2, [1.0, 1.0]), np.array([[1, 0]]))

    def test_arity_cap(self, s2):
        f = symmetrize(Kernel(s2, np.ones((2, 2, 2))))
        with pytest.raises(UnsupportedArityError):
            product_formula_rhs(f, f, np.array([[1, 0]]))


class TestOracleEquivalence:
    """The count-matrix route against the per-pattern tuple tables, on every
    packaged space, over the whole scan at each cap the suites use."""

    SPACES = load_config().spaces

    @staticmethod
    def scan(space, cap):
        # one multi-row matrix, as the suites evaluate it
        counts = _count_vectors(space.size, cap)
        return counts, [oracle.WiState(PointPattern(space, c)) for c in counts]

    @staticmethod
    def assert_close(got, want):
        want = np.asarray(want)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("name", sorted(SPACES))
    @pytest.mark.parametrize("cap", [5, 6])
    def test_wiener_ito_counts(self, name, cap):
        space = self.SPACES[name]
        counts, states = self.scan(space, cap)
        rng = np.random.default_rng(cap)
        for n in range(5):
            g = Kernel(space, rng.normal(size=(space.size,) * n))
            self.assert_close(wiener_ito_counts(space, g, counts),
                              [oracle.wiener_ito(s, g) for s in states])

    @pytest.mark.parametrize("name", sorted(SPACES))
    @pytest.mark.parametrize("cap", [5, 6])
    def test_chaos_reconstruct_counts(self, name, cap):
        space = self.SPACES[name]
        counts, states = self.scan(space, cap)
        for order in (1, 3, 4):
            cv = seeded_chaos_vector(space, order, 40 + order)
            self.assert_close(chaos_reconstruct_counts(space, cv, counts),
                              [oracle.chaos_reconstruct(s, cv) for s in states])

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_product_formula_rhs(self, name):
        space = self.SPACES[name]
        counts, states = self.scan(space, 6)
        rng = np.random.default_rng(7)
        for p, q in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1)):
            f = symmetrize(Kernel(space, rng.normal(size=(space.size,) * p)))
            g = symmetrize(Kernel(space, rng.normal(size=(space.size,) * q)))
            self.assert_close(product_formula_rhs(f, g, counts),
                              [oracle.product_formula_rhs(f, g, s) for s in states])

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_chaos_finite_sum(self, name):
        space = self.SPACES[name]
        counts, states = self.scan(space, 8)
        exps = [f.v for f in load_config().functionals.values()
                if isinstance(f, Exponential) and f.space.same_as(space)]
        exps.append(Kernel(space, np.random.default_rng(8).uniform(0, 2, space.size)))
        for v in exps:
            self.assert_close(chaos_finite_sum(space, v, counts),
                              [oracle.chaos_finite_sum(s, v) for s in states])


def bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


class TestSharedTables:
    """One falling-factorial table per count matrix and one reduction per
    slot set give the per-term route's numbers bit for bit."""

    @staticmethod
    def kernel(space, rng, arity, sparse):
        shape = (space.size,) * arity
        vals = rng.normal(size=shape)
        if sparse:
            # zero coefficients of both signs, which the tuple walk skips
            vals = vals * (rng.random(shape) > 0.4)
        return Kernel(space, vals)

    @pytest.mark.parametrize("seed", range(9))
    def test_equal_to_per_term_route(self, seed):
        rng = np.random.default_rng(seed)
        d = 1 + seed % 3
        space = MeasureSpace([f"x{i}" for i in range(d)], rng.uniform(0.2, 3.0, d))
        for rows in (0, 1, 60):
            counts = rng.integers(0, 8, size=(rows, d))
            for n in range(5):
                for sparse in (False, True):
                    g = self.kernel(space, rng, n, sparse)
                    assert bits(factorial_counts(counts, g)) == bits(
                        oracle.factorial_counts(counts, g))
                    assert bits(wiener_ito_counts(space, g, counts)) == bits(
                        oracle.wiener_ito_counts(space, g, counts))
            for order in range(5):
                cv = seeded_chaos_vector(space, order, seed + 10 * order)
                assert bits(chaos_reconstruct_counts(space, cv, counts)) == bits(
                    oracle.chaos_reconstruct_counts(space, cv, counts))
            for p, q in ((0, 2), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)):
                f = symmetrize(self.kernel(space, rng, p, sparse=p == 2))
                g = symmetrize(self.kernel(space, rng, q, sparse=False))
                assert bits(product_formula_rhs(f, g, counts)) == bits(
                    oracle.product_formula_rhs_counts(f, g, counts))

    def test_non_finite_reduction_raises(self):
        # finite entries whose measure integral overflows
        space = MeasureSpace(["a"], [2.0])
        with np.errstate(over="ignore"), pytest.raises(ContractViolationError,
                                                       match="finite"):
            wiener_ito_counts(space, Kernel(space, [[1e308]]), np.array([[1]]))


SPACES = load_config().spaces
S3 = SPACES["S3"]
F9 = Kernel(S3, np.arange(9.0).reshape(3, 3))
E3 = Exponential(S3, [0.2, 0.5, 0.1])
COUNT_ENTRIES = {
    "factorial_counts": lambda space, counts: factorial_counts(counts, F9),
    "wiener_ito_counts": lambda space, counts: wiener_ito_counts(space, F9, counts),
    "chaos_reconstruct_counts": lambda space, counts: chaos_reconstruct_counts(
        space, ChaosVector(S3, [1.0, Kernel(S3, [1.0, 2.0, 3.0]), symmetrize(F9)]), counts),
    "product_formula_rhs": lambda space, counts: product_formula_rhs(
        symmetrize(F9), Kernel(S3, [1.0, 2.0, 3.0]), counts),
    "chaos_finite_sum": lambda space, counts: chaos_finite_sum(
        space, Kernel(S3, [0.1, 0.2, 0.3]), counts),
    "difference_counts": lambda space, counts: difference_counts(E3, 1, counts),
    "difference_rows": lambda space, counts: difference_rows(E3, counts),
    "iterated_difference_counts": lambda space, counts: iterated_difference_counts(
        E3, [0, 2], counts),
    "skorohod_counts": lambda space, counts: skorohod_counts(difference_field(E3), counts),
    "ou_generator_counts": lambda space, counts: ou_generator_counts(E3, counts),
}
# the Monte Carlo operators take one pattern, made of the first row's counts
PATTERN_ENTRIES = {
    "ou_semigroup_mc": lambda space, counts: ou_semigroup_mc(
        E3, 0.5, PointPattern(space, counts[0, :space.size]), McPlan(64, 1)),
    "ou_inverse_quadrature": lambda space, counts: ou_inverse_quadrature(
        E3, PointPattern(space, counts[0, :space.size]), 4, McPlan(64, 1)),
}


class TestCountMatrixContract:
    """The public count-matrix entry points refuse what is not a
    (rows, atoms) matrix of non-negative integers on the kernel's space."""

    @pytest.mark.parametrize("entry", sorted(COUNT_ENTRIES))
    @pytest.mark.parametrize("counts", [
        [[1, 2]],        # read only part of the kernel
        [[-1, 2, 0]],    # a negative falling factorial
        [[1.5, 2, 0]],   # a fractional one
        [1, 2, 0],       # one pattern, not a matrix
        [[1, 2, 0, 0]],  # one atom too many
        np.zeros((2, 3), dtype=bool),
    ], ids=["two_columns", "negative", "fractional", "one_dimensional",
            "four_columns", "bool"])
    def test_malformed_counts_rejected(self, entry, counts):
        with pytest.raises(ContractViolationError, match="non-negative integers"):
            COUNT_ENTRIES[entry](S3, counts)

    @pytest.mark.parametrize("entry", ["wiener_ito_counts", "chaos_reconstruct_counts",
                                       "chaos_finite_sum", *PATTERN_ENTRIES])
    @pytest.mark.parametrize("space", [
        SPACES["S2"],
        MeasureSpace(S3.atoms, [1.0, 1.0, 1.0]),
    ], ids=["other_size", "other_weights"])
    def test_other_space_rejected(self, entry, space):
        with pytest.raises(ContractViolationError, match="different space"):
            {**COUNT_ENTRIES, **PATTERN_ENTRIES}[entry](space, np.array([[1, 2, 0]]))

    @pytest.mark.parametrize("entry", sorted(COUNT_ENTRIES))
    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    def test_integer_matrices_accepted(self, entry, dtype):
        counts = np.array([[1, 2, 0], [0, 0, 0]], dtype=dtype)
        got = COUNT_ENTRIES[entry](S3, counts)
        assert bits(got) == bits(COUNT_ENTRIES[entry](S3, counts.astype(np.int64)))
