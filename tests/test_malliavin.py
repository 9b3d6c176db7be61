"""Malliavin operators: both representations against each other."""

import math

import numpy as np
import pytest

from poisson_chaos import malliavin
from poisson_chaos.errors import BudgetError, ContractViolationError
from poisson_chaos.estimation import McPlan, OracleBudget, PoissonEnumeration
from poisson_chaos.functionals import (ChaosVector, CountPolynomial,
                                       Exponential, Opaque,
                                       chaos_of_exponential, difference,
                                       difference_rows)
from poisson_chaos.malliavin import (ChaosField, FunctionalField, MehlerDifferences,
                                     chaos_field_from_vector,
                                     difference_field, gauss_legendre_unit,
                                     malliavin_chaos, ou_chaos,
                                     ou_generator_pathwise, ou_inverse_chaos,
                                     ou_inverse_quadrature, ou_semigroup_mc,
                                     semigroup_chaos, semigroup_closed_form,
                                     skorohod_chaos, skorohod_pathwise)
from poisson_chaos.patterns import PointPattern
from poisson_chaos.space import Kernel, MeasureSpace, symmetrize
from poisson_chaos.suites.common import (covariance_conditional_rhs,
                                         covariance_semigroup_rhs)
from poisson_chaos.wiener_ito import (chaos_reconstruct, chaos_reconstruct_counts,
                                      patterns_up_to, wiener_ito_counts)

import oracle

LN2 = math.log(2.0)
S2 = MeasureSpace(["a", "b"], [0.5, 1.0])


@pytest.fixture
def s1():
    return MeasureSpace(["a"], [1.0])


@pytest.fixture
def s2():
    return MeasureSpace(["a", "b"], [0.5, 1.0])


def random_chaos_vector(space, order, seed):
    rng = np.random.default_rng(seed)
    coeffs = [float(rng.normal())]
    for n in range(1, order + 1):
        coeffs.append(symmetrize(Kernel(space, rng.normal(size=(space.size,) * n))))
    return ChaosVector(space, coeffs)


class TestSkorohodPathwise:
    def test_deterministic_field_is_first_integral(self, s2):
        g = Kernel(s2, [1.3, -0.4])
        H = FunctionalField(s2, [CountPolynomial(s2, [(float(g.values[x]), (0, 0))])
                                 for x in range(2)])
        for pattern in patterns_up_to(s2, 5):
            got = skorohod_pathwise(H, pattern)
            want = oracle.wiener_ito(oracle.WiState(pattern), g)
            assert got == pytest.approx(want, abs=1e-12)

    def test_empty_pattern_gives_negative_measure_integral(self, s2):
        g = np.array([1.3, -0.4])
        H = FunctionalField(s2, [CountPolynomial(s2, [(float(g[x]), (0, 0))])
                                 for x in range(2)])
        got = skorohod_pathwise(H, PointPattern.empty(s2))
        assert got == pytest.approx(-float(np.dot(s2.weights, g)))

    def test_sampled_mean_vanishes(self, s2):
        from poisson_chaos.estimation import mc_expectation
        from poisson_chaos.malliavin import skorohod_counts

        base = Exponential(s2, [0.3, 0.7])
        H = FunctionalField(s2, [base * (1.0 + x) for x in range(2)])
        G = Opaque(s2, counts_fn=lambda c: skorohod_counts(H, c))
        est = mc_expectation(s2, G, McPlan(100_000, 3))
        assert abs(est.mean) <= 4 * est.se + 1e-6


class TestSkorohodChaos:
    def test_single_level_field(self, s2):
        g = Kernel(s2, [0.7, -1.1])
        field = ChaosField(s2, [g])
        cv = skorohod_chaos(field)
        for pattern in patterns_up_to(s2, 5):
            got = chaos_reconstruct(pattern, cv)
            want = skorohod_pathwise(field, pattern)
            assert got == pytest.approx(want, abs=1e-12)

    def test_zero_field_maps_to_zero_vector(self, s2):
        field = ChaosField(s2, [Kernel.constant(s2, 1, 0.0)])
        cv = skorohod_chaos(field)
        assert cv.coefficients[0] == 0.0
        assert np.all(cv.coefficients[1].values == 0.0)

    @pytest.mark.parametrize("kernels,match", [
        ([], "at least one kernel"),
        ([Kernel(S2, [0.7, -1.1]), Kernel(S2, [[1.0, 2.0], [3.0, 4.0]]),
          Kernel(S2, np.arange(8.0).reshape(2, 2, 2))], "coefficient 2 is not symmetric"),
        ([Kernel(S2, [[1.0, 2.0], [3.0, 4.0]])], "kernel 0 must have arity 1"),
    ], ids=["empty", "asymmetric_trailing_slots", "wrong_arity"])
    def test_field_kernels_validated(self, kernels, match):
        with pytest.raises(ContractViolationError, match=match):
            ChaosField(S2, kernels)

    def test_field_value_is_the_per_level_chaos_sum(self):
        """Symmetric in its trailing slots only, so the field kernel is
        accepted; each atom's value equals the old per-level sum of
        ``wiener_ito_counts`` over the sliced kernels bit for bit."""
        space = MeasureSpace(["a", "b", "c"], [0.4, 0.9, 0.2])
        rng = np.random.default_rng(23)
        kernels = [Kernel(space, rng.normal(size=3)), Kernel(space, rng.normal(size=(3, 3)))]
        for n in (2, 3):
            sliced = [symmetrize(Kernel(space, v)).values
                      for v in rng.normal(size=(3,) * (n + 1))]
            kernels.append(Kernel(space, np.stack(sliced)))
        field = ChaosField(space, kernels)
        counts = np.vstack([np.array([[0, 0, 0]]), rng.integers(0, 6, size=(200, 3))])
        for x in range(space.size):
            want = np.zeros(len(counts))
            for k in kernels:
                want += wiener_ito_counts(space, Kernel(space, k.values[x]), counts)
            assert np.array_equal(field.functional_at(x).evaluate_counts(counts), want)

    def test_integral_of_derivative_is_minus_generator(self, s2):
        cv = random_chaos_vector(s2, 4, 11)
        lhs = skorohod_chaos(chaos_field_from_vector(cv))
        rhs = ou_chaos(cv) * (-1.0)
        assert lhs.max_abs_difference(rhs) < 1e-12


class TestMalliavinChaos:
    def test_linear_functional_has_unit_derivative(self, s2):
        cv = ChaosVector(s2, [s2.total_mass, Kernel.constant(s2, 1)])
        for x in range(2):
            out = malliavin_chaos(cv, x)
            assert out.coefficients[0] == 1.0

    def test_constant_vector_maps_to_zero(self, s2):
        out = malliavin_chaos(ChaosVector(s2, [3.0]), 0)
        assert out.coefficients[0] == 0.0

    def test_matches_pathwise_difference_of_reconstruction(self, s2):
        cv = random_chaos_vector(s2, 3, 12)
        recon = Opaque(s2, counts_fn=lambda c: chaos_reconstruct_counts(s2, cv, c))
        for pattern in patterns_up_to(s2, 5):
            for x in range(2):
                lhs = chaos_reconstruct(pattern, malliavin_chaos(cv, x))
                rhs = difference(recon, x, pattern)
                assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_steep_exponential_matches_closed_form(self, s1):
        f = Exponential(s1, [0.007])
        cv = chaos_of_exponential(f, 4)
        factor = math.exp(-0.007) - 1.0
        for count in range(5):
            pattern = PointPattern(s1, [count])
            lhs = chaos_reconstruct(pattern, malliavin_chaos(cv, 0))
            assert lhs == pytest.approx(factor * f.evaluate(pattern), abs=1e-9)


class TestGenerator:
    def test_constant_is_killed(self, s2):
        c = CountPolynomial(s2, [(3.0, (0, 0))])
        for pattern in patterns_up_to(s2, 4):
            assert ou_generator_pathwise(c, pattern) == 0.0

    def test_total_count_example(self, s1):
        n = CountPolynomial.total_count(s1)
        for k in range(5):
            got = ou_generator_pathwise(n, PointPattern(s1, [k]))
            assert got == pytest.approx(1.0 - k)

    def test_pathwise_equals_chaos_route(self, s2):
        cv = random_chaos_vector(s2, 3, 13)
        recon = Opaque(s2, counts_fn=lambda c: chaos_reconstruct_counts(s2, cv, c))
        target = ou_chaos(cv)
        for pattern in patterns_up_to(s2, 5):
            lhs = ou_generator_pathwise(recon, pattern)
            rhs = chaos_reconstruct(pattern, target)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_add_drop_cancellation_for_any_functional(self, s2):
        f = Exponential(s2, [0.4, 0.9])
        field = difference_field(f)
        for pattern in patterns_up_to(s2, 5):
            lhs = skorohod_pathwise(field, pattern)
            rhs = -ou_generator_pathwise(f, pattern)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_constant_vector_is_killed_at_chaos_level(self, s2):
        out = ou_chaos(ChaosVector(s2, [4.2]))
        assert out.coefficients[0] == 0.0

    def test_inverse_scales_levels(self, s2):
        cv = random_chaos_vector(s2, 3, 14)
        inv = ou_inverse_chaos(cv)
        assert inv.coefficients[0] == 0.0
        assert np.allclose(inv.coefficients[2].values,
                           -cv.coefficients[2].values / 2.0)

    def test_inverse_then_generator_restores_centered(self, s2):
        cv = random_chaos_vector(s2, 3, 15)
        centered = ChaosVector(s2, [0.0, *cv.coefficients[1:]])
        back = ou_chaos(ou_inverse_chaos(centered))
        assert back.max_abs_difference(centered) < 1e-12


class TestSemigroup:
    def test_chaos_scaling_endpoints(self, s2):
        cv = random_chaos_vector(s2, 3, 16)
        assert semigroup_chaos(cv, 1.0).max_abs_difference(cv) == 0.0
        at_zero = semigroup_chaos(cv, 0.0)
        assert at_zero.coefficients[0] == cv.coefficients[0]
        for n in (1, 2, 3):
            assert np.all(at_zero.coefficients[n].values == 0.0)

    def test_chaos_scaling_halves(self, s2):
        cv = random_chaos_vector(s2, 2, 17)
        scaled = semigroup_chaos(cv, 0.5)
        assert np.allclose(scaled.coefficients[2].values,
                           cv.coefficients[2].values / 4.0)

    def test_semigroup_law_exact(self, s2):
        cv = random_chaos_vector(s2, 3, 18)
        ab = semigroup_chaos(semigroup_chaos(cv, 0.5), 0.25)
        assert ab.max_abs_difference(semigroup_chaos(cv, 0.125)) == 0.0

    def test_closed_form_matches_direct_mixture(self, s1):
        f = Exponential(s1, [LN2])
        for s in (0.0, 0.3, 1.0):
            ps = semigroup_closed_form(f, s)
            for count in range(4):
                want = 0.0
                for kept in range(count + 1):
                    p_keep = (math.comb(count, kept) * s**kept
                              * (1 - s) ** (count - kept))
                    lam = (1 - s) * 1.0
                    for z in range(50):
                        p_z = math.exp(-lam) * lam**z / math.factorial(z)
                        want += p_keep * p_z * math.exp(-LN2 * (kept + z))
                got = ps.evaluate(PointPattern(s1, [count]))
                assert got == pytest.approx(want, abs=1e-12)

    def test_count_polynomial_image_matches_chaos_scaling(self, s2):
        budget = OracleBudget.for_space(s2, 1e-8, growth=lambda n: (1.0 + n) ** 4)
        from poisson_chaos.functionals import chaos_by_enumeration

        F = CountPolynomial(s2, [(1.0, (2, 0)), (0.5, (0, 1))])
        cv = chaos_by_enumeration(F, 2, budget)
        for s in (0.25, 0.6):
            ps = semigroup_closed_form(F, s)
            scaled = semigroup_chaos(cv, s)
            for pattern in patterns_up_to(s2, 4):
                got = ps.evaluate(pattern)
                want = chaos_reconstruct(pattern, scaled)
                assert got == pytest.approx(want, abs=1e-7)

    def test_sampled_semigroup_endpoints(self, s1):
        f = Exponential(s1, [LN2])
        chi = PointPattern(s1, [2])
        exact = ou_semigroup_mc(f, 1.0, chi, McPlan(5_000, 21))
        assert exact.mean == f.evaluate(chi) and exact.se == 0.0
        at_zero = ou_semigroup_mc(f, 0.0, chi, McPlan(200_000, 22))
        assert abs(at_zero.mean - f.closed_form_mean()) <= 4 * at_zero.se + 1e-6

    def test_sampled_semigroup_matches_closed_form(self, s1):
        f = Exponential(s1, [LN2])
        chi = PointPattern(s1, [2])
        for s in (0.25, 0.75):
            est = ou_semigroup_mc(f, s, chi, McPlan(200_000, 23))
            want = semigroup_closed_form(f, s).evaluate(chi)
            assert abs(est.mean - want) <= 4 * est.se + 1e-6

    def test_retention_validated(self, s1):
        with pytest.raises(ContractViolationError):
            ou_semigroup_mc(Exponential(s1, [0.1]), 1.5, PointPattern(s1, [0]),
                            McPlan(10, 1))

    def test_commutation_closed_forms(self, s2):
        f = Exponential(s2, [0.3, 0.7])
        factor = np.exp(-f.v.values) - 1.0
        from poisson_chaos.functionals import iterated_difference
        import itertools

        for s in (0.25, 0.5):
            ps = semigroup_closed_form(f, s)
            for n in (1, 2):
                for xs in itertools.product(range(2), repeat=n):
                    gain = math.prod(float(factor[x]) for x in xs)
                    for pattern in patterns_up_to(s2, 3):
                        lhs = iterated_difference(ps, xs, pattern)
                        rhs = s**n * gain * ps.evaluate(pattern)
                        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestInverseQuadrature:
    def test_linear_functional_is_exact_up_to_noise(self, s2):
        F = CountPolynomial.total_count(s2) + (-s2.total_mass)
        pattern = PointPattern(s2, [2, 1])
        est = ou_inverse_quadrature(F, pattern, 16, McPlan(50_000, 31), mean=0.0)
        want = -(pattern.total - s2.total_mass)
        assert abs(est.mean - want) <= 4 * est.se + 1e-4

    def test_zero_functional(self, s1):
        F = CountPolynomial(s1, [(0.0, (0,))])
        est = ou_inverse_quadrature(F, PointPattern(s1, [1]), 8,
                                    McPlan(1_000, 32), mean=0.0)
        assert est.mean == 0.0 and est.se == 0.0

    def test_matches_chaos_route_for_steep_exponential(self, s1):
        f = Exponential(s1, [0.12])
        pattern = PointPattern(s1, [2])
        est = ou_inverse_quadrature(f, pattern, 16, McPlan(100_000, 33))
        cv = chaos_of_exponential(f, 4)
        centered = ChaosVector(s1, [0.0, *cv.coefficients[1:]])
        want = chaos_reconstruct(pattern, ou_inverse_chaos(centered))
        assert abs(est.mean - want) <= 4 * est.se + 1e-4

    @pytest.mark.parametrize("route", ["linear", "exp"])
    def test_equals_the_direct_primitives(self, s2, route):
        """A batch bins its field uniforms once and inverts them at every
        node into one matrix, with the same bits as a fresh inversion and
        a fresh array of scaled values per node."""
        if route == "linear":
            F, mean = CountPolynomial.total_count(s2) + (-s2.total_mass), 0.0
        else:
            F = Exponential(s2, [0.12, 0.12])
            mean = F.closed_form_mean()
        pattern = PointPattern(s2, [2, 1])
        plan = McPlan(40_000, 34)
        got = ou_inverse_quadrature(F, pattern, 16, plan, mean=mean)
        want = oracle.ou_inverse_quadrature(F, pattern, 16, plan, mean)
        assert (got.mean.hex(), got.se.hex()) == (want.mean.hex(), want.se.hex())

    def test_centering_required(self, s1):
        opaque = Opaque(s1, counts_fn=lambda c: c.sum(axis=1).astype(float))
        with pytest.raises(ContractViolationError):
            ou_inverse_quadrature(opaque, PointPattern(s1, [0]), 8, McPlan(10, 1))

    def test_gauss_legendre_nodes_integrate_polynomials(self):
        nodes, weights = gauss_legendre_unit(8)
        assert np.all((nodes > 0) & (nodes < 1))
        for k in range(6):
            got = float(np.sum(weights * nodes**k))
            assert got == pytest.approx(1.0 / (k + 1), abs=1e-12)


S1 = MeasureSpace(["a"], [1.0])
E1 = Exponential(S1, [0.5])
NODE_COUNT_CALLS = {
    "gauss_legendre_unit": gauss_legendre_unit,
    "ou_inverse_quadrature": lambda n: ou_inverse_quadrature(
        CountPolynomial.total_count(S1), PointPattern(S1, [1]), n, McPlan(100, 1)),
    "covariance_semigroup_rhs": lambda n: covariance_semigroup_rhs(
        S1, E1, E1, McPlan(100, 1), n),
    "covariance_conditional_rhs": lambda n: covariance_conditional_rhs(
        S1, E1, E1, McPlan(100, 1), n),
}


@pytest.mark.parametrize("nodes", [0, -1, 2.5, True])
@pytest.mark.parametrize("call", list(NODE_COUNT_CALLS.values()), ids=list(NODE_COUNT_CALLS))
def test_node_count_must_be_a_positive_integer(call, nodes):
    with pytest.raises(ContractViolationError, match="node count"):
        call(nodes)


@pytest.mark.parametrize("ts", [[], [-0.1], [0.5, 1.5]])
def test_mehler_nodes_lie_in_the_unit_interval(ts):
    with pytest.raises(ContractViolationError, match="Mehler nodes"):
        MehlerDifferences(S1, ts, [E1])


def test_mehler_read_rejects_counts_outside_its_box():
    mehler = MehlerDifferences(S1, [1.0], [E1])
    assert mehler.caps.tolist() == [19]
    inside = np.array([[3], [18]])
    (got,) = mehler.read(0, inside)
    assert np.array_equal(got, difference_rows(E1, inside))
    for count in (19, 25):
        with pytest.raises(BudgetError, match=f"atom 0.*count {count}.*18"):
            mehler.read(0, np.array([[3], [count]]))
    with pytest.raises(ContractViolationError):
        mehler.read(0, np.array([[-1]]))


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
@pytest.mark.parametrize("atoms", [1, 2, 3])
def test_mehler_read_ranks_are_the_radix_product(atoms, dtype):
    """A table read gathers at ``kept @ radix``, formed by column
    multiply-adds, for random counts inside the box."""
    space = MeasureSpace(["a", "b", "c"][:atoms], [0.4, 1.0, 0.7][:atoms])
    F = Exponential(space, [0.3, 0.2, 0.5][:atoms])
    mehler = MehlerDifferences(space, [0.2, 0.9], [F])
    assert mehler.smoothed is not None
    rng = np.random.default_rng(atoms)
    for node in (0, 1):
        kept = rng.integers(0, mehler.caps - mehler.reach[node] + 1,
                            size=(5000, atoms)).astype(dtype)
        (got,) = mehler.read(node, kept)
        assert np.array_equal(got, mehler.smoothed[node][0][kept @ mehler.radix])


@pytest.mark.parametrize("route", ["table", "evaluated"])
def test_mehler_read_into_given_arrays(route, monkeypatch):
    """Both routes write into ``out`` the values they return fresh."""
    space = MeasureSpace(["a", "b"], [0.4, 1.0])
    functionals = [Exponential(space, [0.3, 0.2]), CountPolynomial.total_count(space)]
    mehler = MehlerDifferences(space, [0.2, 0.9], functionals)
    if route == "evaluated":
        # room for the refresh field's support, none for a table
        support = int(np.max(np.prod(mehler.reach, axis=1)))
        monkeypatch.setattr(malliavin, "COUNT_TABLE_CELL_CAP", support)
        mehler = MehlerDifferences(space, [0.2, 0.9], functionals)
    assert (mehler.smoothed is None) == (route == "evaluated")
    kept = np.random.default_rng(4).integers(0, 4, size=(300, 2))
    for node in (0, 1):
        want = mehler.read(node, kept)
        out = [np.empty(kept.shape), np.empty(kept.shape)]
        got = mehler.read(node, kept, out)
        assert all(g is o for g, o in zip(got, out))
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestDualityAndIsometryOracle:
    def test_partial_integration(self, s2):
        from poisson_chaos.functionals import difference_counts
        from poisson_chaos.malliavin import skorohod_counts

        budget = OracleBudget.for_space(s2, 1e-8, growth=lambda n: (1.0 + n) ** 4)
        enum = PoissonEnumeration.get(s2, budget)
        F = Exponential(s2, [0.3, 0.7])
        H = FunctionalField(s2, [Exponential(s2, [0.2, 0.1]) * (1.0 + x)
                                 for x in range(2)])
        lhs_rows = np.zeros(len(enum.counts))
        for x in range(2):
            lhs_rows += (s2.weights[x] * difference_counts(F, x, enum.counts)
                         * H.functional_at(x).evaluate_counts(enum.counts))
        lhs = enum.expectation_of_values(lhs_rows)
        rhs = enum.expectation_of_values(F.evaluate_counts(enum.counts)
                                         * skorohod_counts(H, enum.counts))
        assert lhs == pytest.approx(rhs, abs=1e-6)
