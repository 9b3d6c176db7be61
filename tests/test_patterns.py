"""Point patterns: sampling laws, thinning, superposition, factorial measures."""

import itertools
import math

import numpy as np
import pytest

from poisson_chaos.errors import ContractViolationError, UnsupportedArityError
from poisson_chaos.patterns import (CDF_BINS, PointPattern,
                                    _binomial_cdf_rows, _invert_cdf,
                                    _poisson_cdf, factorial_counts,
                                    poisson_counts_with_uniforms,
                                    sample_poisson, sample_poisson_counts,
                                    superpose, thin, thin_counts,
                                    thin_counts_with_uniforms)
from poisson_chaos.rng import RngStream, stream_uniforms
from poisson_chaos.space import Kernel, MeasureSpace, tensor_power

from oracle import factorial_apply, factorial_tensor_power


@pytest.fixture
def s2():
    return MeasureSpace(["a", "b"], [0.5, 1.0])


class TestPointPattern:
    def test_counts_validated(self, s2):
        with pytest.raises(ContractViolationError):
            PointPattern(s2, [1, -1])
        with pytest.raises(ContractViolationError):
            PointPattern(s2, [1])

    def test_add_remove_single_count(self, s2):
        p = PointPattern(s2, [2, 1])
        assert p.add_point(0).counts.tolist() == [3, 1]
        assert p.remove_point(1).counts.tolist() == [2, 0]
        with pytest.raises(ContractViolationError):
            PointPattern(s2, [0, 1]).remove_point(0)

    def test_point_atoms_respects_multiplicity(self, s2):
        assert PointPattern(s2, [2, 1]).point_atoms().tolist() == [0, 0, 1]

    def test_counting_measure_integral(self, s2):
        p = PointPattern(s2, [2, 1])
        assert p.measure_of(Kernel(s2, [1.5, -1.0])) == pytest.approx(2.0)
        with pytest.raises(ContractViolationError):
            p.measure_of(Kernel.constant(s2, 2))


class TestPoissonSampling:
    def test_fixed_stream_is_deterministic(self, s2):
        rng = RngStream(42, 17)
        assert sample_poisson(s2, rng) == sample_poisson(s2, rng)

    def test_mean_matches_intensity(self, s2):
        counts = sample_poisson_counts(s2, 5, np.arange(200_000, dtype=np.uint64))
        mean = counts.mean(axis=0)
        se = counts.std(axis=0, ddof=1) / math.sqrt(len(counts))
        assert np.all(np.abs(mean - s2.weights) <= 4 * se)

    def test_variance_matches_intensity(self, s2):
        counts = sample_poisson_counts(s2, 6, np.arange(200_000, dtype=np.uint64))
        var = counts.var(axis=0, ddof=1)
        # variance of the sample variance of a Poisson: (mu + 2*mu^2)/n
        se = np.sqrt((s2.weights + 2 * s2.weights**2) / len(counts))
        assert np.all(np.abs(var - s2.weights) <= 4 * se)

    def test_independence_across_atoms(self, s2):
        counts = sample_poisson_counts(s2, 7, np.arange(200_000, dtype=np.uint64))
        a = counts[:, 0] - counts[:, 0].mean()
        b = counts[:, 1] - counts[:, 1].mean()
        cov = float(np.mean(a * b))
        se = float(np.std(a * b, ddof=1) / math.sqrt(len(counts)))
        assert abs(cov) <= 4 * se


class TestPoissonInversion:
    """The bin table must reproduce a binary search over the CDF exactly."""

    @staticmethod
    def _probes(cdf: np.ndarray) -> np.ndarray:
        edges = np.arange(CDF_BINS + 1) / CDF_BINS
        steps = cdf[cdf < 1.0]
        points = np.concatenate([edges, steps])
        u = np.concatenate([
            [0.0, np.nextafter(1.0, 0.0)],
            points, np.nextafter(points, 0.0), np.nextafter(points, 1.0),
            stream_uniforms(11, np.arange(25_000, dtype=np.uint64), 4).ravel(),
        ])
        return u[(u >= 0.0) & (u < 1.0)]

    @pytest.mark.parametrize("mean", [0.0, 0.05, 0.3, 1.0, 4.0, 7.0, 50.0, 400.0])
    def test_matches_binary_search(self, mean):
        table = _poisson_cdf(mean)
        u = self._probes(table.cdf)
        assert u.size > 100_000
        want = np.searchsorted(table.cdf, u, side="right")
        got = _invert_cdf(table, u)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("u", [-0.5, -0.001, 1.0, 1.5, np.nan])
    def test_uniforms_outside_unit_interval_rejected(self, u):
        # unchecked, mean 2 gave 2 for u = -0.5, 8 for -0.001 and 26 for 1.0,
        # and a bare IndexError for 1.5 or NaN
        space = MeasureSpace(["a"], [2.0])
        with pytest.raises(ContractViolationError):
            poisson_counts_with_uniforms(space, 1.0, np.array([[u]]))
        with pytest.raises(ContractViolationError):
            poisson_counts_with_uniforms(MeasureSpace(["a", "b"], [2.0, 0.5]), 1.0,
                                         np.array([[0.5, 0.5], [u, 0.5]]))

    def test_large_weight_rejected(self):
        # exp(-800) underflows to zero, which made every draw the same count
        space = MeasureSpace(["a"], [800.0])
        with pytest.raises(ContractViolationError):
            sample_poisson(space, RngStream(3, 0))
        with pytest.raises(ContractViolationError):
            sample_poisson_counts(space, 3, np.arange(10, dtype=np.uint64))

    @pytest.mark.parametrize("mean", [720.0, 740.0])
    def test_subnormal_start_rejected(self, mean):
        # exp(-mean) is subnormal here: mean 740 used to build a law of mean 741.9
        with pytest.raises(ContractViolationError):
            _poisson_cdf(mean)
        with pytest.raises(ContractViolationError):
            sample_poisson(MeasureSpace(["a"], [mean]), RngStream(3, 0))

    def test_largest_normal_start_still_built(self):
        table = _poisson_cdf(700.0)
        pmf = [math.exp(-700.0)]
        while len(pmf) <= 701 or pmf[-1] > 1e-18:
            pmf.append(pmf[-1] * 700.0 / len(pmf))
        want = np.cumsum(pmf)
        want[-1] = max(want[-1], 1.0)
        assert np.array_equal(table.cdf, want)
        law_mean = float(np.dot(np.arange(len(want)), np.diff(want, prepend=0.0)))
        assert law_mean == pytest.approx(700.0, rel=1e-9)


class TestThinning:
    def test_keep_all_and_drop_all(self, s2):
        p = PointPattern(s2, [2, 1])
        rng = RngStream(1, 0)
        assert thin(p, 1.0, rng) == p
        assert thin(p, 0.0, rng).total == 0

    def test_result_never_exceeds_input(self, s2):
        counts = np.tile([3, 2], (5000, 1))
        kept = thin_counts(counts, 0.6, 2, np.arange(5000, dtype=np.uint64))
        assert np.all(kept <= counts) and np.all(kept >= 0)

    def test_binomial_mean(self, s2):
        counts = np.tile([2, 1], (100_000, 1))
        kept = thin_counts(counts, 0.5, 3, np.arange(100_000, dtype=np.uint64))
        mean = kept.mean(axis=0)
        se = kept.std(axis=0, ddof=1) / math.sqrt(len(kept))
        assert np.all(np.abs(mean - [1.0, 0.5]) <= 4 * se)

    def test_top_uniform_keeps_at_most_every_point(self):
        # the rounded CDF at k = n used to fall below 1, so a uniform just
        # below 1 kept n + 1 of n points
        top = np.nextafter(1.0, 0.0)
        assert thin_counts_with_uniforms(np.array([[3]]), 0.3,
                                         np.array([[top]])).tolist() == [[3]]
        counts = np.arange(41)[:, None]
        for s in np.linspace(0.0, 1.0, 131):
            rows = _binomial_cdf_rows(40, float(s))
            assert np.all(rows[counts[:, 0], counts[:, 0]] == 1.0)
            kept = thin_counts_with_uniforms(counts, float(s), np.full(counts.shape, top))
            assert np.all(kept <= counts)

    @pytest.mark.parametrize("u", [1.0, 1.5, -0.5, np.nan, np.inf, -1e-300])
    def test_uniforms_outside_unit_interval_rejected(self, u):
        # unchecked, u = 1 would keep 5 of 3 points and a negative or NaN u none
        with pytest.raises(ContractViolationError):
            thin_counts_with_uniforms(np.array([[3]]), 0.3, np.array([[u]]))
        with pytest.raises(ContractViolationError):
            thin_counts_with_uniforms(np.array([[3, 1], [2, 0]]), 0.3,
                                      np.array([[0.5, 0.5], [0.5, u]]))

    def test_retention_out_of_range(self, s2):
        with pytest.raises(ContractViolationError):
            thin(PointPattern(s2, [1, 0]), 1.5, RngStream(0))


class TestSuperpose:
    def test_identity_and_sum(self, s2):
        p = PointPattern(s2, [2, 1])
        empty = PointPattern.empty(s2)
        assert superpose(p, empty) == p
        q = PointPattern(s2, [0, 3])
        assert superpose(p, q).counts.tolist() == [2, 4]
        assert superpose(p, q) == superpose(q, p)

    def test_space_mismatch(self, s2):
        other = MeasureSpace(["x"], [1.0])
        with pytest.raises(ContractViolationError):
            superpose(PointPattern(s2, [0, 0]), PointPattern(other, [0]))


class TestFactorialMeasure:
    def test_ordered_pairs_of_constant(self, s2):
        p = PointPattern(s2, [2, 1])
        assert factorial_apply(p, Kernel.constant(s2, 2)) == 6.0

    def test_no_pair_in_singleton(self, s2):
        p = PointPattern(s2, [1, 0])
        assert factorial_apply(p, Kernel.constant(s2, 2)) == 0.0

    def test_same_atom_pairs(self, s2):
        p = PointPattern(s2, [2, 1])
        ind = Kernel(s2, [[1.0, 0.0], [0.0, 0.0]])
        assert factorial_apply(p, ind) == 2.0

    def test_falling_factorial_of_total(self, s2):
        p = PointPattern(s2, [3, 2])
        for m in range(1, 5):
            got = factorial_apply(p, Kernel.constant(s2, m))
            want = math.perm(5, m)
            assert got == pytest.approx(want)

    def test_arity_zero_convention(self, s2):
        assert factorial_apply(PointPattern(s2, [4, 0]), Kernel.scalar(s2, 1.0)) == 1.0

    def test_arity_cap(self, s2):
        with pytest.raises(UnsupportedArityError):
            factorial_apply(PointPattern(s2, [1, 1]), Kernel.constant(s2, 5))

    def test_vectorized_matches_enumeration(self):
        s3 = MeasureSpace(["a", "b", "c"], [0.4, 0.25, 0.6])
        rng = np.random.default_rng(1)
        counts = rng.integers(0, 5, size=(30, 3))
        for m in range(1, 5):
            f = Kernel(s3, rng.normal(size=(3,) * m))
            vec = factorial_counts(counts, f)
            ref = [factorial_apply(PointPattern(s3, c), f) for c in counts]
            assert np.allclose(vec, ref, rtol=1e-12, atol=1e-12)

    def test_tensor_power_route_matches_enumeration(self, s2):
        rng = np.random.default_rng(2)
        h = rng.normal(size=2)
        for c in itertools.product(range(4), repeat=2):
            p = PointPattern(s2, np.array(c))
            for k in range(0, 5):
                got = factorial_tensor_power(p, h, k)
                want = factorial_apply(p, tensor_power(Kernel(s2, h), k))
                assert got == pytest.approx(want, abs=1e-10)

    def test_tensor_power_beyond_cap(self, s2):
        # the product-kernel route has no arity cap; exact falling factorial
        p = PointPattern(s2, [5, 3])
        got = factorial_tensor_power(p, np.ones(2), 6)
        assert got == pytest.approx(math.perm(8, 6))
