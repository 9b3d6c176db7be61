"""Point patterns: sampling laws, thinning, superposition, factorial measures."""

import itertools
import math
import threading
import time

import numpy as np
import pytest

from poisson_chaos import patterns
from poisson_chaos.errors import ContractViolationError, UnsupportedArityError
from poisson_chaos.functionals import (CountPolynomial, Exponential, chaos_of_exponential,
                                       difference_counts, difference_rows,
                                       iterated_difference_counts)
from poisson_chaos.malliavin import (ChaosField, FunctionalField, MehlerDifferences,
                                     gauss_legendre_unit, malliavin_chaos,
                                     smoothed_differences)
from poisson_chaos.patterns import (CDF_BINS, THIN_COUNT_MAX, THIN_TABLE_MIN_ROWS,
                                    PointPattern, PoissonField, Thinning, _binomial_cdf_rows,
                                    bin_cells, binomial_law,
                                    factorial_counts, poisson_counts_with_uniforms,
                                    poisson_law, sample_poisson, sample_poisson_counts,
                                    superpose, thin, thin_counts,
                                    thin_counts_with_uniforms)
from poisson_chaos.rng import RngStream, stream_uniforms
from poisson_chaos.space import Kernel, MeasureSpace, tensor_power

import oracle
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

    @pytest.mark.parametrize("counts", [
        [1.7, 0],           # used to become [1, 0]
        [np.nan, 0],        # a bare ValueError
        [np.inf, 1],
        [1, -np.inf],
        [1e30, 0],
        ["1", "2"],
        [1 + 0j, 0],
    ])
    def test_non_integral_counts_rejected(self, s2, counts):
        with pytest.raises(ContractViolationError):
            PointPattern(s2, counts)

    def test_integral_counts_of_any_type(self, s2):
        for counts in ([2.0, 1.0], np.array([2, 1], dtype=np.uint8), (np.int32(2), 1)):
            assert PointPattern(s2, counts) == PointPattern(s2, [2, 1])

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


class TestAtomIndexContract:
    """An atom index outside [0, d) raises instead of meaning the last atom
    (-1) or giving a bare IndexError (d)."""

    CALLS = {
        "add_point": lambda s2, x: PointPattern(s2, [1, 1]).add_point(x),
        "remove_point": lambda s2, x: PointPattern(s2, [1, 1]).remove_point(x),
        "difference_counts": lambda s2, x: difference_counts(
            Exponential(s2, Kernel(s2, [0.3, 0.2])), x, np.array([[1, 0]])),
        "iterated_difference_counts": lambda s2, x: iterated_difference_counts(
            Exponential(s2, Kernel(s2, [0.3, 0.2])), (0, x), np.array([[1, 0]])),
        "malliavin_chaos": lambda s2, x: malliavin_chaos(
            chaos_of_exponential(Exponential(s2, Kernel(s2, [0.3, 0.2])), 2), x),
        # -1 used to mean the last atom and True atom 1, silently
        "atom_count": lambda s2, x: CountPolynomial.atom_count(s2, x),
        "functional_shifted_by_point": lambda s2, x: Exponential(
            s2, Kernel(s2, [0.3, 0.2])).shifted_by_point(x),
        "polynomial_shifted_by_point": lambda s2, x: CountPolynomial.total_count(
            s2).shifted_by_point(x),
        "functional_field_at": lambda s2, x: FunctionalField(
            s2, [CountPolynomial.total_count(s2)] * 2).functional_at(x),
        "chaos_field_at": lambda s2, x: ChaosField(
            s2, [Kernel(s2, [0.7, -1.1])]).functional_at(x),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("x", [-1, 2, 7, 1.0, True, np.int64(-2)])
    def test_outside_the_atoms_rejected(self, s2, call, x):
        with pytest.raises(ContractViolationError, match="atom index"):
            self.CALLS[call](s2, x)

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_numpy_integer_index_accepted(self, s2, call):
        self.CALLS[call](s2, np.uint8(1))


class TestSamplerContracts:
    """Malformed sampler inputs raise instead of returning wrong counts."""

    @pytest.mark.parametrize("counts", [
        np.array([[-1, 2]]),            # used to return [[6, 2]]
        np.array([[200, -3]]),
        np.array([[1.5, 2.0]]),
        np.array([[1.0, 2.0]]),         # integral, but not integer counts
        np.array([1, 2]),
    ])
    def test_thin_counts_rejects_bad_counts(self, counts):
        with pytest.raises(ContractViolationError):
            thin_counts(counts, 0.5, 1, np.arange(len(counts), dtype=np.uint64))

    @pytest.mark.parametrize("streams", [np.arange(2, dtype=np.uint64),
                                         np.arange(4, dtype=np.uint64), []])
    def test_thin_counts_needs_one_stream_per_row(self, streams):
        # used to blame the thinning uniforms' shape
        counts = np.array([[3, 4], [0, 0], [1, 0]])
        with pytest.raises(ContractViolationError, match="streams"):
            thin_counts(counts, 0.5, 1, streams)

    def test_thin_counts_checks_the_streams_of_empty_rows(self):
        with pytest.raises(ContractViolationError, match="streams"):
            thin_counts(np.array([[3, 4], [0, 0]]), 0.5, 1, np.array([2, -1]))

    @pytest.mark.parametrize("u_shape", [(1, 1), (1, 3), (2, 2), (2,), (1, 2, 1)])
    def test_thinning_uniforms_must_match_the_counts(self, u_shape):
        # one column for two atoms used to thin both atoms with it
        counts = np.array([[3, 4]])
        with pytest.raises(ContractViolationError, match="shape"):
            thin_counts_with_uniforms(counts, 0.5, np.full(u_shape, 0.25))

    @pytest.mark.parametrize("u_shape", [(1, 1), (1, 3), (2,), (1, 2, 1)])
    def test_poisson_uniforms_one_column_per_atom(self, s2, u_shape):
        # an extra column used to come back straight from np.empty
        with pytest.raises(ContractViolationError, match="shape"):
            poisson_counts_with_uniforms(s2, 1.0, np.full(u_shape, 0.25))

    @pytest.mark.parametrize("scale", [np.nan, -0.5, -np.inf])
    def test_bad_poisson_mean_rejected(self, s2, scale):
        # NaN used to build an empty law, so every draw was 0
        with pytest.raises(ContractViolationError, match="Poisson mean"):
            sample_poisson_counts(s2, 1, np.arange(4, dtype=np.uint64), scale=scale)
        with pytest.raises(ContractViolationError, match="Poisson mean"):
            poisson_law(float(scale))


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

    @pytest.mark.parametrize("mean", [0.0, 0.05, 0.3, 1.0, 4.0, 7.0, 50.0, 300.0, 400.0,
                                      708.0])
    def test_matches_binary_search(self, mean):
        law = poisson_law(mean)
        cdf = law.cdf[0]
        u = self._probes(cdf)
        assert u.size > 100_000
        want = np.searchsorted(cdf, u, side="right")
        got = law.invert(u)
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
            poisson_law(mean)
        with pytest.raises(ContractViolationError):
            sample_poisson(MeasureSpace(["a"], [mean]), RngStream(3, 0))

    def test_largest_normal_start_still_built(self):
        law = poisson_law(700.0)
        pmf = [math.exp(-700.0)]
        while len(pmf) <= 701 or pmf[-1] > 1e-18:
            pmf.append(pmf[-1] * 700.0 / len(pmf))
        want = np.cumsum(pmf)
        want[-1] = max(want[-1], 1.0)
        assert np.array_equal(law.cdf, [want])
        law_mean = float(np.dot(np.arange(len(want)), np.diff(want, prepend=0.0)))
        assert law_mean == pytest.approx(700.0, rel=1e-9)


class TestInversionRanks:
    """Refresh fields at the Gauss-Legendre nodes and their ranks in a
    count box: the pmf a smoothed difference table sums over is the law
    that inversion draws, and the rank of ``kept + field`` is the rank of
    ``kept`` plus each atom's count times its mixed-radix step."""

    WEIGHTS = [0.4, 1.0, 4.0]

    def box(self):
        """The box of the operator at t = 1/2: the largest sampled count
        plus the reach of a half-weight field, so it has room for any
        count a weight-scale field can reach (13, 19 and 34 of them)."""
        space = MeasureSpace(["a", "b", "c"], self.WEIGHTS)
        F = Exponential(space, [0.2, 0.5, 0.05])
        mehler = MehlerDifferences(space, [0.5], [F])
        assert np.all(mehler.caps >= [len(poisson_law(w).pmf()) + 3 for w in self.WEIGHTS])
        return space, F, mehler

    @pytest.mark.parametrize("t", list(gauss_legendre_unit(16)[0]))
    def test_one_atom_equals_scaled_inversion(self, t):
        """Per atom: every inverted count lies in the support of the
        refresh pmf, whose running sums are the clamped CDF values that
        the inversion searches; and the table smoothed along that atom
        alone is the pmf-weighted sum of the rows ``k`` steps away."""
        space, _, mehler = self.box()
        (diffs,) = mehler.diffs
        cells = (np.arange(len(diffs))[:, None] // mehler.radix) % (mehler.caps + 1)
        for j, w in enumerate(self.WEIGHTS):
            law = poisson_law(float(w * (1.0 - float(t))))
            pmf = law.pmf()
            u = TestPoissonInversion._probes(law.cdf[0])
            k = law.invert(u)
            assert k.max() == len(pmf) - 1
            edges = np.minimum(law.cdf[0, :len(pmf)], 1.0)
            assert edges[-1] == 1.0
            assert np.array_equal(k, np.searchsorted(edges, u, side="right"))
            np.testing.assert_allclose(np.cumsum(pmf), edges, rtol=0, atol=1e-15)
            # the other atoms get a point mass at zero
            alone = [pmf if i == j else np.ones(1) for i in range(space.size)]
            read = np.flatnonzero(cells[:, j] + len(pmf) <= mehler.caps[j])
            want = np.zeros((read.size, space.size))
            for count, p in enumerate(pmf):
                want += p * diffs[read + count * mehler.radix[j]]
            assert np.array_equal(smoothed_differences(diffs, mehler.caps, alone)[read], want)

    @pytest.mark.parametrize("t", list(gauss_legendre_unit(16)[0]))
    def test_atoms_sum_onto_the_base_rank(self, t):
        space, F, mehler = self.box()
        rng = np.random.default_rng(17)
        u = stream_uniforms(23, np.arange(20_000, dtype=np.uint64), len(self.WEIGHTS))
        # a share of every column sits at a CDF value, a split-bin probe
        laws = [poisson_law(float(w * (1.0 - float(t)))) for w in self.WEIGHTS]
        for j, law in enumerate(laws):
            cdf = law.cdf[0]
            u[:500, j] = rng.choice(cdf[cdf < 1.0], size=500)
        field = poisson_counts_with_uniforms(space, 1.0 - float(t), u)
        reach = np.array([len(law.pmf()) for law in laws])
        assert np.all(field < reach)
        base = rng.integers(0, mehler.caps - reach + 1, size=u.shape)
        rank = (base + field) @ mehler.radix
        want = base @ mehler.radix + sum(law.invert(u[:, j]) * mehler.radix[j]
                                         for j, law in enumerate(laws))
        assert np.array_equal(rank, want)
        assert np.array_equal((rank[:, None] // mehler.radix) % (mehler.caps + 1), base + field)
        np.testing.assert_allclose(mehler.diffs[0][rank], difference_rows(F, base + field),
                                   rtol=1e-13, atol=1e-15)


class TestPoissonField:
    """One :class:`PoissonField` per batch gives the counts of a fresh
    inversion at every scale, and writes them into a given matrix."""

    def test_every_scale_equals_a_fresh_inversion(self):
        weights = [0.4, 1.0, 4.0]
        space = MeasureSpace(["a", "b", "c"], weights)
        u = stream_uniforms(29, np.arange(4000, dtype=np.uint64), len(weights))
        rng = np.random.default_rng(3)
        # a share of every column sits at a CDF value, a split-bin probe
        for j, w in enumerate(weights):
            cdf = poisson_law(0.5 * w).cdf[0]
            u[:300, j] = rng.choice(cdf[cdf < 1.0], size=300)
        field = PoissonField(space, u)
        out = np.empty(u.shape, dtype=np.int64)
        for scale in [0.0, *(1.0 - gauss_legendre_unit(16)[0]), 0.5, 1.0]:
            want = np.stack([poisson_law(float(w * scale)).invert(u[:, j])
                             for j, w in enumerate(space.weights)], axis=1)
            assert field.at(scale, out) is out
            assert np.array_equal(out, want)

    @pytest.mark.parametrize("out", [np.empty((5, 2), dtype=np.int32), np.empty((4, 2)),
                                     np.empty((5, 3), dtype=np.int64)])
    def test_out_must_be_an_int64_matrix_of_the_uniforms_shape(self, s2, out):
        field = PoissonField(s2, np.full((5, 2), 0.5))
        with pytest.raises(ContractViolationError, match="out must be"):
            field.at(1.0, out)


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


class TestThinningBatch:
    """One :class:`Thinning` per batch gives the survivors of
    ``thin_counts_with_uniforms`` at every retention probability."""

    NODES = [0.0, *gauss_legendre_unit(16)[0], 1.0]

    @pytest.mark.parametrize("top", [15, 31])
    def test_every_node_bit_for_bit(self, top):
        # counts up to 15 take the 16-row law, up to 31 the 32-row one
        rng = np.random.default_rng(top)
        counts = rng.integers(0, top + 1, size=(4000, 3))
        counts[0, 0] = top
        u = rng.random(counts.shape)
        # each node's CDF values and their float neighbours, which fall in
        # split bins
        probes = np.concatenate([
            np.concatenate([c, np.nextafter(c, 0.0), np.nextafter(c, 1.0)])
            for c in (_binomial_cdf_rows(top, float(t))[1:, :-1].ravel() for t in self.NODES)])
        probes = probes[(probes >= 0.0) & (probes < 1.0)]
        u.flat[:probes.size] = probes[:u.size]
        thinning = Thinning(counts, u)
        kept = np.empty(counts.shape, dtype=np.int64)
        split = 0
        for t in self.NODES:
            want = oracle.thin_counts_with_uniforms(counts, t, u)
            assert np.array_equal(thinning.at(t), want)
            assert np.array_equal(thin_counts_with_uniforms(counts, t, u), want)
            assert thinning.at(t, kept) is kept and np.array_equal(kept, want)
            law = binomial_law(max(THIN_TABLE_MIN_ROWS, top + 1), t)
            split += int(np.sum(law.bins.ravel()[bin_cells(u, counts)] < 0))
        assert split > 100

    def test_counts_keep_their_dtype(self):
        counts = np.array([[3, 0], [1, 2]], dtype=np.int32)
        got = Thinning(counts, np.full(counts.shape, 0.5)).at(0.4)
        assert got.dtype == np.int32

    @pytest.mark.parametrize("out", [np.empty((2, 2), dtype=np.int32),
                                     np.empty((2, 3), dtype=np.int64),
                                     np.empty((4,), dtype=np.int64)])
    def test_out_must_be_int64_of_the_counts_shape(self, out):
        counts = np.array([[3, 0], [1, 2]])
        with pytest.raises(ContractViolationError, match="out"):
            Thinning(counts, np.full(counts.shape, 0.5)).at(0.4, out)

    def test_rows_draw_their_own_streams(self, monkeypatch):
        # every row draws its stream, with a point or not, in one call:
        # skipping the empty rows would split a batch into many runs of
        # consecutive streams, one generator each
        counts = np.array([[0, 0], [3, 1], [0, 0], [0, 2], [0, 0], [5, 0]])
        streams = np.arange(100, 106, dtype=np.uint64)
        want = {s: thin_counts_with_uniforms(counts, s, stream_uniforms(9, streams, 2, 4, 1))
                for s in (0.0, 0.3, 0.8, 1.0)}
        drawn = []

        def spy(seed, keys, n, sub1=0, sub2=0):
            drawn.append(keys.copy())
            return stream_uniforms(seed, keys, n, sub1, sub2)

        monkeypatch.setattr(patterns, "stream_uniforms", spy)
        for s, kept in want.items():
            assert np.array_equal(thin_counts(counts, s, 9, streams, 4, 1), kept)
            assert not kept[[0, 2, 4]].any()
        assert len(drawn) == 4 and all(np.array_equal(keys, streams) for keys in drawn)
        drawn.clear()
        assert np.array_equal(thin_counts(np.zeros((3, 2), dtype=np.int64), 0.5, 9,
                                          streams[:3], 4, 1), np.zeros((3, 2)))
        assert [keys.size for keys in drawn] == [3]


class TestThinningLargeCounts:
    def test_count_past_the_float_range_rejected(self):
        # math.comb(1030, 515) does not fit a float, which used to raise a
        # bare OverflowError from the CDF rows
        with pytest.raises(ContractViolationError, match="1030"):
            thin_counts_with_uniforms(np.array([[1030]]), 0.5, np.array([[0.3]]))

    def test_count_of_one_thousand_still_thinned(self):
        counts = np.array([[1000, 3], [999, 1000], [0, 1000]])
        u = np.array([[0.3, 0.7], [0.5, 0.01], [0.2, np.nextafter(1.0, 0.0)]])
        for s in (0.0, 0.37, 0.5, 1.0):
            got = thin_counts_with_uniforms(counts, s, u)
            assert np.array_equal(got, oracle.thin_counts_with_uniforms(counts, s, u))

    def test_count_past_the_float_range_named_in_any_size_class(self):
        counts = np.array([[1029, 3], [1031, 0]])
        with pytest.raises(ContractViolationError, match="1031"):
            thin_counts_with_uniforms(counts, 0.5, np.full(counts.shape, 0.3))

    def test_batches_share_cdf_rows(self):
        # keyed by each batch's exact largest count, 20 batches of Poisson(200)
        # and Poisson(150) counts built 13 tables; their largest counts
        # (about 240 to 260) fall in the 256- and 512-row classes
        rng = np.random.default_rng(3)
        batches = [np.column_stack([rng.poisson(200, 4096), rng.poisson(150, 4096)])
                   for _ in range(20)]
        binomial_law.cache_clear()
        for counts in batches:
            thin_counts_with_uniforms(counts, 0.37, rng.random(counts.shape))
        classes = {1 << int(c.max()).bit_length() for c in batches}
        assert binomial_law.cache_info().misses == len(classes) <= 2
        # each class's law is the one cached
        for rows in classes:
            binomial_law(rows, 0.37)
        assert binomial_law.cache_info().misses == len(classes)
        binomial_law.cache_clear()

    @pytest.mark.parametrize("top", [128, 129, 255, 256, 257, 1024, 1025, 1029])
    def test_size_classes_keep_the_survivors(self, top):
        rng = np.random.default_rng(top)
        counts = rng.integers(0, top + 1, size=(300, 2))
        counts[0, 1] = top
        counts[1] = [top, 0]
        u = rng.random(counts.shape)
        u[2] = np.nextafter(1.0, 0.0)
        for s in (0.0, 0.37, 0.5, 1.0):
            got = thin_counts_with_uniforms(counts, s, u)
            assert np.array_equal(got, oracle.thin_counts_with_uniforms(counts, s, u))

    @pytest.mark.parametrize("s", [0.0, 0.02, 0.37, 0.5, 0.98, 1.0])
    def test_rows_equal_direct_coefficients(self, s):
        assert np.array_equal(_binomial_cdf_rows(200, s), oracle.binomial_cdf_rows(200, s))


class TestThinningTable:
    """The binomial bin table keeps exactly the survivors of the
    compare-and-sum over the CDF rows."""

    RETENTIONS = [0.0, 0.37, 0.5, 1.0]

    @staticmethod
    def probes(n: int, s: float) -> np.ndarray:
        """Every bin edge, and each CDF value of row n with both float
        neighbours, inside [0, 1)."""
        cdf = _binomial_cdf_rows(n, s)[n, :n]
        u = np.concatenate([np.arange(CDF_BINS) / CDF_BINS, cdf,
                            np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0),
                            [np.nextafter(1.0, 0.0)]])
        return u[(u >= 0.0) & (u < 1.0)]

    @pytest.mark.parametrize("s", RETENTIONS)
    def test_bin_edges_and_cdf_values(self, s):
        for n in range(41):
            u = self.probes(n, s)
            # the largest count is n, so every size class of the table is used
            counts = np.column_stack([np.full(u.size, n), np.arange(u.size) % (n + 1)])
            uu = np.column_stack([u, u[::-1]])
            got = thin_counts_with_uniforms(counts, s, uu)
            assert np.array_equal(got, oracle.thin_counts_with_uniforms(counts, s, uu)), n

    # the largest count of every size class, and the smallest of the
    # capped one (1,024 to THIN_COUNT_MAX)
    CLASS_TOPS = [15, 16, 31, 63, 127, 255, 511, 1023, 1024, THIN_COUNT_MAX]

    @pytest.mark.parametrize("s", RETENTIONS)
    def test_random_batches(self, s):
        rng = np.random.default_rng(int(s * 100))
        for top in [40, *self.CLASS_TOPS]:
            # fewer rows for long CDF rows keep the oracle's row gather small
            counts = rng.integers(0, top + 1, size=(20_000 if top < 64 else 1_000, 2))
            counts[0, 0] = top
            u = rng.random(size=counts.shape)
            got = thin_counts_with_uniforms(counts, s, u)
            assert got.dtype == counts.dtype
            assert np.array_equal(got, oracle.thin_counts_with_uniforms(counts, s, u)), top
        binomial_law.cache_clear()

    def test_counts_above_the_table(self):
        # counts of up to 383, in the 512-row size class
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 384, size=(5_000, 2))
        counts[0, 0] = 128
        u = rng.random(size=counts.shape)
        for s in self.RETENTIONS:
            assert np.array_equal(thin_counts_with_uniforms(counts, s, u),
                                  oracle.thin_counts_with_uniforms(counts, s, u))

    def test_one_table_per_size_class(self):
        binomial_law.cache_clear()
        counts = np.array([[17, 3], [2, 0]])
        u = np.full(counts.shape, 0.5)
        for top in (17, 20, 31, 3, 0, 15, 1024, THIN_COUNT_MAX):
            counts[0, 0] = top
            thin_counts_with_uniforms(counts, 0.41, u)
        info = binomial_law.cache_info()
        assert (info.misses, info.currsize) == (3, 3)
        for rows in (THIN_TABLE_MIN_ROWS, THIN_COUNT_MAX + 1):
            binomial_law(rows, 0.41)
        law = binomial_law(32, 0.41)
        assert binomial_law.cache_info().misses == 3
        assert law.bins.shape == (32, CDF_BINS + 1) and law.bins.dtype == np.int16
        assert np.all(law.bins[:, -1] == -1)
        assert np.array_equal(law.cdf, _binomial_cdf_rows(31, 0.41))
        # row n's pmf is a Binomial(n, 0.41) law on at most 0..n
        for n in range(32):
            pmf = law.pmf(n)
            assert len(pmf) <= n + 1 and pmf.sum() == pytest.approx(1.0, abs=1e-15)
            assert pmf @ np.arange(len(pmf)) == pytest.approx(0.41 * n, rel=1e-12, abs=1e-15)
        binomial_law.cache_clear()


class TestLawCacheUnderThreads:
    @pytest.mark.parametrize("law,args", [(binomial_law, (16, 0.377)),
                                          (poisson_law, (3.217,))])
    def test_concurrent_misses_build_once(self, law, args, monkeypatch):
        built = []
        build = patterns._count_law

        def slow_build(cdf):
            built.append(len(cdf))
            # both threads are inside the lookup before a build ends
            time.sleep(0.2)
            return build(cdf)

        monkeypatch.setattr(patterns, "_count_law", slow_build)
        law.cache_clear()
        barrier = threading.Barrier(2, timeout=30)
        found = []

        def ask():
            barrier.wait()
            found.append(law(*args))

        threads = [threading.Thread(target=ask) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        law.cache_clear()
        assert not any(t.is_alive() for t in threads)
        assert len(built) == 1
        assert len(found) == 2 and found[0] is found[1]


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
