"""Estimators shared by several suites."""

from __future__ import annotations

import numpy as np

from ..estimation import Estimate, McPlan, mc_batches, mc_estimate
from ..functionals import ChaosVector, CountTable, Functional
from ..malliavin import gauss_legendre_unit
from ..patterns import (ScaledInversion, _poisson_cdf, inversion_bins, inversion_ranks,
                        poisson_counts_with_uniforms, sample_poisson_counts,
                        thin_counts_with_uniforms)
from ..rng import stream_uniforms
from ..space import Kernel, MeasureSpace, symmetrize

# polynomial growth envelope for the oracle budgets of count functionals
POLY4 = lambda n: (1.0 + n) ** 4  # noqa: E731


def mc_covariance(space: MeasureSpace, F: Functional, G: Functional,
                  plan: McPlan) -> Estimate:
    """Covariance of F and G from shared samples.

    The standard error comes from the replicate spread of the centered
    products (the means' own uncertainty enters at second order and is
    covered by the policy floor).  It needs the means first, so the
    batches are reduced in three passes rather than by ``mc_estimate``.
    """

    def batch(streams: np.ndarray, _start: int) -> np.ndarray:
        counts = sample_poisson_counts(space, plan.seed, streams)
        # C order keeps each function's values one contiguous row
        return np.stack([F.evaluate_counts(counts), G.evaluate_counts(counts)])

    batches = mc_batches(plan, batch, shape=(2,))
    n = plan.replicates
    mean_f = sum(float(np.sum(b[0])) for b in batches) / n
    mean_g = sum(float(np.sum(b[1])) for b in batches) / n
    prods = [(b[0] - mean_f) * (b[1] - mean_g) for b in batches]
    cov = sum(float(np.sum(p)) for p in prods) / n
    spread = sum(float(np.sum((p - cov) ** 2)) for p in prods) / n
    return Estimate(cov, (spread / n) ** 0.5, n)


def worst_residual(residuals) -> float:
    """Largest absolute entry over residual arrays.

    A NaN anywhere is the result, so a broken row FAILs its case
    instead of vanishing inside Python's ``max``.
    """
    return float(np.max([np.max(np.abs(r)) for r in residuals], initial=0.0))


def seeded_chaos_vector(space: MeasureSpace, order: int, seed: int) -> ChaosVector:
    """Chaos vector with standard normal coefficients, symmetrized kernels."""
    rng = np.random.default_rng(seed)
    coeffs: list = [float(rng.normal())]
    for n in range(1, order + 1):
        coeffs.append(symmetrize(Kernel(space, rng.normal(size=(space.size,) * n))))
    return ChaosVector(space, coeffs)


def _inner_uniform_pool(seed: int, streams: np.ndarray, d: int, inner: int,
                        lane: int) -> np.ndarray:
    """(inner, batch, d) uniforms shared across quadrature nodes.

    A view of each stream's ``inner * d`` uniforms in order, with no
    contiguous copy: the rank route reads their bins (:func:`_pool_bins`)
    and touches the uniforms only where a bin is split.
    """
    u = stream_uniforms(seed, streams, d * inner, sub1=lane, sub2=0)
    return u.reshape(streams.size, inner, d).transpose(1, 0, 2)


def _pool_bins(pool: np.ndarray) -> np.ndarray:
    """(inner, d, batch) int16 guide-table bins of a pool: one contiguous
    row per atom and inner sample, shared by every quadrature node."""
    return inversion_bins(pool.transpose(0, 2, 1))


def _difference_tables(space: MeasureSpace, *functionals: Functional) -> list[CountTable]:
    """Count tables for the nested estimators.

    A sampled count is below its inversion table's length, and a thinned
    count plus a refresh field of smaller mean below twice that, so each
    atom's cap leaves room for one added point with a margin of two.
    Batches that still reach a cap are evaluated (:class:`CountTable`).
    """
    caps = [2 * len(_poisson_cdf(float(w)).cdf) + 2 for w in space.weights]
    return [CountTable(F, caps) for F in functionals]


def _inner_difference_sum(space: MeasureSpace, table: CountTable, kept: np.ndarray,
                          scale: float, pool: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """Sum over the pool's Poisson(weight * scale) refresh fields of the
    one-point differences of the table's functional at ``kept + field``.

    Rank route: a mixed-radix rank is linear in the counts, so the rank
    of ``kept + field`` is ``kept @ radix`` plus one scaled inversion per
    atom (:func:`inversion_ranks`), and the differences are one row
    gather from the difference table.  It needs every row to stay below
    the smallest cap, which is checked a priori from the largest count
    each inversion table can return; otherwise (and for one-row batches
    or a table without a box) each field is drawn as counts and its
    differences taken from them.  The per-field sums run in the same
    order on both routes, so they give the same bits.
    """
    total = np.zeros(kept.shape)
    tables = [_poisson_cdf(float(w * scale)) for w in space.weights]
    reach = [len(tb.cdf) for tb in tables]
    if (table.values is None or len(kept) < 2
            or np.any(kept.max(axis=0) + reach > table.cap_min)):
        for m in range(len(pool)):
            field = poisson_counts_with_uniforms(space, scale, pool[m])
            total += table.difference_rows(kept + field)
        return total
    inversions = [ScaledInversion.of(tb, step) for tb, step in zip(tables, table.radix)]
    base = kept @ table.radix
    rank = np.empty_like(base)
    scratch = np.empty_like(base)
    gathered = np.empty(kept.shape)
    for m in range(len(pool)):
        inversion_ranks(inversions, base, bins[m], pool[m], out=rank, scratch=scratch)
        # every rank is inside the box; mode="raise" would buffer out
        total += table.diffs.take(rank, axis=0, out=gathered, mode="clip")
    return total


def covariance_semigroup_rhs(space: MeasureSpace, F: Functional, G: Functional,
                             plan: McPlan, t_nodes: int, inner: int) -> Estimate:
    """Nested estimate of the semigroup covariance representation.

    Per replicate: sample a pattern, pair the exact one-point difference
    of F with an inner average of the difference of G at the thinned-
    plus-refreshed pattern, then integrate over the node grid and atoms.
    One uniform pool drives the thinning and the refresh fields at every
    node (common random numbers across the grid).  The refresh fields
    are inverted straight to ranks in G's count table and the inner
    differences read from its difference table
    (:func:`_inner_difference_sum`).
    """
    nodes, weights = gauss_legendre_unit(t_nodes)
    d = space.size
    table_f, table_g = _difference_tables(space, F, G)

    def batch(streams: np.ndarray, _start: int) -> np.ndarray:
        b = streams.size
        counts = sample_poisson_counts(space, plan.seed, streams)
        u_thin = stream_uniforms(plan.seed, streams, d, sub1=1, sub2=0)
        pool = _inner_uniform_pool(plan.seed, streams, d, inner, lane=2)
        bins = _pool_bins(pool)
        df = table_f.difference_rows(counts)
        out = np.zeros(b)
        for t, wt in zip(nodes, weights):
            kept = thin_counts_with_uniforms(counts, float(t), u_thin)
            inner_sum = _inner_difference_sum(space, table_g, kept, 1.0 - float(t),
                                              pool, bins)
            out += wt * (df * inner_sum / inner) @ space.weights
        return out

    return mc_estimate(plan, batch)


def covariance_conditional_rhs(space: MeasureSpace, F: Functional, G: Functional,
                               plan: McPlan, t_nodes: int, inner: int) -> Estimate:
    """Nested estimate of the conditional-difference covariance form.

    The two conditional expectations are estimated from independent
    inner sample pools so that their product is unbiased given the
    thinned pattern.  Each pool's inner differences take the rank route
    of :func:`_inner_difference_sum` through its own count table.
    """
    nodes, weights = gauss_legendre_unit(t_nodes)
    d = space.size
    table_f, table_g = _difference_tables(space, F, G)

    def batch(streams: np.ndarray, _start: int) -> np.ndarray:
        b = streams.size
        counts = sample_poisson_counts(space, plan.seed, streams)
        u_thin = stream_uniforms(plan.seed, streams, d, sub1=1, sub2=0)
        pool_f = _inner_uniform_pool(plan.seed, streams, d, inner, lane=3)
        pool_g = _inner_uniform_pool(plan.seed, streams, d, inner, lane=4)
        # binned after both draws, so no bin array adds to a draw's peak
        bins_f, bins_g = _pool_bins(pool_f), _pool_bins(pool_g)
        out = np.zeros(b)
        for t, wt in zip(nodes, weights):
            kept = thin_counts_with_uniforms(counts, float(t), u_thin)
            scale = 1.0 - float(t)
            sum_f = _inner_difference_sum(space, table_f, kept, scale, pool_f, bins_f)
            sum_g = _inner_difference_sum(space, table_g, kept, scale, pool_g, bins_g)
            out += wt * ((sum_f / inner) * (sum_g / inner)) @ space.weights
        return out

    return mc_estimate(plan, batch)
