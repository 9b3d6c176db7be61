"""Estimators shared by several suites.

The nested covariance estimators read their inner expectations from
the library's exact Mehler operator, :class:`MehlerDifferences`, and
the semigroup form reads its outer one-point differences from a
:class:`CountTable` of :func:`~poisson_chaos.functionals.difference_rows`.
"""

from __future__ import annotations

import numpy as np

from ..estimation import CountTable, Estimate, McPlan, mc_batches, mc_estimate, table_batch
from ..functionals import ChaosVector, Functional
from ..malliavin import MehlerDifferences, gauss_legendre_unit
from ..patterns import Thinning, largest_counts, sample_poisson_counts, thinning_uniforms
from ..space import Kernel, MeasureSpace, symmetrize


def mc_covariance(space: MeasureSpace, F: Functional, G: Functional,
                  plan: McPlan) -> Estimate:
    """Covariance of F and G from shared samples.

    The standard error comes from the replicate spread of the centered
    products (the means' own uncertainty enters at second order and is
    covered by the policy floor).  It needs the means first, so the
    batches are reduced in three passes rather than by ``mc_estimate``.
    F and G are read from one :class:`CountTable` (:func:`table_batch`).
    """
    batches = mc_batches(plan, table_batch(space, [F, G], plan), shape=(2,))
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


def covariance_semigroup_rhs(space: MeasureSpace, F: Functional, G: Functional,
                             plan: McPlan, t_nodes: int) -> Estimate:
    """Nested estimate of ``E int_0^1 sum_x w_x D_xF(eta) P_t D_xG(eta) dt``.

    Per replicate: sample a pattern, read the one-point differences of F
    there from a :class:`CountTable` of them, and pair them at each
    Gauss-Legendre node with the Mehler form of ``P_t D_xG``: the
    expectation of ``D_xG(kept + field)`` over a Poisson((1 - t) lambda)
    refresh field given the t-thinned pattern, read exactly by
    :class:`MehlerDifferences`.  Only the pattern and its thinning are
    sampled, with one thinning stream shared by every node (common
    random numbers across the grid).
    """
    space.check_same(F.space, "functional defined on a different space")
    differences = CountTable([F], largest_counts(space), plan.replicates, differences=True)
    return _nested_covariance(space, plan, t_nodes, [G], differences)


def covariance_conditional_rhs(space: MeasureSpace, F: Functional, G: Functional,
                               plan: McPlan, t_nodes: int) -> Estimate:
    """Nested estimate of
    ``E int_0^1 sum_x w_x E[D_xF | kept_t] E[D_xG | kept_t] dt``.

    Given the t-thinned pattern, each conditional expectation is the
    Mehler inner expectation over an independent Poisson((1 - t) lambda)
    refresh field, read exactly for F and G at one rank by
    :class:`MehlerDifferences`, so their product needs no independent
    inner samples.
    """
    return _nested_covariance(space, plan, t_nodes, [F, G], None)


def _nested_covariance(space: MeasureSpace, plan: McPlan, t_nodes: int, functionals: list,
                       differences: CountTable | None) -> Estimate:
    """The replicate loop of both nested covariance forms: per replicate,
    ``sum_t wt sum_x w_x outer * inner`` over the Gauss-Legendre nodes,
    ``inner`` being the Mehler read of the last of ``functionals`` at
    the t-thinned pattern.  ``outer`` is the read of ``differences`` at
    the pattern, or without them the Mehler read of the first."""
    nodes, weights = gauss_legendre_unit(t_nodes)
    mehler = MehlerDifferences(space, nodes, functionals)

    def batch(streams: np.ndarray, _start: int) -> np.ndarray:
        counts = sample_poisson_counts(space, plan.seed, streams)
        thinning = Thinning(counts, thinning_uniforms(counts, plan.seed, streams, 1, 0))
        # one kept matrix and one matrix per read per batch, rewritten at
        # each node: fresh ones per node page-fault
        kept, inner = np.empty_like(counts), np.empty(counts.shape)
        if differences is None:
            outer = np.empty(counts.shape)
            reads = [outer, inner]
        else:
            (outer,), reads = differences.read(counts), [inner]
        out = np.zeros(streams.size)
        for node, (t, wt) in enumerate(zip(mehler.ts, weights)):
            mehler.read(node, thinning.at(t, kept), reads)
            # wt * (outer * inner) in place
            inner *= outer
            inner *= wt
            out += inner @ space.weights
        return out

    return mc_estimate(plan, batch)
