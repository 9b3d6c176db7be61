"""Estimators shared by several suites.

The nested covariance estimators read their inner expectations from
the library's exact Mehler operator, :class:`MehlerDifferences`, and
the semigroup form reads its outer one-point differences from
:func:`difference_rows`.
"""

from __future__ import annotations

import numpy as np

from ..estimation import Estimate, McPlan, mc_batches, mc_estimate
from ..functionals import ChaosVector, Functional, difference_rows
from ..malliavin import MehlerDifferences, gauss_legendre_unit
from ..patterns import Thinning, sample_poisson_counts, thinning_uniforms
from ..space import Kernel, MeasureSpace, symmetrize


def mc_covariance(space: MeasureSpace, F: Functional, G: Functional,
                  plan: McPlan) -> Estimate:
    """Covariance of F and G from shared samples.

    The standard error comes from the replicate spread of the centered
    products (the means' own uncertainty enters at second order and is
    covered by the policy floor).  It needs the means first, so the
    batches are reduced in three passes rather than by ``mc_estimate``.
    """
    space.check_same(F.space, "functional defined on a different space")
    space.check_same(G.space, "functional defined on a different space")

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


def covariance_semigroup_rhs(space: MeasureSpace, F: Functional, G: Functional,
                             plan: McPlan, t_nodes: int) -> Estimate:
    """Nested estimate of ``E int_0^1 sum_x w_x D_xF(eta) P_t D_xG(eta) dt``.

    Per replicate: sample a pattern, take the one-point differences of F
    there with :func:`difference_rows`, and pair them at each
    Gauss-Legendre node with the Mehler form of ``P_t D_xG``: the
    expectation of ``D_xG(kept + field)`` over a Poisson((1 - t) lambda)
    refresh field given the t-thinned pattern, read exactly by
    :class:`MehlerDifferences`.  Only the pattern and its thinning are
    sampled, with one thinning stream shared by every node (common
    random numbers across the grid).
    """
    nodes, weights = gauss_legendre_unit(t_nodes)
    space.check_same(F.space, "functional defined on a different space")
    mehler = MehlerDifferences(space, nodes, [G])

    def batch(streams: np.ndarray, _start: int) -> np.ndarray:
        counts = sample_poisson_counts(space, plan.seed, streams)
        thinning = Thinning(counts, thinning_uniforms(counts, plan.seed, streams, 1, 0))
        df = difference_rows(F, counts)
        # one kept matrix and one inner mean per batch, rewritten at each
        # node: fresh ones per node page-fault
        kept, mean_g = np.empty_like(counts), np.empty(counts.shape)
        out = np.zeros(streams.size)
        for node, (t, wt) in enumerate(zip(mehler.ts, weights)):
            mehler.read(node, thinning.at(t, kept), [mean_g])
            # wt * (df * mean_g) in place
            mean_g *= df
            mean_g *= wt
            out += mean_g @ space.weights
        return out

    return mc_estimate(plan, batch)


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
    nodes, weights = gauss_legendre_unit(t_nodes)
    mehler = MehlerDifferences(space, nodes, [F, G])

    def batch(streams: np.ndarray, _start: int) -> np.ndarray:
        counts = sample_poisson_counts(space, plan.seed, streams)
        thinning = Thinning(counts, thinning_uniforms(counts, plan.seed, streams, 1, 0))
        kept = np.empty_like(counts)
        mean_f, mean_g = np.empty(counts.shape), np.empty(counts.shape)
        out = np.zeros(streams.size)
        for node, (t, wt) in enumerate(zip(mehler.ts, weights)):
            mehler.read(node, thinning.at(t, kept), [mean_f, mean_g])
            mean_f *= mean_g
            mean_f *= wt
            out += mean_f @ space.weights
        return out

    return mc_estimate(plan, batch)
