"""Estimators shared by several suites."""

from __future__ import annotations

import numpy as np

from ..estimation import Estimate, McPlan, mc_estimate
from ..functionals import Functional, difference_rows
from ..malliavin import gauss_legendre_unit
from ..patterns import (poisson_counts_with_uniforms, sample_poisson_counts,
                        thin_counts_with_uniforms)
from ..rng import stream_uniforms
from ..space import MeasureSpace

# polynomial growth envelope for the oracle budgets of count functionals
POLY4 = lambda n: (1.0 + n) ** 4  # noqa: E731


def mc_moments(space: MeasureSpace, F: Functional, G: Functional,
               plan: McPlan) -> tuple[Estimate, Estimate, Estimate]:
    """Joint means of F, G and the centered cross moment, shared samples.

    The covariance estimate's standard error comes from the replicate
    spread of the centered products (the means' own uncertainty enters
    at second order and is covered by the policy floor).
    """
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
    se_cov = (spread / n) ** 0.5
    se_f = (sum(float(np.sum((b - mean_f) ** 2)) for b in f_batches) / (n - 1) / n) ** 0.5
    se_g = (sum(float(np.sum((b - mean_g) ** 2)) for b in g_batches) / (n - 1) / n) ** 0.5
    return (Estimate(mean_f, se_f, n), Estimate(mean_g, se_g, n),
            Estimate(cov, se_cov, n))


def mc_covariance(space: MeasureSpace, F: Functional, G: Functional,
                  plan: McPlan) -> Estimate:
    return mc_moments(space, F, G, plan)[2]


def mc_variance(space: MeasureSpace, F: Functional, plan: McPlan) -> Estimate:
    return mc_moments(space, F, F, plan)[2]


def _inner_uniform_pool(seed: int, streams: np.ndarray, d: int, inner: int,
                        lane: int) -> np.ndarray:
    """(inner, batch, d) uniforms shared across quadrature nodes.

    Each stream's row holds its ``inner * d`` uniforms in order; the copy
    to inner-major layout makes every inner sample one contiguous block.
    """
    u = stream_uniforms(seed, streams, d * inner, sub1=lane, sub2=0)
    return np.ascontiguousarray(u.reshape(streams.size, inner, d).transpose(1, 0, 2))


def covariance_semigroup_rhs(space: MeasureSpace, F: Functional, G: Functional,
                             plan: McPlan, t_nodes: int, inner: int) -> Estimate:
    """Nested estimate of the semigroup covariance representation.

    Per replicate: sample a pattern, pair the exact one-point difference
    of F with an inner average of the difference of G at the thinned-
    plus-refreshed pattern, then integrate over the node grid and atoms.
    One uniform pool drives the thinning and the refresh fields at every
    node (common random numbers across the grid).
    """
    nodes, weights = gauss_legendre_unit(t_nodes)
    d = space.size

    def batch(streams: np.ndarray, _start: int) -> np.ndarray:
        b = streams.size
        counts = sample_poisson_counts(space, plan.seed, streams)
        u_thin = stream_uniforms(plan.seed, streams, d, sub1=1, sub2=0)
        u_pool = _inner_uniform_pool(plan.seed, streams, d, inner, lane=2)
        df = difference_rows(F, counts)
        out = np.zeros(b)
        for t, wt in zip(nodes, weights):
            kept = thin_counts_with_uniforms(counts, float(t), u_thin)
            inner_sum = np.zeros((b, d))
            for m in range(inner):
                field = poisson_counts_with_uniforms(space, 1.0 - float(t), u_pool[m])
                inner_sum += difference_rows(G, kept + field)
            out += wt * (df * inner_sum / inner) @ space.weights
        return out

    return mc_estimate(plan, batch)


def covariance_conditional_rhs(space: MeasureSpace, F: Functional, G: Functional,
                               plan: McPlan, t_nodes: int, inner: int) -> Estimate:
    """Nested estimate of the conditional-difference covariance form.

    The two conditional expectations are estimated from independent
    inner sample pools so that their product is unbiased given the
    thinned pattern.
    """
    nodes, weights = gauss_legendre_unit(t_nodes)
    d = space.size

    def batch(streams: np.ndarray, _start: int) -> np.ndarray:
        b = streams.size
        counts = sample_poisson_counts(space, plan.seed, streams)
        u_thin = stream_uniforms(plan.seed, streams, d, sub1=1, sub2=0)
        pool_f = _inner_uniform_pool(plan.seed, streams, d, inner, lane=3)
        pool_g = _inner_uniform_pool(plan.seed, streams, d, inner, lane=4)
        out = np.zeros(b)
        for t, wt in zip(nodes, weights):
            kept = thin_counts_with_uniforms(counts, float(t), u_thin)
            sum_f = np.zeros((b, d))
            sum_g = np.zeros((b, d))
            for m in range(inner):
                mixed_f = kept + poisson_counts_with_uniforms(
                    space, 1.0 - float(t), pool_f[m])
                mixed_g = kept + poisson_counts_with_uniforms(
                    space, 1.0 - float(t), pool_g[m])
                sum_f += difference_rows(F, mixed_f)
                sum_g += difference_rows(G, mixed_g)
            out += wt * ((sum_f / inner) * (sum_g / inner)) @ space.weights
        return out

    return mc_estimate(plan, batch)
