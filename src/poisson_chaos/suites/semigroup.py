"""Suite for the thinning semigroup: closed forms against sampling,
commutation with the difference operator, contractivity, mean
preservation, and the integral representation of the inverse generator."""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..functionals import (ChaosVector, CountPolynomial, Exponential,
                           chaos_of_exponential, iterated_difference_counts)
from ..malliavin import (ou_inverse_chaos, ou_inverse_quadrature,
                         ou_semigroup_mc, semigroup_chaos, semigroup_closed_form)
from ..patterns import PointPattern, _count_vectors
from ..space import Kernel
from ..wiener_ito import chaos_reconstruct
from .base import NESTED_REPLICATE_CAP, T_NODES, Case, CasePayload, SuiteContext
from .common import worst_residual

S_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def build_mehler(ctx: SuiteContext) -> list[Case]:
    s1, s2 = ctx.space("S1"), ctx.space("S2")

    # sampled semigroup against the closed-form representative
    grid_patterns = {
        "S1": [PointPattern(s1, [0]), PointPattern(s1, [2])],
        "S2": [PointPattern(s2, [1, 1])],
    }
    for space_name, patterns in grid_patterns.items():
        F = ctx.exponentials(ctx.space(space_name))[0][1]
        for s in S_GRID:
            for pattern in patterns:
                def run(plan, F=F, s=s, pattern=pattern):
                    return CasePayload(lhs=ou_semigroup_mc(F, s, pattern, plan),
                                       rhs=semigroup_closed_form(F, s).evaluate(pattern))

                ctx.add(f"thinning_mc_{space_name}_s{s:g}_N{pattern.total}",
                        "mehler-formula", run)

    # chaos-level scaling is the geometric one, and composes
    def run_scaling(_plan, F=ctx.exponentials(s2)[0][1]):
        cv = chaos_of_exponential(F, 4)
        ab = semigroup_chaos(semigroup_chaos(cv, 0.5), 0.4)
        direct = semigroup_chaos(cv, 0.2)
        worst = ab.max_abs_difference(direct)
        manual = cv.map_levels(lambda n: 0.2**n)
        worst = max(worst, direct.max_abs_difference(manual))
        return CasePayload(lhs=worst, rhs=0.0, tolerance=1e-12)

    ctx.add("chaos_scaling_composition", "mehler-formula", run_scaling)

    # commutation with the difference operator, exponentials, closed forms
    for space_name in ("S1", "S2"):
        space = ctx.space(space_name)
        F = ctx.exponentials(space)[0][1]
        for n in (1, 2):
            def run(_plan, space=space, F=F, n=n):
                factor = F.difference_factor()
                counts = _count_vectors(space.size, 4)
                residuals = []
                for s in (0.25, 0.5, 0.75):
                    Ps = semigroup_closed_form(F, s)
                    values = Ps.evaluate_counts(counts)
                    for xs in itertools.product(range(space.size), repeat=n):
                        gain = math.prod(float(factor[x]) for x in xs)
                        residuals.append(iterated_difference_counts(Ps, xs, counts)
                                         - s**n * gain * values)
                return CasePayload(lhs=worst_residual(residuals), rhs=0.0,
                                   tolerance=1e-10)

            ctx.add(f"commutation_{space_name}_n{n}", "semigroup-commutation", run)

    # commutation in expectation for count polynomials, both sides enumerated
    def run_mean_comm(_plan, space=s2):
        F = (CountPolynomial.atom_count(space, 0) * CountPolynomial.atom_count(space, 1)
             + CountPolynomial.total_count(space))
        enum = ctx.enumeration(space)
        worst = 0.0
        for s in (0.25, 0.5, 0.75):
            Ps = semigroup_closed_form(F, s)
            for n in (1, 2):
                for xs in itertools.product(range(space.size), repeat=n):
                    lhs = enum.expectation_of_values(
                        iterated_difference_counts(Ps, xs, enum.counts))
                    rhs = s**n * enum.expectation_of_values(
                        iterated_difference_counts(F, xs, enum.counts))
                    worst = max(worst, abs(lhs - rhs))
        return CasePayload(lhs=worst, rhs=0.0, tolerance=1e-8)

    ctx.add("commutation_mean_S2_poly", "semigroup-commutation", run_mean_comm)

    # mean preservation and contractivity across the grid, enumerated
    for space_name in ("S1", "S2"):
        space = ctx.space(space_name)
        battery = (("exp", ctx.exponentials(space)[0][1]),
                   ("poly", CountPolynomial.total_count(space)))
        for f_name, F in battery:
            def run_mean(_plan, space=space, F=F):
                enum = ctx.enumeration(space)
                worst = 0.0
                mean = enum.expectation_of(F)
                for s in S_GRID:
                    ps_mean = enum.expectation_of(semigroup_closed_form(F, s))
                    worst = max(worst, abs(ps_mean - mean))
                return CasePayload(lhs=worst, rhs=0.0, tolerance=1e-8)

            ctx.add(f"mean_preservation_{space_name}_{f_name}", "semigroup-mean", run_mean)

            def run_contract(_plan, space=space, F=F):
                enum = ctx.enumeration(space)
                second = enum.expectation_of(F * F)
                worst = -math.inf
                for s in S_GRID:
                    ps = semigroup_closed_form(F, s)
                    worst = max(worst, enum.expectation_of(ps * ps) - second)
                return CasePayload(lhs=worst, rhs=0.0, tolerance=1e-9, one_sided=True)

            ctx.add(f"contractivity_{space_name}_{f_name}", "semigroup-contractivity",
                    run_contract)

    # inverse generator: quadrature of the semigroup against the chaos route
    capped = min(ctx.config.replicates, NESTED_REPLICATE_CAP)

    def run_inv_linear(plan, space=s2):
        F = CountPolynomial.total_count(space) + (-space.total_mass)
        pattern = PointPattern(space, [2, 1])
        est = ou_inverse_quadrature(F, pattern, T_NODES, plan, mean=0.0)
        want = -(pattern.total - space.total_mass)
        return CasePayload(lhs=est, rhs=want, tolerance=4.0 * est.se + 1e-4)

    ctx.add("inverse_quadrature_linear_S2", "ou-inverse", run_inv_linear, capped)

    for space_name, counts in (("S1", [2]), ("S2", [1, 1])):
        space = ctx.space(space_name)
        # steep decay keeps the order-4 chaos route within the quadrature floor
        F = Exponential(space, Kernel(space, np.full(space.size, 0.12)))

        def run_inv(plan, space=space, F=F, counts=counts):
            pattern = PointPattern(space, counts)
            est = ou_inverse_quadrature(F, pattern, T_NODES, plan)
            cv = chaos_of_exponential(F, 4)
            centered = ChaosVector(space, [0.0, *cv.coefficients[1:]])
            want = chaos_reconstruct(pattern, ou_inverse_chaos(centered))
            return CasePayload(lhs=est, rhs=want, tolerance=4.0 * est.se + 1e-4)

        ctx.add(f"inverse_quadrature_exp_{space_name}", "ou-inverse", run_inv, capped)
    return ctx.cases
