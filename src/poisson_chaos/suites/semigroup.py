"""Suite for the thinning semigroup: closed forms against sampling,
commutation with the difference operator, contractivity, mean
preservation, and the integral representation of the inverse generator."""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..estimation import PoissonEnumeration
from ..functionals import (ChaosVector, CountPolynomial,
                           chaos_of_exponential, iterated_difference_counts)
from ..malliavin import (ou_inverse_chaos, ou_inverse_quadrature,
                         ou_semigroup_mc, semigroup_chaos, semigroup_closed_form)
from ..patterns import PointPattern, _count_vectors
from ..wiener_ito import chaos_reconstruct
from .base import Case, CasePayload, SuiteContext
from .common import POLY4, worst_residual

S_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def build_mehler(ctx: SuiteContext) -> list[Case]:
    cases = []
    s1, s2 = ctx.space("S1"), ctx.space("S2")

    # sampled semigroup against the closed-form representative
    grid_patterns = {
        "S1": [PointPattern(s1, [0]), PointPattern(s1, [2])],
        "S2": [PointPattern(s2, [1, 1])],
    }
    for space_name, patterns in grid_patterns.items():
        space = ctx.space(space_name)
        exps = ctx.exponentials(space)
        if not exps:
            continue
        F = exps[0][1]
        for s in S_GRID:
            for pattern in patterns:
                case_id = f"thinning_mc_{space_name}_s{s:g}_N{pattern.total}"

                def run(space=space, F=F, s=s, pattern=pattern, case_id=case_id):
                    plan = ctx.plan(case_id)
                    est = ou_semigroup_mc(F, s, pattern, plan)
                    closed = semigroup_closed_form(F, s).evaluate(pattern)
                    return CasePayload(lhs=est, rhs=closed, replicates=plan.replicates)

                cases.append(Case(case_id, "mehler-formula", run))

    # chaos-level scaling is the geometric one, and composes
    case_id = "chaos_scaling_composition"

    def run_scaling():
        exps = ctx.exponentials(s2)
        cv = chaos_of_exponential(exps[0][1], 4)
        ab = semigroup_chaos(semigroup_chaos(cv, 0.5), 0.4)
        direct = semigroup_chaos(cv, 0.2)
        worst = ab.max_abs_difference(direct)
        manual = cv.map_levels(lambda n: 0.2**n)
        worst = max(worst, direct.max_abs_difference(manual))
        return CasePayload(lhs=worst, rhs=0.0, tolerance=1e-12)

    cases.append(Case(case_id, "mehler-formula", run_scaling))

    # commutation with the difference operator, exponentials, closed forms
    for space_name, order in (("S1", 2), ("S2", 2)):
        space = ctx.space(space_name)
        exps = ctx.exponentials(space)
        if not exps:
            continue
        F = exps[0][1]
        for n in (1, 2):
            case_id = f"commutation_{space_name}_n{n}"

            def run(space=space, F=F, n=n):
                factor = np.exp(-F.v.values) - 1.0
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

            cases.append(Case(case_id, "semigroup-commutation", run))

    # commutation in expectation for count polynomials, both sides enumerated
    case_id = "commutation_mean_S2_poly"

    def run_mean_comm(space=s2):
        F = (CountPolynomial.atom_count(space, 0) * CountPolynomial.atom_count(space, 1)
             + CountPolynomial.total_count(space))
        enum = PoissonEnumeration.get(space, ctx.budget(space, growth=POLY4, tol=1e-8))
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

    cases.append(Case(case_id, "semigroup-commutation", run_mean_comm))

    # mean preservation and contractivity across the grid, enumerated
    for space_name in ("S1", "S2"):
        space = ctx.space(space_name)
        exps = ctx.exponentials(space)
        battery = [("exp", exps[0][1])] if exps else []
        battery.append(("poly", CountPolynomial.total_count(space)))
        for f_name, F in battery:
            case_id = f"mean_preservation_{space_name}_{f_name}"

            def run_mean(space=space, F=F):
                enum = PoissonEnumeration.get(space, ctx.budget(space, growth=POLY4,
                                                                tol=1e-8))
                worst = 0.0
                mean = enum.expectation_of(F)
                for s in S_GRID:
                    ps_mean = enum.expectation_of(semigroup_closed_form(F, s))
                    worst = max(worst, abs(ps_mean - mean))
                return CasePayload(lhs=worst, rhs=0.0, tolerance=1e-8)

            cases.append(Case(case_id, "semigroup-mean", run_mean))

            case_id = f"contractivity_{space_name}_{f_name}"

            def run_contract(space=space, F=F):
                enum = PoissonEnumeration.get(space, ctx.budget(space, growth=POLY4,
                                                                tol=1e-8))
                second = enum.expectation_of(F * F)
                worst = -math.inf
                for s in S_GRID:
                    ps = semigroup_closed_form(F, s)
                    worst = max(worst, enum.expectation_of(ps * ps) - second)
                return CasePayload(lhs=worst, rhs=0.0, tolerance=1e-9, one_sided=True)

            cases.append(Case(case_id, "semigroup-contractivity", run_contract))

    # inverse generator: quadrature of the semigroup against the chaos route
    case_id = "inverse_quadrature_linear_S2"

    def run_inv_linear(space=s2):
        plan = ctx.plan("inverse_quadrature_linear_S2", min(ctx.config.replicates, 100_000))
        F = CountPolynomial.total_count(space) + (-space.total_mass)
        pattern = PointPattern(space, [2, 1])
        est = ou_inverse_quadrature(F, pattern, 16, plan, mean=0.0)
        want = -(pattern.total - space.total_mass)
        return CasePayload(lhs=est, rhs=want, tolerance=4.0 * est.se + 1e-4,
                           replicates=plan.replicates)

    cases.append(Case(case_id, "ou-inverse", run_inv_linear))

    for space_name, counts in (("S1", [2]), ("S2", [1, 1])):
        space = ctx.space(space_name)
        # steep decay keeps the order-4 chaos route within the quadrature floor
        from ..functionals import Exponential
        from ..space import Kernel

        F = Exponential(space, Kernel(space, np.full(space.size, 0.12)))
        case_id = f"inverse_quadrature_exp_{space_name}"

        def run_inv(space=space, F=F, counts=counts, case_id=case_id):
            plan = ctx.plan(case_id, min(ctx.config.replicates, 100_000))
            pattern = PointPattern(space, counts)
            est = ou_inverse_quadrature(F, pattern, 16, plan)
            cv = chaos_of_exponential(F, 4)
            centered = ChaosVector(space, [0.0, *cv.coefficients[1:]])
            want = chaos_reconstruct(pattern, ou_inverse_chaos(centered))
            return CasePayload(lhs=est, rhs=want, tolerance=4.0 * est.se + 1e-4,
                               replicates=plan.replicates)

        cases.append(Case(case_id, "ou-inverse", run_inv))
    return cases
