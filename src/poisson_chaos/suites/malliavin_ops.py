"""Suites for the Malliavin operators: the chaos-level difference
operator, the duality with the add/drop integral, its isometry, and the
birth-death generator with its inverse."""

from __future__ import annotations

import numpy as np

from ..estimation import mc_expectation
from ..functionals import (ChaosVector, CountPolynomial, Opaque,
                           chaos_by_enumeration, chaos_of_exponential,
                           difference_rows)
from ..malliavin import (ChaosField, FunctionalField, chaos_field_from_vector,
                         difference_field, malliavin_chaos, ou_chaos,
                         ou_generator_counts, ou_inverse_chaos, skorohod_chaos,
                         skorohod_counts)
from ..patterns import _count_vectors
from ..space import Kernel
from ..wiener_ito import chaos_reconstruct_counts
from .base import Case, CasePayload, SuiteContext
from .common import seeded_chaos_vector, worst_residual


def _reconstruction(space, cv: ChaosVector):
    return Opaque(space, counts_fn=lambda c: chaos_reconstruct_counts(space, cv, c))


def _field_battery(ctx: SuiteContext, space) -> list[tuple[str, object]]:
    """Structured integrand fields used by duality and the isometry."""
    base = ctx.exponentials(space)[0][1]
    g = 0.5 + np.arange(space.size, dtype=np.float64)
    fields: list[tuple[str, object]] = [("exp_field", FunctionalField(
        space, [base * float(g[x]) for x in range(space.size)]))]
    total = CountPolynomial.total_count(space)
    fields.append(("poly_field", FunctionalField(
        space, [total * (0.3 + 0.2 * x) + (-0.1 * x) for x in range(space.size)])))
    rng = np.random.default_rng(37)
    kernels = [Kernel(space, rng.normal(size=(space.size,))),
               Kernel(space, rng.normal(size=(space.size,) * 2))]
    fields.append(("chaos_field", ChaosField(space, kernels)))
    return fields


def _derivative_residual(space, cv: ChaosVector, pathwise) -> float:
    """Chaos-level difference of cv against ``pathwise(counts)[:, x]``
    on every pattern up to five points."""
    counts = _count_vectors(space.size, 5)
    diffs = pathwise(counts)
    return worst_residual(
        chaos_reconstruct_counts(space, malliavin_chaos(cv, x), counts) - diffs[:, x]
        for x in range(space.size))


def build_malliavin_derivative(ctx: SuiteContext) -> list[Case]:
    # the chaos-level difference of a finite chaos sum matches the
    # pathwise one-point difference exactly, pattern by pattern
    for space_name, order in (("S1", 4), ("S2", 3)):
        def run(_plan, space=ctx.space(space_name), order=order):
            cv = seeded_chaos_vector(space, order, 1000 + order)
            recon = _reconstruction(space, cv)
            worst = _derivative_residual(space, cv, lambda c: difference_rows(recon, c))
            return CasePayload(lhs=worst, rhs=0.0, tolerance=1e-9)

        ctx.add(f"chaos_vs_pathwise_{space_name}_random", "malliavin-derivative", run)

    # a count polynomial has finite chaos order equal to its degree, so
    # the enumerated coefficients reproduce differences exactly
    def run_poly(_plan, space=ctx.space("S2")):
        F = (CountPolynomial.atom_count(space, 0) * CountPolynomial.atom_count(space, 1)
             + CountPolynomial.total_count(space) * 0.5)
        cv = chaos_by_enumeration(F, 2, ctx.enumeration(space).budget)
        worst = _derivative_residual(space, cv, lambda c: difference_rows(F, c))
        return CasePayload(lhs=worst, rhs=0.0, tolerance=1e-9)

    ctx.add("chaos_vs_pathwise_S2_polynomial", "malliavin-derivative", run_poly)

    # for a steep-decay exponential the truncated chaos route reproduces
    # the closed-form derivative within the stated tolerance
    def run_tiny(_plan, space=ctx.space("S1")):
        f = _tiny_exponential(space)
        cv = chaos_of_exponential(f, 4)
        factor = f.difference_factor()
        worst = _derivative_residual(
            space, cv, lambda c: f.evaluate_counts(c)[:, None] * factor)
        return CasePayload(lhs=worst, rhs=0.0, tolerance=1e-9)

    ctx.add("chaos_vs_closed_form_S1_tiny", "malliavin-derivative", run_tiny)
    return ctx.cases


def _tiny_exponential(space):
    from ..functionals import Exponential

    return Exponential(space, Kernel(space, np.full(space.size, 0.007)))


def build_duality(ctx: SuiteContext) -> list[Case]:
    for space_name in ("S1", "S2"):
        space = ctx.space(space_name)
        functionals = (("exp", ctx.exponentials(space)[0][1]),
                       ("poly", CountPolynomial.total_count(space)
                        * CountPolynomial.total_count(space) * 0.25))
        for f_name, F in functionals:
            for h_name, H in _field_battery(ctx, space):
                def run(_plan, space=space, F=F, H=H):
                    enum = ctx.enumeration(space)
                    lhs_rows = np.zeros(len(enum.counts))
                    diffs = difference_rows(F, enum.counts)
                    for x in range(space.size):
                        lhs_rows += (space.weights[x] * diffs[:, x]
                                     * H.functional_at(x).evaluate_counts(enum.counts))
                    lhs = enum.expectation_of_values(lhs_rows)
                    rhs_rows = (F.evaluate_counts(enum.counts)
                                * skorohod_counts(H, enum.counts))
                    rhs = enum.expectation_of_values(rhs_rows)
                    return CasePayload(lhs=lhs, rhs=rhs, tolerance=1e-6)

                ctx.add(f"pairing_{space_name}_{f_name}_{h_name}", "duality", run)
    return ctx.cases


def build_skorohod_isometry(ctx: SuiteContext) -> list[Case]:
    for space_name in ("S1", "S2"):
        space = ctx.space(space_name)
        for h_name, H in _field_battery(ctx, space):
            def run(_plan, space=space, H=H):
                enum = ctx.enumeration(space)
                counts = enum.counts
                lhs = enum.expectation_of_values(skorohod_counts(H, counts) ** 2)
                field_values = [H.functional_at(x).evaluate_counts(counts)
                                for x in range(space.size)]
                rhs_rows = np.zeros(len(counts))
                for x in range(space.size):
                    rhs_rows += space.weights[x] * field_values[x] ** 2
                # column y of diffs[x] is D_y H_x
                diffs = [difference_rows(H.functional_at(x), counts)
                         for x in range(space.size)]
                for x in range(space.size):
                    for y in range(space.size):
                        rhs_rows += (space.weights[x] * space.weights[y]
                                     * diffs[x][:, y] * diffs[y][:, x])
                rhs = enum.expectation_of_values(rhs_rows)
                return CasePayload(lhs=lhs, rhs=rhs, tolerance=1e-6)

            ctx.add(f"second_moment_{space_name}_{h_name}", "skorohod-isometry", run)

        # cross-representation: the chaos-level integral of a chaos field
        # agrees with the add/drop form on every pattern
        def run_cross(_plan, space=space):
            _, field = _field_battery(ctx, space)[-1]
            cv = skorohod_chaos(field)
            counts = _count_vectors(space.size, 5)
            worst = worst_residual([skorohod_counts(field, counts)
                                    - chaos_reconstruct_counts(space, cv, counts)])
            return CasePayload(lhs=worst, rhs=0.0, tolerance=1e-9)

        ctx.add(f"pathwise_vs_chaos_{space_name}", "skorohod-pathwise", run_cross)
    return ctx.cases


def build_ou_operators(ctx: SuiteContext) -> list[Case]:
    for space_name, order in (("S1", 4), ("S2", 3)):
        space = ctx.space(space_name)

        # coefficientwise: integral of the derivative field plus the
        # generator is the zero vector
        def run_chaos(_plan, space=space, order=order):
            cv = seeded_chaos_vector(space, order, 2000 + order)
            lhs_cv = skorohod_chaos(chaos_field_from_vector(cv))
            residual = lhs_cv + ou_chaos(cv)
            zero = ChaosVector(space, [0.0])
            return CasePayload(lhs=residual.max_abs_difference(zero), rhs=0.0,
                               tolerance=1e-12)

        ctx.add(f"integral_of_derivative_{space_name}", "ou-generator", run_chaos)

        # pathwise: add/drop integral of the difference field plus the
        # birth-death generator vanishes for any functional
        battery = (("exp", ctx.exponentials(space)[0][1]),
                   ("poly", CountPolynomial.total_count(space)
                    * CountPolynomial.total_count(space) * 0.5))
        for f_name, F in battery:
            def run_path(_plan, space=space, F=F):
                counts = _count_vectors(space.size, 5)
                worst = worst_residual([skorohod_counts(difference_field(F), counts)
                                        + ou_generator_counts(F, counts)])
                return CasePayload(lhs=worst, rhs=0.0, tolerance=1e-9)

            ctx.add(f"pathwise_cancellation_{space_name}_{f_name}", "ou-generator", run_path)

    # birth-death route against the chaos route, exactly for finite
    # chaos sums and in enumerated mean square for steep exponentials
    s2 = ctx.space("S2")

    def run_match(_plan, space=s2):
        cv = seeded_chaos_vector(space, 3, 2103)
        counts = _count_vectors(space.size, 5)
        worst = worst_residual([ou_generator_counts(_reconstruction(space, cv), counts)
                                - chaos_reconstruct_counts(space, ou_chaos(cv), counts)])
        return CasePayload(lhs=worst, rhs=0.0, tolerance=1e-9)

    ctx.add("pathwise_vs_chaos_S2_random", "ou-generator", run_match)

    s1 = ctx.space("S1")

    def run_ms(_plan, space=s1, f=ctx.exponentials(s1, small=True)[0][1]):
        cv = chaos_of_exponential(f, 4)
        target = ou_chaos(cv)
        enum = ctx.enumeration(space)
        path = ou_generator_counts(f, enum.counts)
        chaos = chaos_reconstruct_counts(space, target, enum.counts)
        ms = enum.expectation_of_values((path - chaos) ** 2)
        return CasePayload(lhs=ms, rhs=0.0, tolerance=1e-6, one_sided=True)

    ctx.add("mean_square_S1_small_exp", "ou-generator", run_ms)

    # linear case: generator of the centered total count flips its sign
    def run_linear(_plan, space=s1):
        F = CountPolynomial.total_count(space)
        counts = _count_vectors(space.size, 4)
        worst = worst_residual([ou_generator_counts(F, counts)
                                - (space.total_mass - counts.sum(axis=1))])
        return CasePayload(lhs=worst, rhs=0.0, tolerance=1e-12)

    ctx.add("linear_example_S1", "ou-generator", run_linear)

    # sampled mean of the generator vanishes
    for space_name in ("S1", "S2"):
        space = ctx.space(space_name)

        def run_mean(plan, space=space, F=ctx.exponentials(space)[0][1]):
            G = Opaque(space, counts_fn=lambda c: ou_generator_counts(F, c))
            return CasePayload(lhs=mc_expectation(space, G, plan), rhs=0.0)

        ctx.add(f"mean_zero_{space_name}", "ou-generator", run_mean)

    # pseudo-inverse: applying the generator after it restores centered input
    def run_inverse(_plan, space=s2):
        cv = seeded_chaos_vector(space, 3, 2205)
        centered = ChaosVector(space, [0.0, *cv.coefficients[1:]])
        back = ou_chaos(ou_inverse_chaos(centered))
        return CasePayload(lhs=back.max_abs_difference(centered), rhs=0.0,
                           tolerance=1e-12)

    ctx.add("inverse_roundtrip_S2", "ou-inverse", run_inverse)
    return ctx.cases
