"""Suites for the Malliavin operators: the chaos-level difference
operator, the duality with the add/drop integral, its isometry, and the
birth-death generator with its inverse."""

from __future__ import annotations

import numpy as np

from ..estimation import PoissonEnumeration, mc_expectation
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
from .common import POLY4, seeded_chaos_vector, worst_residual


def _reconstruction(space, cv: ChaosVector):
    return Opaque(space, counts_fn=lambda c: chaos_reconstruct_counts(space, cv, c))


def _field_battery(ctx: SuiteContext, space) -> list[tuple[str, object]]:
    """Structured integrand fields used by duality and the isometry."""
    exps = ctx.exponentials(space)
    base = exps[0][1] if exps else None
    fields: list[tuple[str, object]] = []
    if base is not None:
        g = 0.5 + np.arange(space.size, dtype=np.float64)
        fields.append(("exp_field", FunctionalField(
            space, [base * float(g[x]) for x in range(space.size)])))
    total = CountPolynomial.total_count(space)
    fields.append(("poly_field", FunctionalField(
        space, [total * (0.3 + 0.2 * x) + (-0.1 * x) for x in range(space.size)])))
    rng = np.random.default_rng(37)
    kernels = [Kernel(space, rng.normal(size=(space.size,))),
               Kernel(space, _sym_trailing(rng.normal(size=(space.size,) * 2)))]
    fields.append(("chaos_field", ChaosField(space, kernels)))
    return fields


def _sym_trailing(values: np.ndarray) -> np.ndarray:
    # symmetric in all but the first slot
    if values.ndim <= 2:
        return values
    return 0.5 * (values + np.swapaxes(values, 1, 2))


def _derivative_residual(space, cv: ChaosVector, pathwise) -> float:
    """Chaos-level difference of cv against ``pathwise(counts)[:, x]``
    on every pattern up to five points."""
    counts = _count_vectors(space.size, 5)
    diffs = pathwise(counts)
    return worst_residual(
        chaos_reconstruct_counts(space, malliavin_chaos(cv, x), counts) - diffs[:, x]
        for x in range(space.size))


def build_malliavin_derivative(ctx: SuiteContext) -> list[Case]:
    cases = []
    # the chaos-level difference of a finite chaos sum matches the
    # pathwise one-point difference exactly, pattern by pattern
    for space_name, order in (("S1", 4), ("S2", 3)):
        space = ctx.space(space_name)
        case_id = f"chaos_vs_pathwise_{space_name}_random"

        def run(space=space, order=order):
            cv = seeded_chaos_vector(space, order, 1000 + order)
            recon = _reconstruction(space, cv)
            worst = _derivative_residual(space, cv, lambda c: difference_rows(recon, c))
            return CasePayload(lhs=worst, rhs=0.0, tolerance=1e-9)

        cases.append(Case(case_id, "malliavin-derivative", run))

    # a count polynomial has finite chaos order equal to its degree, so
    # the enumerated coefficients reproduce differences exactly
    space = ctx.space("S2")
    case_id = "chaos_vs_pathwise_S2_polynomial"

    def run_poly(space=space):
        F = (CountPolynomial.atom_count(space, 0) * CountPolynomial.atom_count(space, 1)
             + CountPolynomial.total_count(space) * 0.5)
        cv = chaos_by_enumeration(F, 2, ctx.budget(space, growth=POLY4, tol=1e-8))
        worst = _derivative_residual(space, cv, lambda c: difference_rows(F, c))
        return CasePayload(lhs=worst, rhs=0.0, tolerance=1e-9)

    cases.append(Case(case_id, "malliavin-derivative", run_poly))

    # for a steep-decay exponential the truncated chaos route reproduces
    # the closed-form derivative within the stated tolerance
    s1 = ctx.space("S1")
    case_id = "chaos_vs_closed_form_S1_tiny"

    def run_tiny(space=s1):
        f = _tiny_exponential(space)
        cv = chaos_of_exponential(f, 4)
        factor = np.exp(-f.v.values) - 1.0
        worst = _derivative_residual(
            space, cv, lambda c: f.evaluate_counts(c)[:, None] * factor)
        return CasePayload(lhs=worst, rhs=0.0, tolerance=1e-9)

    cases.append(Case(case_id, "malliavin-derivative", run_tiny))
    return cases


def _tiny_exponential(space):
    from ..functionals import Exponential

    return Exponential(space, Kernel(space, np.full(space.size, 0.007)))


def build_duality(ctx: SuiteContext) -> list[Case]:
    cases = []
    for space_name in ("S1", "S2"):
        space = ctx.space(space_name)
        exps = ctx.exponentials(space)
        functionals = [("exp", exps[0][1])] if exps else []
        functionals.append(("poly", CountPolynomial.total_count(space)
                            * CountPolynomial.total_count(space) * 0.25))
        for f_name, F in functionals:
            for h_name, H in _field_battery(ctx, space):
                case_id = f"pairing_{space_name}_{f_name}_{h_name}"

                def run(space=space, F=F, H=H):
                    budget = ctx.budget(space, growth=POLY4, tol=1e-8)
                    enum = PoissonEnumeration.get(space, budget)
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

                cases.append(Case(case_id, "duality", run))
    return cases


def build_skorohod_isometry(ctx: SuiteContext) -> list[Case]:
    cases = []
    for space_name in ("S1", "S2"):
        space = ctx.space(space_name)
        for h_name, H in _field_battery(ctx, space):
            case_id = f"second_moment_{space_name}_{h_name}"

            def run(space=space, H=H):
                budget = ctx.budget(space, growth=POLY4, tol=1e-8)
                enum = PoissonEnumeration.get(space, budget)
                counts = enum.counts
                lhs = enum.expectation_of_values(skorohod_counts(H, counts) ** 2)
                field_values = [H.functional_at(x).evaluate_counts(counts)
                                for x in range(space.size)]
                rhs_rows = np.zeros(len(counts))
                for x in range(space.size):
                    rhs_rows += space.weights[x] * field_values[x] ** 2
                shifts = np.eye(space.size, dtype=np.int64)
                for x in range(space.size):
                    for y in range(space.size):
                        d_y_hx = (H.functional_at(x).evaluate_counts(counts + shifts[y])
                                  - field_values[x])
                        d_x_hy = (H.functional_at(y).evaluate_counts(counts + shifts[x])
                                  - field_values[y])
                        rhs_rows += space.weights[x] * space.weights[y] * d_y_hx * d_x_hy
                rhs = enum.expectation_of_values(rhs_rows)
                return CasePayload(lhs=lhs, rhs=rhs, tolerance=1e-6)

            cases.append(Case(case_id, "skorohod-isometry", run))

        # cross-representation: the chaos-level integral of a chaos field
        # agrees with the add/drop form on every pattern
        case_id = f"pathwise_vs_chaos_{space_name}"

        def run_cross(space=space):
            _, field = _field_battery(ctx, space)[-1]
            cv = skorohod_chaos(field)
            counts = _count_vectors(space.size, 5)
            worst = worst_residual([skorohod_counts(field, counts)
                                    - chaos_reconstruct_counts(space, cv, counts)])
            return CasePayload(lhs=worst, rhs=0.0, tolerance=1e-9)

        cases.append(Case(case_id, "skorohod-pathwise", run_cross))
    return cases


def build_ou_operators(ctx: SuiteContext) -> list[Case]:
    cases = []
    for space_name, order in (("S1", 4), ("S2", 3)):
        space = ctx.space(space_name)

        # coefficientwise: integral of the derivative field plus the
        # generator is the zero vector
        case_id = f"integral_of_derivative_{space_name}"

        def run_chaos(space=space, order=order):
            cv = seeded_chaos_vector(space, order, 2000 + order)
            lhs_cv = skorohod_chaos(chaos_field_from_vector(cv))
            residual = lhs_cv + ou_chaos(cv)
            zero = ChaosVector(space, [0.0])
            return CasePayload(lhs=residual.max_abs_difference(zero), rhs=0.0,
                               tolerance=1e-12)

        cases.append(Case(case_id, "ou-generator", run_chaos))

        # pathwise: add/drop integral of the difference field plus the
        # birth-death generator vanishes for any functional
        exps = ctx.exponentials(space)
        battery = [("exp", exps[0][1])] if exps else []
        battery.append(("poly", CountPolynomial.total_count(space)
                        * CountPolynomial.total_count(space) * 0.5))
        for f_name, F in battery:
            case_id = f"pathwise_cancellation_{space_name}_{f_name}"

            def run_path(space=space, F=F):
                counts = _count_vectors(space.size, 5)
                worst = worst_residual([skorohod_counts(difference_field(F), counts)
                                        + ou_generator_counts(F, counts)])
                return CasePayload(lhs=worst, rhs=0.0, tolerance=1e-9)

            cases.append(Case(case_id, "ou-generator", run_path))

    # birth-death route against the chaos route, exactly for finite
    # chaos sums and in enumerated mean square for steep exponentials
    space = ctx.space("S2")
    case_id = "pathwise_vs_chaos_S2_random"

    def run_match(space=space):
        cv = seeded_chaos_vector(space, 3, 2103)
        counts = _count_vectors(space.size, 5)
        worst = worst_residual([ou_generator_counts(_reconstruction(space, cv), counts)
                                - chaos_reconstruct_counts(space, ou_chaos(cv), counts)])
        return CasePayload(lhs=worst, rhs=0.0, tolerance=1e-9)

    cases.append(Case(case_id, "ou-generator", run_match))

    s1 = ctx.space("S1")
    small = ctx.exponentials(s1, small=True)
    if small:
        case_id = "mean_square_S1_small_exp"

        def run_ms(space=s1, f=small[0][1]):
            cv = chaos_of_exponential(f, 4)
            target = ou_chaos(cv)
            enum = PoissonEnumeration.get(space, ctx.budget(space, growth=POLY4,
                                                            tol=1e-8))
            path = ou_generator_counts(f, enum.counts)
            chaos = chaos_reconstruct_counts(space, target, enum.counts)
            ms = enum.expectation_of_values((path - chaos) ** 2)
            return CasePayload(lhs=ms, rhs=0.0, tolerance=1e-6, one_sided=True)

        cases.append(Case(case_id, "ou-generator", run_ms))

    # linear case: generator of the centered total count flips its sign
    case_id = "linear_example_S1"

    def run_linear(space=s1):
        F = CountPolynomial.total_count(space)
        counts = _count_vectors(space.size, 4)
        worst = worst_residual([ou_generator_counts(F, counts)
                                - (space.total_mass - counts.sum(axis=1))])
        return CasePayload(lhs=worst, rhs=0.0, tolerance=1e-12)

    cases.append(Case(case_id, "ou-generator", run_linear))

    # sampled mean of the generator vanishes
    for space_name in ("S1", "S2"):
        space_mc = ctx.space(space_name)
        case_id = f"mean_zero_{space_name}"

        def run_mean(space=space_mc, case_id=case_id):
            exps = ctx.exponentials(space)
            F = exps[0][1] if exps else CountPolynomial.total_count(space)
            plan = ctx.plan(case_id)
            G = Opaque(space, counts_fn=lambda c: ou_generator_counts(F, c))
            est = mc_expectation(space, G, plan)
            return CasePayload(lhs=est, rhs=0.0, replicates=plan.replicates)

        cases.append(Case(case_id, "ou-generator", run_mean))

    # pseudo-inverse: applying the generator after it restores centered input
    case_id = "inverse_roundtrip_S2"

    def run_inverse(space=space):
        cv = seeded_chaos_vector(space, 3, 2205)
        centered = ChaosVector(space, [0.0, *cv.coefficients[1:]])
        back = ou_chaos(ou_inverse_chaos(centered))
        return CasePayload(lhs=back.max_abs_difference(centered), rhs=0.0,
                           tolerance=1e-12)

    cases.append(Case(case_id, "ou-inverse", run_inverse))
    return cases
