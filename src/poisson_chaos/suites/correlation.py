"""Suites for the covariance identities, the variance bound, and the
positive-association inequality for monotone functionals."""

from __future__ import annotations

import numpy as np

from ..estimation import PoissonEnumeration, mc_estimate
from ..functionals import (CountPolynomial, Exponential, Functional, Opaque,
                           difference_rows)
from ..patterns import _count_vectors, sample_poisson_counts, thin_counts
from ..space import Kernel
from .base import Case, CasePayload, SuiteContext
from .common import (POLY4, covariance_conditional_rhs,
                     covariance_semigroup_rhs, mc_covariance)

T_NODES = 16
INNER = 16
OUTER_CAP = 100_000


def _enumeration(ctx: SuiteContext, space) -> PoissonEnumeration:
    """The enumeration certified for functionals of polynomial growth."""
    return PoissonEnumeration.get(space, ctx.budget(space, growth=POLY4, tol=1e-8))


def _oracle_covariance(ctx: SuiteContext, space, F, G) -> float:
    enum = _enumeration(ctx, space)
    mean_f = enum.expectation_of(F)
    mean_g = enum.expectation_of(G)
    return enum.expectation_of_values(
        (F.evaluate_counts(enum.counts) - mean_f)
        * (G.evaluate_counts(enum.counts) - mean_g))


def _covariance_pairs(ctx: SuiteContext, space) -> list[tuple[str, Functional, Functional]]:
    exps = ctx.exponentials(space)
    pairs = []
    if len(exps) >= 2:
        pairs.append((f"{exps[0][0]}__{exps[1][0]}", exps[0][1], exps[1][1]))
    if exps:
        pairs.append((f"{exps[0][0]}__self", exps[0][1], exps[0][1]))
    return pairs


def build_covariance(ctx: SuiteContext) -> list[Case]:
    cases = []
    s1 = ctx.space("S1")

    # linear anchors: both routes hit the variance of the count exactly
    for form, estimator in (("semigroup", covariance_semigroup_rhs),
                            ("conditional", covariance_conditional_rhs)):
        case_id = f"linear_anchor_S1_{form}"

        def run_anchor(space=s1, estimator=estimator, case_id=case_id):
            plan = ctx.plan(case_id, min(ctx.config.replicates, OUTER_CAP))
            F = CountPolynomial.total_count(space)
            rhs = estimator(space, F, F, plan, T_NODES, INNER)
            lhs = _oracle_covariance(ctx, space, F, F)
            return CasePayload(lhs=lhs, rhs=rhs, replicates=plan.replicates)

        cases.append(Case(case_id, f"covariance-identity-{form}", run_anchor))

    for space_name in ("S1", "S2"):
        space = ctx.space(space_name)
        for pair_id, F, G in _covariance_pairs(ctx, space):
            case_id = f"semigroup_form_{space_name}_{pair_id}"

            def run_semi(space=space, F=F, G=G, case_id=case_id):
                plan = ctx.plan(case_id, min(ctx.config.replicates, OUTER_CAP))
                rhs = covariance_semigroup_rhs(space, F, G, plan, T_NODES, INNER)
                lhs = _oracle_covariance(ctx, space, F, G)
                return CasePayload(lhs=lhs, rhs=rhs, replicates=plan.replicates)

            cases.append(Case(case_id, "covariance-identity-semigroup", run_semi))

            case_id = f"conditional_form_{space_name}_{pair_id}"

            def run_cond(space=space, F=F, G=G, case_id=case_id):
                plan = ctx.plan(case_id, min(ctx.config.replicates, OUTER_CAP))
                rhs = covariance_conditional_rhs(space, F, G, plan, T_NODES, INNER)
                lhs = _oracle_covariance(ctx, space, F, G)
                return CasePayload(lhs=lhs, rhs=rhs, replicates=plan.replicates)

            cases.append(Case(case_id, "covariance-identity-conditional", run_cond))

    # thinning splits the process into independent components with the
    # complementary intensities
    s2 = ctx.space("S2")
    for t in (0.3, 0.7):
        case_id = f"thinning_split_t{t:g}"

        def run_split(space=s2, t=t, case_id=case_id):
            plan = ctx.plan(case_id)

            def batch(streams: np.ndarray, _start: int) -> np.ndarray:
                counts = sample_poisson_counts(space, plan.seed, streams)
                kept = thin_counts(counts, t, plan.seed, streams, sub1=1)
                dropped = counts - kept
                kc = kept[:, 0].astype(np.float64)
                dc = dropped[:, 0].astype(np.float64)
                return (kc - t * space.weights[0]) * (dc - (1 - t) * space.weights[0])

            est = mc_estimate(plan, batch)
            return CasePayload(lhs=est, rhs=0.0, replicates=plan.replicates)

        cases.append(Case(case_id, "thinning-bifurcation", run_split))

        for part, scale in (("kept", t), ("dropped", 1.0 - t)):
            case_id = f"thinning_intensity_{part}_t{t:g}"

            def run_intensity(space=s2, t=t, part=part, scale=scale, case_id=case_id):
                plan = ctx.plan(case_id)

                def batch(streams: np.ndarray, _start: int) -> np.ndarray:
                    counts = sample_poisson_counts(space, plan.seed, streams)
                    kept = thin_counts(counts, t, plan.seed, streams, sub1=1)
                    chosen = kept if part == "kept" else counts - kept
                    return chosen.astype(np.float64) @ np.ones(space.size)

                est = mc_estimate(plan, batch)
                return CasePayload(lhs=est, rhs=scale * space.total_mass,
                                   replicates=plan.replicates)

            cases.append(Case(case_id, "thinning-bifurcation", run_intensity))
    return cases


def _difference_energy(enum: PoissonEnumeration, F) -> float:
    """Enumerated integral of the squared one-point difference."""
    space = enum.space
    rows = np.zeros(len(enum.counts))
    diffs = difference_rows(F, enum.counts)
    for x in range(space.size):
        rows += space.weights[x] * diffs[:, x] ** 2
    return enum.expectation_of_values(rows)


def _poincare_battery(ctx: SuiteContext) -> list[tuple[str, object, Functional]]:
    battery: list[tuple[str, object, Functional]] = []
    for space_name in ("S1", "S2", "S3"):
        space = ctx.space(space_name)
        for name, f in ctx.exponentials(space):
            battery.append((f"{space_name}_{name}", space, f))
    s2 = ctx.space("S2")
    battery.append(("S2_total_sq", s2,
                    CountPolynomial.total_count(s2) * CountPolynomial.total_count(s2)))
    battery.append(("S2_mixed", s2,
                    CountPolynomial.atom_count(s2, 0) * CountPolynomial.atom_count(s2, 1)))
    battery.append(("S2_capped", s2, Opaque(
        s2, counts_fn=lambda c: np.minimum(c.sum(axis=1), 2.0))))
    battery.append(("S2_empty_indicator", s2, Opaque(
        s2, counts_fn=lambda c: (c.sum(axis=1) == 0).astype(np.float64))))
    return battery


def build_poincare(ctx: SuiteContext) -> list[Case]:
    cases = []
    s1 = ctx.space("S1")

    # the linear functional saturates the bound
    case_id = "equality_linear_S1"

    def run_equality(space=s1):
        F = CountPolynomial.total_count(space)
        enum = _enumeration(ctx, space)
        mean = enum.expectation_of(F)
        var = enum.expectation_of_values((F.evaluate_counts(enum.counts) - mean) ** 2)
        return CasePayload(lhs=var, rhs=_difference_energy(enum, F),
                           tolerance=1e-9)

    cases.append(Case(case_id, "poincare-inequality", run_equality))

    for name, space, F in _poincare_battery(ctx):
        case_id = f"variance_bound_{name}"

        def run_bound(space=space, F=F):
            var = _oracle_covariance(ctx, space, F, F)
            return CasePayload(lhs=var, rhs=_difference_energy(_enumeration(ctx, space), F),
                               tolerance=1e-9, one_sided=True)

        cases.append(Case(case_id, "poincare-inequality", run_bound))

    # one sampled instance: the bound with statistical slack
    case_id = "variance_bound_mc_S2"

    def run_mc(space=ctx.space("S2"), case_id=case_id):
        exps = ctx.exponentials(space)
        F = exps[0][1] if exps else CountPolynomial.total_count(space)
        plan = ctx.plan(case_id)
        var = mc_covariance(space, F, F, plan)
        energy = _difference_energy(_enumeration(ctx, space), F)
        return CasePayload(lhs=var, rhs=energy, replicates=plan.replicates,
                           one_sided=True)

    cases.append(Case(case_id, "poincare-inequality", run_mc))

    # second-moment extension for an integrable, fast-growing functional
    case_id = "l1_extension_S1"

    def run_l1(space=s1):
        growth = lambda n: 4.0**n  # noqa: E731  envelope for the squared functional
        budget = ctx.budget(space, growth=growth, tol=1e-8)
        enum = PoissonEnumeration.get(space, budget)
        F = Opaque(space, counts_fn=lambda c: 2.0 ** c.sum(axis=1).astype(np.float64))
        second = enum.expectation_of(F * F)
        mean = enum.expectation_of(F)
        return CasePayload(lhs=second, rhs=mean**2 + _difference_energy(enum, F),
                           tolerance=1e-6, one_sided=True)

    cases.append(Case(case_id, "poincare-l1-extension", run_l1))
    return cases


# ---------------------------------------------------------------------------
# association of monotone functionals


def _monotone_battery(space, boundary: int) -> list[tuple[str, Functional]]:
    """Functionals increasing on atoms below the boundary, decreasing above."""
    up = list(range(boundary))
    down = list(range(boundary, space.size))

    def counts_fn_min(c):
        inside = c[:, up].sum(axis=1) if up else np.zeros(len(c))
        outside = c[:, down].sum(axis=1) if down else np.zeros(len(c))
        return np.minimum(inside, 2.0) - np.minimum(outside, 3.0)

    battery: list[tuple[str, Functional]] = []
    linear = [(1.0 if j in up else -1.0, tuple(int(j == i) for i in range(space.size)))
              for j in range(space.size)]
    battery.append(("signed_count", CountPolynomial(space, linear)))
    if up:
        sq = CountPolynomial(space, [(1.0, tuple(2 * int(j == up[0]) for j in range(space.size))),
                                     (1.0, tuple(int(j == up[0]) for j in range(space.size)))])
        for x in down:
            sq = sq + CountPolynomial(space, [(-2.0, tuple(int(j == x) for j in range(space.size)))])
        battery.append(("square_up", sq))
    if down:
        v = np.zeros(space.size)
        for x in down:
            v[x] = 0.8
        battery.append(("exp_down", Exponential(space, Kernel(space, v))))
    battery.append(("capped", Opaque(space, counts_fn=counts_fn_min)))
    if up:
        battery.append(("threshold", Opaque(space, counts_fn=lambda c: (
            3.0 * (c[:, up[0]] >= 1).astype(np.float64)
            - (c[:, down].sum(axis=1) if down else np.zeros(len(c)))))))
    return battery


def check_monotone(space, F: Functional, boundary: int, max_total: int = 5) -> bool:
    """Exhaustive one-point-increment check of the monotonicity hypothesis:
    F is nondecreasing in the atoms below ``boundary`` and nonincreasing
    in the rest (a NaN difference counts as a violation)."""
    diffs = difference_rows(F, _count_vectors(space.size, max_total))
    return bool(np.all(diffs[:, :boundary] >= -1e-12)
                and np.all(diffs[:, boundary:] <= 1e-12))


def build_fkg(ctx: SuiteContext) -> list[Case]:
    cases = []
    space = ctx.space("S2")
    boundary = 1
    battery = _monotone_battery(space, boundary)
    pair_indices = [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4), (0, 0)]
    for i, j in pair_indices:
        if i >= len(battery) or j >= len(battery):
            continue
        name_f, F = battery[i]
        name_g, G = battery[j]
        case_id = f"association_{name_f}__{name_g}"

        def run(F=F, G=G, case_id=case_id):
            for H in (F, G):
                if not check_monotone(space, H, boundary):
                    raise AssertionError("battery functional is not monotone")
            plan = ctx.plan(case_id)
            cov = mc_covariance(space, F, G, plan)
            return CasePayload(lhs=0.0, rhs=cov, replicates=plan.replicates,
                               one_sided=True)

        cases.append(Case(case_id, "fkg-inequality", run))

    # exact rows: enumerated covariance of monotone pairs is nonnegative
    for i, j in ((0, 3), (1, 2)):
        if i >= len(battery) or j >= len(battery):
            continue
        name_f, F = battery[i]
        name_g, G = battery[j]
        case_id = f"association_oracle_{name_f}__{name_g}"

        def run_oracle(F=F, G=G):
            for H in (F, G):
                if not check_monotone(space, H, boundary):
                    raise AssertionError("battery functional is not monotone")
            cov = _oracle_covariance(ctx, space, F, G)
            return CasePayload(lhs=0.0, rhs=cov, tolerance=1e-9, one_sided=True)

        cases.append(Case(case_id, "fkg-inequality", run_oracle))
    return cases
