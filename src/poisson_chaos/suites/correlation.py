"""Suites for the covariance identities, the variance bound, and the
positive-association inequality for monotone functionals."""

from __future__ import annotations

import numpy as np

from ..estimation import PoissonEnumeration, mc_estimate
from ..functionals import (CountPolynomial, Exponential, Functional, Opaque,
                           difference_rows)
from ..patterns import _count_vectors, sample_poisson_counts, thin_counts
from ..space import Kernel
from .base import NESTED_REPLICATE_CAP, T_NODES, Case, CasePayload, SuiteContext
from .common import (covariance_conditional_rhs, covariance_semigroup_rhs,
                     mc_covariance)

NESTED_FORMS = (("semigroup", covariance_semigroup_rhs),
                ("conditional", covariance_conditional_rhs))


def _oracle_covariance(ctx: SuiteContext, space, F, G) -> float:
    enum = ctx.enumeration(space)
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
    pairs.append((f"{exps[0][0]}__self", exps[0][1], exps[0][1]))
    return pairs


def build_covariance(ctx: SuiteContext) -> list[Case]:
    capped = min(ctx.config.replicates, NESTED_REPLICATE_CAP)

    def add_nested(case_id, form, estimator, space, F, G):
        def run(plan):
            rhs = estimator(space, F, G, plan, T_NODES)
            return CasePayload(lhs=_oracle_covariance(ctx, space, F, G), rhs=rhs)

        ctx.add(case_id, f"covariance-identity-{form}", run, capped)

    # linear anchors: both routes hit the variance of the count exactly
    s1 = ctx.space("S1")
    total = CountPolynomial.total_count(s1)
    for form, estimator in NESTED_FORMS:
        add_nested(f"linear_anchor_S1_{form}", form, estimator, s1, total, total)
    for space_name in ("S1", "S2"):
        space = ctx.space(space_name)
        for pair_id, F, G in _covariance_pairs(ctx, space):
            for form, estimator in NESTED_FORMS:
                add_nested(f"{form}_form_{space_name}_{pair_id}", form, estimator,
                           space, F, G)

    # thinning splits the process into independent components with the
    # complementary intensities
    s2 = ctx.space("S2")
    for t in (0.3, 0.7):
        def run_split(plan, space=s2, t=t):
            def batch(streams: np.ndarray, _start: int) -> np.ndarray:
                counts = sample_poisson_counts(space, plan.seed, streams)
                kept = thin_counts(counts, t, plan.seed, streams, sub1=1)
                dropped = counts - kept
                kc = kept[:, 0].astype(np.float64)
                dc = dropped[:, 0].astype(np.float64)
                return (kc - t * space.weights[0]) * (dc - (1 - t) * space.weights[0])

            return CasePayload(lhs=mc_estimate(plan, batch), rhs=0.0)

        ctx.add(f"thinning_split_t{t:g}", "thinning-bifurcation", run_split)

        for part, scale in (("kept", t), ("dropped", 1.0 - t)):
            def run_intensity(plan, space=s2, t=t, part=part, scale=scale):
                def batch(streams: np.ndarray, _start: int) -> np.ndarray:
                    counts = sample_poisson_counts(space, plan.seed, streams)
                    kept = thin_counts(counts, t, plan.seed, streams, sub1=1)
                    chosen = kept if part == "kept" else counts - kept
                    return chosen.astype(np.float64) @ np.ones(space.size)

                return CasePayload(lhs=mc_estimate(plan, batch), rhs=scale * space.total_mass)

            ctx.add(f"thinning_intensity_{part}_t{t:g}", "thinning-bifurcation", run_intensity)
    return ctx.cases


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
    s1 = ctx.space("S1")

    # the linear functional saturates the bound
    def run_equality(_plan, space=s1):
        F = CountPolynomial.total_count(space)
        var = _oracle_covariance(ctx, space, F, F)
        return CasePayload(lhs=var, rhs=_difference_energy(ctx.enumeration(space), F),
                           tolerance=1e-9)

    ctx.add("equality_linear_S1", "poincare-inequality", run_equality)

    for name, space, F in _poincare_battery(ctx):
        def run_bound(_plan, space=space, F=F):
            var = _oracle_covariance(ctx, space, F, F)
            return CasePayload(lhs=var, rhs=_difference_energy(ctx.enumeration(space), F),
                               tolerance=1e-9, one_sided=True)

        ctx.add(f"variance_bound_{name}", "poincare-inequality", run_bound)

    # one sampled instance: the bound with statistical slack
    s2 = ctx.space("S2")

    def run_mc(plan, space=s2, F=ctx.exponentials(s2)[0][1]):
        var = mc_covariance(space, F, F, plan)
        energy = _difference_energy(ctx.enumeration(space), F)
        return CasePayload(lhs=var, rhs=energy, one_sided=True)

    ctx.add("variance_bound_mc_S2", "poincare-inequality", run_mc)

    # second-moment extension for an integrable, fast-growing functional
    def run_l1(_plan, space=s1):
        # envelope for the squared functional
        enum = ctx.enumeration(space, growth=lambda n: 4.0**n)
        F = Opaque(space, counts_fn=lambda c: 2.0 ** c.sum(axis=1).astype(np.float64))
        second = enum.expectation_of(F * F)
        mean = enum.expectation_of(F)
        return CasePayload(lhs=second, rhs=mean**2 + _difference_energy(enum, F),
                           tolerance=1e-6, one_sided=True)

    ctx.add("l1_extension_S1", "poincare-l1-extension", run_l1)
    return ctx.cases


# ---------------------------------------------------------------------------
# association of monotone functionals


def _monotone_battery(space, boundary: int) -> list[tuple[str, Functional]]:
    """Functionals increasing on atoms below the boundary, decreasing above;
    both sides hold an atom (0 < boundary < space.size)."""
    up = list(range(boundary))
    down = list(range(boundary, space.size))

    def counts_fn_min(c):
        return np.minimum(c[:, up].sum(axis=1), 2.0) - np.minimum(c[:, down].sum(axis=1), 3.0)

    linear = [(1.0 if j in up else -1.0, tuple(int(j == i) for i in range(space.size)))
              for j in range(space.size)]
    sq = CountPolynomial(space, [(1.0, tuple(2 * int(j == up[0]) for j in range(space.size))),
                                 (1.0, tuple(int(j == up[0]) for j in range(space.size)))])
    for x in down:
        sq = sq + CountPolynomial(space, [(-2.0, tuple(int(j == x) for j in range(space.size)))])
    v = np.zeros(space.size)
    for x in down:
        v[x] = 0.8
    return [
        ("signed_count", CountPolynomial(space, linear)),
        ("square_up", sq),
        ("exp_down", Exponential(space, Kernel(space, v))),
        ("capped", Opaque(space, counts_fn=counts_fn_min)),
        ("threshold", Opaque(space, counts_fn=lambda c: (
            3.0 * (c[:, up[0]] >= 1).astype(np.float64) - c[:, down].sum(axis=1)))),
    ]


def check_monotone(space, F: Functional, boundary: int, max_total: int = 5) -> bool:
    """Exhaustive one-point-increment check of the monotonicity hypothesis:
    F is nondecreasing in the atoms below ``boundary`` and nonincreasing
    in the rest (a NaN difference counts as a violation)."""
    diffs = difference_rows(F, _count_vectors(space.size, max_total))
    return bool(np.all(diffs[:, :boundary] >= -1e-12)
                and np.all(diffs[:, boundary:] <= 1e-12))


def build_fkg(ctx: SuiteContext) -> list[Case]:
    space = ctx.space("S2")
    if space.size < 2:
        raise ctx.missing("at least 2 atoms", space)
    boundary = 1
    battery = _monotone_battery(space, boundary)
    pair_indices = [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4), (0, 0)]
    for i, j in pair_indices:
        name_f, F = battery[i]
        name_g, G = battery[j]

        def run(plan, F=F, G=G):
            for H in (F, G):
                if not check_monotone(space, H, boundary):
                    raise AssertionError("battery functional is not monotone")
            return CasePayload(lhs=0.0, rhs=mc_covariance(space, F, G, plan), one_sided=True)

        ctx.add(f"association_{name_f}__{name_g}", "fkg-inequality", run)

    # exact rows: enumerated covariance of monotone pairs is nonnegative
    for i, j in ((0, 3), (1, 2)):
        name_f, F = battery[i]
        name_g, G = battery[j]

        def run_oracle(_plan, F=F, G=G):
            for H in (F, G):
                if not check_monotone(space, H, boundary):
                    raise AssertionError("battery functional is not monotone")
            cov = _oracle_covariance(ctx, space, F, G)
            return CasePayload(lhs=0.0, rhs=cov, tolerance=1e-9, one_sided=True)

        ctx.add(f"association_oracle_{name_f}__{name_g}", "fkg-inequality", run_oracle)
    return ctx.cases
