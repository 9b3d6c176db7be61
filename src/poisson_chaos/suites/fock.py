"""Suite for the difference-moment isometry of the exponential family.

The inner-product series of the two functionals' difference-moment
kernels telescopes, for exponentials, into a scalar exponential series;
the suite pins that series against the closed product mean, the exact
enumeration of the product, and a sampled product mean.
"""

from __future__ import annotations

import numpy as np

from ..estimation import mc_expectation
from ..functionals import Exponential
from .base import Case, CasePayload, SuiteContext

SERIES_TERM_FLOOR = 1e-14


def isometry_series(f: Exponential, g: Exponential) -> float:
    """Mean product plus the weighted inner products of difference moments.

    For exponentials every inner product reduces to a power of one
    scalar, so the series is summed termwise until terms fall below the
    floor.
    """
    space = f.space
    w = space.weights
    t = float(np.sum(w * f.difference_factor() * g.difference_factor()))
    scale = f.closed_form_mean() * g.closed_form_mean()
    total = 0.0
    term = 1.0
    n = 0
    while abs(term) > SERIES_TERM_FLOOR and n < 400:
        total += term
        n += 1
        term *= t / n
    return scale * total


def _pairs(ctx: SuiteContext) -> list[tuple[str, Exponential, Exponential]]:
    pairs = []
    for space_name in ("S1", "S2", "S3"):
        space = ctx.space(space_name)
        exps = ctx.exponentials(space)
        for i, (name_f, f) in enumerate(exps):
            for name_g, g in exps[i:]:
                pairs.append((f"{name_f}__{name_g}", f, g))
    return pairs


def build_fock_isometry(ctx: SuiteContext) -> list[Case]:
    pairs = _pairs(ctx)
    for pair_id, f, g in pairs:
        def run(_plan, f=f, g=g):
            series = isometry_series(f, g)
            closed = Exponential(f.space, f.v + g.v).closed_form_mean()
            return CasePayload(lhs=series, rhs=closed, tolerance=1e-10)

        ctx.add(f"series_vs_closed_{pair_id}", "fock-isometry", run)

        def run(_plan, f=f, g=g):
            series = isometry_series(f, g)
            oracle = ctx.enumeration(f.space, growth=None, tol=None).expectation_of(f * g)
            return CasePayload(lhs=series, rhs=oracle, tolerance=1e-6)

        ctx.add(f"series_vs_oracle_{pair_id}", "fock-isometry", run)

    for pair_id, f, g in pairs[:3]:
        def run(plan, f=f, g=g):
            est = mc_expectation(f.space, f * g, plan)
            return CasePayload(lhs=est, rhs=isometry_series(f, g))

        ctx.add(f"series_vs_mc_{pair_id}", "fock-isometry", run)
    return ctx.cases
