"""Suites for the point-process primitives: Laplace functional, the
add-one-point integral identities, and factorial moment measures."""

from __future__ import annotations

import numpy as np

from ..estimation import mc_expectation, mc_expectations
from ..functionals import CountPolynomial, Functional, Opaque
from ..patterns import factorial_counts
from ..space import Kernel, integrate, tensor_power
from .base import Case, CasePayload, SuiteContext


def _pool_kernel(ctx: SuiteContext, space) -> Kernel:
    """First configured arity-1 kernel on the space, name-sorted."""
    for name in sorted(ctx.config.kernels):
        k = ctx.config.kernels[name]
        if k.arity == 1 and k.space.same_as(space):
            return k
    raise ctx.missing("an arity-1 kernel", space)


def build_laplace(ctx: SuiteContext) -> list[Case]:
    for name, f in ctx.exponentials():
        def run(plan, f=f):
            return CasePayload(lhs=mc_expectation(f.space, f, plan), rhs=f.closed_form_mean())

        ctx.add(f"exp_transform_{name}", "laplace-functional", run)
    return ctx.cases


def _field_lhs(space, fields) -> Functional:
    """Counting-measure integral of a per-atom field, as a functional."""

    def counts_fn(counts: np.ndarray) -> np.ndarray:
        out = np.zeros(counts.shape[0])
        for x, h in enumerate(fields):
            out += counts[:, x] * h.evaluate_counts(counts)
        return out

    return Opaque(space, counts_fn=counts_fn)


def _field_rhs(space, fields) -> Functional:
    """Measure integral of the field with one point added at the argument."""

    def counts_fn(counts: np.ndarray) -> np.ndarray:
        out = np.zeros(counts.shape[0])
        for x, h in enumerate(fields):
            shift = np.zeros(space.size, dtype=np.int64)
            shift[x] = 1
            out += space.weights[x] * h.evaluate_counts(counts + shift)
        return out

    return Opaque(space, counts_fn=counts_fn)


def _pair_field_lhs(space, fields) -> Functional:
    """Second factorial-measure integral of a per-atom-pair field."""

    def counts_fn(counts: np.ndarray) -> np.ndarray:
        c = counts.astype(np.float64)
        out = np.zeros(counts.shape[0])
        for x in range(space.size):
            for y in range(space.size):
                pairs = c[:, x] * (c[:, y] - (1.0 if x == y else 0.0))
                out += pairs * fields[x][y].evaluate_counts(counts)
        return out

    return Opaque(space, counts_fn=counts_fn)


def _pair_field_rhs(space, fields) -> Functional:
    def counts_fn(counts: np.ndarray) -> np.ndarray:
        out = np.zeros(counts.shape[0])
        for x in range(space.size):
            for y in range(space.size):
                shift = np.zeros(space.size, dtype=np.int64)
                shift[x] += 1
                shift[y] += 1
                out += (space.weights[x] * space.weights[y]
                        * fields[x][y].evaluate_counts(counts + shift))
        return out

    return Opaque(space, counts_fn=counts_fn)


def _mecke_fields(space, f) -> list[tuple[str, list[Functional]]]:
    """Battery of integrands h(pattern, atom), one functional per atom;
    ``f`` is the space's exponential."""
    total = CountPolynomial.total_count(space)
    g = 1.0 + np.arange(space.size, dtype=np.float64)
    batteries = [("exp_weighted", [f * float(g[x]) for x in range(space.size)])]
    g2 = 2.0 - 0.5 * np.arange(space.size, dtype=np.float64)
    batteries.append(("count_weighted",
                      [total * float(g2[x]) for x in range(space.size)]))
    batteries.append(("total_count", [total for _ in range(space.size)]))
    return batteries


def build_mecke(ctx: SuiteContext) -> list[Case]:
    for space_name in ("S1", "S2"):
        space = ctx.space(space_name)
        f = ctx.exponentials(space)[0][1]
        for battery_name, fields in _mecke_fields(space, f):
            def run(plan, space=space, fields=fields):
                lhs, rhs = mc_expectations(
                    space, [_field_lhs(space, fields), _field_rhs(space, fields)], plan)
                return CasePayload(lhs=lhs, rhs=rhs)

            ctx.add(f"add_point_{space_name}_{battery_name}", "mecke-equation", run)

        # analytic anchor: h = total count makes both sides mass*(mass+1)
        mass = space.total_mass
        anchor = mass * (mass + 1.0)
        for side, maker in (("lhs", _field_lhs), ("rhs", _field_rhs)):
            def run(plan, space=space, maker=maker, anchor=anchor):
                total = CountPolynomial.total_count(space)
                fields = [total for _ in range(space.size)]
                est = mc_expectation(space, maker(space, fields), plan)
                return CasePayload(lhs=est, rhs=anchor)

            ctx.add(f"analytic_{space_name}_{side}", "mecke-equation", run)

        # order-2 version on a product field
        def run(plan, space=space, f=f):
            g = 1.0 + 0.5 * np.arange(space.size, dtype=np.float64)
            fields = [[f * float(g[x] * g[y]) for y in range(space.size)]
                      for x in range(space.size)]
            lhs, rhs = mc_expectations(
                space, [_pair_field_lhs(space, fields), _pair_field_rhs(space, fields)], plan)
            return CasePayload(lhs=lhs, rhs=rhs)

        ctx.add(f"pair_{space_name}_exp", "multivariate-mecke", run)

        def run(plan, space=space):
            one = CountPolynomial(space, [(1.0, (0,) * space.size)])
            fields = [[one for _ in range(space.size)] for _ in range(space.size)]
            lhs = mc_expectation(space, _pair_field_lhs(space, fields), plan)
            return CasePayload(lhs=lhs, rhs=space.total_mass**2)

        ctx.add(f"pair_{space_name}_analytic", "multivariate-mecke", run)
    return ctx.cases


def build_factorial_moments(ctx: SuiteContext) -> list[Case]:
    for space_name in ("S2", "S3"):
        space = ctx.space(space_name)
        base = _pool_kernel(ctx, space)
        for m in (1, 2, 3):
            def run(plan, space=space, f=tensor_power(base, m)):
                G = Opaque(space, counts_fn=lambda c: factorial_counts(c, f))
                return CasePayload(lhs=mc_expectation(space, G, plan),
                                   rhs=integrate(space, f))

            ctx.add(f"moment_{space_name}_m{m}", "factorial-moments", run)
    return ctx.cases
