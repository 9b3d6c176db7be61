"""Suites for the stochastic integrals: isometry, product formulas, and
the chaos expansion (pathwise identity, convergence, uniqueness)."""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from ..estimation import mc_expectation
from ..functionals import ChaosVector, Opaque, chaos_of_exponential
from ..patterns import _count_vectors
from ..space import Kernel, inner_product, symmetrize
from ..wiener_ito import (chaos_finite_sum, chaos_reconstruct_counts,
                          product_formula_rhs, wiener_ito_counts)
from .base import Case, CasePayload, SuiteContext
from .common import seeded_chaos_vector, worst_residual


def _seeded_kernel(space, arity: int, seed: int, symmetric: bool = False) -> Kernel:
    rng = np.random.default_rng(seed)
    k = Kernel(space, rng.normal(size=(space.size,) * arity))
    return symmetrize(k) if symmetric else k


def build_wi_isometry(ctx: SuiteContext) -> list[Case]:
    # exact enumeration, orders up to two
    for space_name in ("S1", "S2"):
        space = ctx.space(space_name)
        for m, n in ((1, 1), (1, 2), (2, 2)):
            def run(_plan, space=space, m=m, n=n):
                g = _seeded_kernel(space, m, 100 + 7 * m + n)
                h = _seeded_kernel(space, n, 200 + 5 * m + n)
                prod = Opaque(space, counts_fn=lambda c: (
                    wiener_ito_counts(space, g, c) * wiener_ito_counts(space, h, c)))
                lhs = ctx.enumeration(space).expectation_of(prod)
                rhs = (math.factorial(m) * inner_product(space, symmetrize(g), symmetrize(h))
                       if m == n else 0.0)
                return CasePayload(lhs=lhs, rhs=rhs, tolerance=1e-6)

            ctx.add(f"oracle_{space_name}_m{m}_n{n}", "wiener-ito-isometry", run)

    # sampled, orders up to three
    space = ctx.space("S2")
    for m, n in ((1, 3), (2, 3), (3, 3)):
        def run(plan, space=space, m=m, n=n):
            g = _seeded_kernel(space, m, 300 + m)
            h = _seeded_kernel(space, n, 400 + n)
            prod = Opaque(space, counts_fn=lambda c: (
                wiener_ito_counts(space, g, c) * wiener_ito_counts(space, h, c)))
            est = mc_expectation(space, prod, plan)
            rhs = (math.factorial(m) * inner_product(space, symmetrize(g), symmetrize(h))
                   if m == n else 0.0)
            return CasePayload(lhs=est, rhs=rhs)

        ctx.add(f"mc_S2_m{m}_n{n}", "wiener-ito-isometry", run)

    # centering: sampled means of the integrals vanish
    for space_name, n in (("S2", 1), ("S2", 2), ("S3", 3)):
        def run(plan, space=ctx.space(space_name), n=n):
            g = _seeded_kernel(space, n, 500 + n)
            G = Opaque(space, counts_fn=lambda c: wiener_ito_counts(space, g, c))
            return CasePayload(lhs=mc_expectation(space, G, plan), rhs=0.0)

        ctx.add(f"mean_zero_{space_name}_n{n}", "wiener-ito-mean-zero", run)

    # the integral only sees the symmetrization of its kernel
    for space_name in ("S2", "S3"):
        def run(_plan, space=ctx.space(space_name)):
            counts = _count_vectors(space.size, 6)
            kernels = [_seeded_kernel(space, n, 600 + n) for n in (2, 3)]
            worst = worst_residual(wiener_ito_counts(space, g, counts)
                                   - wiener_ito_counts(space, symmetrize(g), counts)
                                   for g in kernels)
            return CasePayload(lhs=worst, rhs=0.0, tolerance=1e-10)

        ctx.add(f"symmetrization_{space_name}", "wiener-ito-isometry", run)
    return ctx.cases


def build_product_formula(ctx: SuiteContext) -> list[Case]:
    for space_name in ("S1", "S2", "S3"):
        space = ctx.space(space_name)
        for p, q in ((1, 1), (2, 1), (1, 2), (2, 2)):
            def run(_plan, space=space, p=p, q=q):
                f = _seeded_kernel(space, p, 700 + 3 * p + q, symmetric=True)
                g = _seeded_kernel(space, q, 800 + p + 3 * q, symmetric=True)
                counts = _count_vectors(space.size, 6)
                lhs = wiener_ito_counts(space, f, counts) * wiener_ito_counts(space, g, counts)
                worst = worst_residual([lhs - product_formula_rhs(f, g, counts)])
                return CasePayload(lhs=worst, rhs=0.0, tolerance=1e-9)

            ctx.add(f"pathwise_{space_name}_p{p}_q{q}",
                    "product-formula-single" if q == 1 else "product-formula-general", run)
    return ctx.cases


# ---------------------------------------------------------------------------
# chaos expansion


def symmetric_basis(space, order: int) -> list[tuple[int, tuple[int, ...]]]:
    """(level, multiset) pairs indexing the free entries of symmetric kernels."""
    out = [(0, ())]
    for n in range(1, order + 1):
        for combo in itertools.combinations_with_replacement(range(space.size), n):
            out.append((n, combo))
    return out


def basis_kernel(space, level: int, multiset: tuple[int, ...]) -> Kernel:
    vals = np.zeros((space.size,) * level)
    for perm in set(itertools.permutations(multiset)):
        vals[perm] = 1.0
    return Kernel(space, vals)


def recover_chaos_vector(space, target_fn, order: int, max_total: int) -> ChaosVector:
    """Least-squares chaos coefficients from pattern evaluations.

    ``target_fn`` maps a count matrix to one value per row.
    Reconstruction is linear in the coefficients, so evaluating the
    basis integrals on every pattern up to the count cutoff yields a
    full-rank system whose solution is the coefficient vector.
    """
    basis = symmetric_basis(space, order)
    counts = _count_vectors(space.size, max_total)
    design = np.column_stack([
        np.ones(len(counts)) if level == 0
        else wiener_ito_counts(space, basis_kernel(space, level, multiset), counts)
        for level, multiset in basis])
    theta, *_ = np.linalg.lstsq(design, target_fn(counts), rcond=None)
    coeffs: list = [theta[0]]
    for n in range(1, order + 1):
        vals = np.zeros((space.size,) * n)
        for j, (level, multiset) in enumerate(basis):
            if level != n:
                continue
            for perm in set(itertools.permutations(multiset)):
                vals[perm] = theta[j]
        coeffs.append(Kernel(space, vals))
    return ChaosVector(space, coeffs)


def _truncation_errors(ctx: SuiteContext, space, f, order: int) -> list[float]:
    """Enumerated second moment of the reconstruction error per order.

    Level n of ``chaos_of_exponential`` does not depend on the order
    asked for, so the reconstruction of order n is the one of order
    n - 1 plus the level-n integral, bit for bit what
    ``chaos_reconstruct_counts`` returns at order n.
    """
    enum = ctx.enumeration(space, growth=None, tol=None)
    exact = f.evaluate_counts(enum.counts)
    cv = chaos_of_exponential(f, order)
    recon = np.full(len(enum.counts), cv.coefficients[0])
    errors = [enum.expectation_of_values((exact - recon) ** 2)]
    for n in range(1, order + 1):
        recon += wiener_ito_counts(space, cv.coefficients[n], enum.counts)
        errors.append(enum.expectation_of_values((exact - recon) ** 2))
    return errors


def build_chaos_reconstruction(ctx: SuiteContext) -> list[Case]:
    # pathwise finite-sum identity on every pattern up to eight points
    for space_name in ("S1", "S2", "S3"):
        space = ctx.space(space_name)

        def run(_plan, space=space, exps=ctx.exponentials(space)):
            counts = _count_vectors(space.size, 8)
            worst = worst_residual(chaos_finite_sum(space, f.v, counts)
                                   - f.evaluate_counts(counts) for _, f in exps)
            return CasePayload(lhs=worst, rhs=0.0, tolerance=1e-10)

        ctx.add(f"finite_sum_{space_name}", "pathwise-chaos-sum", run)

    # truncated reconstruction error is monotone and small at full order
    for space_name in ("S1", "S3"):
        space = ctx.space(space_name)
        for name, f in ctx.exponentials(space, small=True):
            # one curve for the five cases; a raise is not cached, so each
            # case that calls it still gets its own ERROR row
            curve = functools.cache(functools.partial(_truncation_errors, ctx, space, f, 4))
            for n in range(1, 5):
                def run(_plan, curve=curve, n=n):
                    errors = curve()
                    return CasePayload(lhs=errors[n], rhs=errors[n - 1],
                                       tolerance=1e-12, one_sided=True)

                ctx.add(f"l2_monotone_{name}_n{n}", "chaos-expansion", run)

            def run(_plan, curve=curve):
                errors = curve()
                return CasePayload(lhs=errors[4], rhs=0.0,
                                   tolerance=1e-6, one_sided=True)

            ctx.add(f"l2_terminal_{name}", "chaos-expansion", run)

    # uniqueness: coefficients recovered from pattern evaluations of a
    # finite chaos sum must reproduce that sum's coefficients exactly
    for space_name, order in (("S1", 4), ("S2", 3)):
        space = ctx.space(space_name)
        name, f = ctx.exponentials(space)[0]
        targets = ((f"exp_{name}", chaos_of_exponential(f, order)),
                   ("random", seeded_chaos_vector(space, order, 900 + order)))
        for target_name, cv in targets:
            def run(_plan, space=space, cv=cv, order=order):
                recovered = recover_chaos_vector(
                    space, lambda c: chaos_reconstruct_counts(space, cv, c),
                    order, order + 2)
                return CasePayload(lhs=recovered.max_abs_difference(cv), rhs=0.0,
                                   tolerance=1e-8)

            ctx.add(f"uniqueness_{space_name}_{target_name}", "chaos-uniqueness", run)
    return ctx.cases
