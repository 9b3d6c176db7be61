"""Suites for the stochastic integrals: isometry, product formulas, and
the chaos expansion (pathwise identity, convergence, uniqueness)."""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..estimation import PoissonEnumeration, mc_expectation
from ..functionals import ChaosVector, Opaque, chaos_of_exponential
from ..space import Kernel, inner_product, symmetrize
from ..wiener_ito import (WiState, chaos_finite_sum, chaos_reconstruct_counts,
                          patterns_up_to, product_formula_rhs, wiener_ito,
                          wiener_ito_counts)
from .base import Case, CasePayload, SuiteContext
from .common import POLY4


def _seeded_kernel(space, arity: int, seed: int, symmetric: bool = False) -> Kernel:
    rng = np.random.default_rng(seed)
    k = Kernel(space, rng.normal(size=(space.size,) * arity))
    return symmetrize(k) if symmetric else k


def build_wi_isometry(ctx: SuiteContext) -> list[Case]:
    cases = []
    # exact enumeration, orders up to two
    for space_name in ("S1", "S2"):
        space = ctx.space(space_name)
        for m, n in ((1, 1), (1, 2), (2, 2)):
            case_id = f"oracle_{space_name}_m{m}_n{n}"

            def run(space=space, m=m, n=n):
                g = _seeded_kernel(space, m, 100 + 7 * m + n)
                h = _seeded_kernel(space, n, 200 + 5 * m + n)
                prod = Opaque(space, counts_fn=lambda c: (
                    wiener_ito_counts(space, g, c) * wiener_ito_counts(space, h, c)))
                budget = ctx.budget(space, growth=POLY4, tol=1e-8)
                lhs = PoissonEnumeration.get(space, budget).expectation_of(prod)
                rhs = (math.factorial(m) * inner_product(space, symmetrize(g), symmetrize(h))
                       if m == n else 0.0)
                return CasePayload(lhs=lhs, rhs=rhs, tolerance=1e-6)

            cases.append(Case(case_id, "wiener-ito-isometry", run))

    # sampled, orders up to three
    space = ctx.space("S2")
    for m, n in ((1, 3), (2, 3), (3, 3)):
        case_id = f"mc_S2_m{m}_n{n}"

        def run(space=space, m=m, n=n, case_id=case_id):
            plan = ctx.plan(case_id)
            g = _seeded_kernel(space, m, 300 + m)
            h = _seeded_kernel(space, n, 400 + n)
            prod = Opaque(space, counts_fn=lambda c: (
                wiener_ito_counts(space, g, c) * wiener_ito_counts(space, h, c)))
            est = mc_expectation(space, prod, plan)
            rhs = (math.factorial(m) * inner_product(space, symmetrize(g), symmetrize(h))
                   if m == n else 0.0)
            return CasePayload(lhs=est, rhs=rhs, replicates=plan.replicates)

        cases.append(Case(case_id, "wiener-ito-isometry", run))

    # centering: sampled means of the integrals vanish
    for space_name, n in (("S2", 1), ("S2", 2), ("S3", 3)):
        space_n = ctx.space(space_name)
        case_id = f"mean_zero_{space_name}_n{n}"

        def run(space=space_n, n=n, case_id=case_id):
            plan = ctx.plan(case_id)
            g = _seeded_kernel(space, n, 500 + n)
            G = Opaque(space, counts_fn=lambda c: wiener_ito_counts(space, g, c))
            est = mc_expectation(space, G, plan)
            return CasePayload(lhs=est, rhs=0.0, replicates=plan.replicates)

        cases.append(Case(case_id, "wiener-ito-mean-zero", run))

    # the integral only sees the symmetrization of its kernel
    for space_name in ("S2", "S3"):
        space_s = ctx.space(space_name)
        case_id = f"symmetrization_{space_name}"

        def run(space=space_s):
            worst = 0.0
            for n in (2, 3):
                g = _seeded_kernel(space, n, 600 + n)
                gs = symmetrize(g)
                for pattern in patterns_up_to(space, 6):
                    state = WiState(pattern)
                    worst = max(worst, abs(wiener_ito(state, g) - wiener_ito(state, gs)))
            return CasePayload(lhs=worst, rhs=0.0, tolerance=1e-10)

        cases.append(Case(case_id, "wiener-ito-isometry", run))
    return cases


def build_product_formula(ctx: SuiteContext) -> list[Case]:
    cases = []
    for space_name in ("S1", "S2", "S3"):
        space = ctx.space(space_name)
        for p, q in ((1, 1), (2, 1), (1, 2), (2, 2)):
            identity = "product-formula-single" if q == 1 else "product-formula-general"
            case_id = f"pathwise_{space_name}_p{p}_q{q}"

            def run(space=space, p=p, q=q):
                f = _seeded_kernel(space, p, 700 + 3 * p + q, symmetric=True)
                g = _seeded_kernel(space, q, 800 + p + 3 * q, symmetric=True)
                worst = 0.0
                for pattern in patterns_up_to(space, 6):
                    state = WiState(pattern)
                    lhs = wiener_ito(state, f) * wiener_ito(state, g)
                    rhs = product_formula_rhs(f, g, state)
                    worst = max(worst, abs(lhs - rhs))
                return CasePayload(lhs=worst, rhs=0.0, tolerance=1e-9)

            cases.append(Case(case_id, identity, run))
    return cases


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

    Reconstruction is linear in the coefficients, so evaluating the
    basis integrals on every pattern up to the count cutoff yields a
    full-rank system whose solution is the coefficient vector.
    """
    basis = symmetric_basis(space, order)
    patterns = list(patterns_up_to(space, max_total))
    design = np.zeros((len(patterns), len(basis)))
    targets = np.zeros(len(patterns))
    for i, pattern in enumerate(patterns):
        state = WiState(pattern)
        targets[i] = target_fn(pattern)
        for j, (level, multiset) in enumerate(basis):
            design[i, j] = 1.0 if level == 0 else wiener_ito(
                state, basis_kernel(space, level, multiset))
    theta, *_ = np.linalg.lstsq(design, targets, rcond=None)
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
    """Enumerated second moment of the reconstruction error per order."""
    enum = PoissonEnumeration.get(space, ctx.budget(space))
    exact = f.evaluate_counts(enum.counts)
    errors = []
    for n in range(order + 1):
        cv = chaos_of_exponential(f, n)
        recon = chaos_reconstruct_counts(space, cv, enum.counts)
        errors.append(enum.expectation_of_values((exact - recon) ** 2))
    return errors


def build_chaos_reconstruction(ctx: SuiteContext) -> list[Case]:
    cases = []
    # pathwise finite-sum identity on every pattern up to eight points
    for space_name in ("S1", "S2", "S3"):
        space = ctx.space(space_name)
        exps = ctx.exponentials(space)
        case_id = f"finite_sum_{space_name}"

        def run(space=space, exps=exps):
            worst = 0.0
            for _, f in exps:
                for pattern in patterns_up_to(space, 8):
                    got = chaos_finite_sum(WiState(pattern), f.v)
                    worst = max(worst, abs(got - f.evaluate(pattern)))
            return CasePayload(lhs=worst, rhs=0.0, tolerance=1e-10)

        cases.append(Case(case_id, "pathwise-chaos-sum", run))

    # truncated reconstruction error is monotone and small at full order
    for space_name in ("S1", "S3"):
        space = ctx.space(space_name)
        for name, f in ctx.exponentials(space, small=True):
            for n in range(1, 5):
                case_id = f"l2_monotone_{name}_n{n}"

                def run(space=space, f=f, n=n):
                    errors = _truncation_errors(ctx, space, f, 4)
                    return CasePayload(lhs=errors[n], rhs=errors[n - 1],
                                       tolerance=1e-12, one_sided=True)

                cases.append(Case(case_id, "chaos-expansion", run))

            case_id = f"l2_terminal_{name}"

            def run(space=space, f=f):
                errors = _truncation_errors(ctx, space, f, 4)
                return CasePayload(lhs=errors[4], rhs=0.0,
                                   tolerance=1e-6, one_sided=True)

            cases.append(Case(case_id, "chaos-expansion", run))

    # uniqueness: coefficients recovered from pattern evaluations of a
    # finite chaos sum must reproduce that sum's coefficients exactly
    for space_name, order in (("S1", 4), ("S2", 3)):
        space = ctx.space(space_name)
        exps = ctx.exponentials(space)
        targets: list[tuple[str, ChaosVector]] = []
        if exps:
            targets.append((f"exp_{exps[0][0]}", chaos_of_exponential(exps[0][1], order)))
        rng = np.random.default_rng(900 + order)
        coeffs: list = [float(rng.normal())]
        for n in range(1, order + 1):
            coeffs.append(symmetrize(Kernel(space, rng.normal(size=(space.size,) * n))))
        targets.append(("random", ChaosVector(space, coeffs)))
        for target_name, cv in targets:
            case_id = f"uniqueness_{space_name}_{target_name}"

            def run(space=space, cv=cv, order=order):
                def target(pattern):
                    return float(chaos_reconstruct_counts(
                        space, cv, pattern.counts[None, :])[0])

                recovered = recover_chaos_vector(space, target, order, order + 2)
                return CasePayload(lhs=recovered.max_abs_difference(cv), rhs=0.0,
                                   tolerance=1e-8)

            cases.append(Case(case_id, "chaos-uniqueness", run))
    return cases
