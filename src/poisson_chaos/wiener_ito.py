"""Pathwise multiple stochastic integrals against the compensated process.

The order-n integral of a kernel is the signed sum, over subsets of the
argument slots, of factorial-measure integrals in the chosen slots and
measure integrals in the rest.  On a finite discrete space every term
is an exact finite sum, so the integrals are computed exactly pathwise
and identities can be checked on every pattern up to a count cutoff.

Each public count-matrix function checks its count matrix once and
builds one falling-factorial table for it, at the largest arity the
call needs; that table serves every subset term, chaos level and
contraction of the call.  The reduction of a subset continues the
reduction over its largest removed slots, so arity 3 takes 7 tensordots
where reducing each subset from scratch took 12.  The values are bit
for bit those of a fresh table and a fresh reduction per subset term,
because no floating-point operation or its order changes: the table
follows the same recurrence, the slots are integrated out in the same
descending order, a factorial term multiplies the same factors in the
same ascending atom order (``coeff * x`` equals ``full(coeff) * x``),
and terms and levels are added in the same order.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import ContractViolationError, UnsupportedArityError
from .functionals import ChaosVector, Exponential
from .patterns import (PointPattern, _count_matrix, _count_vectors, _factorial_sum,
                       _falling_factorial_table)
from .space import Kernel, MeasureSpace, contraction

WIENER_ITO_ARITY_CAP = 4


def _subset_terms(space: MeasureSpace, g: Kernel):
    """(sign, reduced kernel values) over the subsets J of g's argument slots.

    The reduced values integrate g against the measure in the slots
    outside J; their factorial-measure integral, times the sign
    ``(-1) ** (n - |J|)``, is the term of subset J.  The empty subset
    leaves a scalar, its own integral.  Slots are integrated out largest
    first, and the reduction over the descending slots ``(s1, ..., sk)``
    continues the one over ``(s1, ..., s(k-1))``.
    """
    n = g.arity
    reductions = {(): g.values}

    def reduce(slots: tuple[int, ...]) -> np.ndarray:
        if slots not in reductions:
            values = np.tensordot(reduce(slots[:-1]), space.weights, axes=([slots[-1]], [0]))
            if values.ndim and not np.isfinite(values).all():
                raise ContractViolationError("kernel entries must be finite")
            reductions[slots] = values
        return reductions[slots]

    for size in range(n + 1):
        sign = (-1.0) ** (n - size)
        for J in itertools.combinations(range(n), size):
            yield sign, reduce(tuple(ax for ax in reversed(range(n)) if ax not in J))


def _wiener_ito_sum(space: MeasureSpace, g: Kernel, table: np.ndarray) -> np.ndarray:
    """Rowwise integral of g from a falling-factorial table of order at
    least its arity; nothing is checked."""
    rows = table.shape[2]
    if g.arity == 0:
        return np.full(rows, float(g.values))
    out = np.zeros(rows)
    for sign, reduced in _subset_terms(space, g):
        if reduced.ndim == 0:
            out += sign * float(reduced)
        else:
            out += sign * _factorial_sum(table, reduced)
    return out


def wiener_ito(pattern: PointPattern, g: Kernel) -> float:
    """Pathwise order-n stochastic integral of g at one pattern.

    Order zero returns the scalar itself; the kernel need not be
    symmetric (the value only depends on its symmetrization).
    """
    return float(wiener_ito_counts(pattern.space, g, pattern.counts[None, :])[0])


def wiener_ito_counts(space: MeasureSpace, g: Kernel, counts: np.ndarray) -> np.ndarray:
    """Rowwise pathwise integral over a ``(rows, atoms)`` count matrix of
    non-negative integers on the kernel's space (vectorized)."""
    space.check_same(g.space, "kernel defined on a different space")
    if g.arity > WIENER_ITO_ARITY_CAP:
        raise UnsupportedArityError(f"stochastic integral arity capped at {WIENER_ITO_ARITY_CAP}")
    counts = _count_matrix(counts, space.size)
    return _wiener_ito_sum(space, g, _falling_factorial_table(counts, g.arity))


def chaos_reconstruct(pattern: PointPattern, cv: ChaosVector) -> float:
    """Truncated chaos sum at one pattern: expectation plus the stored integrals."""
    return float(chaos_reconstruct_counts(pattern.space, cv, pattern.counts[None, :])[0])


def chaos_reconstruct_counts(space: MeasureSpace, cv: ChaosVector,
                             counts: np.ndarray) -> np.ndarray:
    """Truncated chaos sum at every row of a ``(rows, atoms)`` count matrix
    of non-negative integers on the chaos vector's space: the expectation
    plus the integrals of levels 1 to the order, added in that order."""
    space.check_same(cv.space, "chaos vector on a different space")
    if cv.order > WIENER_ITO_ARITY_CAP:
        raise UnsupportedArityError(f"stochastic integral arity capped at {WIENER_ITO_ARITY_CAP}")
    counts = _count_matrix(counts, space.size)
    table = _falling_factorial_table(counts, cv.order)
    out = np.full(counts.shape[0], cv.coefficients[0])
    for n in range(1, cv.order + 1):
        out += _wiener_ito_sum(space, cv.coefficients[n], table)
    return out


def chaos_finite_sum(space: MeasureSpace, v: Kernel, counts: np.ndarray) -> np.ndarray:
    """Finite rearrangement of the exponential's chaos series, rowwise.

    Sums 1/k! times the factorial-measure integral of the k-fold tensor
    power of b = exp(-v) - 1 for k up to each row's point count.  That
    term is the k-th elementary symmetric polynomial of the per-point
    values of b, the coefficient of t^k in the product over atoms of
    (1 + b_a t)^(c_a), built by one binomial convolution per atom with
    no arity cap.  The sum equals, row by row, exp of minus the
    counting integral of v.
    """
    base = Exponential(space, v).difference_factor()
    counts = _count_matrix(counts, space.size)
    top = int(counts.sum(axis=1).max(initial=0))
    terms = np.zeros((counts.shape[0], top + 1))
    terms[:, 0] = 1.0
    for a in range(space.size):
        c = counts[:, a].astype(np.float64)
        # binomial(c, j) * b_a ** j, which vanishes for every j above c
        coeff = np.ones(counts.shape[0])
        product = terms.copy()
        for j in range(1, int(counts[:, a].max(initial=0)) + 1):
            coeff = coeff * (c - (j - 1)) / j * base[a]
            product[:, j:] += terms[:, :top + 1 - j] * coeff[:, None]
        terms = product
    return terms.sum(axis=1)


def product_formula_rhs(f: Kernel, g: Kernel, counts: np.ndarray) -> np.ndarray:
    """Right-hand side of the product identity for two stochastic integrals.

    Assembles, for every row of the count matrix, the double sum of
    contraction integrals whose value must match the plain product of
    the two integrals pathwise.
    """
    p, q = f.arity, g.arity
    if p + q > WIENER_ITO_ARITY_CAP:
        raise UnsupportedArityError("leading product term exceeds the arity cap")
    if not f.is_symmetric() or not g.is_symmetric():
        raise ContractViolationError("product formula requires symmetric kernels")
    counts = _count_matrix(counts, f.space.size)
    table = _falling_factorial_table(counts, p + q)
    out = np.zeros(counts.shape[0])
    for r in range(min(p, q) + 1):
        outer = math.factorial(r) * math.comb(p, r) * math.comb(q, r)
        for l in range(r + 1):
            term = contraction(f, g, r, l)
            out += outer * math.comb(r, l) * _wiener_ito_sum(f.space, term, table)
    return out


def patterns_up_to(space: MeasureSpace, max_total: int):
    """All patterns on the space with at most the given total count, in
    lexicographic order of their counts."""
    for counts in _count_vectors(space.size, max_total):
        yield PointPattern(space, counts)
