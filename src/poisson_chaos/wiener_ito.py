"""Pathwise multiple stochastic integrals against the compensated process.

The order-n integral of a kernel is the signed sum, over subsets of the
argument slots, of factorial-measure integrals in the chosen slots and
measure integrals in the rest.  On a finite discrete space every term
is an exact finite sum, so the integrals are computed exactly pathwise
and identities can be checked on every pattern up to a count cutoff.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import ContractViolationError, UnsupportedArityError
from .functionals import ChaosVector
from .patterns import PointPattern, _count_vectors, factorial_counts
from .space import Kernel, MeasureSpace, contraction

WIENER_ITO_ARITY_CAP = 4


def _integrate_axes(space: MeasureSpace, values: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    for ax in sorted(axes, reverse=True):
        values = np.tensordot(values, space.weights, axes=([ax], [0]))
    return values


def _subset_terms(space: MeasureSpace, g: Kernel):
    """(sign, reduced kernel values) over the subsets J of g's argument slots.

    The reduced values integrate g against the measure in the slots
    outside J; their factorial-measure integral, times the sign
    ``(-1) ** (n - |J|)``, is the term of subset J.  The empty subset
    leaves a scalar, its own integral.
    """
    n = g.arity
    if n > WIENER_ITO_ARITY_CAP:
        raise UnsupportedArityError(f"stochastic integral arity capped at {WIENER_ITO_ARITY_CAP}")
    for size in range(n + 1):
        sign = (-1.0) ** (n - size)
        for J in itertools.combinations(range(n), size):
            comp = tuple(ax for ax in range(n) if ax not in J)
            yield sign, _integrate_axes(space, g.values, comp)


def wiener_ito(pattern: PointPattern, g: Kernel) -> float:
    """Pathwise order-n stochastic integral of g at one pattern.

    Order zero returns the scalar itself; the kernel need not be
    symmetric (the value only depends on its symmetrization).
    """
    if not g.space.same_as(pattern.space):
        raise ContractViolationError("kernel defined on a different space")
    return float(wiener_ito_counts(pattern.space, g, pattern.counts[None, :])[0])


def wiener_ito_counts(space: MeasureSpace, g: Kernel, counts: np.ndarray) -> np.ndarray:
    """Rowwise pathwise integral over a count matrix (vectorized)."""
    if g.arity == 0:
        return np.full(counts.shape[0], float(g.values))
    out = np.zeros(counts.shape[0])
    for sign, reduced in _subset_terms(space, g):
        if reduced.ndim == 0:
            out += sign * float(reduced)
        else:
            out += sign * factorial_counts(counts, Kernel(space, reduced))
    return out


def chaos_reconstruct(pattern: PointPattern, cv: ChaosVector) -> float:
    """Truncated chaos sum at one pattern: expectation plus the stored integrals."""
    if not cv.space.same_as(pattern.space):
        raise ContractViolationError("chaos vector on a different space")
    return float(chaos_reconstruct_counts(cv.space, cv, pattern.counts[None, :])[0])


def chaos_reconstruct_counts(space: MeasureSpace, cv: ChaosVector,
                             counts: np.ndarray) -> np.ndarray:
    out = np.full(counts.shape[0], cv.coefficients[0])
    for n in range(1, cv.order + 1):
        out += wiener_ito_counts(space, cv.coefficients[n], counts)
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
    if v.arity != 1:
        raise ContractViolationError("exponent kernel must have arity 1")
    if np.any(v.values < 0):
        raise ContractViolationError("exponent kernel must be nonnegative")
    base = np.exp(-v.values) - 1.0
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
    out = np.zeros(counts.shape[0])
    for r in range(min(p, q) + 1):
        outer = math.factorial(r) * math.comb(p, r) * math.comb(q, r)
        for l in range(r + 1):
            term = contraction(f, g, r, l)
            out += outer * math.comb(r, l) * wiener_ito_counts(f.space, term, counts)
    return out


def patterns_up_to(space: MeasureSpace, max_total: int):
    """All patterns on the space with at most the given total count, in
    lexicographic order of their counts."""
    for counts in _count_vectors(space.size, max_total):
        yield PointPattern(space, counts)
