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
from .patterns import (PointPattern, _count_vectors, distinct_tuples,
                       factorial_counts, factorial_tensor_power)
from .space import Kernel, MeasureSpace, contraction

WIENER_ITO_ARITY_CAP = 4


class WiState:
    """Evaluation context for one pattern: caches distinct-tuple tables."""

    def __init__(self, pattern: PointPattern):
        self.pattern = pattern
        self.space = pattern.space
        self._tuples: dict[int, tuple] = {}

    def tuple_index(self, k: int) -> tuple:
        """Index arrays into a rank-k kernel, one row per distinct tuple."""
        if k not in self._tuples:
            labels = distinct_tuples(self.pattern, k)
            self._tuples[k] = tuple(labels[:, i] for i in range(k))
        return self._tuples[k]

    def factorial(self, f: Kernel) -> float:
        """Factorial-measure integral using the cached tuple table."""
        k = f.arity
        if k == 0:
            return float(f.values)
        if self.pattern.total < k:
            return 0.0
        idx = self.tuple_index(k)
        return float(f.values[idx].sum())


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


def wiener_ito(state: WiState, g: Kernel) -> float:
    """Pathwise order-n stochastic integral of g at the state's pattern.

    Order zero returns the scalar itself; the kernel need not be
    symmetric (the value only depends on its symmetrization).
    """
    if g.arity == 0:
        return float(g.values)
    if not g.space.same_as(state.space):
        raise ContractViolationError("kernel defined on a different space")
    total = 0.0
    for sign, reduced in _subset_terms(state.space, g):
        if reduced.ndim == 0:
            total += sign * float(reduced)
        else:
            total += sign * state.factorial(Kernel(state.space, reduced))
    return total


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


def chaos_reconstruct(state: WiState, cv: ChaosVector) -> float:
    """Truncated chaos sum: expectation plus the stored integrals."""
    if not cv.space.same_as(state.space):
        raise ContractViolationError("chaos vector on a different space")
    total = cv.coefficients[0]
    for n in range(1, cv.order + 1):
        total += wiener_ito(state, cv.coefficients[n])
    return float(total)


def chaos_reconstruct_counts(space: MeasureSpace, cv: ChaosVector,
                             counts: np.ndarray) -> np.ndarray:
    out = np.full(counts.shape[0], cv.coefficients[0])
    for n in range(1, cv.order + 1):
        out += wiener_ito_counts(space, cv.coefficients[n], counts)
    return out


def chaos_finite_sum(state: WiState, v: Kernel) -> float:
    """Finite rearrangement of the exponential's chaos series.

    Sums 1/k! times the factorial-measure integral of the k-fold tensor
    power of exp(-v) - 1 for k up to the pattern's point count; equal,
    pattern by pattern, to exp of minus the counting integral of v.
    """
    if v.arity != 1:
        raise ContractViolationError("exponent kernel must have arity 1")
    if np.any(v.values < 0):
        raise ContractViolationError("exponent kernel must be nonnegative")
    base = np.exp(-v.values) - 1.0
    total = 0.0
    for k in range(state.pattern.total + 1):
        total += factorial_tensor_power(state.pattern, base, k) / math.factorial(k)
    return total


def product_formula_rhs(f: Kernel, g: Kernel, state: WiState) -> float:
    """Right-hand side of the product identity for two stochastic integrals.

    Assembles the double sum of contraction integrals whose value must
    match the plain product of the two integrals pathwise.
    """
    p, q = f.arity, g.arity
    if p + q > WIENER_ITO_ARITY_CAP:
        raise UnsupportedArityError("leading product term exceeds the arity cap")
    if not f.is_symmetric() or not g.is_symmetric():
        raise ContractViolationError("product formula requires symmetric kernels")
    total = 0.0
    for r in range(min(p, q) + 1):
        outer = math.factorial(r) * math.comb(p, r) * math.comb(q, r)
        for l in range(r + 1):
            term = contraction(f, g, r, l)
            total += outer * math.comb(r, l) * wiener_ito(state, term)
    return total


def patterns_up_to(space: MeasureSpace, max_total: int):
    """All patterns on the space with at most the given total count, in
    lexicographic order of their counts."""
    for counts in _count_vectors(space.size, max_total):
        yield PointPattern(space, counts)
