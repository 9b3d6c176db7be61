"""Per-pattern reference route for the pathwise integrals.

The library evaluates factorial-measure integrals, stochastic integrals
and chaos sums rowwise over count matrices.  This module keeps an
independent route that lists every ordered tuple of distinct point
instances of one pattern and sums the kernel over them, so the tests
can hold the count-matrix route against it pattern by pattern.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from poisson_chaos.errors import ContractViolationError, UnsupportedArityError
from poisson_chaos.patterns import FACTORIAL_ARITY_CAP, PointPattern
from poisson_chaos.space import Kernel, contraction

ARITY_CAP = 4


def distinct_tuples(pattern: PointPattern, m: int) -> np.ndarray:
    """Atom labels of all ordered m-tuples of pairwise distinct points.

    Distinctness is at the level of point instances, so an atom with
    multiplicity c contributes up to c entries to a tuple.
    """
    pts = pattern.point_atoms()
    if m > pts.size:
        return np.empty((0, m), dtype=np.int64)
    tuples = np.array(list(itertools.permutations(range(pts.size), m)), dtype=np.int64)
    return pts[tuples]


def factorial_apply(pattern: PointPattern, f: Kernel) -> float:
    """Sum of f over ordered tuples of pairwise distinct points.

    For the constant kernel this is the falling factorial of the total
    point count; the empty tuple convention makes arity 0 return the
    kernel's scalar unchanged.
    """
    m = f.arity
    if m == 0:
        return float(f.values)
    if m > FACTORIAL_ARITY_CAP:
        raise UnsupportedArityError(f"factorial measure arity capped at {FACTORIAL_ARITY_CAP}")
    if not f.space.same_as(pattern.space):
        raise ContractViolationError("kernel defined on a different space")
    labels = distinct_tuples(pattern, m)
    if labels.shape[0] == 0:
        return 0.0
    return float(f.values[tuple(labels[:, i] for i in range(m))].sum())


def factorial_tensor_power(pattern: PointPattern, values: np.ndarray, k: int) -> float:
    """Factorial-measure integral of a k-fold tensor power of an arity-1 table.

    Ordered distinct tuples of a product kernel reduce to k! times the
    k-th elementary symmetric polynomial of the per-point values, which
    the standard one-row recurrence builds without any arity cap.
    """
    if k == 0:
        return 1.0
    pts = pattern.point_atoms()
    if k > pts.size:
        return 0.0
    x = np.asarray(values, dtype=np.float64)[pts]
    e = np.zeros(k + 1)
    e[0] = 1.0
    for i, xi in enumerate(x):
        for j in range(min(k, i + 1), 0, -1):
            e[j] += xi * e[j - 1]
    return float(e[k] * math.factorial(k))


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


def wiener_ito(state: WiState, g: Kernel) -> float:
    """Order-n integral at the state's pattern: the signed sum over slot
    subsets J of factorial integrals in J and measure integrals outside."""
    n = g.arity
    if n == 0:
        return float(g.values)
    if n > ARITY_CAP:
        raise UnsupportedArityError(f"stochastic integral arity capped at {ARITY_CAP}")
    if not g.space.same_as(state.space):
        raise ContractViolationError("kernel defined on a different space")
    total = 0.0
    for size in range(n + 1):
        for J in itertools.combinations(range(n), size):
            reduced = g.values
            for ax in sorted(set(range(n)) - set(J), reverse=True):
                reduced = np.tensordot(reduced, state.space.weights, axes=([ax], [0]))
            term = (float(reduced) if reduced.ndim == 0
                    else state.factorial(Kernel(state.space, reduced)))
            total += (-1.0) ** (n - size) * term
    return total


def chaos_reconstruct(state: WiState, cv) -> float:
    """Truncated chaos sum: expectation plus the stored integrals."""
    if not cv.space.same_as(state.space):
        raise ContractViolationError("chaos vector on a different space")
    total = cv.coefficients[0]
    for n in range(1, cv.order + 1):
        total += wiener_ito(state, cv.coefficients[n])
    return float(total)


def chaos_finite_sum(state: WiState, v: Kernel) -> float:
    """Sum of 1/k! times the factorial integral of the k-fold tensor power
    of exp(-v) - 1, for k up to the pattern's point count."""
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
    """Double sum of contraction integrals of the product formula."""
    p, q = f.arity, g.arity
    if p + q > ARITY_CAP:
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
