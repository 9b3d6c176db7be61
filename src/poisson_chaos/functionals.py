"""Functionals of point patterns and their chaos-level descriptions.

The structured variants (exponential family, polynomials in the counts)
carry closed forms for means, difference operators and chaos
coefficients, so every sampled or enumerated estimate in the test
suites can be held against an independent exact value.  In the
exponential family a sum or scalar multiple is a :class:`LinearCombo`
and a product of exponentials is an :class:`Exponential`.  Arbitrary
callables are supported through :class:`Opaque` but only get the
sampled treatment.

All functionals evaluate both on a single pattern and, vectorized, on a
``(replicates, atoms)`` count matrix; the vectorized path is what keeps
the Monte Carlo engine fast.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import ContractViolationError, EvaluationError, UnsupportedArityError
from .patterns import (PointPattern, _count_matrix, lattice_shell, shell_size,
                       successor_maps)
from .space import Kernel, MeasureSpace, symmetrize, tensor_power

ITERATED_DIFFERENCE_CAP = 6
CHAOS_ORDER_CAP = 4


# ---------------------------------------------------------------------------
# combinatorial helpers


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Number of partitions of an n-set into k blocks."""
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def poisson_raw_moment(mean: float, m: int) -> float:
    """E[X^m] for X Poisson(mean), via the Stirling expansion."""
    return float(sum(stirling2(m, k) * mean**k for k in range(m + 1)))


@lru_cache(maxsize=None)
def falling_factorial_coeffs(k: int) -> tuple[float, ...]:
    """Coefficients of n(n-1)...(n-k+1) in the power basis 1, n, n^2, ..."""
    coeffs = np.array([1.0])
    for j in range(k):
        shifted = np.concatenate([[0.0], coeffs])
        coeffs = shifted - j * np.concatenate([coeffs, [0.0]])
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# functional variants


class Functional:
    """A map from point patterns on a fixed space to reals."""

    def __init__(self, space: MeasureSpace):
        self.space = space

    def evaluate_counts(self, counts: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on a (replicates, atoms) count matrix."""
        raise NotImplementedError

    def evaluate(self, pattern: PointPattern) -> float:
        self.space.check_same(pattern.space, "pattern lives on a different space")
        value = float(self.evaluate_counts(pattern.counts[None, :])[0])
        if not math.isfinite(value):
            raise EvaluationError(f"functional evaluated to {value!r}")
        return value

    def closed_form_mean(self) -> float | None:
        """Exact expectation under the Poisson law, when one is known."""
        return None

    def shifted_by_point(self, atom_index: int) -> "Functional":
        """The functional of the pattern with one extra point at the atom."""
        shift = np.zeros(self.space.size, dtype=np.int64)
        shift[self.space.atom_index(atom_index)] = 1
        return Opaque(self.space,
                      counts_fn=lambda c, s=shift, f=self: f.evaluate_counts(c + s))

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        other = _coerce(self.space, other)
        return Opaque(self.space, counts_fn=lambda c, a=self, b=other:
                      a.evaluate_counts(c) + b.evaluate_counts(c))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1.0) * _coerce(self.space, other)

    def __rsub__(self, other):
        return _coerce(self.space, other) + (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Opaque(self.space, counts_fn=lambda c, a=self, k=float(other):
                          k * a.evaluate_counts(c))
        other = _coerce(self.space, other)
        return Opaque(self.space, counts_fn=lambda c, a=self, b=other:
                      a.evaluate_counts(c) * b.evaluate_counts(c))

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)


def _coerce(space: MeasureSpace, value) -> Functional:
    if isinstance(value, Functional):
        space.check_same(value.space, "functional defined on a different space")
        return value
    if isinstance(value, (int, float)):
        return CountPolynomial(space, [(float(value), (0,) * space.size)])
    raise TypeError(f"cannot combine a functional with {type(value)!r}")


class LinearCombo(Functional):
    """Finite linear combination of exponentials, closed under sums,
    scalar multiples and (termwise) products; each rule is written here
    once, and :class:`Exponential` is the one-term member."""

    def __init__(self, space: MeasureSpace, terms: Sequence[tuple[float, Exponential]]):
        super().__init__(space)
        cleaned = []
        for coef, e in terms:
            if not isinstance(e, Exponential) or not e.space.same_as(space):
                raise ContractViolationError("terms must be exponentials on the space")
            if not math.isfinite(coef):
                raise ContractViolationError("coefficients must be finite")
            cleaned.append((float(coef), e))
        self._terms = tuple(cleaned)

    def terms(self) -> tuple[tuple[float, Exponential], ...]:
        return self._terms

    def evaluate_counts(self, counts: np.ndarray) -> np.ndarray:
        out = np.zeros(counts.shape[0])
        for coef, e in self._terms:
            out += coef * e.evaluate_counts(counts)
        return out

    def closed_form_mean(self) -> float:
        return float(sum(coef * e.closed_form_mean() for coef, e in self._terms))

    def __add__(self, other):
        # a sum across spaces falls through to the space check
        if isinstance(other, LinearCombo) and other.space.same_as(self.space):
            return LinearCombo(self.space, [*self.terms(), *other.terms()])
        if isinstance(other, (int, float)):
            return LinearCombo(self.space,
                               [*self.terms(), (float(other), Exponential.one(self.space))])
        return super().__add__(other)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return LinearCombo(self.space, [(c * float(other), e) for c, e in self.terms()])
        # a product across spaces falls through to the space check
        if isinstance(other, LinearCombo) and other.space.same_as(self.space):
            return LinearCombo(self.space, [(c1 * c2, e1 * e2)
                                            for c1, e1 in self.terms()
                                            for c2, e2 in other.terms()])
        return super().__mul__(other)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"LinearCombo({len(self._terms)} terms)"


class Exponential(LinearCombo):
    """exp(-chi(v)) for a nonnegative arity-1 kernel v: the one-term
    :class:`LinearCombo`, and a product of two on one space is one."""

    def __init__(self, space: MeasureSpace, v: Kernel | Sequence[float]):
        Functional.__init__(self, space)  # no term tuple: terms() names self
        if not isinstance(v, Kernel):
            v = Kernel(space, v)
        space.check_same(v.space, "kernel defined on a different space")
        if v.arity != 1:
            raise ContractViolationError("exponent kernel must have arity 1")
        if np.any(v.values < 0):
            raise ContractViolationError("exponent kernel must be nonnegative")
        self.v = v

    def terms(self) -> tuple[tuple[float, Exponential], ...]:
        return ((1.0, self),)

    def evaluate_counts(self, counts: np.ndarray) -> np.ndarray:
        return np.exp(-(counts @ self.v.values))

    def closed_form_mean(self) -> float:
        w = self.space.weights
        return float(np.exp(-np.sum(w * (1.0 - np.exp(-self.v.values)))))

    def difference_factor(self) -> np.ndarray:
        """Per-atom multiplier picked up by one added point: exp(-v) - 1."""
        return np.exp(-self.v.values) - 1.0

    def __mul__(self, other):
        if isinstance(other, Exponential) and other.space.same_as(self.space):
            return Exponential(self.space, self.v + other.v)
        return super().__mul__(other)

    __rmul__ = __mul__

    @staticmethod
    def one(space: MeasureSpace) -> "Exponential":
        return Exponential(space, Kernel.constant(space, 1, 0.0))

    def __repr__(self) -> str:
        return f"Exponential(v={self.v.values.tolist()})"


class CountPolynomial(Functional):
    """Polynomial in the per-atom counts.

    Terms are (coefficient, exponent-per-atom) pairs; the family is
    closed under sums, products and one-point shifts, and its Poisson
    moments are exact through the Stirling expansion.
    """

    def __init__(self, space: MeasureSpace, terms):
        super().__init__(space)
        merged: dict[tuple[int, ...], float] = {}
        if isinstance(terms, dict):
            pairs = [(c, e) for e, c in terms.items()]
        else:
            pairs = [(c, e) for c, e in terms]
        for coef, exps in pairs:
            exps = tuple(int(x) for x in exps)
            if len(exps) != space.size or any(x < 0 for x in exps):
                raise ContractViolationError("bad exponent vector")
            if not math.isfinite(coef):
                raise ContractViolationError("coefficients must be finite")
            merged[exps] = merged.get(exps, 0.0) + float(coef)
        self._terms = {e: c for e, c in merged.items() if c != 0.0}

    @staticmethod
    def total_count(space: MeasureSpace) -> "CountPolynomial":
        terms = []
        for j in range(space.size):
            e = [0] * space.size
            e[j] = 1
            terms.append((1.0, tuple(e)))
        return CountPolynomial(space, terms)

    @staticmethod
    def atom_count(space: MeasureSpace, atom_index: int) -> "CountPolynomial":
        e = [0] * space.size
        e[space.atom_index(atom_index)] = 1
        return CountPolynomial(space, [(1.0, tuple(e))])

    def term_items(self):
        return self._terms.items()

    def degree(self) -> int:
        return max((sum(e) for e in self._terms), default=0)

    def evaluate_counts(self, counts: np.ndarray) -> np.ndarray:
        out = np.zeros(counts.shape[0])
        c = counts.astype(np.float64)
        for exps, coef in self._terms.items():
            term = np.full(counts.shape[0], coef)
            for j, e in enumerate(exps):
                if e:
                    term = term * c[:, j] ** e
            out += term
        return out

    def closed_form_mean(self) -> float:
        total = 0.0
        for exps, coef in self._terms.items():
            prod = coef
            for j, e in enumerate(exps):
                if e:
                    prod *= poisson_raw_moment(float(self.space.weights[j]), e)
            total += prod
        return float(total)

    def shifted_by_point(self, atom_index: int) -> "CountPolynomial":
        atom_index = self.space.atom_index(atom_index)
        out: list[tuple[float, tuple[int, ...]]] = []
        for exps, coef in self._terms.items():
            e = exps[atom_index]
            if e == 0:
                out.append((coef, exps))
                continue
            for i in range(e + 1):
                new = list(exps)
                new[atom_index] = i
                out.append((coef * math.comb(e, i), tuple(new)))
        return CountPolynomial(self.space, out)

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = _coerce(self.space, other)
        if isinstance(other, CountPolynomial):
            self.space.check_same(other.space, "functional defined on a different space")
            return CountPolynomial(self.space,
                                   [(c, e) for e, c in self._terms.items()]
                                   + [(c, e) for e, c in other._terms.items()])
        return super().__add__(other)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return CountPolynomial(self.space,
                                   [(c * float(other), e) for e, c in self._terms.items()])
        if isinstance(other, CountPolynomial):
            self.space.check_same(other.space, "functional defined on a different space")
            prod = []
            for e1, c1 in self._terms.items():
                for e2, c2 in other._terms.items():
                    prod.append((c1 * c2, tuple(a + b for a, b in zip(e1, e2))))
            return CountPolynomial(self.space, prod)
        return super().__mul__(other)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"CountPolynomial({len(self._terms)} terms, degree {self.degree()})"


class Opaque(Functional):
    """Arbitrary callable functional; library-only, never serialized."""

    def __init__(self, space: MeasureSpace,
                 fn: Callable[[PointPattern], float] | None = None,
                 counts_fn: Callable[[np.ndarray], np.ndarray] | None = None):
        super().__init__(space)
        if fn is None and counts_fn is None:
            raise ContractViolationError("an evaluation callback is required")
        self._fn = fn
        self._counts_fn = counts_fn

    def evaluate_counts(self, counts: np.ndarray) -> np.ndarray:
        if self._counts_fn is not None:
            return np.asarray(self._counts_fn(counts), dtype=np.float64)
        return np.array([self._fn(PointPattern(self.space, row)) for row in counts])


# ---------------------------------------------------------------------------
# difference operators


def difference(F: Functional, atom_index: int, pattern: PointPattern) -> float:
    """One-point increment: F with the point added minus F as is."""
    plus = pattern.add_point(atom_index)
    return F.evaluate(plus) - F.evaluate(pattern)


def difference_counts(F: Functional, atom_index: int, counts: np.ndarray,
                      base: np.ndarray | None = None) -> np.ndarray:
    """Rowwise one-point difference; ``base`` is ``F(counts)`` if known."""
    counts = _count_matrix(counts, F.space.size)
    shift = np.zeros(counts.shape[1], dtype=np.int64)
    shift[F.space.atom_index(atom_index)] = 1
    plus = F.evaluate_counts(counts + shift)
    if base is None:
        base = F.evaluate_counts(counts)
    return plus - base


def difference_rows(F: Functional, counts: np.ndarray) -> np.ndarray:
    """One-point differences at every atom: column x is
    ``difference_counts(F, x, counts)``, with F(counts) evaluated once."""
    counts = _count_matrix(counts, F.space.size)
    base = F.evaluate_counts(counts)
    return np.stack([difference_counts(F, x, counts, base)
                     for x in range(counts.shape[1])], axis=1)


def iterated_difference(F: Functional, atom_indices: Sequence[int],
                        pattern: PointPattern) -> float:
    """n-th order add-point difference via the signed subset sum."""
    return float(iterated_difference_counts(F, atom_indices, pattern.counts[None, :])[0])


def iterated_difference_counts(F: Functional, atom_indices: Sequence[int],
                               counts: np.ndarray) -> np.ndarray:
    counts = _count_matrix(counts, F.space.size)
    n = len(atom_indices)
    if n == 0:
        return F.evaluate_counts(counts)
    if n > ITERATED_DIFFERENCE_CAP:
        raise UnsupportedArityError(
            f"iterated difference order capped at {ITERATED_DIFFERENCE_CAP}")
    atoms = [F.space.atom_index(x) for x in atom_indices]
    out = np.zeros(counts.shape[0])
    d = counts.shape[1]
    for bits in itertools.product((0, 1), repeat=n):
        shift = np.zeros(d, dtype=np.int64)
        for j, bit in enumerate(bits):
            if bit:
                shift[atoms[j]] += 1
        sign = (-1.0) ** (n - sum(bits))
        out += sign * F.evaluate_counts(counts + shift)
    return out


# ---------------------------------------------------------------------------
# chaos vectors


class ChaosVector:
    """Truncated sequence of symmetric kernels describing a functional.

    Entry 0 is the expectation; entry n is the order-n coefficient
    kernel, already carrying its 1/n! normalization, so reconstruction
    is a plain sum of stochastic integrals of the stored kernels.
    """

    def __init__(self, space: MeasureSpace, coefficients: Sequence, tol: float = 1e-12):
        self.space = space
        coeffs: list = [float(coefficients[0]) if not isinstance(coefficients[0], Kernel)
                        else float(coefficients[0].values)]
        for n, k in enumerate(coefficients[1:], start=1):
            if not isinstance(k, Kernel):
                k = Kernel(space, k)
            if k.arity != n:
                raise ContractViolationError(f"coefficient {n} must have arity {n}")
            space.check_same(k.space, "coefficient on a different space")
            if n >= 2 and np.max(np.abs(k.values - symmetrize(k).values)) > tol:
                raise ContractViolationError(f"coefficient {n} is not symmetric")
            coeffs.append(k)
        self.coefficients = tuple(coeffs)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, n: int) -> Kernel | float:
        if n == 0:
            return self.coefficients[0]
        if n <= self.order:
            return self.coefficients[n]
        return Kernel.constant(self.space, n, 0.0)

    def map_levels(self, factor: Callable[[int], float]) -> "ChaosVector":
        out = [self.coefficients[0] * factor(0)]
        for n in range(1, self.order + 1):
            out.append(self.coefficients[n] * factor(n))
        return ChaosVector(self.space, out)

    def __add__(self, other: "ChaosVector") -> "ChaosVector":
        self.space.check_same(other.space, "chaos vectors live on different spaces")
        order = max(self.order, other.order)
        out = [self.coefficients[0] + other.coefficients[0]]
        for n in range(1, order + 1):
            a, b = self.coefficient(n), other.coefficient(n)
            out.append(a + b)
        return ChaosVector(self.space, out)

    def __mul__(self, c: float) -> "ChaosVector":
        return self.map_levels(lambda n: float(c))

    __rmul__ = __mul__

    def allclose(self, other: "ChaosVector", tol: float = 1e-12) -> bool:
        return self.max_abs_difference(other) <= tol

    def max_abs_difference(self, other: "ChaosVector") -> float:
        self.space.check_same(other.space, "chaos vectors live on different spaces")
        worst = abs(self.coefficients[0] - other.coefficients[0])
        for n in range(1, max(self.order, other.order) + 1):
            a, b = self.coefficient(n), other.coefficient(n)
            worst = max(worst, float(np.max(np.abs(a.values - b.values))))
        return worst


def chaos_of_exponential(F: LinearCombo, order: int) -> ChaosVector:
    """Exact chaos coefficients of an exponential-family functional.

    Level n is mean * (exp(-v) - 1) tensored n times over n factorial;
    linear combinations add coefficientwise.
    """
    if order > CHAOS_ORDER_CAP:
        raise UnsupportedArityError(f"chaos order capped at {CHAOS_ORDER_CAP}")
    space = F.space
    total = [0.0] + [Kernel.constant(space, n, 0.0) for n in range(1, order + 1)]
    for coef, e in F.terms():
        f0 = e.closed_form_mean()
        base = Kernel(space, e.difference_factor())
        total[0] += coef * f0
        for n in range(1, order + 1):
            total[n] = total[n] + tensor_power(base, n) * (coef * f0 / math.factorial(n))
    return ChaosVector(space, total)


class KernelEstimate:
    """A kernel of Monte Carlo means with per-entry standard errors."""

    def __init__(self, values: Kernel, se: Kernel, replicates: int):
        self.values = values
        self.se = se
        self.replicates = replicates


def t_coefficient_mc(F: Functional, n: int, plan) -> KernelEstimate:
    """Monte Carlo estimate of the order-n difference-moment kernel.

    Entry (x1..xn) is the replicate average of the order-n difference
    of F at those atoms; the patterns of a batch are drawn once and
    serve all entries (common random numbers).  Order zero estimates
    the mean.
    """
    from .estimation import mc_estimates, sample_poisson_counts

    if n > CHAOS_ORDER_CAP:
        raise UnsupportedArityError(f"difference-moment order capped at {CHAOS_ORDER_CAP}")
    space = F.space
    d = space.size
    tuples = list(itertools.product(range(d), repeat=n))

    def batch(streams, _start):
        counts = sample_poisson_counts(space, plan.seed, streams)
        return np.stack([iterated_difference_counts(F, tup, counts) for tup in tuples])

    estimates = mc_estimates(plan, batch, len(tuples))
    shape = (d,) * n
    means = np.array([est.mean for est in estimates]).reshape(shape)
    ses = np.array([est.se for est in estimates]).reshape(shape)
    return KernelEstimate(Kernel(space, means), Kernel(space, ses), plan.replicates)


def chaos_by_enumeration(F: Functional, order: int, budget) -> ChaosVector:
    """Chaos coefficients from exact enumeration of the difference moments.

    Level n entry at an atom tuple is the enumerated expectation of the
    order-n difference of F there, divided by n factorial.  Exact (up to
    the enumeration tail) for any functional the budget covers.

    Difference operators commute, so each level is a symmetric kernel:
    it is summed once per permutation orbit, at the orbit's
    non-decreasing tuple ``x1 <= ... <= xn``, and that value is written
    to every reordering, which makes each level exactly symmetric.  On
    ``d`` atoms that is ``comb(d + n - 1, n)`` sums instead of ``d^n``.

    Every shifted row ``c + s`` of an order-n difference is itself a
    count vector of total at most ``max_total + n``, so F is evaluated
    only twice: once on the enumeration (which also gives level 0) and
    once on the shell of count vectors with totals ``max_total + 1``
    to ``max_total + order``.  Each term of the signed subset sum is
    then a gather through the per-atom successor maps that the shift
    rule of :mod:`.patterns` gives (:func:`~.patterns.successor_maps`).

    The sums follow ``D^n_{x1..xn} = D_{x1} D^{n-1}_{x2..xn}``: tuples
    are walked depth first over their suffixes, and each order-(n-1)
    sum is continued into the order-n sums of every ``x1``.  In the
    ``itertools.product((0, 1), repeat=n)`` order of
    :func:`iterated_difference_counts` the first half of the subsets
    leaves out ``x1``; they are the subsets of ``(x2..xn)`` in their
    own order, with every sign flipped.  Rounding to nearest is
    symmetric under negation and a running sum started at +0.0 is never
    -0.0, so the first half sums to ``0.0 - D`` bit for bit, D being
    the order-(n-1) sum of the suffix (``0.0 - D`` is +0.0 where D is
    zero, as the direct sum is).  The second half adds the same subsets
    shifted by ``e_{x1}``, in the same order and with the signs they
    have at order n-1, as gathers at the successors of the suffix's
    subset positions.  The suffix of a non-decreasing tuple is one too,
    so the walk visits only those.  Each coefficient therefore equals
    :func:`iterated_difference_counts` at its non-decreasing tuple bit
    for bit, provided a row's value does not depend on which multi-row
    matrix holds it; at another reordering the direct sum adds the same
    terms in another order, and may differ from it in the last bits.  A
    one-row matrix takes another floating-point route, so a one-row
    enumeration, or a shell larger than the enumeration state cap, goes
    through :func:`iterated_difference_counts` at each non-decreasing
    tuple instead, with the same orbit fill.
    """
    from .estimation import ENUMERATION_STATE_CAP, PoissonEnumeration

    if order > CHAOS_ORDER_CAP:
        raise UnsupportedArityError(f"chaos order capped at {CHAOS_ORDER_CAP}")
    space = F.space
    d = space.size
    cap = budget.max_total
    enum = PoissonEnumeration.get(space, budget)
    base = F.evaluate_counts(enum.counts)
    coeffs: list = [float(enum.expectation_of_values(base))]
    if order == 0:
        return ChaosVector(space, coeffs)
    if len(enum.counts) < 2 or shell_size(d, cap, order) > ENUMERATION_STATE_CAP:
        for n in range(1, order + 1):
            vals = np.zeros((d,) * n)
            for tup in itertools.combinations_with_replacement(range(d), n):
                diff = iterated_difference_counts(F, tup, enum.counts)
                vals[_orbit(tup)] = enum.expectation_of_values(diff) / math.factorial(n)
            coeffs.append(Kernel(space, vals))
        return ChaosVector(space, coeffs)
    shell = lattice_shell(d, cap, order)
    if len(shell) == 1:
        # keep the single shell row in a multi-row batch
        shell_values = F.evaluate_counts(np.repeat(shell, 2, axis=0))[:1]
    else:
        shell_values = F.evaluate_counts(shell)
    values = np.concatenate([base, shell_values])
    del base, shell_values
    succ = successor_maps(enum.counts, shell, cap, order)
    del shell
    for kernel in _enumerated_levels(enum, values, succ, order):
        coeffs.append(Kernel(space, kernel))
    return ChaosVector(space, coeffs)


def _enumerated_levels(enum, values: np.ndarray, succ: np.ndarray,
                       order: int) -> list[np.ndarray]:
    """Levels 1 to ``order`` of :func:`chaos_by_enumeration` from lattice
    values, by the suffix recursion its docstring describes, over the
    non-decreasing tuples of :func:`_suffix_preorder`; each sum is
    written to every entry of its tuple's orbit.

    One running sum per depth is live: ``sums[k]`` holds the order-k+1
    sum of the tuple last visited at that depth, and ``positions[k]`` the
    row positions of ``c + shift`` for each subset of its suffix, in
    product order, ``None`` standing for the unshifted rows.  A term with
    sign -1 is subtracted (``out -= v`` is ``out += -1.0 * v`` bit for
    bit).

    The deepest level composes no positions: it gathers the values once
    at ``succ[x1]`` into one pre-shifted row, ``moved[i] = values[succ[x1,
    i]]``, and reads each term from it, ``moved[:n_rows]`` for the
    unshifted rows and ``moved.take(pos)`` for the others.  That is
    ``2^(n-1)`` gathers per order-n tuple instead of ``2^n - 1``, with
    the same values summed in the same order.  The row is one float per
    map entry, reused by every deepest tuple.
    """
    n_rows = len(enum.counts)
    kernels = [np.zeros((succ.shape[0],) * n) for n in range(1, order + 1)]
    sums = [np.empty(n_rows) for _ in range(order)]
    term = np.empty(n_rows)
    moved = np.empty(succ.shape[1])
    positions: list = [[None]] + [None] * (order - 1)
    for tup in _suffix_preorder(succ.shape[0], order):
        k = len(tup) - 1
        out = sums[k]
        step = succ[tup[0]]
        deepest = k + 1 == order
        np.subtract(0.0, values[:n_rows] if k == 0 else sums[k - 1], out=out)
        if deepest:
            np.take(values, step, out=moved, mode="clip")
        else:
            # free the previous tuple's subset positions before taking new ones
            positions[k + 1] = None
        shifted = []
        for i, pos in enumerate(positions[k]):
            if deepest:
                v = moved[:n_rows] if pos is None else np.take(moved, pos, out=term, mode="clip")
            else:
                rows = step[:n_rows] if pos is None else step.take(pos)
                shifted.append(rows)
                v = np.take(values, rows, out=term, mode="clip")
            minus = (k - bin(i).count("1")) % 2 == 1
            (np.subtract if minus else np.add)(out, v, out=out)
        kernels[k][_orbit(tup)] = enum.expectation_of_values(out) / math.factorial(k + 1)
        if not deepest:
            positions[k + 1] = positions[k] + shifted
    return kernels


def _suffix_preorder(d: int, order: int, suffix: tuple[int, ...] = ()):
    """Every non-decreasing atom tuple of length at most ``order`` that
    ends in ``suffix``, in pre-order: each comes after its tail
    ``tup[1:]``, with no other tuple of the tail's length in between.
    The tail of a non-decreasing tuple is one too, so the walk stays on
    them by prepending only atoms ``x <= suffix[0]``."""
    for x in range(suffix[0] + 1 if suffix else d):
        tup = (x,) + suffix
        yield tup
        if len(tup) < order:
            yield from _suffix_preorder(d, order, tup)


def _orbit(tup: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Index arrays of every reordering of ``tup``: the entries that a
    symmetric kernel shares with it."""
    return tuple(np.array(sorted(set(itertools.permutations(tup)))).T)
