"""The two expectation engines and the statistical comparison policy.

``oracle_expectation`` enumerates the truncated Poisson law exactly and
carries a certified tail bound; ``mc_expectation`` averages seeded
replicates and reports a standard error.  The suite runner judges every
case with :func:`compare`: two-sided against the policy threshold,
two-sided against a fixed tolerance, or one-sided for inequalities.

Determinism contract: replicate i draws from stream ``base + i``, and
:func:`mc_batches`, the one replicate loop, returns the batches in fixed
order, so estimates are bit-identical across runs and worker counts.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BudgetError, ContractViolationError, EvaluationError
from .functionals import difference_rows
from .patterns import (COUNT_TABLE_CELL_CAP, CountBox, _count_vectors, largest_counts,
                       poisson_law, sample_poisson_counts)
from .space import MeasureSpace

BATCH_SIZE = 1 << 15

THREAD_ENV_VAR = "POISSON_CHAOS_THREADS"

ENUMERATION_STATE_CAP = 2_000_000
# enumerations kept by PoissonEnumeration.get, least recently used evicted
ENUMERATION_CACHE_SIZE = 32
# states per dot product of PoissonEnumeration.expectation_of_values: under
# the 10,000 terms above which a BLAS dot may split across threads
ENUMERATION_DOT_BLOCK = 8192


def worker_count() -> int:
    """Worker cap from the environment; affects speed only, never results."""
    raw = os.environ.get(THREAD_ENV_VAR, "")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n <= 0:
        n = min(4, os.cpu_count() or 1)
    return max(1, n)


# ---------------------------------------------------------------------------
# Monte Carlo


@dataclass(frozen=True)
class McPlan:
    """Replicate count plus the stream coordinates that seed them."""

    replicates: int
    seed: int
    stream_base: int = 0

    def __post_init__(self):
        n, base = self.replicates, self.stream_base
        if isinstance(n, (bool, np.bool_)) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ContractViolationError(f"replicates must be an integer >= 1, got {n!r}")
        # a stream past 2**64 - 1 would wrap onto another plan's
        if (isinstance(base, (bool, np.bool_)) or not isinstance(base, (int, np.integer))
                or not 0 <= int(base) <= (1 << 64) - int(n)):
            raise ContractViolationError("stream_base must be an integer in "
                                         f"[0, 2**64 - replicates], got {base!r}")
        # Python ints: stream arithmetic on a NumPy integer wraps near its top
        object.__setattr__(self, "replicates", int(n))
        object.__setattr__(self, "stream_base", int(base))


@dataclass(frozen=True)
class Estimate:
    """Sample mean with its standard error."""

    mean: float
    se: float
    replicates: int


def _batch_ranges(n: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + BATCH_SIZE, n)) for lo in range(0, n, BATCH_SIZE)]


def mc_batches(plan: McPlan, batch_values: Callable[[np.ndarray, int], np.ndarray],
               shape: tuple[int, ...] = ()) -> list[np.ndarray]:
    """Values of ``batch_values(streams, start)`` for every replicate batch.

    The callable receives the stream indices of one replicate batch and
    must return an array of ``shape + (len(streams),)``: the replicate
    axis comes last.  Batch boundaries are fixed and the batches are
    returned in order, whatever the worker count; a non-finite value
    raises :class:`EvaluationError` naming the first such replicate.
    """
    ranges = _batch_ranges(plan.replicates)

    def run(rng: tuple[int, int]) -> np.ndarray:
        lo, hi = rng
        streams = np.arange(plan.stream_base + lo, plan.stream_base + hi,
                            dtype=np.uint64)
        vals = np.asarray(batch_values(streams, lo), dtype=np.float64)
        if vals.shape != shape + (hi - lo,):
            raise RuntimeError("batch evaluator returned a wrong shape")
        return vals

    workers = worker_count()
    if workers > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(run, ranges))
    else:
        batches = [run(r) for r in ranges]

    for (lo, hi), vals in zip(ranges, batches):
        bad = np.flatnonzero(~np.isfinite(vals).reshape(-1, hi - lo).all(axis=0))
        if bad.size:
            raise EvaluationError(f"non-finite value at replicate {lo + int(bad[0])}")
    return batches


def mc_estimate(plan: McPlan,
                batch_values: Callable[[np.ndarray, int], np.ndarray]) -> Estimate:
    """Average ``batch_values(streams, start)`` over all replicates.

    The callable returns one value per stream of its batch; see
    :func:`mc_batches`.
    """
    return _estimate(mc_batches(plan, batch_values), plan.replicates)


def mc_estimates(plan: McPlan, batch_values: Callable[[np.ndarray, int], np.ndarray],
                 count: int) -> list[Estimate]:
    """Averages of the ``count`` rows ``batch_values(streams, start)``
    returns for every batch.

    Each estimate equals the :func:`mc_estimate` of its row alone bit for
    bit; see :func:`mc_batches`.
    """
    batches = mc_batches(plan, batch_values, shape=(count,))
    return [_estimate([vals[i] for vals in batches], plan.replicates) for i in range(count)]


def _estimate(batches: list[np.ndarray], n: int) -> Estimate:
    """Mean and standard error of ``n`` replicates given batch by batch."""
    total = 0.0
    lowest, highest = math.inf, -math.inf
    for vals in batches:
        total += float(np.sum(vals))
        lowest = min(lowest, float(vals.min()))
        highest = max(highest, float(vals.max()))
    mean = total / n
    if lowest == highest:
        return Estimate(mean=lowest, se=0.0, replicates=n)
    m2 = 0.0
    for vals in batches:
        m2 += float(np.sum((vals - mean) ** 2))
    # one replicate took the return above
    se = math.sqrt(m2 / (n - 1) / n)
    return Estimate(mean=mean, se=se, replicates=n)


class CountTable:
    """Functionals evaluated once per cell of a count box, and read at
    the rows of a count matrix by a row gather.

    On a finite space a functional is a function of the count vector
    alone, and a row's value does not depend on the other rows of a
    multi-row matrix (the contract of :meth:`Functional.evaluate_counts`),
    so a gather from a table evaluated on the box equals evaluation on
    the rows bit for bit.  A read holds counts of atom j up to
    ``bound[j]``, such as :func:`~.patterns.largest_counts` of the law
    the rows are drawn from, and a larger count raises
    :class:`BudgetError` naming the atom.  With ``differences`` a read
    returns each functional's :func:`difference_rows`, one column per
    atom, from a box one count wider.

    A box of fewer than two cells, more than ``COUNT_TABLE_CELL_CAP``
    cells or more cells than ``replicates`` (which would evaluate more
    rows than the replicates themselves) gets no table, and every read
    evaluates, as does a read of one row: a one-row matrix takes
    another floating-point route than the multi-row box.
    """

    def __init__(self, functionals: Sequence, bound: np.ndarray, replicates: int,
                 differences: bool = False):
        self.functionals = list(functionals)
        self.bound = np.asarray(bound, dtype=np.int64)
        self.differences = differences
        box = CountBox(self.bound + int(differences))
        self.box = box if 2 <= box.cells <= min(COUNT_TABLE_CELL_CAP, replicates) else None
        if self.box is not None:
            cells = box.counts()
            self.tables = [F.evaluate_counts(cells) for F in self.functionals]
            if differences:
                self.tables = [box.differences(values) for values in self.tables]

    def read(self, counts: np.ndarray) -> list[np.ndarray]:
        """Each functional's values at the rows of ``counts``, or its
        one-point differences with ``differences``."""
        if self.box is None or len(counts) < 2:
            if self.differences:
                return [difference_rows(F, counts) for F in self.functionals]
            return [F.evaluate_counts(counts) for F in self.functionals]
        rank = self.box.rank(counts, self.bound)
        return [table.take(rank, axis=0) for table in self.tables]


def table_batch(space: MeasureSpace, functionals: Sequence, plan: McPlan,
                tilt: float = 1.0, difference: bool = False
                ) -> Callable[[np.ndarray, int], np.ndarray]:
    """The batch callable of the count-functional estimators: it draws a
    batch's counts, reads the functionals from one :class:`CountTable`
    over the counts the law can draw, and returns one row per functional.
    With ``tilt`` other than 1 the counts are drawn at ``tilt`` times the
    intensity and each row is weighted by the likelihood ratio
    ``exp((tilt - 1) * mass) * tilt**-total``, which keeps the means
    unbiased.  With ``difference``, two functionals get a third row,
    ``lhs - rhs``."""
    if not functionals:
        raise ContractViolationError("at least one functional is required")
    for G in functionals:
        space.check_same(G.space, "functional defined on a different space")
    if difference and len(functionals) != 2:
        raise ContractViolationError("a difference needs exactly two functionals")
    if not (math.isfinite(tilt) and tilt > 0.0):
        raise ContractViolationError(f"tilt must be a positive finite number, got {tilt!r}")
    table = CountTable(functionals, largest_counts(space, tilt), plan.replicates)

    def batch(streams: np.ndarray, _start: int) -> np.ndarray:
        if tilt == 1.0:
            counts = sample_poisson_counts(space, plan.seed, streams)
        else:
            counts = sample_poisson_counts(space, plan.seed, streams, tilt)
        rows = table.read(counts)
        if tilt != 1.0:
            weight = np.exp((tilt - 1.0) * space.total_mass - math.log(tilt) * counts.sum(axis=1))
            rows = [values * weight for values in rows]
        if difference:
            rows.append(rows[0] - rows[1])
        # C order keeps each functional's values one contiguous row
        return np.stack(rows)

    return batch


def mc_expectation(space: MeasureSpace, G, plan: McPlan, tilt: float = 1.0) -> Estimate:
    """Monte Carlo mean of a functional under the Poisson law, importance
    sampled by exponential tilting for a ``tilt`` other than 1 (see
    :func:`table_batch`).  A polynomial of high degree in the counts
    carries its mass at counts far above their mean; a tilt above 1
    draws them often, which can cut the variance and kurtosis of the
    values by orders of magnitude."""
    rows = table_batch(space, [G], plan, tilt)
    return mc_estimate(plan, lambda streams, start: rows(streams, start)[0])


def mc_expectations(space: MeasureSpace, functionals: Sequence, plan: McPlan,
                    difference: bool = False) -> list[Estimate]:
    """Monte Carlo means of several functionals on one sampled batch,
    each equal to ``mc_expectation(space, G, plan)`` bit for bit.  With
    ``difference``, two functionals get a third estimate: the mean of
    their per-replicate difference, whose standard error is that of
    ``lhs - rhs`` for two sides drawn on the same patterns."""
    return mc_estimates(plan, table_batch(space, functionals, plan, difference=difference),
                        len(functionals) + difference)


# ---------------------------------------------------------------------------
# exact enumeration


def poisson_tail(mass: float, cutoff: int,
                 growth: Callable[[int], float] | None = None) -> float:
    """Sum of growth(n) * P(N = n) over n > cutoff for N Poisson(mass)."""
    # the pmf recurrence from P(N = 0) stays within [0, 1]: mass**cutoff
    # and cutoff! would overflow a float long before the pmf does
    pmf = math.exp(-mass)
    for n in range(1, cutoff + 1):
        pmf *= mass / n
    return _tail_above(mass, cutoff, pmf, growth)


def _tail_above(mass: float, cutoff: int, pmf: float,
                growth: Callable[[int], float] | None) -> float:
    """:func:`poisson_tail` given ``pmf``, P(N = cutoff) from the recurrence."""
    total = 0.0
    n = cutoff
    while True:
        n += 1
        pmf *= mass / n
        term = pmf * (growth(n) if growth else 1.0)
        total += term
        if n > mass + 1 and term < 1e-30 * max(total, 1e-300):
            break
        if n > 100_000:
            break
    return total


@dataclass(frozen=True)
class OracleBudget:
    """Total-count truncation with its certified tail mass.

    ``tail_bound`` bounds the enumeration error of the expectation of
    any functional bounded by one (scale by the functional's bound, or
    build the budget with the matching growth envelope).
    """

    max_total: int
    tail_bound: float

    @staticmethod
    def for_space(space: MeasureSpace, tol: float = 1e-10,
                  growth: Callable[[int], float] | None = None,
                  max_states: int = ENUMERATION_STATE_CAP) -> "OracleBudget":
        """The smallest cutoff whose :func:`poisson_tail` is at most ``tol``.

        Cutoffs are scanned upward, each tail summed as
        :func:`poisson_tail` sums it, from the one pmf recurrence; the
        scan stops with :class:`BudgetError` at the first cutoff whose
        enumeration would hold more than ``max_states`` states.
        """
        # a tail is never negative or NaN: such a tol would scan to the state budget
        if not tol > 0.0:
            raise ContractViolationError(f"tail tolerance must be positive, got {tol!r}")
        mass = space.total_mass
        pmf = math.exp(-mass)
        if pmf < sys.float_info.min:
            # the tail arithmetic starts from exp(-mass), which is not a normal float
            raise BudgetError(f"total mass {mass!r} is too large to enumerate")
        cutoff = 0
        while True:
            cutoff += 1
            states = math.comb(cutoff + space.size, space.size)
            if states > max_states:
                raise BudgetError(f"enumeration would exceed the state budget: cutoff "
                                  f"{cutoff} needs {states} states, over {max_states}")
            pmf *= mass / cutoff
            try:
                tail = _tail_above(mass, cutoff, pmf, growth)
            except OverflowError:
                tail = math.inf
            if not math.isfinite(tail):
                # only the growth envelope can overflow: the pmf stays in [0, 1]
                raise BudgetError(f"the growth envelope overflows a float on the tail of "
                                  f"total mass {mass!r}")
            if tail <= tol:
                # slack absorbs rounding differences between the two ways
                # of accumulating the same tail mass
                return OracleBudget(cutoff, tail * (1.0 + 1e-6) + 1e-15)


class PoissonEnumeration:
    """All count vectors with total below the budget, with their probabilities.

    :meth:`get` keeps the ``ENUMERATION_CACHE_SIZE`` most recently used
    enumerations (a full ``verify`` run uses seven).
    """

    _cache: OrderedDict = OrderedDict()
    _cache_lock = threading.Lock()

    def __init__(self, space: MeasureSpace, budget: OracleBudget):
        n_states = math.comb(budget.max_total + space.size, space.size)
        if n_states > ENUMERATION_STATE_CAP:
            raise BudgetError(f"{n_states} states exceed the enumeration budget")
        self.space = space
        self.budget = budget
        self.counts = _count_vectors(space.size, budget.max_total)
        probs = np.ones(len(self.counts))
        for j in range(space.size):
            # the law that inversion samples, zero past its largest count
            pmf = poisson_law(float(space.weights[j])).pmf()
            pmf = np.pad(pmf, (0, max(0, budget.max_total + 1 - len(pmf))))
            probs *= pmf[self.counts[:, j]]
        self.probs = probs

    @classmethod
    def get(cls, space: MeasureSpace, budget: OracleBudget) -> "PoissonEnumeration":
        key = (space.cache_key(), budget.max_total)
        with cls._cache_lock:
            found = cls._cache.get(key)
            if found is None:
                found = cls._cache[key] = cls(space, budget)
                if len(cls._cache) > ENUMERATION_CACHE_SIZE:
                    cls._cache.popitem(last=False)
            else:
                cls._cache.move_to_end(key)
        return found

    def expectation_of(self, G) -> float:
        self.space.check_same(G.space, "functional defined on a different space")
        return self.expectation_of_values(G.evaluate_counts(self.counts))

    def expectation_of_values(self, values: np.ndarray) -> float:
        """``sum values * probs`` over the states, as dot products of fixed
        blocks of ``ENUMERATION_DOT_BLOCK`` states added left to right.

        A BLAS dot of more than about 10,000 terms is split across the
        library's threads, and its rounding then depends on the thread
        count; a block of fewer terms stays on one thread, so the sum is
        the same on any machine.  An enumeration of one block gets
        ``np.dot`` itself.
        """
        if np.shape(values) != self.probs.shape:
            raise ContractViolationError(
                f"expected one value per state {self.probs.shape}, got {np.shape(values)}")
        block = ENUMERATION_DOT_BLOCK
        total = float(np.dot(values[:block], self.probs[:block]))
        for start in range(block, len(self.probs), block):
            total += float(np.dot(values[start:start + block], self.probs[start:start + block]))
        return total


def oracle_expectation(space: MeasureSpace, G, budget: OracleBudget) -> float:
    """Exact truncated expectation of a functional under the Poisson law."""
    return PoissonEnumeration.get(space, budget).expectation_of(G)


# ---------------------------------------------------------------------------
# comparison policy


@dataclass(frozen=True)
class TolerancePolicy:
    """Pass threshold: z standard errors plus an absolute floor."""

    z: float = 4.0
    abs_tol: float = 1e-6
    exact_tol: float = 1e-9


@dataclass(frozen=True)
class Verdict:
    """Outcome of :func:`compare`, with the two means it compared."""

    passed: bool
    diff: float
    tolerance: float
    se_combined: float
    margin: float
    lhs: float
    rhs: float


def _mean_se(x) -> tuple[float, float]:
    if isinstance(x, Estimate):
        return x.mean, x.se
    return float(x), 0.0


def compare(lhs, rhs, policy: TolerancePolicy = TolerancePolicy(),
            tolerance: float | None = None, one_sided: bool = False,
            se: float | None = None) -> Verdict:
    """PASS iff the two values agree within the threshold.

    Each side is either exact or an :class:`Estimate`.  The combined
    standard error is ``se`` when given (that of ``lhs - rhs`` for two
    sides estimated on the same draws), and otherwise that of
    independent sides.  The threshold is ``tolerance`` when given, and
    otherwise the policy's: z combined standard errors plus the
    absolute floor, which collapses to the exact tolerance when both
    sides are exact and the comparison is two-sided.  A two-sided
    comparison bounds ``|lhs - rhs|``; a one-sided one bounds the
    signed excess ``lhs - rhs``, so any lhs below rhs passes.
    """
    lm, ls = _mean_se(lhs)
    rm, rs = _mean_se(rhs)
    if se is None:
        se = math.hypot(ls, rs)
    if tolerance is None:
        floor = policy.abs_tol if (ls or rs or one_sided) else policy.exact_tol
        tolerance = policy.z * se + floor
    diff = lm - rm if one_sided else abs(lm - rm)
    return Verdict(passed=diff <= tolerance, diff=diff, tolerance=tolerance,
                   se_combined=se, margin=tolerance - diff, lhs=lm, rhs=rm)
