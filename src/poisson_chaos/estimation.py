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
from .patterns import _count_vectors, poisson_law, sample_poisson_counts
from .space import MeasureSpace

BATCH_SIZE = 1 << 15

THREAD_ENV_VAR = "POISSON_CHAOS_THREADS"

ENUMERATION_STATE_CAP = 2_000_000
# enumerations kept by PoissonEnumeration.get, least recently used evicted
ENUMERATION_CACHE_SIZE = 32


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
        if self.replicates < 1:
            raise ContractViolationError("replicates must be >= 1")


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


def mc_expectation(space: MeasureSpace, G, plan: McPlan) -> Estimate:
    """Monte Carlo mean of a functional under the Poisson law."""
    space.check_same(G.space, "functional defined on a different space")

    def batch(streams: np.ndarray, _start: int) -> np.ndarray:
        counts = sample_poisson_counts(space, plan.seed, streams)
        return G.evaluate_counts(counts)

    return mc_estimate(plan, batch)


def mc_expectations(space: MeasureSpace, functionals: Sequence, plan: McPlan
                    ) -> list[Estimate]:
    """Monte Carlo means of several functionals on one sampled batch.

    Each estimate equals ``mc_expectation(space, G, plan)`` bit for bit,
    but the patterns of a batch are drawn once for all of them.
    """
    for G in functionals:
        space.check_same(G.space, "functional defined on a different space")

    def batch(streams: np.ndarray, _start: int) -> np.ndarray:
        counts = sample_poisson_counts(space, plan.seed, streams)
        return np.stack([G.evaluate_counts(counts) for G in functionals])

    return mc_estimates(plan, batch, len(functionals))


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
        mass = space.total_mass
        if math.exp(-mass) < sys.float_info.min:
            # the tail arithmetic starts from exp(-mass), which is not a normal float
            raise BudgetError(f"total mass {mass!r} is too large to enumerate")
        for cutoff in range(1, 400):
            try:
                tail = poisson_tail(mass, cutoff, growth)
            except OverflowError as exc:
                # only the growth envelope can overflow: the pmf stays in [0, 1]
                raise BudgetError(f"the growth envelope overflows a float on the tail of "
                                  f"total mass {mass!r}") from exc
            if tail <= tol:
                if math.comb(cutoff + space.size, space.size) > max_states:
                    raise BudgetError("enumeration would exceed the state budget")
                # slack absorbs rounding differences between the two ways
                # of accumulating the same tail mass
                return OracleBudget(cutoff, tail * (1.0 + 1e-6) + 1e-15)
        raise BudgetError("no truncation point reaches the requested tail bound")


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
        return float(np.dot(values, self.probs))


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
            tolerance: float | None = None, one_sided: bool = False) -> Verdict:
    """PASS iff the two values agree within the threshold.

    Each side is either exact or an :class:`Estimate`.  The threshold is
    ``tolerance`` when given, and otherwise the policy's: z combined
    standard errors plus the absolute floor, which collapses to the
    exact tolerance when both sides are exact and the comparison is
    two-sided.  A two-sided comparison bounds ``|lhs - rhs|``; a
    one-sided one bounds the signed excess ``lhs - rhs``, so any lhs
    below rhs passes.
    """
    lm, ls = _mean_se(lhs)
    rm, rs = _mean_se(rhs)
    se = math.hypot(ls, rs)
    if tolerance is None:
        floor = policy.abs_tol if (ls or rs or one_sided) else policy.exact_tol
        tolerance = policy.z * se + floor
    diff = lm - rm if one_sided else abs(lm - rm)
    return Verdict(passed=diff <= tolerance, diff=diff, tolerance=tolerance,
                   se_combined=se, margin=tolerance - diff, lhs=lm, rhs=rm)
