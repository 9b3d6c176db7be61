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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BudgetError, ContractViolationError, EvaluationError
from .patterns import _count_vectors, _poisson_cdf, sample_poisson_counts
from .space import MeasureSpace

BATCH_SIZE = 1 << 15

THREAD_ENV_VAR = "POISSON_CHAOS_THREADS"

ENUMERATION_STATE_CAP = 2_000_000


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
    batches = mc_batches(plan, batch_values)
    n = plan.replicates
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
    se = math.sqrt(m2 / (n - 1) / n) if n > 1 else math.inf
    return Estimate(mean=mean, se=se, replicates=n)


def mc_expectation(space: MeasureSpace, G, plan: McPlan) -> Estimate:
    """Monte Carlo mean of a functional under the Poisson law."""

    def batch(streams: np.ndarray, _start: int) -> np.ndarray:
        counts = sample_poisson_counts(space, plan.seed, streams)
        return G.evaluate_counts(counts)

    return mc_estimate(plan, batch)


# ---------------------------------------------------------------------------
# exact enumeration


def poisson_tail(mass: float, cutoff: int,
                 growth: Callable[[int], float] | None = None) -> float:
    """Sum of growth(n) * P(N = n) over n > cutoff for N Poisson(mass)."""
    pmf = math.exp(-mass) * mass**cutoff / math.factorial(cutoff)
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
                raise BudgetError(f"the Poisson tail of total mass {mass!r} overflows "
                                  f"at cutoff {cutoff}") from exc
            if tail <= tol:
                if math.comb(cutoff + space.size, space.size) > max_states:
                    raise BudgetError("enumeration would exceed the state budget")
                # slack absorbs rounding differences between the two ways
                # of accumulating the same tail mass
                return OracleBudget(cutoff, tail * (1.0 + 1e-6) + 1e-15)
        raise BudgetError("no truncation point reaches the requested tail bound")


# rows per block when ranking lattice rows; bounds the temporaries
_RANK_BLOCK = 1 << 16


def _level_vectors(d: int, total: int) -> np.ndarray:
    """All count vectors in d atoms with exactly this total, in lexicographic order."""
    if d == 1:
        return np.array([[total]], dtype=np.int64)
    head = _count_vectors(d - 1, total)
    return np.column_stack([head, total - head.sum(axis=1)])


def shell_size(d: int, cap: int, order: int) -> int:
    """Number of count vectors in d atoms with total in (cap, cap + order]."""
    return math.comb(cap + order + d, d) - math.comb(cap + d, d)


def lattice_shell(d: int, cap: int, order: int) -> np.ndarray:
    """The count vectors with totals cap+1 .. cap+order, one total after
    another, each in lexicographic order."""
    return np.vstack([_level_vectors(d, cap + k) for k in range(1, order + 1)])


def successor_maps(counts: np.ndarray, shell: np.ndarray, cap: int,
                   order: int) -> np.ndarray:
    """Row positions of one added point in the stacked lattice.

    ``counts`` is the enumeration (every count vector of total at most
    ``cap``, lexicographic, as built by ``_count_vectors``) and ``shell``
    is ``lattice_shell(d, cap, order)``; stacked, they hold every count
    vector of total at most ``cap + order``.  Entry ``[x, i]`` is the
    position of row ``i`` plus one point at atom ``x``, for every row of
    total below ``cap + order``.

    Positions come from the combinatorial number system rather than from
    a mixed-radix key, which overflows int64 on wide spaces.  With
    ``B[m, q] = C(q + m, m)``, the number of count vectors in m atoms of
    total at most q, the lexicographic rank of a vector among those of
    total at most ``q_0`` is ``sum_j B[d-j, q_j] - B[d-j, q_{j+1}]``
    with ``q_{j+1} = q_j - c_j`` the budget left after coordinate j.  A
    vector of the shell is ranked within its total: the same sum with
    ``q_0`` its total and ``m`` one lower, which ranks its first d-1
    coordinates.
    """
    d = counts.shape[1]
    top = cap + order
    # table[m, q] = C(q + m, m); entries too large for int64 are never read
    table = np.ones((d + 1, top + 1), dtype=np.int64)
    for m in range(1, d + 1):
        table[m] = np.cumsum(table[m - 1])
    flat = table.ravel()
    width = top + 1
    # start[t]: position of the first shell row of total t; table[d - 1, t]
    # counts the vectors of total exactly t
    start = np.zeros(top + 1, dtype=np.int64)
    start[cap + 1:] = len(counts) + np.concatenate([[0], np.cumsum(table[d - 1, cap + 1:top])])
    below_top = len(counts) + shell_size(d, cap, order - 1)
    # int32 halves the maps; positions fit while enumeration and shell each
    # stay within ENUMERATION_STATE_CAP
    succ = np.empty((d, below_top), dtype=np.int32)
    sources = ((counts, 0), (shell[:below_top - len(counts)], len(counts)))
    for rows_all, offset in sources:
        for lo in range(0, len(rows_all), _RANK_BLOCK):
            rows = rows_all[lo:lo + _RANK_BLOCK]
            # total of each successor, whatever the atom
            target = rows.sum(axis=1) + 1
            in_shell = target > cap
            budget = np.where(in_shell, target, cap)
            m_row = (d - in_shell) * width
            first = start[np.where(in_shell, target, 0)]
            for x in range(d):
                pos = first.copy()
                q = budget
                for j in range(d):
                    q_next = q - rows[:, j] - (j == x)
                    cell = m_row - j * width
                    pos += flat[cell + q] - flat[cell + q_next]
                    q = q_next
                succ[x, offset + lo:offset + lo + len(rows)] = pos
    return succ


class PoissonEnumeration:
    """All count vectors with total below the budget, with their probabilities."""

    _cache: dict = {}

    def __init__(self, space: MeasureSpace, budget: OracleBudget):
        n_states = math.comb(budget.max_total + space.size, space.size)
        if n_states > ENUMERATION_STATE_CAP:
            raise BudgetError(f"{n_states} states exceed the enumeration budget")
        self.space = space
        self.budget = budget
        self.counts = _count_vectors(space.size, budget.max_total)
        probs = np.ones(len(self.counts))
        for j in range(space.size):
            cdf = _poisson_cdf(float(space.weights[j])).cdf
            pmf = np.diff(cdf, prepend=0.0)
            if len(pmf) < budget.max_total + 1:
                pmf = np.concatenate([pmf, np.zeros(budget.max_total + 1 - len(pmf))])
            probs *= pmf[self.counts[:, j]]
        self.probs = probs

    @classmethod
    def get(cls, space: MeasureSpace, budget: OracleBudget) -> "PoissonEnumeration":
        key = (space.cache_key(), budget.max_total)
        found = cls._cache.get(key)
        if found is None:
            found = cls(space, budget)
            cls._cache[key] = found
        return found

    def expectation_of(self, G) -> float:
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
