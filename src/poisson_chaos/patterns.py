"""Point patterns and the stochastic primitives built on them.

A pattern is one multiplicity per atom.  Sampling goes through inverse
CDF lookups driven by the counter-based streams in :mod:`.rng`, so every
draw is reproducible and batches of replicates vectorize: the functions
ending in ``_counts`` operate on whole ``(replicates, atoms)`` count
matrices and are exactly the per-pattern operations applied rowwise.

Poisson inversion uses an indexed search (the guide table of Chen and
Asau, 1974; Devroye, *Non-Uniform Random Variate Generation*, 1986,
section III.2.4): the unit interval is cut into ``CDF_BINS`` equal bins,
and a bin that holds no CDF value maps every uniform in it to the same
count, read from the table in one lookup.  Only uniforms falling in a
bin that holds a CDF value go to a binary search, so the counts are
exactly those of a binary search over the whole CDF.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ContractViolationError, UnsupportedArityError
from .rng import RngStream, stream_uniforms
from .space import Kernel, MeasureSpace

FACTORIAL_ARITY_CAP = 4
# bins of the Poisson inversion table; a power of two keeps u * CDF_BINS exact
CDF_BINS = 4096


@dataclass(frozen=True, eq=False)
class PointPattern:
    """A realization of the point process: one count per atom."""

    space: MeasureSpace
    counts: np.ndarray

    def __init__(self, space: MeasureSpace, counts):
        c = np.asarray(counts, dtype=np.int64).copy()
        if c.shape != (space.size,):
            raise ContractViolationError("one count per atom is required")
        if np.any(c < 0):
            raise ContractViolationError("counts must be nonnegative")
        c.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "counts", c)

    @staticmethod
    def empty(space: MeasureSpace) -> "PointPattern":
        return PointPattern(space, np.zeros(space.size, dtype=np.int64))

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def add_point(self, atom_index: int) -> "PointPattern":
        c = self.counts.copy()
        c[atom_index] += 1
        return PointPattern(self.space, c)

    def remove_point(self, atom_index: int) -> "PointPattern":
        if self.counts[atom_index] < 1:
            raise ContractViolationError("cannot remove a point from an empty atom")
        c = self.counts.copy()
        c[atom_index] -= 1
        return PointPattern(self.space, c)

    def point_atoms(self) -> np.ndarray:
        """Atom index of every point instance, multiplicity respected."""
        return np.repeat(np.arange(self.space.size), self.counts)

    def measure_of(self, f: Kernel) -> float:
        """Integral of an arity-1 kernel against the counting measure."""
        if f.arity != 1:
            raise ContractViolationError("counting-measure integral needs arity 1")
        return float(self.counts @ f.values)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PointPattern)
                and self.space.same_as(other.space)
                and np.array_equal(self.counts, other.counts))

    def __hash__(self) -> int:
        return hash((self.space.cache_key(), self.counts.tobytes()))

    def __repr__(self) -> str:
        return f"PointPattern({self.counts.tolist()})"


def _count_vectors(d: int, cap: int) -> np.ndarray:
    """All count vectors in d atoms with total at most ``cap``, one per row,
    in lexicographic order."""
    if cap < 0:
        return np.empty((0, d), dtype=np.int64)
    if d == 1:
        return np.arange(cap + 1, dtype=np.int64)[:, None]
    sub = _count_vectors(d - 1, cap)
    sums = sub.sum(axis=1)
    rows = []
    for first in range(cap + 1):
        tail = sub[sums <= cap - first]
        rows.append(np.column_stack([np.full(len(tail), first, dtype=np.int64), tail]))
    return np.vstack(rows)


# ---------------------------------------------------------------------------
# inverse-CDF tables


class PoissonTable(NamedTuple):
    """CDF of a Poisson law with its bin lookup table.

    ``bins[i]`` is the count of every uniform in ``[i/B, (i+1)/B)`` when
    no CDF value falls in ``(i/B, (i+1)/B]``, and -1 otherwise; the last
    entry (``u = 1``) is always -1.
    """

    cdf: np.ndarray
    bins: np.ndarray


@lru_cache(maxsize=512)
def _poisson_cdf(mean: float) -> PoissonTable:
    """CDF values of a Poisson law, extended until the tail is below 1e-18,
    with the bin table used by :func:`_invert_cdf`."""
    if mean < 0:
        raise ContractViolationError("Poisson mean must be >= 0")
    if mean == 0.0:
        cdf = np.array([1.0])
    else:
        p0 = math.exp(-mean)
        if p0 < sys.float_info.min:
            # a subnormal exp(-mean) carries too few bits to build the law from
            raise ContractViolationError(
                f"Poisson mean {mean!r} underflows exp(-mean); use a smaller weight")
        pmf = [p0]
        k = 0
        while k < mean + 1 or pmf[-1] > 1e-18:
            k += 1
            pmf.append(pmf[-1] * mean / k)
            if k > 10_000:
                break
        cdf = np.cumsum(pmf)
        cdf[-1] = max(cdf[-1], 1.0)
    edges = np.searchsorted(cdf, np.arange(CDF_BINS + 1) / CDF_BINS, side="right")
    bins = np.append(np.where(edges[:-1] == edges[1:], edges[:-1], -1), -1).astype(np.int16)
    # cached and shared by every caller and thread
    cdf.setflags(write=False)
    bins.setflags(write=False)
    return PoissonTable(cdf, bins)


@lru_cache(maxsize=512)
def _binomial_cdf_rows(n_max: int, s: float) -> np.ndarray:
    """Row n holds the Binomial(n, s) CDF at k = 0..n, padded with ones."""
    rows = np.ones((n_max + 1, n_max + 2))
    for n in range(n_max + 1):
        pmf = np.array([math.comb(n, k) * s**k * (1.0 - s) ** (n - k)
                        for k in range(n)])
        # entry n stays exactly 1: a rounded sum below 1 would let a
        # uniform just below 1 keep n + 1 of n points
        rows[n, :n] = np.minimum(np.cumsum(pmf), 1.0)
    return rows


def _invert_cdf(table: PoissonTable, u: np.ndarray) -> np.ndarray:
    """Smallest k with cdf[k] > u, vectorized over u in [0, 1].

    Indexed search after Chen and Asau (1974), equal to
    ``np.searchsorted(cdf, u, side="right")`` element for element.  With
    ``B = CDF_BINS`` a power of two, ``u * B`` and the bin edges ``i / B``
    are exact, so ``i = floor(u * B)`` is the bin with
    ``i/B <= u < (i+1)/B``.  If no CDF value lies in ``(i/B, (i+1)/B]``,
    every u in the bin has the same number of CDF values at or below it,
    the stored ``bins[i]``.  Uniforms in the other bins (at most one bin
    per CDF value, so a small share) fall back to the binary search.
    """
    k = table.bins[(u * CDF_BINS).astype(np.intp)].astype(np.int64)
    split = np.flatnonzero(k < 0)
    if split.size:
        k[split] = np.searchsorted(table.cdf, u[split], side="right")
    return k


# ---------------------------------------------------------------------------
# sampling, vectorized across replicate streams


def poisson_counts_with_uniforms(space: MeasureSpace, scale: float,
                                 u: np.ndarray) -> np.ndarray:
    """Poisson(weight * scale) counts by CDF inversion of given uniforms.

    Inversion is monotone in each uniform, which is what couples draws
    across nearby intensities when uniforms are reused.
    """
    # one pass each; NaN fails both comparisons
    if u.size and not (u.min() >= 0.0 and u.max() < 1.0):
        raise ContractViolationError("Poisson uniforms must lie in [0, 1)")
    counts = np.empty(u.shape, dtype=np.int64)
    for j in range(space.size):
        counts[:, j] = _invert_cdf(_poisson_cdf(float(space.weights[j] * scale)), u[:, j])
    return counts


def thin_counts_with_uniforms(counts: np.ndarray, s: float, u: np.ndarray) -> np.ndarray:
    """Binomial(count, s) survivors per atom from given uniforms in [0, 1)."""
    if not 0.0 <= s <= 1.0:
        raise ContractViolationError("retention probability must lie in [0, 1]")
    # a uniform of 1 or more would keep points that do not exist
    if not np.all((u >= 0.0) & (u < 1.0)):
        raise ContractViolationError("thinning uniforms must lie in [0, 1)")
    n_max = int(counts.max(initial=0))
    rows = _binomial_cdf_rows(n_max, float(s))
    kept = np.empty_like(counts)
    for j in range(counts.shape[1]):
        kept[:, j] = np.sum(rows[counts[:, j], :] <= u[:, j, None], axis=1)
    return kept


def sample_poisson_counts(space: MeasureSpace, seed: int, streams: np.ndarray,
                          scale: float = 1.0, sub1: int = 0, sub2: int = 0) -> np.ndarray:
    """Count matrix with row i drawn from stream ``streams[i]``.

    Each atom's count is Poisson with the atom weight times ``scale``,
    obtained by CDF inversion of one uniform per atom.
    """
    u = stream_uniforms(seed, streams, space.size, sub1, sub2)
    return poisson_counts_with_uniforms(space, scale, u)


def thin_counts(counts: np.ndarray, s: float, seed: int, streams: np.ndarray,
                sub1: int = 0, sub2: int = 0) -> np.ndarray:
    """Binomial(count, s) survivors per atom; one uniform per atom."""
    u = stream_uniforms(seed, streams, counts.shape[1], sub1, sub2)
    return thin_counts_with_uniforms(counts, s, u)


def sample_poisson(space: MeasureSpace, rng: RngStream) -> PointPattern:
    """One Poisson pattern: independent Poisson(weight) count per atom."""
    streams = np.array([rng.stream], dtype=np.uint64)
    counts = sample_poisson_counts(space, rng.seed, streams, 1.0, rng.sub1, rng.sub2)
    return PointPattern(space, counts[0])


def thin(pattern: PointPattern, s: float, rng: RngStream) -> PointPattern:
    """Independent retention of each point with probability s."""
    streams = np.array([rng.stream], dtype=np.uint64)
    kept = thin_counts(pattern.counts[None, :], s, rng.seed, streams, rng.sub1, rng.sub2)
    return PointPattern(pattern.space, kept[0])


def superpose(p: PointPattern, q: PointPattern) -> PointPattern:
    """Sum of two counting measures on the same space."""
    if not p.space.same_as(q.space):
        raise ContractViolationError("patterns live on different spaces")
    return PointPattern(p.space, p.counts + q.counts)


# ---------------------------------------------------------------------------
# factorial measures


def _falling_factorial_table(counts: np.ndarray, m: int) -> np.ndarray:
    """table[..., j] = counts * (counts-1) * ... * (counts-j+1), j = 0..m."""
    table = np.ones(counts.shape + (m + 1,))
    c = counts.astype(np.float64)
    for j in range(1, m + 1):
        table[..., j] = table[..., j - 1] * (c - (j - 1))
    return table


def factorial_counts(counts: np.ndarray, f: Kernel) -> np.ndarray:
    """Rowwise factorial-measure integral over a count matrix.

    Each row's value is the sum of f over the ordered tuples of pairwise
    distinct points of that pattern: a tuple of atoms visiting atom a
    with multiplicity m_a carries the falling factorial
    (c_a)(c_a - 1)...(c_a - m_a + 1) many instance tuples.  For the
    constant kernel this is the falling factorial of the total point
    count; arity 0 returns the kernel's scalar on every row.
    """
    m = f.arity
    if m == 0:
        return np.full(counts.shape[0], float(f.values))
    if m > FACTORIAL_ARITY_CAP:
        raise UnsupportedArityError(f"factorial measure arity capped at {FACTORIAL_ARITY_CAP}")
    d = counts.shape[1]
    table = _falling_factorial_table(counts, m)
    out = np.zeros(counts.shape[0])
    for tup in itertools.product(range(d), repeat=m):
        coeff = float(f.values[tup])
        if coeff == 0.0:
            continue
        mult = np.bincount(np.asarray(tup), minlength=d)
        term = np.full(counts.shape[0], coeff)
        for a in np.nonzero(mult)[0]:
            term = term * table[:, a, mult[a]]
        out += term
    return out
