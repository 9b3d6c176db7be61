"""Point patterns and the stochastic primitives built on them.

A pattern is one multiplicity per atom.  Sampling goes through inverse
CDF lookups driven by the counter-based streams in :mod:`.rng`, so every
draw is reproducible and batches of replicates vectorize: the functions
ending in ``_counts`` operate on whole ``(replicates, atoms)`` count
matrices and are exactly the per-pattern operations applied rowwise.

Every count law is one cached :class:`CountLaw` of CDF rows and their
bin table: a Poisson law is one row, and thinning reads the
Binomial(n, s) laws as one row per count n below a power-of-two size
class.  A uniform u in [0, 1) becomes the number of entries of its row
at or below u, by an indexed search (the guide table of Chen and Asau,
1974; Devroye, *Non-Uniform Random Variate Generation*, 1986, section
III.2.4): ``bins[r, i]`` is the count of every uniform in bin i of
``CDF_BINS`` equal bins under row r, read by one flat lookup at
``r * (CDF_BINS + 1) + floor(u * CDF_BINS)``.  A bin that holds a CDF
value of its row is split (-1), and only its uniforms count the row's
entries directly, so the counts are exactly those of a binary search.

A uniform below 1 never counts an entry at or above 1, so a row's
support ends at its first such entry (padding with ones keeps a
binomial count at most n), and :meth:`CountLaw.pmf`, the law of the
counts that inversion returns, sums to the CDF values clamped at 1.

The count vectors of total at most a cap are enumerated in
lexicographic order (``_count_vectors``); those of each larger total
follow as the shell, one total after another (:func:`lattice_shell`).
Adding a point at atom x preserves lexicographic order.  So it maps the
rows of total below the cap, in order, onto the enumeration's rows with
``c_x >= 1``, and the rows of total t onto the rows of total t + 1 with
``c_x >= 1``: this shift rule is all :func:`successor_maps` reads.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
import sys
import threading
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import NamedTuple

import numpy as np

from .errors import ContractViolationError, UnsupportedArityError
from .rng import RngStream, stream_keys, stream_uniforms
from .space import Kernel, MeasureSpace

FACTORIAL_ARITY_CAP = 4
# bins of every inversion table; a power of two keeps u * CDF_BINS exact
CDF_BINS = 4096
# thinning laws hold a power of two of rows, at least this many (and at
# most THIN_COUNT_MAX + 1)
THIN_TABLE_MIN_ROWS = 16
# the largest count whose binomial coefficients all fit a float
THIN_COUNT_MAX = 1029


@dataclass(frozen=True, eq=False)
class PointPattern:
    """A realization of the point process: one count per atom."""

    space: MeasureSpace
    counts: np.ndarray

    def __init__(self, space: MeasureSpace, counts):
        raw = np.asarray(counts)
        # NaN fails the float test's first half, an infinity its second
        if raw.dtype.kind not in "biuf" or (raw.dtype.kind == "f" and not np.all(
                (raw == np.trunc(raw)) & (np.abs(raw) < 2.0**62))):
            raise ContractViolationError(f"counts must be finite integers, got {raw.tolist()!r}")
        c = raw.astype(np.int64)
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
        c[self.space.atom_index(atom_index)] += 1
        return PointPattern(self.space, c)

    def remove_point(self, atom_index: int) -> "PointPattern":
        if self.counts[self.space.atom_index(atom_index)] < 1:
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

    ``counts`` is ``_count_vectors(d, cap)`` and ``shell`` is
    ``lattice_shell(d, cap, order)``; stacked, they hold every count
    vector of total at most ``cap + order``.  Entry ``[x, i]`` is the
    position of row ``i`` plus one point at atom ``x``, for every row of
    total below ``cap + order``, by the shift rule of the module
    docstring.  Positions are int32, which holds them while enumeration
    and shell each stay within the enumeration state cap.
    """
    n, d = counts.shape
    totals = counts.sum(axis=1)
    below_cap = totals < cap
    # edges[k]: stacked position of the first row of total cap + k + 1
    edges = [n + shell_size(d, cap, k) for k in range(order + 1)]
    # the rows of total cap + k for k < order: the enumeration's rows of
    # total cap lie among its others, each shell level is one block
    sources = [np.flatnonzero(totals == cap)] + [
        slice(lo, hi) for lo, hi in zip(edges[:-2], edges[1:-1])]
    succ = np.empty((d, edges[-2]), dtype=np.int32)
    for x, row in enumerate(succ):
        row[:n][below_cap] = np.flatnonzero(counts[:, x])
        for k, source in enumerate(sources):
            row[source] = edges[k] + np.flatnonzero(shell[edges[k] - n:edges[k + 1] - n, x])
    return succ


def _count_matrix(counts, atoms: int | None = None) -> np.ndarray:
    """``counts`` as a ``(rows, atoms)`` matrix of non-negative integers.

    Shape and dtype are O(1) checks and the sign one ``min()`` pass; any
    column count passes when ``atoms`` is None.
    """
    counts = np.asarray(counts)
    if (counts.ndim != 2 or counts.dtype.kind not in "iu"
            or (atoms is not None and counts.shape[1] != atoms)
            or (counts.size and counts.min() < 0)):
        raise ContractViolationError(
            f"counts must be a (rows, {'atoms' if atoms is None else atoms}) "
            f"matrix of non-negative integers, got {counts.dtype} {counts.shape}")
    return counts


# ---------------------------------------------------------------------------
# inversion tables


class CountLaw(NamedTuple):
    """CDF rows of a count law, one per parameter value, with their bins.

    Rows are nondecreasing; an entry at or above 1, such as the padding
    of a short row, counts for no uniform.  ``bins[r, i]`` is the count
    of every u in ``[i/B, (i+1)/B)`` under row r when no entry of row r
    falls in ``(i/B, (i+1)/B]``, and -1 otherwise; the last entry
    (u = 1) is always -1.
    """

    cdf: np.ndarray
    bins: np.ndarray

    def invert(self, u: np.ndarray, rows: np.ndarray | None = None,
               cells: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
        """Count of each uniform under its row of ``rows`` (an integer
        array of u's shape), or under row 0 when ``rows`` is None, as
        int64, written into ``out`` when it is given.

        ``cells`` is :func:`bin_cells` of ``(u, rows)``, which no law
        enters, passed where several laws of one size invert the same
        uniforms.  Uniforms in split bins (at most one bin per CDF
        value, so a small share) count the entries of their row at or
        below them, which on a sorted row is
        ``np.searchsorted(row, u, side="right")``.
        """
        if cells is None:
            cells = bin_cells(u, rows)
        k = self.bins.ravel().take(cells)
        if out is None:
            out = k.astype(np.int64)
        else:
            out[...] = k
        # flat positions first: a 2-d nonzero scan costs several times more
        split = np.flatnonzero(out < 0)
        if split.size:
            split = np.unravel_index(split, out.shape)
            cdf = self.cdf[0] if rows is None else self.cdf[rows[split]]
            out[split] = np.sum(cdf <= u[split][:, None], axis=-1)
        return out

    def pmf(self, row: int = 0) -> np.ndarray:
        """Law of the counts that :meth:`invert` returns for ``row``, from
        0 to the largest, whose running sums are the row's CDF values
        clamped at 1."""
        cdf = self.cdf[row]
        top = int(np.searchsorted(cdf, 1.0))
        return np.diff(np.minimum(cdf[:top + 1], 1.0), prepend=0.0)


def bin_cells(u: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Flat index of each uniform's bin under its row of ``rows`` (row 0
    when None) in a :class:`CountLaw`'s bins.

    With ``B = CDF_BINS`` a power of two, ``u * B`` and the bin edges
    ``i / B`` are exact, so ``i = floor(u * B)`` is the bin with
    ``i/B <= u < (i+1)/B``, and row r's bins start at ``r * (B + 1)``.
    """
    # u * B truncated to an integer, as astype would, with no float temporary
    cells = np.multiply(u, CDF_BINS, out=np.empty(u.shape, dtype=np.intp),
                        casting="unsafe")
    if rows is not None:
        cells += np.multiply(rows, CDF_BINS + 1, dtype=np.intp)
    return cells


def _count_law(cdf: np.ndarray) -> CountLaw:
    """The inversion table of the CDF rows ``cdf``, shared read-only by
    every caller and thread."""
    grid = np.arange(CDF_BINS + 1) / CDF_BINS
    bins = np.empty((len(cdf), CDF_BINS + 1), dtype=np.int16)
    for r, row in enumerate(cdf):
        edges = np.searchsorted(row, grid, side="right")
        bins[r, :-1] = np.where(edges[:-1] == edges[1:], edges[:-1], -1)
    bins[:, -1] = -1
    cdf.setflags(write=False)
    bins.setflags(write=False)
    return CountLaw(cdf, bins)


# one lock over the law caches: threads that miss at once build a law once
_LAW_LOCK = threading.Lock()


def _locked(cached):
    """The ``lru_cache`` ``cached``, looked up (a build included) under
    ``_LAW_LOCK``."""

    @wraps(cached)
    def lookup(*args):
        with _LAW_LOCK:
            return cached(*args)

    lookup.cache_info, lookup.cache_clear = cached.cache_info, cached.cache_clear
    return lookup


# a row holds at most 951 CDF values (at the largest mean, 708.4), so a
# law takes under 16 KB and the cache under 8.1 MB
@_locked
@lru_cache(maxsize=512)
def poisson_law(mean: float) -> CountLaw:
    """The Poisson law as one CDF row, extended until the tail is below
    1e-18."""
    if not mean >= 0.0:  # NaN too
        raise ContractViolationError(f"Poisson mean must be >= 0, got {mean!r}")
    if mean == 0.0:
        return _count_law(np.ones((1, 1)))
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
    return _count_law(cdf[None, :])


def _binomial_cdf_rows(n_max: int, s: float) -> np.ndarray:
    """Row n holds the Binomial(n, s) CDF at k = 0..n, padded with ones.

    The pmf is ``comb(n, k) * s**k * (1 - s)**(n - k)``, with the exact
    coefficient rounded once to a float; ``n_max`` is at most
    ``THIN_COUNT_MAX``.
    """
    s_pow = np.array([s**k for k in range(n_max + 1)])
    q_pow = np.array([(1.0 - s) ** k for k in range(n_max + 1)])
    rows = np.ones((n_max + 1, n_max + 2))
    coeffs = [1]
    for n in range(1, n_max + 1):
        # row n of Pascal's triangle, exact
        coeffs = [1, *map(operator.add, coeffs, coeffs[1:]), 1]
        pmf = np.array([float(c) for c in coeffs[:n]]) * s_pow[:n] * q_pow[n:0:-1]
        # entry n stays exactly 1: a rounded sum below 1 would let a
        # uniform just below 1 keep n + 1 of n points
        rows[n, :n] = np.minimum(np.cumsum(pmf), 1.0)
    return rows


# a law of R rows takes 8 R (R + 1) + 2 R (CDF_BINS + 1) bytes: 0.13 MB
# at 16 rows, every law of a verify run, and 16.9 MB at the
# THIN_COUNT_MAX + 1 cap, so the cache stays under 1.1 GB
@_locked
@lru_cache(maxsize=64)
def binomial_law(rows: int, s: float) -> CountLaw:
    """The Binomial(n, s) laws for n < ``rows``, row n for count n."""
    return _count_law(_binomial_cdf_rows(rows - 1, s))


# ---------------------------------------------------------------------------
# sampling, vectorized across replicate streams


def poisson_counts_with_uniforms(space: MeasureSpace, scale: float,
                                 u: np.ndarray) -> np.ndarray:
    """Poisson(weight * scale) counts by CDF inversion of given uniforms.

    Inversion is monotone in each uniform, which is what couples draws
    across nearby intensities when uniforms are reused.  ``u`` holds one
    row per draw and one column per atom.  One atom's bin index is live
    at a time; :class:`PoissonField` keeps them all, for many scales.
    """
    _check_poisson_uniforms(space, u)
    counts = np.empty(u.shape, dtype=np.int64)
    for j in range(space.size):
        poisson_law(float(space.weights[j] * scale)).invert(u[:, j], out=counts[:, j])
    return counts


def _check_poisson_uniforms(space: MeasureSpace, u: np.ndarray) -> None:
    if u.ndim != 2 or u.shape[1] != space.size:
        raise ContractViolationError(
            f"Poisson uniforms must have shape (rows, {space.size}), got {u.shape}")
    # one pass each; NaN fails both comparisons
    if u.size and not (u.min() >= 0.0 and u.max() < 1.0):
        raise ContractViolationError("Poisson uniforms must lie in [0, 1)")


class PoissonField:
    """Poisson(weight * scale) counts per atom, for any number of scales,
    from one uniform per cell of ``u``, a ``(rows, atoms)`` matrix.

    Every Poisson law has one row, so the uniforms are checked and each
    atom's :func:`bin_cells` index computed once: :meth:`at` costs one
    gather per atom from its law's bins, plus a search for the uniforms
    in split bins.
    """

    def __init__(self, space: MeasureSpace, u: np.ndarray):
        _check_poisson_uniforms(space, u)
        self._weights, self._u = space.weights, u
        self._cells = [bin_cells(u[:, j]) for j in range(space.size)]

    def at(self, scale: float, out: np.ndarray) -> np.ndarray:
        """The counts at ``scale``, written into ``out``, an int64 array of
        the uniforms' shape, and returned in it."""
        if out.dtype != np.int64 or out.shape != self._u.shape:
            raise ContractViolationError(
                f"out must be an int64 array of shape {self._u.shape}, "
                f"got {out.dtype} {out.shape}")
        for j, cells in enumerate(self._cells):
            poisson_law(float(self._weights[j] * scale)).invert(self._u[:, j], None, cells,
                                                                out[:, j])
        return out


class Thinning:
    """Binomial(count, s) survivors per atom of one count matrix, for
    any number of retention probabilities s, from one uniform per cell.

    ``counts`` is a ``(rows, atoms)`` matrix whose entries are taken to
    be non-negative integers (:func:`thin_counts` checks them), and
    ``u`` holds a uniform in [0, 1) for each of its cells.  Each count
    is its row of one :func:`binomial_law`, whose size class depends on
    the largest count alone, so the uniforms are checked and each cell's
    :func:`bin_cells` index computed once: :meth:`at` costs one gather
    from its law's bins, plus a search for the uniforms in split bins.
    """

    def __init__(self, counts: np.ndarray, u: np.ndarray):
        if u.ndim != 2 or u.shape != counts.shape:
            raise ContractViolationError(
                f"thinning uniforms must have the counts' shape {counts.shape}, got {u.shape}")
        # a uniform of 1 or more would keep points that do not exist; one
        # pass each, and NaN fails both comparisons
        if u.size and not (u.min() >= 0.0 and u.max() < 1.0):
            raise ContractViolationError("thinning uniforms must lie in [0, 1)")
        n_max = int(counts.max(initial=0))
        if n_max > THIN_COUNT_MAX:
            raise ContractViolationError(
                f"cannot thin a count of {n_max}: its binomial coefficients "
                "exceed the float range")
        # one law per size class, so a new largest count rarely builds one
        self._rows = min(max(THIN_TABLE_MIN_ROWS, 1 << n_max.bit_length()),
                         THIN_COUNT_MAX + 1)
        self._counts, self._u = counts, u
        self._cells = bin_cells(u, counts)

    def at(self, s: float, out: np.ndarray | None = None) -> np.ndarray:
        """The survivors at retention probability ``s`` in [0, 1], in a
        fresh array of the counts' dtype, or written into ``out``, an
        int64 array of the counts' shape, and returned in it."""
        if not 0.0 <= s <= 1.0:
            raise ContractViolationError("retention probability must lie in [0, 1]")
        if out is not None and (out.dtype != np.int64 or out.shape != self._counts.shape):
            raise ContractViolationError(
                f"out must be an int64 array of shape {self._counts.shape}, "
                f"got {out.dtype} {out.shape}")
        law = binomial_law(self._rows, float(s))
        kept = law.invert(self._u, self._counts, self._cells, out)
        return kept if out is not None else kept.astype(self._counts.dtype, copy=False)


def thin_counts_with_uniforms(counts: np.ndarray, s: float, u: np.ndarray) -> np.ndarray:
    """Binomial(count, s) survivors per atom from given uniforms in [0, 1):
    :class:`Thinning` at one s."""
    return Thinning(counts, u).at(s)


def thinning_uniforms(counts: np.ndarray, seed: int, streams: np.ndarray,
                      sub1: int = 0, sub2: int = 0) -> np.ndarray:
    """One uniform per cell of ``counts``, row i from stream ``streams[i]``."""
    keys = stream_keys(streams)
    if keys.size != counts.shape[0]:
        raise ContractViolationError(
            f"streams must hold one stream per count row ({counts.shape[0]}), "
            f"got {keys.size}")
    return stream_uniforms(seed, keys, counts.shape[1], sub1, sub2)


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
    """Binomial(count, s) survivors per atom; one uniform per atom, row i
    from stream ``streams[i]`` (:func:`thinning_uniforms`).

    ``counts`` must be a ``(rows, atoms)`` matrix of non-negative
    integers, and ``streams`` must hold one stream per row.
    """
    counts = _count_matrix(counts)
    u = thinning_uniforms(counts, seed, streams, sub1, sub2)
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
    p.space.check_same(q.space, "patterns live on different spaces")
    return PointPattern(p.space, p.counts + q.counts)


# ---------------------------------------------------------------------------
# factorial measures


def _falling_factorial_table(counts: np.ndarray, m: int) -> np.ndarray:
    """table[a, j] = c * (c-1) * ... * (c-j+1) for atom a's count column c,
    j = 0..m: one contiguous row vector per (atom, order)."""
    c = counts.T.astype(np.float64)
    table = np.empty((c.shape[0], m + 1, c.shape[1]))
    table[:, 0] = 1.0
    for j in range(1, m + 1):
        table[:, j] = table[:, j - 1] * (c - (j - 1))
    return table


@lru_cache(maxsize=64)
def _factorial_plan(d: int, m: int) -> tuple:
    """(flat kernel index, ((atom, multiplicity), ...)) for every atom tuple
    of an arity-m kernel on d atoms, in ``itertools.product`` order (the
    kernel's C order), with the atoms of each tuple ascending."""
    return tuple((flat, tuple(sorted(collections.Counter(tup).items())))
                 for flat, tup in enumerate(itertools.product(range(d), repeat=m)))


def _factorial_sum(table: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Rowwise factorial-measure integral of the kernel ``values`` read from
    a falling-factorial table of order at least its arity.

    The inputs are not checked: the public callers check the count matrix
    and the kernel once, and one table serves every kernel of a call.
    """
    rows = table.shape[2]
    if values.ndim == 0:
        return np.full(rows, float(values))
    coeffs = values.ravel().tolist()
    out = np.zeros(rows)
    for flat, factors in _factorial_plan(table.shape[0], values.ndim):
        coeff = coeffs[flat]
        if coeff == 0.0:
            continue
        (a, k), *rest = factors
        term = table[a, k] * coeff
        for a, k in rest:
            term *= table[a, k]
        out += term
    return out


def factorial_counts(counts: np.ndarray, f: Kernel) -> np.ndarray:
    """Rowwise factorial-measure integral over a count matrix.

    Each row's value is the sum of f over the ordered tuples of pairwise
    distinct points of that pattern: a tuple of atoms visiting atom a
    with multiplicity m_a carries the falling factorial
    (c_a)(c_a - 1)...(c_a - m_a + 1) many instance tuples.  For the
    constant kernel this is the falling factorial of the total point
    count; arity 0 returns the kernel's scalar on every row.  ``counts``
    must be a ``(rows, atoms)`` matrix of non-negative integers on the
    kernel's space.
    """
    m = f.arity
    if m > FACTORIAL_ARITY_CAP:
        raise UnsupportedArityError(f"factorial measure arity capped at {FACTORIAL_ARITY_CAP}")
    counts = _count_matrix(counts, f.space.size)
    return _factorial_sum(_falling_factorial_table(counts, m), f.values)
