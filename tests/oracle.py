"""Reference routes the library's fast paths are held against.

The library evaluates factorial-measure integrals, stochastic integrals
and chaos sums rowwise over count matrices.  This module keeps an
independent route that lists every ordered tuple of distinct point
instances of one pattern and sums the kernel over them, so the tests
can hold the count-matrix route against it pattern by pattern, and the
per-term count-matrix route (a table per factorial integral, a
reduction per subset) that the shared tables must match bit for bit.

For the nested Monte Carlo it keeps the direct primitives that the
lookup tables replaced: thinning by comparing each uniform with every
entry of its count's binomial CDF row, one-point differences by
evaluating the functional on shifted count matrices, the quadrature of
the inverse generator and two pairs of nested covariance estimators
built on them.  The sampled-inner pair
draws every inner refresh field as a count matrix (the estimators the
library used before its inner expectations became exact, kept as the
statistical reference); the exact-inner pair sums the evaluated
differences over an enumeration of the refresh field's law.

For the stream generator it keeps the whole-batch Philox block
function: every counter word a full-size array, every round over all
streams at once, and the 128-bit products from a textbook limb sum.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from poisson_chaos.errors import ContractViolationError, UnsupportedArityError
from poisson_chaos.estimation import Estimate, mc_estimate
from poisson_chaos.functionals import difference_rows
from poisson_chaos.malliavin import gauss_legendre_unit
from poisson_chaos.patterns import (FACTORIAL_ARITY_CAP, PointPattern, _binomial_cdf_rows,
                                    poisson_counts_with_uniforms, poisson_law,
                                    sample_poisson_counts)
from poisson_chaos.rng import stream_uniforms
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


# The count-matrix routes as they were before one falling-factorial
# table served a whole call: every factorial integral builds its own
# table and walks the atom tuples with a bincount each, and every subset
# term reduces the kernel from scratch.  The library must match them bit
# for bit.


def factorial_counts(counts: np.ndarray, f: Kernel) -> np.ndarray:
    """Rowwise factorial-measure integral, one tuple at a time."""
    m = f.arity
    if m == 0:
        return np.full(counts.shape[0], float(f.values))
    d = counts.shape[1]
    table = np.ones(counts.shape + (m + 1,))
    c = counts.astype(np.float64)
    for j in range(1, m + 1):
        table[..., j] = table[..., j - 1] * (c - (j - 1))
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


def wiener_ito_counts(space, g: Kernel, counts: np.ndarray) -> np.ndarray:
    """Rowwise stochastic integral, each subset term reduced on its own."""
    n = g.arity
    if n == 0:
        return np.full(counts.shape[0], float(g.values))
    out = np.zeros(counts.shape[0])
    for size in range(n + 1):
        for J in itertools.combinations(range(n), size):
            reduced = g.values
            for ax in sorted(set(range(n)) - set(J), reverse=True):
                reduced = np.tensordot(reduced, space.weights, axes=([ax], [0]))
            if reduced.ndim == 0:
                out += (-1.0) ** (n - size) * float(reduced)
            else:
                out += (-1.0) ** (n - size) * factorial_counts(counts, Kernel(space, reduced))
    return out


def chaos_reconstruct_counts(space, cv, counts: np.ndarray) -> np.ndarray:
    out = np.full(counts.shape[0], cv.coefficients[0])
    for n in range(1, cv.order + 1):
        out += wiener_ito_counts(space, cv.coefficients[n], counts)
    return out


def product_formula_rhs_counts(f: Kernel, g: Kernel, counts: np.ndarray) -> np.ndarray:
    p, q = f.arity, g.arity
    out = np.zeros(counts.shape[0])
    for r in range(min(p, q) + 1):
        outer = math.factorial(r) * math.comb(p, r) * math.comb(q, r)
        for l in range(r + 1):
            term = contraction(f, g, r, l)
            out += outer * math.comb(r, l) * wiener_ito_counts(f.space, term, counts)
    return out


def binomial_cdf_rows(n_max: int, s: float) -> np.ndarray:
    """Row n holds the Binomial(n, s) CDF at k = 0..n, padded with ones,
    each pmf term from ``math.comb`` directly."""
    rows = np.ones((n_max + 1, n_max + 2))
    for n in range(n_max + 1):
        pmf = np.array([math.comb(n, k) * s**k * (1.0 - s) ** (n - k) for k in range(n)])
        rows[n, :n] = np.minimum(np.cumsum(pmf), 1.0)
    return rows


def thin_counts_with_uniforms(counts: np.ndarray, s: float, u: np.ndarray) -> np.ndarray:
    """Binomial(count, s) survivors: the number of entries of the count's
    CDF row (padded with ones) at or below its uniform."""
    if not 0.0 <= s <= 1.0:
        raise ContractViolationError("retention probability must lie in [0, 1]")
    if not np.all((u >= 0.0) & (u < 1.0)):
        raise ContractViolationError("thinning uniforms must lie in [0, 1)")
    n_max = int(counts.max(initial=0))
    rows = _binomial_cdf_rows(n_max, float(s))
    kept = np.empty_like(counts)
    for j in range(counts.shape[1]):
        kept[:, j] = np.sum(rows[counts[:, j], :] <= u[:, j, None], axis=1)
    return kept


def ou_inverse_quadrature(F, pattern: PointPattern, nodes: int, inner, mean: float
                          ) -> Estimate:
    """The pathwise inverse generator on the direct primitives: each node
    thins by comparison, inverts its refresh field afresh and scales a
    new array of centred values."""
    space = F.space
    s_nodes, s_weights = gauss_legendre_unit(nodes)

    def batch(streams: np.ndarray, _start: int) -> np.ndarray:
        tiled = np.broadcast_to(pattern.counts, (streams.size, space.size))
        u_thin = stream_uniforms(inner.seed, streams, space.size, sub1=1, sub2=2)
        u_field = stream_uniforms(inner.seed, streams, space.size, sub1=2, sub2=2)
        out = np.zeros(streams.size)
        for s, w in zip(s_nodes, s_weights):
            kept = (thin_counts_with_uniforms(tiled, float(s), u_thin)
                    + poisson_counts_with_uniforms(space, 1.0 - float(s), u_field))
            out -= (w / s) * (F.evaluate_counts(kept) - mean)
        return out

    return mc_estimate(inner, batch)


def _inner_uniform_pool(seed: int, streams: np.ndarray, d: int, inner: int,
                        lane: int) -> np.ndarray:
    """(inner, batch, d) uniforms: each stream's ``inner * d`` uniforms in order."""
    u = stream_uniforms(seed, streams, d * inner, sub1=lane, sub2=0)
    return u.reshape(streams.size, inner, d).transpose(1, 0, 2)


def covariance_semigroup_rhs(space, F, G, plan, t_nodes: int, inner: int) -> Estimate:
    """The nested semigroup estimator on the direct primitives: every
    refresh field drawn as counts, every difference evaluated."""
    nodes, weights = gauss_legendre_unit(t_nodes)
    d = space.size

    def batch(streams: np.ndarray, _start: int) -> np.ndarray:
        b = streams.size
        counts = sample_poisson_counts(space, plan.seed, streams)
        u_thin = stream_uniforms(plan.seed, streams, d, sub1=1, sub2=0)
        u_pool = _inner_uniform_pool(plan.seed, streams, d, inner, lane=2)
        df = difference_rows(F, counts)
        out = np.zeros(b)
        for t, wt in zip(nodes, weights):
            kept = thin_counts_with_uniforms(counts, float(t), u_thin)
            inner_sum = np.zeros((b, d))
            for m in range(inner):
                field = poisson_counts_with_uniforms(space, 1.0 - float(t), u_pool[m])
                inner_sum += difference_rows(G, kept + field)
            out += wt * (df * inner_sum / inner) @ space.weights
        return out

    return mc_estimate(plan, batch)


def covariance_conditional_rhs(space, F, G, plan, t_nodes: int, inner: int) -> Estimate:
    """The nested conditional estimator on the direct primitives."""
    nodes, weights = gauss_legendre_unit(t_nodes)
    d = space.size

    def batch(streams: np.ndarray, _start: int) -> np.ndarray:
        b = streams.size
        counts = sample_poisson_counts(space, plan.seed, streams)
        u_thin = stream_uniforms(plan.seed, streams, d, sub1=1, sub2=0)
        pool_f = _inner_uniform_pool(plan.seed, streams, d, inner, lane=3)
        pool_g = _inner_uniform_pool(plan.seed, streams, d, inner, lane=4)
        out = np.zeros(b)
        for t, wt in zip(nodes, weights):
            kept = thin_counts_with_uniforms(counts, float(t), u_thin)
            sum_f = np.zeros((b, d))
            sum_g = np.zeros((b, d))
            for m in range(inner):
                sum_f += difference_rows(F, kept + poisson_counts_with_uniforms(
                    space, 1.0 - float(t), pool_f[m]))
                sum_g += difference_rows(G, kept + poisson_counts_with_uniforms(
                    space, 1.0 - float(t), pool_g[m]))
            out += wt * ((sum_f / inner) * (sum_g / inner)) @ space.weights
        return out

    return mc_estimate(plan, batch)


def field_law(space, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Joint support (points, atoms) and probabilities of the
    Poisson(weight * scale) field that CDF inversion draws: a uniform in
    [0, 1) gives count k of atom j on ``[cdf[k - 1], cdf[k])``."""
    supports, probs = [], []
    for w in space.weights:
        cdf = np.minimum(poisson_law(float(w * scale)).cdf[0], 1.0)
        supports.append(range(len(cdf)))
        probs.append(np.diff(cdf, prepend=0.0))
    points = np.array(list(itertools.product(*supports)), dtype=np.int64)
    prob = np.ones(len(points))
    for j, p in enumerate(probs):
        prob *= p[points[:, j]]
    return points, prob


def exact_inner_means(F, kept: np.ndarray, law) -> np.ndarray:
    """``E[D_x F(kept + field)]`` per row, by evaluating the differences
    at every distinct kept row plus every point of the field's support."""
    points, prob = law
    uniq, inverse = np.unique(kept, axis=0, return_inverse=True)
    shifted = (uniq[:, None, :] + points[None, :, :]).reshape(-1, kept.shape[1])
    diffs = difference_rows(F, shifted).reshape(len(uniq), len(points), kept.shape[1])
    return np.einsum("p,upx->ux", prob, diffs)[inverse.reshape(-1)]


def covariance_exact_inner_rhs(space, F, G, plan, t_nodes: int,
                               conditional: bool) -> Estimate:
    """The library's nested estimators (semigroup form, or the conditional
    form when ``conditional``) on the direct primitives, with the inner
    expectations summed over the enumerated field law."""
    nodes, weights = gauss_legendre_unit(t_nodes)
    laws = [field_law(space, 1.0 - float(t)) for t in nodes]
    d = space.size

    def batch(streams: np.ndarray, _start: int) -> np.ndarray:
        counts = sample_poisson_counts(space, plan.seed, streams)
        u_thin = stream_uniforms(plan.seed, streams, d, sub1=1, sub2=0)
        df = difference_rows(F, counts)
        out = np.zeros(streams.size)
        for t, wt, law in zip(nodes, weights, laws):
            kept = thin_counts_with_uniforms(counts, float(t), u_thin)
            left = exact_inner_means(F, kept, law) if conditional else df
            out += wt * (left * exact_inner_means(G, kept, law)) @ space.weights
        return out

    return mc_estimate(plan, batch)


# ---------------------------------------------------------------------------
# Philox-4x64-10 over whole batches of streams

_PHILOX_M0 = np.uint64(0xD2E7470EE14C6C93)
_PHILOX_M1 = np.uint64(0xCA5A826395121157)
_PHILOX_W0 = np.uint64(0x9E3779B97F4A7C15)
_PHILOX_W1 = np.uint64(0xBB67AE8584CAA73B)
_MASK32 = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)


def _mulhilo(a: np.ndarray, m: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """Full 64x64 -> 128 bit product via 32-bit limbs (wrapping uint64)."""
    lo = a * m
    a_lo = a & _MASK32
    a_hi = a >> _SH32
    m_lo = m & _MASK32
    m_hi = m >> _SH32
    carry = ((a_lo * m_lo) >> _SH32) + ((a_hi * m_lo) & _MASK32) + ((a_lo * m_hi) & _MASK32)
    hi = a_hi * m_hi + ((a_hi * m_lo) >> _SH32) + ((a_lo * m_hi) >> _SH32) + (carry >> _SH32)
    return hi, lo


def _philox4x64(c0, c1, c2, c3, k0, k1):
    """Ten Philox rounds over broadcastable uint64 arrays; returns 4 words."""
    # at least 1-d so the key bumps stay on the (silent) array overflow path
    k0 = np.atleast_1d(np.asarray(k0, dtype=np.uint64))
    k1 = np.atleast_1d(np.asarray(k1, dtype=np.uint64))
    for r in range(10):
        if r:
            k0 = k0 + _PHILOX_W0
            k1 = k1 + _PHILOX_W1
        hi0, lo0 = _mulhilo(c0, _PHILOX_M0)
        hi1, lo1 = _mulhilo(c2, _PHILOX_M1)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return c0, c1, c2, c3


def _as_u64(x) -> np.uint64:
    return np.uint64(int(x) & 0xFFFFFFFFFFFFFFFF)


def raw_blocks(seed: int, streams: np.ndarray, n_blocks: int,
               sub1: int = 0, sub2: int = 0, first_blocks=None) -> np.ndarray:
    """``(len(streams), 4 * n_blocks)`` Philox words, all streams in one pass.

    Row i is keyed by ``(seed, streams[i])`` and starts at block
    ``first_blocks[i]`` (a Python int below 2**128; 0 by default) of its
    counter sequence, whose 128-bit block index fills the first two
    counter words.
    """
    streams = np.asarray(streams, dtype=np.uint64)
    if first_blocks is None:
        first_blocks = [0] * streams.size
    # NumPy's Philox advances the counter before producing a block, so
    # block b of a sequence sits at counter b + 1
    starts = [b + 1 for b in first_blocks]
    lo = np.array([b % 2**64 for b in starts], dtype=np.uint64)[:, None]
    hi = np.array([b // 2**64 for b in starts], dtype=np.uint64)[:, None]
    with np.errstate(over="ignore"):
        c0 = lo + np.arange(n_blocks, dtype=np.uint64)
    c1 = hi + (c0 < lo).astype(np.uint64)
    zero = np.zeros((streams.size, n_blocks), dtype=np.uint64)
    c2 = zero + _as_u64(sub1)
    c3 = zero + _as_u64(sub2)
    k0 = np.asarray(_as_u64(seed))
    k1 = streams[:, None]
    v0, v1, v2, v3 = _philox4x64(c0, c1, c2, c3, k0, k1)
    out = np.empty((streams.size, n_blocks, 4), dtype=np.uint64)
    out[..., 0] = v0
    out[..., 1] = v1
    out[..., 2] = v2
    out[..., 3] = v3
    return out.reshape(streams.size, 4 * n_blocks)


def philox_uniforms(seed: int, streams: np.ndarray, n: int,
                    sub1: int = 0, sub2: int = 0) -> np.ndarray:
    """``stream_uniforms`` from :func:`raw_blocks`: stream s reads words
    ``[s*n, (s+1)*n)`` of lane ``(sub1, sub2)``, the sequence keyed by
    ``(seed, 0)``, as doubles from their top 53 bits."""
    firsts = [s * n for s in np.asarray(streams, dtype=np.uint64).tolist()]
    words = raw_blocks(seed, np.zeros(len(firsts), dtype=np.uint64), -(-(n + 3) // 4),
                       sub1, sub2, [p // 4 for p in firsts])
    cols = np.array([p % 4 for p in firsts], dtype=np.int64)[:, None] + np.arange(n)
    words = np.take_along_axis(words, cols, axis=1)
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
