"""Estimators shared by several suites."""

from __future__ import annotations

import functools
import math

import numpy as np

from ..errors import BudgetError
from ..estimation import Estimate, McPlan, mc_batches, mc_estimate
from ..functionals import ChaosVector, Functional, difference_rows
from ..malliavin import gauss_legendre_unit
from ..patterns import poisson_law, sample_poisson_counts, thin_counts_with_uniforms
from ..rng import stream_uniforms
from ..space import Kernel, MeasureSpace, symmetrize


def mc_covariance(space: MeasureSpace, F: Functional, G: Functional,
                  plan: McPlan) -> Estimate:
    """Covariance of F and G from shared samples.

    The standard error comes from the replicate spread of the centered
    products (the means' own uncertainty enters at second order and is
    covered by the policy floor).  It needs the means first, so the
    batches are reduced in three passes rather than by ``mc_estimate``.
    """
    space.check_same(F.space, "functional defined on a different space")
    space.check_same(G.space, "functional defined on a different space")

    def batch(streams: np.ndarray, _start: int) -> np.ndarray:
        counts = sample_poisson_counts(space, plan.seed, streams)
        # C order keeps each function's values one contiguous row
        return np.stack([F.evaluate_counts(counts), G.evaluate_counts(counts)])

    batches = mc_batches(plan, batch, shape=(2,))
    n = plan.replicates
    mean_f = sum(float(np.sum(b[0])) for b in batches) / n
    mean_g = sum(float(np.sum(b[1])) for b in batches) / n
    prods = [(b[0] - mean_f) * (b[1] - mean_g) for b in batches]
    cov = sum(float(np.sum(p)) for p in prods) / n
    spread = sum(float(np.sum((p - cov) ** 2)) for p in prods) / n
    return Estimate(cov, (spread / n) ** 0.5, n)


def worst_residual(residuals) -> float:
    """Largest absolute entry over residual arrays.

    A NaN anywhere is the result, so a broken row FAILs its case
    instead of vanishing inside Python's ``max``.
    """
    return float(np.max([np.max(np.abs(r)) for r in residuals], initial=0.0))


def seeded_chaos_vector(space: MeasureSpace, order: int, seed: int) -> ChaosVector:
    """Chaos vector with standard normal coefficients, symmetrized kernels."""
    rng = np.random.default_rng(seed)
    coeffs: list = [float(rng.normal())]
    for n in range(1, order + 1):
        coeffs.append(symmetrize(Kernel(space, rng.normal(size=(space.size,) * n))))
    return ChaosVector(space, coeffs)


# largest count box a CountTable evaluates F on
COUNT_TABLE_CELL_CAP = 1 << 16


class CountTable:
    """F evaluated once on the count box ``prod_j [0, caps[j]]``.

    Cell r of the box is the count vector with entries
    ``(r // radix[j]) % (caps[j] + 1)`` (mixed radix, ``radix[0] = 1``),
    and the box is evaluated as one multi-row matrix.  A box of more
    than ``COUNT_TABLE_CELL_CAP`` cells gets no table (``values`` is
    None).

    ``diffs`` is the ``(cells, atoms)`` difference table,
    ``diffs[r, x] = values[r + radix[x]] - values[r]``.  A cell whose
    count at x is at its cap holds no difference at x; the caps of
    :func:`mehler_nodes` keep every read off those cells.
    """

    def __init__(self, F: Functional, caps: np.ndarray):
        self.F = F
        self.caps = caps
        sizes = caps + 1
        self.values = None
        cells = math.prod(sizes.tolist())
        if cells <= COUNT_TABLE_CELL_CAP:
            self.radix = np.cumprod([1, *sizes[:-1]], dtype=np.int64)
            cell = np.arange(cells, dtype=np.int64)
            self.values = F.evaluate_counts((cell[:, None] // self.radix) % sizes)
            self.diffs = np.empty((cells, len(sizes)))
            for x, step in enumerate(self.radix):
                np.subtract(np.take(self.values, cell + step, mode="clip"), self.values,
                            out=self.diffs[:, x])


def smoothed_differences(table: CountTable, pmfs: list[np.ndarray]) -> np.ndarray:
    """``S[r, x] = sum_k prod_j pmfs[j][k_j] * diffs[r + k @ radix, x]``.

    One correlation with each atom's pmf along that atom's axis of the
    box.  A cell whose count plus its pmf's length passes a cap sums
    over a cut support and is never read (see :func:`mehler_nodes`).
    """
    d = len(pmfs)
    # mixed radix with radix[0] = 1: atom j is axis d - 1 - j in C order
    smoothed = table.diffs.reshape(*(table.caps[::-1] + 1), d)
    for j, pmf in enumerate(pmfs):
        src = np.moveaxis(smoothed, d - 1 - j, 0)
        out = np.zeros_like(src)
        # ascending k, so every cell sums the pmf in the same order
        for k, p in enumerate(pmf[:len(src)]):
            out[:len(src) - k] += p * src[k:]
        smoothed = np.moveaxis(out, 0, d - 1 - j)
    return np.ascontiguousarray(smoothed).reshape(-1, d)


class MehlerNode:
    """Exact inner expectations of the nested estimators at one node t.

    By Mehler's formula, ``P_t G(eta) = E[G(t-thinned eta + field)]``
    with an independent Poisson((1 - t) lambda) refresh field, so given
    the thinned pattern ``kept``, ``E[D_x G(kept + field)]`` is a row
    gather at ``kept @ radix`` from G's smoothed difference table.  At
    t = 1 the field is empty and the gather reads ``D_x G(kept)``.  A
    box with no table sums the evaluated differences over the field's
    support instead.
    """

    def __init__(self, space: MeasureSpace, t: float, tables: list[CountTable]):
        self.t = t
        self.tables = tables
        # the law of the refresh counts that inversion draws
        self.pmfs = [poisson_law(float(w * (1.0 - t))).pmf() for w in space.weights]
        self.reach = np.array([len(p) for p in self.pmfs], dtype=np.int64)
        support = int(np.prod(self.reach))
        if support > COUNT_TABLE_CELL_CAP:
            raise BudgetError(
                f"refresh field support of {support} counts exceeds {COUNT_TABLE_CELL_CAP}")
        self.smoothed = [None if tb.values is None else smoothed_differences(tb, self.pmfs)
                         for tb in tables]

    def evaluated(self, F: Functional, kept: np.ndarray) -> np.ndarray:
        """``sum_k prod_j pmfs[j][k_j] * difference_rows(F, kept + k)``,
        evaluated once per distinct row of ``kept``, in blocks of about
        ``COUNT_TABLE_CELL_CAP`` shifted rows."""
        uniq, inverse = np.unique(kept, axis=0, return_inverse=True)
        points = np.indices(self.reach).reshape(len(self.reach), -1).T
        probs = functools.reduce(np.multiply.outer, self.pmfs).ravel()
        out = np.zeros(uniq.shape)
        step = max(1, COUNT_TABLE_CELL_CAP // len(uniq))
        for lo in range(0, len(points), step):
            shifted = uniq[:, None, :] + points[None, lo:lo + step]
            diffs = difference_rows(F, shifted.reshape(-1, kept.shape[1]))
            out += np.tensordot(diffs.reshape(shifted.shape), probs[lo:lo + step], ([1], [0]))
        return out[inverse.reshape(-1)]

    def inner_means(self, kept: np.ndarray, rank: np.ndarray,
                    outs: list[np.ndarray]) -> None:
        """Fill ``outs[i][row, x]`` with ``E[D_x F_i(kept[row] + field)]``.

        ``kept`` holds sampled counts or thinnings of them, which the box
        invariant of :func:`mehler_nodes` covers.
        """
        if self.tables[0].values is None:
            for table, out in zip(self.tables, outs):
                out[...] = self.evaluated(table.F, kept)
            return
        np.matmul(kept, self.tables[0].radix, out=rank)
        for smoothed, out in zip(self.smoothed, outs):
            # every rank is in the box; "clip" skips the buffered range check
            smoothed.take(rank, axis=0, out=out, mode="clip")


def mehler_nodes(space: MeasureSpace, ts, functionals: list[Functional]) -> list[MehlerNode]:
    """A :class:`MehlerNode` at each t of ``ts``, all reading one count
    table per functional on a box sized from those nodes.

    The box invariant: every cell the nodes read lies in the box.  A
    sampled count of atom j is at most ``largest_j``, the largest count
    of its Poisson law's pmf; thinning only lowers it; a node's refresh
    field adds at most ``reach_j(t) - 1``, the largest count of its
    refresh law; and the difference at j reads one cell further.  So
    caps of ``largest_j + max_t reach_j(t)`` hold every read, and no row
    needs a guard.
    """
    largest = np.array([len(poisson_law(float(w)).pmf()) - 1 for w in space.weights])
    reach = np.max([[len(poisson_law(float(w * (1.0 - float(t)))).pmf())
                     for w in space.weights] for t in ts], axis=0)
    tables = [CountTable(F, largest + reach) for F in functionals]
    return [MehlerNode(space, float(t), tables) for t in ts]


def covariance_semigroup_rhs(space: MeasureSpace, F: Functional, G: Functional,
                             plan: McPlan, t_nodes: int) -> Estimate:
    """Nested estimate of ``E int_0^1 sum_x w_x D_xF(eta) P_t D_xG(eta) dt``.

    Per replicate: sample a pattern, read the one-point difference of F
    at the t = 1 node, and pair it at each Gauss-Legendre node with the
    Mehler form of ``P_t D_xG``: the expectation of ``D_xG(kept + field)``
    over a Poisson((1 - t) lambda) refresh field given the t-thinned
    pattern, read exactly from G's smoothed difference table
    (:class:`MehlerNode`).  Only the pattern and its thinning are
    sampled, with one thinning stream shared by every node (common
    random numbers across the grid).
    """
    nodes, weights = gauss_legendre_unit(t_nodes)
    d = space.size
    (at_one,) = mehler_nodes(space, [1.0], [F])
    mehler = mehler_nodes(space, nodes, [G])

    def batch(streams: np.ndarray, _start: int) -> np.ndarray:
        counts = sample_poisson_counts(space, plan.seed, streams)
        u_thin = stream_uniforms(plan.seed, streams, d, sub1=1, sub2=0)
        rank = np.empty(len(counts), dtype=np.int64)
        df, mean_g = np.empty(counts.shape), np.empty(counts.shape)
        at_one.inner_means(counts, rank, [df])
        out = np.zeros(streams.size)
        for node, wt in zip(mehler, weights):
            kept = thin_counts_with_uniforms(counts, node.t, u_thin)
            node.inner_means(kept, rank, [mean_g])
            out += wt * (df * mean_g) @ space.weights
        return out

    return mc_estimate(plan, batch)


def covariance_conditional_rhs(space: MeasureSpace, F: Functional, G: Functional,
                               plan: McPlan, t_nodes: int) -> Estimate:
    """Nested estimate of
    ``E int_0^1 sum_x w_x E[D_xF | kept_t] E[D_xG | kept_t] dt``.

    Given the t-thinned pattern, each conditional expectation is the
    Mehler inner expectation over an independent Poisson((1 - t) lambda)
    refresh field, read exactly from the functional's smoothed difference
    table at one rank shared by F and G (:class:`MehlerNode`), so their
    product needs no independent inner samples.
    """
    nodes, weights = gauss_legendre_unit(t_nodes)
    d = space.size
    mehler = mehler_nodes(space, nodes, [F, G])

    def batch(streams: np.ndarray, _start: int) -> np.ndarray:
        counts = sample_poisson_counts(space, plan.seed, streams)
        u_thin = stream_uniforms(plan.seed, streams, d, sub1=1, sub2=0)
        rank = np.empty(len(counts), dtype=np.int64)
        mean_f, mean_g = np.empty(counts.shape), np.empty(counts.shape)
        out = np.zeros(streams.size)
        for node, wt in zip(mehler, weights):
            kept = thin_counts_with_uniforms(counts, node.t, u_thin)
            node.inner_means(kept, rank, [mean_f, mean_g])
            out += wt * (mean_f * mean_g) @ space.weights
        return out

    return mc_estimate(plan, batch)
