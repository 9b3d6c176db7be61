"""Malliavin operators in pathwise and chaos-level form.

Pathwise: the one-point difference, the add/drop form of the
Kabanov-Skorohod integral, the birth-death generator, and the thinning
semigroup realized by Monte Carlo and, for one-point differences,
exactly through Mehler's formula.  Chaos-level: the same operators as
exact coefficient maps.  The pair of routes is what the verification
suites hold against each other.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .errors import BudgetError, ContractViolationError, UnsupportedArityError
from .estimation import Estimate, McPlan, mc_estimate
from .functionals import (ChaosVector, CountPolynomial, Exponential, Functional,
                          LinearCombo, Opaque, difference_rows,
                          falling_factorial_coeffs, poisson_raw_moment, stirling2)
from .patterns import (PointPattern, PoissonField, Thinning, _count_matrix, poisson_law,
                       sample_poisson_counts, thin_counts)
from .rng import stream_uniforms
from .space import Kernel, MeasureSpace, symmetrize
from .wiener_ito import chaos_reconstruct_counts

CHAOS_FIELD_ORDER_CAP = 3
# largest count box a MehlerDifferences tabulates its functionals on
COUNT_TABLE_CELL_CAP = 1 << 16


# ---------------------------------------------------------------------------
# integrand fields


class FunctionalField:
    """One functional per atom: the direct representation of an integrand."""

    def __init__(self, space: MeasureSpace, functionals: Sequence[Functional]):
        if len(functionals) != space.size:
            raise ContractViolationError("one functional per atom is required")
        for f in functionals:
            space.check_same(f.space, "field entry on a different space")
        self.space = space
        self._functionals = tuple(functionals)

    def functional_at(self, atom_index: int) -> Functional:
        return self._functionals[self.space.atom_index(atom_index)]


class ChaosField:
    """Integrand with per-level kernels; slot 0 is the field argument.

    Kernel n has arity n + 1.  Its slices at the atoms are the level-n
    coefficients of one :class:`ChaosVector` per atom, which checks that
    they are symmetric, so each kernel must be symmetric in its trailing
    n slots; the field value at an atom is that vector's chaos sum.
    """

    def __init__(self, space: MeasureSpace, kernels: Sequence[Kernel], tol: float = 1e-12):
        if not kernels:
            raise ContractViolationError("a field needs at least one kernel")
        if len(kernels) - 1 > CHAOS_FIELD_ORDER_CAP:
            raise UnsupportedArityError(f"field order capped at {CHAOS_FIELD_ORDER_CAP}")
        for n, k in enumerate(kernels):
            if k.arity != n + 1:
                raise ContractViolationError(f"field kernel {n} must have arity {n + 1}")
            space.check_same(k.space, "field kernel on a different space")
        self.space = space
        self.kernels = tuple(kernels)
        self._vectors = tuple(ChaosVector(space, [k.values[x] for k in kernels], tol)
                              for x in range(space.size))

    @property
    def order(self) -> int:
        return len(self.kernels) - 1

    def functional_at(self, atom_index: int) -> Functional:
        cv = self._vectors[self.space.atom_index(atom_index)]
        return Opaque(self.space,
                      counts_fn=lambda c: chaos_reconstruct_counts(self.space, cv, c))

    def symmetrized_level(self, n: int) -> Kernel:
        """Full symmetrization of level n over all n + 1 slots."""
        return symmetrize(self.kernels[n])


def difference_field(F: Functional) -> FunctionalField:
    """The one-point difference of F, atom by atom, as an integrand field."""
    space = F.space
    if isinstance(F, LinearCombo):
        terms = [(coef, e, e.difference_factor()) for coef, e in F.terms()]
        entries = [LinearCombo(space, [(coef * float(factor[x]), e)
                                       for coef, e, factor in terms])
                   for x in range(space.size)]
    else:
        # count polynomials stay structured through their own shift
        entries = [F.shifted_by_point(x) + (-1.0) * F for x in range(space.size)]
    return FunctionalField(space, entries)


# ---------------------------------------------------------------------------
# Kabanov-Skorohod integral


def skorohod_pathwise(H, pattern: PointPattern) -> float:
    """Add/drop form: sum of the field at removed points minus its measure integral."""
    return float(skorohod_counts(H, pattern.counts[None, :])[0])


def skorohod_counts(H, counts: np.ndarray) -> np.ndarray:
    """Rowwise pathwise Kabanov-Skorohod integral over a count matrix."""
    space = H.space
    d = space.size
    counts = _count_matrix(counts, d)
    out = np.zeros(counts.shape[0])
    for x in range(d):
        h_x = H.functional_at(x)
        dec = counts.copy()
        dec[:, x] = np.maximum(dec[:, x] - 1, 0)
        # rows with no point at x contribute zero; the clamped evaluation
        # is finite there and gets multiplied away
        out += counts[:, x] * h_x.evaluate_counts(dec)
        out -= space.weights[x] * h_x.evaluate_counts(counts)
    return out


def chaos_field_from_vector(cv: ChaosVector) -> ChaosField:
    """The difference operator of a chaos vector, as a chaos field.

    Level n of the field is (n + 1) times coefficient n + 1 with the
    first slot read as the field argument.
    """
    if cv.order < 1:
        raise ContractViolationError("a constant has a zero derivative field")
    kernels = []
    for n in range(cv.order):
        coeff = cv.coefficients[n + 1]
        kernels.append(coeff * float(n + 1))
    return ChaosField(cv.space, kernels)


def skorohod_chaos(H: ChaosField) -> ChaosVector:
    """Chaos-level Kabanov-Skorohod integral: shift levels up, symmetrized."""
    coeffs: list = [0.0]
    for n in range(H.order + 1):
        coeffs.append(H.symmetrized_level(n))
    return ChaosVector(H.space, coeffs)


def malliavin_chaos(cv: ChaosVector, atom_index: int) -> ChaosVector:
    """Chaos-level difference operator at one atom.

    Level n - 1 of the output is n times the slice of coefficient n at
    the atom.
    """
    space = cv.space
    atom_index = space.atom_index(atom_index)
    if cv.order < 1:
        return ChaosVector(space, [0.0])
    coeffs: list = [float(cv.coefficients[1].values[atom_index])]
    for n in range(2, cv.order + 1):
        sliced = Kernel(space, cv.coefficients[n].values[atom_index])
        coeffs.append(sliced * float(n))
    return ChaosVector(space, coeffs)


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck generator and inverse


def ou_generator_pathwise(F: Functional, pattern: PointPattern) -> float:
    """Birth-death form: drop each point, add a point under the measure."""
    return float(ou_generator_counts(F, pattern.counts[None, :])[0])


def ou_generator_counts(F: Functional, counts: np.ndarray) -> np.ndarray:
    space = F.space
    counts = _count_matrix(counts, space.size)
    base = F.evaluate_counts(counts)
    out = np.zeros(counts.shape[0])
    for x in range(space.size):
        dec = counts.copy()
        dec[:, x] = np.maximum(dec[:, x] - 1, 0)
        out += counts[:, x] * (F.evaluate_counts(dec) - base)
        inc = counts.copy()
        inc[:, x] += 1
        out += space.weights[x] * (F.evaluate_counts(inc) - base)
    return out


def ou_chaos(cv: ChaosVector) -> ChaosVector:
    """Generator at chaos level: scale level n by minus n."""
    return cv.map_levels(lambda n: -float(n))


def ou_inverse_chaos(cv: ChaosVector) -> ChaosVector:
    """Pseudo-inverse at chaos level: level 0 dropped, level n by -1/n."""
    return cv.map_levels(lambda n: -1.0 / n if n else 0.0)


def semigroup_chaos(cv: ChaosVector, s: float) -> ChaosVector:
    """Thinning semigroup at chaos level: level n scaled by s^n."""
    if not 0.0 <= s <= 1.0:
        raise ContractViolationError("semigroup parameter must lie in [0, 1]")
    return cv.map_levels(lambda n: float(s) ** n)


# ---------------------------------------------------------------------------
# thinning semigroup, pathwise


def semigroup_closed_form(F: Functional, s: float) -> Functional:
    """Exact image of a structured functional under the thinning semigroup.

    Exponentials map to scaled exponentials; count polynomials map to
    count polynomials through the thinned-plus-refreshed count moments.
    """
    if not 0.0 <= s <= 1.0:
        raise ContractViolationError("semigroup parameter must lie in [0, 1]")
    space = F.space
    if isinstance(F, LinearCombo):
        out = []
        for coef, e in F.terms():
            ev = np.exp(-e.v.values)
            scale = float(np.exp(-(1.0 - s) * np.sum(space.weights * (1.0 - ev))))
            v_s = -np.log((1.0 - s) + s * ev)
            out.append((coef * scale, Exponential(space, Kernel(space, v_s))))
        return LinearCombo(space, out)
    if isinstance(F, CountPolynomial):
        return _semigroup_count_polynomial(F, s)
    raise ContractViolationError("no closed-form semigroup image for this functional")


def _binomial_moment_poly(i: int, s: float) -> np.ndarray:
    """E[Binomial(n, s)^i] as polynomial coefficients in n."""
    out = np.zeros(i + 1)
    for k in range(i + 1):
        ff = np.array(falling_factorial_coeffs(k))
        out[: k + 1] += stirling2(i, k) * s**k * ff
    return out


def _semigroup_count_polynomial(F: CountPolynomial, s: float) -> CountPolynomial:
    space = F.space
    terms: list[tuple[float, tuple[int, ...]]] = []
    for exps, coef in F.term_items():
        # per-atom polynomials in the original count, tensored together
        atom_polys = []
        for j, e in enumerate(exps):
            lam = (1.0 - s) * float(space.weights[j])
            poly = np.zeros(e + 1)
            for i in range(e + 1):
                z_moment = poisson_raw_moment(lam, e - i)
                poly[: i + 1] += math.comb(e, i) * z_moment * _binomial_moment_poly(i, s)
            atom_polys.append(poly)
        combo = [(coef, tuple())]
        for poly in atom_polys:
            combo = [(c * float(p_val), e + (deg,))
                     for c, e in combo for deg, p_val in enumerate(poly) if p_val != 0.0]
        terms.extend(combo)
    return CountPolynomial(space, [(c, e) for c, e in terms])


def ou_semigroup_mc(F: Functional, s: float, pattern: PointPattern,
                    inner: McPlan) -> Estimate:
    """Monte Carlo value of the thinning semigroup at one pattern.

    Each replicate thins the pattern with retention s and superposes an
    independent Poisson field carrying the complementary intensity.
    """
    if not 0.0 <= s <= 1.0:
        raise ContractViolationError("semigroup parameter must lie in [0, 1]")
    F.space.check_same(pattern.space, "pattern lives on a different space")
    space = F.space
    base_counts = pattern.counts

    def batch(streams: np.ndarray, _start: int) -> np.ndarray:
        tiled = np.broadcast_to(base_counts, (streams.size, space.size))
        kept = thin_counts(tiled, s, inner.seed, streams, sub1=1, sub2=1)
        field = sample_poisson_counts(space, inner.seed, streams, scale=1.0 - s,
                                      sub1=2, sub2=1)
        return F.evaluate_counts(kept + field)

    return mc_estimate(inner, batch)


def gauss_legendre_unit(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights transported to (0, 1)."""
    if isinstance(nodes, bool) or not isinstance(nodes, (int, np.integer)) or nodes < 1:
        raise ContractViolationError(f"node count must be an integer >= 1, got {nodes!r}")
    x, w = np.polynomial.legendre.leggauss(nodes)
    return (x + 1.0) / 2.0, w / 2.0


def ou_inverse_quadrature(F: Functional, pattern: PointPattern, nodes: int,
                          inner: McPlan, mean: float | None = None) -> Estimate:
    """Pathwise inverse generator: minus the s-integral of the semigroup.

    The integrand is the semigroup applied to the centered functional,
    weighted by 1/s; centering uses the closed-form mean unless one is
    supplied.  All quadrature nodes share one set of uniforms per
    replicate (common random numbers), so the per-replicate quadrature
    value is integrated first and averaged second.
    """
    if mean is None:
        mean = F.closed_form_mean()
    if mean is None:
        raise ContractViolationError(
            "centering requires a closed-form mean or an explicit one")
    F.space.check_same(pattern.space, "pattern lives on a different space")
    space = F.space
    base_counts = pattern.counts
    s_nodes, s_weights = gauss_legendre_unit(nodes)

    def batch(streams: np.ndarray, _start: int) -> np.ndarray:
        tiled = np.broadcast_to(base_counts, (streams.size, space.size))
        thinning = Thinning(tiled, stream_uniforms(inner.seed, streams, space.size,
                                                   sub1=1, sub2=2))
        field = PoissonField(space, stream_uniforms(inner.seed, streams, space.size,
                                                    sub1=2, sub2=2))
        out = np.zeros(streams.size)
        kept = np.empty(tiled.shape, dtype=np.int64)
        refresh = np.empty(tiled.shape, dtype=np.int64)
        values = np.empty(streams.size)
        for s, w in zip(s_nodes, s_weights):
            thinning.at(float(s), kept)
            kept += field.at(1.0 - float(s), refresh)
            np.subtract(F.evaluate_counts(kept), mean, out=values)
            values *= w / s
            out -= values
        return out

    return mc_estimate(inner, batch)


# ---------------------------------------------------------------------------
# Mehler operator, exact


def smoothed_differences(diffs: np.ndarray, caps: np.ndarray,
                         pmfs: list[np.ndarray]) -> np.ndarray:
    """``S[r, x] = sum_k prod_j pmfs[j][k_j] * diffs[r + k @ radix, x]``
    for a ``(cells, atoms)`` table on the box of :class:`MehlerDifferences`.

    One correlation with each atom's pmf along that atom's axis of the
    box.  A cell whose count plus its pmf's length passes a cap sums
    over a cut support and is never read.
    """
    d = len(pmfs)
    # mixed radix with radix[0] = 1: atom j is axis d - 1 - j in C order
    smoothed = diffs.reshape(*(caps[::-1] + 1), d)
    for j, pmf in enumerate(pmfs):
        src = np.moveaxis(smoothed, d - 1 - j, 0)
        out = np.zeros_like(src)
        # ascending k, so every cell sums the pmf in the same order
        for k, p in enumerate(pmf[:len(src)]):
            out[:len(src) - k] += p * src[k:]
        smoothed = np.moveaxis(out, 0, d - 1 - j)
    return np.ascontiguousarray(smoothed).reshape(-1, d)


class MehlerDifferences:
    """Mehler's formula ``P_t F(eta) = E[F(t-thinned eta + field_t)]``,
    exact, at each node t of ``ts``, with ``field_t`` an independent
    Poisson((1 - t) lambda) refresh field (empty at t = 1): given a
    thinned pattern ``kept``, :meth:`read` returns
    ``E[D_x F(kept + field_t)]`` for each functional.

    Each functional is evaluated once on the count box
    ``prod_j [0, caps[j]]``, cell r holding the counts
    ``(r // radix[j]) % (caps[j] + 1)``; its difference table
    ``diffs[r, x] = values[r + radix[x]] - values[r]`` is smoothed with
    each node's refresh pmfs (the laws inversion draws), and a read is a
    row gather at ``kept @ radix``.  A box of more than
    ``COUNT_TABLE_CELL_CAP`` cells gets no tables (``smoothed`` is None),
    and a read sums the evaluated differences over the field's support.

    The box invariant: every cell a read touches lies in the box.  A
    sampled count of atom j is at most ``largest_j``, the largest count
    of its Poisson law's pmf; thinning only lowers it; node t's field
    adds at most ``reach_j(t) - 1``; the difference reads one cell
    further.  So caps of ``largest_j + max_t reach_j(t)`` hold every
    read of a sampled row, and the cut cells past a cap are never read.
    """

    def __init__(self, space: MeasureSpace, ts, functionals: Sequence[Functional]):
        for F in functionals:
            space.check_same(F.space, "functional defined on a different space")
        self.ts = [float(t) for t in ts]
        if not self.ts or not all(0.0 <= t <= 1.0 for t in self.ts):
            raise ContractViolationError("Mehler nodes must be a nonempty list in [0, 1]")
        self.functionals = list(functionals)
        self.pmfs = [[poisson_law(float(w * (1.0 - t))).pmf() for w in space.weights]
                     for t in self.ts]
        self.reach = np.array([[len(p) for p in pmfs] for pmfs in self.pmfs], dtype=np.int64)
        support = int(np.max(np.prod(self.reach, axis=1)))
        if support > COUNT_TABLE_CELL_CAP:
            raise BudgetError(
                f"refresh field support of {support} counts exceeds {COUNT_TABLE_CELL_CAP}")
        largest = np.array([len(poisson_law(float(w)).pmf()) - 1 for w in space.weights])
        self.caps = largest + np.max(self.reach, axis=0)
        sizes = self.caps + 1
        cells = math.prod(sizes.tolist())
        self.smoothed = None
        if cells <= COUNT_TABLE_CELL_CAP:
            self.radix = np.cumprod([1, *sizes[:-1]], dtype=np.int64)
            cell = np.arange(cells, dtype=np.int64)
            box = (cell[:, None] // self.radix) % sizes
            self.values = [F.evaluate_counts(box) for F in self.functionals]
            self.diffs = [np.stack([np.take(values, cell + step, mode="clip") - values
                                    for step in self.radix], axis=1) for values in self.values]
            self.smoothed = [[smoothed_differences(diffs, self.caps, pmfs)
                              for diffs in self.diffs] for pmfs in self.pmfs]

    def read(self, node: int, kept: np.ndarray,
             out: Sequence[np.ndarray] | None = None) -> list[np.ndarray]:
        """``E[D_x F(kept[row] + field_t)]`` at ``t = ts[node]``, one
        ``(rows, atoms)`` array per functional, written into the arrays
        of ``out`` when it is given.

        ``kept`` holds sampled counts or thinnings of them, which the box
        invariant covers; on the table route a count of atom j above
        ``caps[j] - reach[node][j]`` raises :class:`BudgetError`.
        """
        kept = _count_matrix(kept, len(self.caps))
        if self.smoothed is None:
            tables, rank = self._evaluated(node, kept)
        else:
            bound = self.caps - self.reach[node]
            # one whole-matrix max first; the per-atom pass only when it fails
            if kept.size and kept.max() > bound.min():
                top = kept.max(axis=0)
                j = int(np.argmax(top - bound))
                if top[j] > bound[j]:
                    raise BudgetError(f"atom {j}: count {top[j]} lies outside the Mehler box, "
                                      f"whose bound at t = {self.ts[node]} is {bound[j]}")
            # kept @ radix as column multiply-adds (radix[0] is 1): an
            # integer matmul has no BLAS route and costs several times more
            tables, rank = self.smoothed[node], kept[:, 0].astype(np.int64)
            for j in range(1, kept.shape[1]):
                rank += kept[:, j] * self.radix[j]
        # every rank is in its table; "clip" skips the buffered range check
        return [table.take(rank, axis=0, mode="clip", out=o)
                for table, o in zip(tables, out or [None] * len(tables))]

    def _evaluated(self, node: int, kept: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """``sum_k prod_j pmfs[j][k_j] * difference_rows(F, kept + k)``,
        evaluated once per distinct row of ``kept``, in blocks of about
        ``COUNT_TABLE_CELL_CAP`` shifted rows: one table per functional,
        and the table row of each row of ``kept``."""
        uniq, inverse = np.unique(kept, axis=0, return_inverse=True)
        points = np.indices(self.reach[node]).reshape(len(self.reach[node]), -1).T
        probs = functools.reduce(np.multiply.outer, self.pmfs[node]).ravel()
        step = max(1, COUNT_TABLE_CELL_CAP // len(uniq))
        outs = []
        for F in self.functionals:
            out = np.zeros(uniq.shape)
            for lo in range(0, len(points), step):
                shifted = uniq[:, None, :] + points[None, lo:lo + step]
                diffs = difference_rows(F, shifted.reshape(-1, kept.shape[1]))
                out += np.tensordot(diffs.reshape(shifted.shape), probs[lo:lo + step],
                                    ([1], [0]))
            outs.append(out)
        return outs, inverse.reshape(-1)
