"""Malliavin operators in pathwise and chaos-level form.

Pathwise: the one-point difference, the add/drop form of the
Kabanov-Skorohod integral, the birth-death generator, and the thinning
semigroup realized by Monte Carlo.  Chaos-level: the same operators as
exact coefficient maps.  The pair of routes is what the verification
suites hold against each other.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ContractViolationError, UnsupportedArityError
from .estimation import Estimate, McPlan, mc_estimate
from .functionals import (ChaosVector, CountPolynomial, Exponential, Functional,
                          LinearCombo, Opaque, falling_factorial_coeffs,
                          poisson_raw_moment, stirling2)
from .patterns import (PointPattern, _count_matrix, poisson_counts_with_uniforms,
                       sample_poisson_counts, thin_counts,
                       thin_counts_with_uniforms)
from .rng import stream_uniforms
from .space import Kernel, MeasureSpace, symmetrize
from .wiener_ito import wiener_ito_counts

CHAOS_FIELD_ORDER_CAP = 3


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
        return self._functionals[atom_index]


class ChaosField:
    """Integrand with per-level kernels; slot 0 is the field argument.

    Kernel n has arity n + 1 and must be symmetric in its trailing n
    slots; the field value at an atom is the chaos sum of the sliced
    kernels.
    """

    def __init__(self, space: MeasureSpace, kernels: Sequence[Kernel], tol: float = 1e-12):
        if len(kernels) - 1 > CHAOS_FIELD_ORDER_CAP:
            raise UnsupportedArityError(f"field order capped at {CHAOS_FIELD_ORDER_CAP}")
        for n, k in enumerate(kernels):
            if k.arity != n + 1:
                raise ContractViolationError(f"field kernel {n} must have arity {n + 1}")
            space.check_same(k.space, "field kernel on a different space")
            if n >= 2:
                for x in range(space.size):
                    slice_ = Kernel(space, k.values[x])
                    if np.max(np.abs(slice_.values - symmetrize(slice_).values)) > tol:
                        raise ContractViolationError(
                            f"field kernel {n} is not symmetric in its trailing slots")
        self.space = space
        self.kernels = tuple(kernels)

    @property
    def order(self) -> int:
        return len(self.kernels) - 1

    def functional_at(self, atom_index: int) -> Functional:
        kernels = self.kernels

        def counts_fn(counts: np.ndarray) -> np.ndarray:
            out = np.zeros(counts.shape[0])
            for k in kernels:
                sliced = Kernel(self.space, k.values[atom_index])
                out += wiener_ito_counts(self.space, sliced, counts)
            return out

        return Opaque(self.space, counts_fn=counts_fn)

    def symmetrized_level(self, n: int) -> Kernel:
        """Full symmetrization of level n over all n + 1 slots."""
        return symmetrize(self.kernels[n])


def difference_field(F: Functional) -> FunctionalField:
    """The one-point difference of F, atom by atom, as an integrand field."""
    space = F.space
    entries = []
    for x in range(space.size):
        if isinstance(F, (Exponential, LinearCombo)):
            terms = []
            for coef, e in F.terms():
                factor = float(np.exp(-e.v.values[x]) - 1.0)
                terms.append((coef * factor, e))
            entries.append(LinearCombo(space, terms))
        else:
            # count polynomials stay structured through their own shift
            entries.append(F.shifted_by_point(x) + (-1.0) * F)
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
    if isinstance(F, (Exponential, LinearCombo)):
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
        u_thin = stream_uniforms(inner.seed, streams, space.size, sub1=1, sub2=2)
        u_field = stream_uniforms(inner.seed, streams, space.size, sub1=2, sub2=2)
        out = np.zeros(streams.size)
        for s, w in zip(s_nodes, s_weights):
            kept = thin_counts_with_uniforms(tiled, float(s), u_thin)
            field = poisson_counts_with_uniforms(space, 1.0 - float(s), u_field)
            values = F.evaluate_counts(kept + field) - mean
            out -= (w / s) * values
        return out

    return mc_estimate(inner, batch)
