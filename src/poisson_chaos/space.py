"""Finite discrete measure spaces and the dense kernel algebra.

A space is a finite list of atoms with strictly positive weights; a
kernel of arity n is a dense rank-n tensor over the atoms.  Every
integral against a power of the measure is an exact weighted sum, which
is what makes the downstream identity checks exact rather than
approximate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, UnsupportedArityError

INTEGRATION_ARITY_CAP = 4
SYMMETRIZATION_ARITY_CAP = 6


@dataclass(frozen=True, eq=False)
class MeasureSpace:
    """Atoms with positive weights; the weight of an atom is its measure."""

    atoms: tuple[str, ...]
    weights: np.ndarray

    def __init__(self, atoms, weights):
        atoms = tuple(str(a) for a in atoms)
        w = np.asarray(weights, dtype=np.float64).copy()
        if len(atoms) != w.size or w.ndim != 1:
            raise ContractViolationError("one weight per atom is required")
        if len(atoms) == 0:
            raise ContractViolationError("a space needs at least one atom")
        if len(set(atoms)) != len(atoms):
            raise ContractViolationError("atom identifiers must be distinct")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ContractViolationError("weights must be finite and > 0")
        w.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return len(self.atoms)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def index(self, atom: str) -> int:
        try:
            return self.atoms.index(atom)
        except ValueError:
            raise ContractViolationError(f"unknown atom {atom!r}") from None

    def atom_index(self, x) -> int:
        """``x`` as an atom position; anything but an integer in [0, size) raises."""
        if (isinstance(x, (bool, np.bool_)) or not isinstance(x, (int, np.integer))
                or not 0 <= x < self.size):
            raise ContractViolationError(
                f"atom index must be an integer in [0, {self.size}), got {x!r}")
        return int(x)

    def same_as(self, other: "MeasureSpace") -> bool:
        return self.atoms == other.atoms and np.array_equal(self.weights, other.weights)

    def check_same(self, other: "MeasureSpace", message: str) -> None:
        """Raise ``ContractViolationError(message)`` unless ``other`` is this space."""
        if not self.same_as(other):
            raise ContractViolationError(message)

    def cache_key(self) -> tuple:
        return (self.atoms, self.weights.tobytes())

    def __repr__(self) -> str:
        pairs = ", ".join(f"{a}:{w:g}" for a, w in zip(self.atoms, self.weights))
        return f"MeasureSpace({pairs})"


@dataclass(frozen=True, eq=False)
class Kernel:
    """Dense real-valued function on the n-fold product of the atom set.

    Arity 0 is a plain scalar (stored as a 0-d array).
    """

    space: MeasureSpace
    values: np.ndarray
    arity: int = field(init=False)

    def __init__(self, space: MeasureSpace, values):
        vals = np.asarray(values, dtype=np.float64).copy()
        d = space.size
        if vals.shape != (d,) * vals.ndim:
            raise ContractViolationError(
                f"kernel shape {vals.shape} does not match a power of side {d}")
        if not np.all(np.isfinite(vals)):
            raise ContractViolationError("kernel entries must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "arity", vals.ndim)

    @staticmethod
    def scalar(space: MeasureSpace, value: float) -> "Kernel":
        return Kernel(space, np.asarray(float(value)))

    @staticmethod
    def constant(space: MeasureSpace, arity: int, value: float = 1.0) -> "Kernel":
        return Kernel(space, np.full((space.size,) * arity, float(value)))

    def __neg__(self) -> "Kernel":
        return Kernel(self.space, -self.values)

    def __add__(self, other: "Kernel") -> "Kernel":
        _check_same_arity(self, other)
        return Kernel(self.space, self.values + other.values)

    def __sub__(self, other: "Kernel") -> "Kernel":
        _check_same_arity(self, other)
        return Kernel(self.space, self.values - other.values)

    def __mul__(self, c: float) -> "Kernel":
        return Kernel(self.space, self.values * float(c))

    __rmul__ = __mul__

    def pointwise(self, other: "Kernel") -> "Kernel":
        _check_same_arity(self, other)
        return Kernel(self.space, self.values * other.values)

    def is_symmetric(self, tol: float = 1e-12) -> bool:
        if self.arity <= 1:
            return True
        sym = symmetrize(self).values
        return bool(np.max(np.abs(self.values - sym)) <= tol)


def _check_same_arity(a: Kernel, b: Kernel) -> None:
    a.space.check_same(b.space, "kernels live on different spaces")
    if a.arity != b.arity:
        raise ContractViolationError(f"arity mismatch: {a.arity} vs {b.arity}")


def integrate(space: MeasureSpace, f: Kernel) -> float:
    """Integral of f against the arity-fold product measure.

    The empty product measure has total mass one, so an arity-0 kernel
    integrates to its own scalar value.
    """
    space.check_same(f.space, "kernel defined on a different space")
    if f.arity > INTEGRATION_ARITY_CAP:
        raise UnsupportedArityError(f"integration arity capped at {INTEGRATION_ARITY_CAP}")
    vals = f.values
    for _ in range(f.arity):
        vals = vals @ space.weights
    return float(vals)


def inner_product(space: MeasureSpace, f: Kernel, g: Kernel) -> float:
    """Scalar product of two same-arity kernels in the weighted L2 sense."""
    _check_same_arity(f, g)
    return integrate(space, f.pointwise(g))


def norm(space: MeasureSpace, f: Kernel) -> float:
    return math.sqrt(max(inner_product(space, f, f), 0.0))


def tensor(*factors: Kernel) -> Kernel:
    """Tensor product; argument blocks concatenate in the given order."""
    if not factors:
        raise ContractViolationError("tensor needs at least one factor")
    space = factors[0].space
    vals = factors[0].values
    for f in factors[1:]:
        space.check_same(f.space, "kernels live on different spaces")
        vals = np.multiply.outer(vals, f.values)
    return Kernel(space, vals)


def tensor_power(f: Kernel, n: int) -> Kernel:
    if n == 0:
        return Kernel.scalar(f.space, 1.0)
    return tensor(*([f] * n))


def symmetrize(f: Kernel) -> Kernel:
    """Average of f over all permutations of its arguments.

    Symmetric inputs are returned unchanged, which makes the operation
    idempotent to the bit.
    """
    if f.arity > SYMMETRIZATION_ARITY_CAP:
        raise UnsupportedArityError(f"symmetrization arity capped at {SYMMETRIZATION_ARITY_CAP}")
    if f.arity <= 1:
        return f
    perms = list(itertools.permutations(range(f.arity)))
    if all(np.array_equal(np.transpose(f.values, p), f.values) for p in perms[1:]):
        return f
    # one averaged value per orbit, written to every position of the
    # orbit, so the output is symmetric to the bit
    out = np.empty_like(f.values)
    cache: dict[tuple, float] = {}
    for idx in np.ndindex(f.values.shape):
        key = tuple(sorted(idx))
        if key not in cache:
            orbit = set(itertools.permutations(key))
            cache[key] = sum(float(f.values[p]) for p in sorted(orbit)) / len(orbit)
        out[idx] = cache[key]
    return Kernel(f.space, out)


def contraction(f: Kernel, g: Kernel, r: int, l: int) -> Kernel:
    """Contraction of two symmetric kernels.

    Out of r identified argument pairs, l are integrated against the
    measure and r - l stay as shared free arguments; the result has
    arity p + q - r - l.  With r = l = 0 this is the tensor product.
    """
    f.space.check_same(g.space, "kernels live on different spaces")
    p, q = f.arity, g.arity
    if not (0 <= r <= min(p, q)):
        raise ContractViolationError(f"r={r} outside 0..min({p},{q})")
    if not (0 <= l <= r):
        raise ContractViolationError(f"l={l} outside 0..{r}")
    w = f.space.weights

    # Axes of f: l integrated, then p-l free (kept first in the output).
    # Axes of g: the same l integrated, r-l shared with f's first free
    # axes, then q-r fresh free axes.
    fv = f.values
    gv = g.values
    sub_f = tuple(range(l)) + tuple(range(l, p))
    shared = tuple(range(l, l + (r - l)))
    fresh = tuple(range(p, p + (q - r)))
    sub_g = tuple(range(l)) + shared + fresh
    out_axes = tuple(range(l, p)) + fresh

    letters = "abcdefghijklmnopqrstuv"
    subs_f = "".join(letters[i] for i in sub_f)
    subs_g = "".join(letters[i] for i in sub_g)
    subs_out = "".join(letters[i] for i in out_axes)
    operands = [fv, gv]
    subs_w = ""
    for i in range(l):
        operands.append(w)
        subs_w += "," + letters[i]
    expr = f"{subs_f},{subs_g}{subs_w}->{subs_out}"
    vals = np.einsum(expr, *operands)
    if np.ndim(vals) == 0:
        return Kernel.scalar(f.space, float(vals))
    return Kernel(f.space, vals)
