"""Counter-based random number streams.

The draws come from NumPy's own Philox-4x64-10 in this fixed layout:

* lane ``(sub1, sub2)`` of case seed ``seed`` is the double sequence
  ``Generator(Philox(key=[seed, 0], counter=[0, 0, sub1, sub2])).random()``;
* stream (replicate) ``i`` of a lane reads doubles ``[i*n, (i+1)*n)`` of
  that sequence, where ``n`` is the number of doubles per stream.

Each double comes from one 64-bit word, and Philox makes four words per
counter value, so word ``p`` of a lane sits at counter ``p // 4 + 1``
(NumPy advances the counter before it makes a block) in the first two
counter words, carried as one 128-bit number, with ``sub1`` and
``sub2`` in the last two.  Distinct (stream, lane) pairs of one ``n``
therefore never share a counter.  Draws are pure functions of (seed,
stream, lane), with no sequential state, which gives the estimation
engine three properties:

* distinct (stream, lane) pairs are statistically independent;
* any replicate's numbers can be produced out of order, which makes
  results independent of how work is split across workers;
* a batch of consecutive streams is one contiguous range of its lane,
  drawn by one native call.

A scattered batch costs one native generator per run of consecutive
streams.  Two draws of different ``n`` from one lane overlap, so each
draw of a case takes a lane of its own.  ``numpy.random`` is imported
at the first draw, not with the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError

_U64 = 1 << 64


def _as_u64(name: str, x) -> int:
    """A key or counter word; not an integer in [0, 2**64) raises, never wraps."""
    if (isinstance(x, (bool, np.bool_)) or not isinstance(x, (int, np.integer))
            or not 0 <= int(x) < _U64):
        raise ContractViolationError(f"{name} must be an integer in [0, 2**64), got {x!r}")
    return int(x)


def _lanes(seed, sub1, sub2) -> tuple[int, int, int]:
    return _as_u64("seed", seed), _as_u64("sub1", sub1), _as_u64("sub2", sub2)


def stream_keys(streams) -> np.ndarray:
    """``streams`` as a 1-d uint64 array, rejecting anything else.

    uint64 input is taken as is, with no pass over its values.
    """
    keys = np.asarray(streams)
    if keys.ndim != 1:
        raise ContractViolationError(
            f"streams must be a 1-d array, got shape {keys.shape}")
    if keys.size == 0 or keys.dtype == np.uint64:
        return keys.astype(np.uint64, copy=False)
    if keys.dtype.kind == "i":
        if keys.min() < 0:
            raise ContractViolationError("streams must be non-negative")
    elif keys.dtype.kind != "u":
        raise ContractViolationError(
            f"streams must be integers, got dtype {keys.dtype}")
    return keys.astype(np.uint64)


def _runs(keys: np.ndarray) -> np.ndarray:
    """Start positions of the maximal runs of consecutive streams, and the end."""
    # a step of one that wraps from 2**64 - 1 to 0 is no run
    step = (np.diff(keys) != 1) | (keys[:-1] == np.uint64(_U64 - 1))
    return np.concatenate(([0], np.flatnonzero(step) + 1, [keys.size]))


def stream_uniforms(seed: int, streams: np.ndarray, n: int,
                    sub1: int = 0, sub2: int = 0) -> np.ndarray:
    """Uniform [0,1) doubles, one row per stream, ``n`` per row.

    Row i holds doubles ``[s*n, (s+1)*n)`` of lane ``(sub1, sub2)``, for
    ``s = streams[i]``; see the module docstring for the layout.
    ``streams`` must be a 1-d array of non-negative integers, in any
    order, ``seed``, ``sub1`` and ``sub2`` integers in [0, 2**64) and
    ``n`` an integer at least 0, or :class:`ContractViolationError` is
    raised.
    """
    seed, sub1, sub2 = _lanes(seed, sub1, sub2)
    keys = stream_keys(streams)
    if isinstance(n, (bool, np.bool_)) or not isinstance(n, (int, np.integer)) or n < 0:
        raise ContractViolationError(f"n must be an integer >= 0, got {n!r}")
    n = int(n)
    out = np.empty((keys.size, n))
    if out.size == 0:
        return out
    from numpy.random import Generator, Philox

    # uint64 words: NumPy rounds a Python list that holds a word of 2**63
    # or more through float64, so two such seeds could share a key
    key = np.array([seed, 0], dtype=np.uint64)
    bounds = _runs(keys)
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        first = int(keys[lo]) * n
        block, skip = divmod(first, 4)
        bits = Philox(key=key, counter=np.array(
            [block % _U64, block // _U64, sub1, sub2], dtype=np.uint64))
        if skip:
            bits.random_raw(skip)
        Generator(bits).random(out=out[lo:hi])
    return out


@dataclass(frozen=True)
class RngStream:
    """Handle for one reproducible substream.

    ``seed`` is shared by a whole run; ``stream`` separates independent
    consumers (e.g. Monte Carlo replicates).  ``substream`` carves out
    further lanes for operations that need several independent sources
    from the same stream (thinning draws vs. fresh Poisson fields, say).
    """

    seed: int
    stream: int = 0
    sub1: int = 0
    sub2: int = 0

    def __post_init__(self):
        _lanes(self.seed, self.sub1, self.sub2)
        _as_u64("stream", self.stream)

    def substream(self, a: int, b: int = 0) -> "RngStream":
        # +1 keeps every substream distinct from the root lane (0, 0).
        return RngStream(self.seed, self.stream, a + 1, b + 1)

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` uniform [0,1) doubles from this stream's lane."""
        return stream_uniforms(self.seed, np.array([self.stream], dtype=np.uint64),
                               n, self.sub1, self.sub2)[0]
