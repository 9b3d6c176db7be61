"""Counter-based random number streams.

Every stream is a Philox-4x64-10 generator keyed by a ``(seed, stream)``
pair, so draws are pure functions of (key, counter) with no sequential
state.  That gives three properties the estimation engine relies on:

* distinct ``(seed, stream)`` pairs are statistically independent;
* any replicate's numbers can be produced out of order, which makes
  results independent of how work is split across workers;
* whole batches of streams can be generated in one vectorized pass.

The block function matches the Philox implementation shipped with NumPy
bit for bit (see ``tests/test_rng.py``), but is evaluated with NumPy
uint64 arithmetic over arrays of keys and counters.

Its cost is memory traffic, not arithmetic: a round makes about a dozen
uint64 temporaries per counter word, and for a whole batch of streams
each would be larger than the L2 cache and freshly mapped by the
allocator.  So the streams are walked in chunks of rows holding about
``_CHUNK_WORDS`` blocks, whose temporaries stay in cache, and each chunk
writes its doubles straight into the result.  Within a chunk the
counters are passed at their natural shapes (the block index as one
row, the substream words as ``(1, 1)``) and broadcast against the
stream keys, so the first round runs on tiny arrays and only reaches
full size where a key is mixed in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError

_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
_M0_LO, _M0_HI = np.uint64(0xE14C6C93), np.uint64(0xD2E7470E)
_M1_LO, _M1_HI = np.uint64(0x95121157), np.uint64(0xCA5A8263)
_W0 = np.uint64(0x9E3779B97F4A7C15)
_W1 = np.uint64(0xBB67AE8584CAA73B)
_ROUNDS = 10

_MASK32 = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)
_SH11 = np.uint64(11)
# 2**-53; doubles are built from the top 53 bits of each 64-bit word.
_DOUBLE_SCALE = 1.0 / 9007199254740992.0
# blocks (of four words) per chunk of rows: the best of 2**13..2**16 measured
# with two worker threads, where fewer, larger NumPy calls hold the
# interpreter lock for less of the time (2**14 was the best single-threaded)
_CHUNK_WORDS = 32_768


def _mulhilo(a: np.ndarray, m: np.uint64, m_lo: np.uint64,
             m_hi: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products ``a * m``.

    Each 32-bit partial product is formed once, and none of the sums
    ``t = a_hi*m_lo + (a_lo*m_lo >> 32)``, ``w = (t & M32) + a_lo*m_hi``
    and ``hi = a_hi*m_hi + (t >> 32) + (w >> 32)`` can wrap.
    """
    lo = a * m
    a_hi = a >> _SH32
    a_lo = a & _MASK32
    t = a_hi * m_lo
    w = a_lo * m_lo
    w >>= _SH32
    t += w
    np.bitwise_and(t, _MASK32, out=w)
    a_lo *= m_hi
    w += a_lo
    w >>= _SH32
    t >>= _SH32
    a_hi *= m_hi
    a_hi += t
    a_hi += w
    return a_hi, lo


def _philox_into(out: np.ndarray, c0, c1, c2, c3, k0, k1) -> None:
    """Ten Philox rounds; ``out[i, b]`` gets the four words of row i, block b.

    The counters and keys are uint64 arrays, at least 1-d so that key
    bumps wrap silently, that broadcast to ``out.shape[:2]``.
    """
    full = out.shape[:2]
    for r in range(_ROUNDS):
        if r:
            k0 = k0 + _W0
            k1 = k1 + _W1
        hi0, lo0 = _mulhilo(c0, _M0, _M0_LO, _M0_HI)
        hi1, lo1 = _mulhilo(c2, _M1, _M1_LO, _M1_HI)
        # hi1 has the shape of c1 or a larger one, and k0 is (1, 1)
        hi1 ^= c1
        hi1 ^= k0
        if hi0.shape == full:
            hi0 ^= c3
            hi0 ^= k1
        else:
            hi0 = hi0 ^ c3 ^ k1
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
    out[..., 0] = c0
    out[..., 1] = c1
    out[..., 2] = c2
    out[..., 3] = c3


def _as_u64(name: str, x) -> np.uint64:
    """A key or counter word; not an integer in [0, 2**64) raises, never wraps."""
    if (isinstance(x, (bool, np.bool_)) or not isinstance(x, (int, np.integer))
            or not 0 <= int(x) < 1 << 64):
        raise ContractViolationError(f"{name} must be an integer in [0, 2**64), got {x!r}")
    return np.uint64(int(x))


def _lanes(seed, sub1, sub2) -> tuple[np.uint64, np.uint64, np.uint64]:
    return _as_u64("seed", seed), _as_u64("sub1", sub1), _as_u64("sub2", sub2)


def _stream_keys(streams) -> np.ndarray:
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


def _chunk_rows(n_blocks: int) -> int:
    return max(1, _CHUNK_WORDS // n_blocks)


def _counters_and_key(lanes: tuple[np.uint64, np.uint64, np.uint64], n_blocks: int):
    """Broadcastable counter words and seed key from checked :func:`_lanes`."""
    seed, sub1, sub2 = lanes
    # NumPy's Philox advances the counter before producing a block, so the
    # first emitted block sits at counter word 1; match that exactly.
    c0 = np.arange(1, n_blocks + 1, dtype=np.uint64)[None, :]
    c1 = np.zeros((1, 1), dtype=np.uint64)
    c2 = np.full((1, 1), sub1)
    c3 = np.full((1, 1), sub2)
    k0 = np.full((1, 1), seed)
    return c0, c1, c2, c3, k0


def stream_uniforms(seed: int, streams: np.ndarray, n: int,
                    sub1: int = 0, sub2: int = 0) -> np.ndarray:
    """Uniform [0,1) doubles, one row per stream, ``n`` per row.

    Row i holds the first ``n`` Philox-4x64 words of stream ``streams[i]``
    in counter order, each turned into a double from its top 53 bits,
    exactly as NumPy's ``Generator(Philox(key=[seed, stream],
    counter=[0, 0, sub1, sub2])).random``: ``sub1`` and ``sub2`` select a
    substream by occupying the third and fourth counter words (the block
    index occupies the first).  ``streams`` must be a 1-d array of
    non-negative integers, ``seed``, ``sub1`` and ``sub2`` integers in
    [0, 2**64) and ``n`` at least 0, or :class:`ContractViolationError`
    is raised.
    """
    lanes = _lanes(seed, sub1, sub2)
    keys = _stream_keys(streams)
    if n < 0:
        raise ContractViolationError(f"n must be >= 0, got {n}")
    out = np.empty((keys.size, n))
    if n == 0:
        return out
    n_blocks = -(-n // 4)
    c0, c1, c2, c3, k0 = _counters_and_key(lanes, n_blocks)
    step = _chunk_rows(n_blocks)
    buf = np.empty((min(step, keys.size), n_blocks, 4), dtype=np.uint64)
    for lo in range(0, keys.size, step):
        rows = keys[lo:lo + step]
        words = buf[:rows.size]
        _philox_into(words, c0, c1, c2, c3, k0, rows[:, None])
        words >>= _SH11
        np.multiply(words.reshape(rows.size, 4 * n_blocks)[:, :n], _DOUBLE_SCALE,
                    out=out[lo:lo + step])
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
