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

Its cost is memory traffic and the allocator, not arithmetic: a round
over a whole batch of streams would make about a dozen uint64
temporaries per counter word, each larger than the L2 cache and mapped
afresh by the allocator.  So the streams are walked in chunks of rows
holding at most ``_CHUNK_WORDS`` blocks, and every chunk runs the ten
rounds in one workspace of eight uint64 buffers of that size: three
hold the partial products of a multiply-high and five the state words.
A word is dead once it has been xored in or multiplied, so each round
writes its products over words it has consumed, every full-size ufunc
writes with ``out=``, and the last round's words become doubles straight
in the result.  A module-level pool holds one workspace per running
call, so concurrent calls (the replicate threads of
:func:`~poisson_chaos.estimation.mc_batches`) never share one and later
calls reuse them.

Within a chunk the counters enter at their natural shapes (the block
index as one row, the substream words as one element) and broadcast
against the stream keys, so the first round runs on tiny arrays and a
word only reaches full size where a key is mixed in.  Each round
computes only the products that the words read later depend on: a
call that reads at most two words of one block skips the round-9 and
round-10 products that feed only words 2 and 3.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError

_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
_M0_LO, _M0_HI = np.uint64(0xE14C6C93), np.uint64(0xD2E7470E)
_M1_LO, _M1_HI = np.uint64(0x95121157), np.uint64(0xCA5A8263)
_W0 = 0x9E3779B97F4A7C15
_W1 = 0xBB67AE8584CAA73B
_ROUNDS = 10
# the input words that each output word of a round reads; the output is
# (hi(c2*M1) ^ c1 ^ k0, lo(c2*M1), hi(c0*M0) ^ c3 ^ k1, lo(c0*M0))
_READS = ({1, 2}, {2}, {0, 3}, {0})

_MASK32 = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)
_SH11 = np.uint64(11)
# 2**-53; doubles are built from the top 53 bits of each 64-bit word.
_DOUBLE_SCALE = 1.0 / 9007199254740992.0
# blocks (of four words) per chunk of rows: the best of 2**13..2**16 measured
# with two worker threads, where fewer, larger NumPy calls hold the
# interpreter lock for less of the time (2**14 was the best single-threaded)
_CHUNK_WORDS = 32_768
# three multiply-high scratch buffers and five state words
_BUFFERS = 8

# idle workspaces of _BUFFERS x _CHUNK_WORDS words (2 MiB each): a call
# pops one, or makes one when all are in use, and puts it back when it
# returns, so the pool holds as many as calls ever ran at once; list pop
# and append are atomic, so threads need no lock to share it
_WORKSPACES: list[np.ndarray] = []


@contextmanager
def _workspace(words: int):
    """``_BUFFERS`` rows of at least ``words`` uint64, the caller's
    until it leaves the block.

    Only a row of more than ``_CHUNK_WORDS`` blocks needs more than a
    pooled workspace holds; it gets a workspace of its own.
    """
    if words > _CHUNK_WORDS:
        yield np.empty((_BUFFERS, words), dtype=np.uint64)
        return
    try:
        ws = _WORKSPACES.pop()
    except IndexError:
        ws = np.empty((_BUFFERS, _CHUNK_WORDS), dtype=np.uint64)
    try:
        yield ws
    finally:
        _WORKSPACES.append(ws)


def _mulhilo(a: np.ndarray, m: np.uint64, m_lo: np.uint64, m_hi: np.uint64,
             hi: bool, lo: bool, free: list, scratch: list) -> np.ndarray | None:
    """The 128-bit products ``a * m``: their low words over ``a`` when
    ``lo``, and their high words returned when ``hi`` (else None).

    A full ``a`` takes its high words from ``free`` and works in
    ``scratch``; a tiny one gets fresh arrays.  Each 32-bit partial
    product is formed once, and none of the sums
    ``t = a_hi*m_lo + (a_lo*m_lo >> 32)``, ``w = (t & M32) + a_lo*m_hi``
    and ``high = a_hi*m_hi + (t >> 32) + (w >> 32)`` can wrap.
    """
    if not hi:
        if lo:
            a *= m
        return None
    if a.ndim == 2:
        high, (s1, s2, s3) = free.pop(), scratch
    else:
        high, s1, s2, s3 = (np.empty_like(a) for _ in range(4))
    np.bitwise_and(a, _MASK32, out=s1)
    np.right_shift(a, _SH32, out=s2)
    if lo:
        a *= m
    np.multiply(s1, m_lo, out=s3)
    s3 >>= _SH32
    np.multiply(s2, m_lo, out=high)
    high += s3
    np.bitwise_and(high, _MASK32, out=s3)
    s1 *= m_hi
    s3 += s1
    s3 >>= _SH32
    high >>= _SH32
    s2 *= m_hi
    high += s2
    high += s3
    return high


def _round(words: list, need: set, r: int, seed: int, keys: np.ndarray,
           free: list, scratch: list) -> list:
    """Philox round ``r`` over ``words``; returns its output words in
    ``need``, and None for the others.

    A word is a full ``(rows, blocks)`` buffer (2-d) or a tiny counter
    that broadcasts against one (1-d, owned by this call).
    Full products go into buffers taken from ``free``, and full words
    go back to it once they die.  ``keys`` is the ``(rows, 1)`` column
    of stream keys.
    """
    c0, c1, c2, c3 = words
    out = [None] * 4

    def release(*dead):
        free.extend(w for w in dead if w is not None and w.ndim == 2)

    hi0 = _mulhilo(c0, _M0, _M0_LO, _M0_HI, 2 in need, 3 in need, free, scratch)
    if 3 in need:
        out[3] = c0
    else:
        release(c0)
    if hi0 is not None:
        # the key of word 2 differs per row, so that word is always full
        k1 = np.add(keys, np.uint64(r * _W1 % 2**64), out=scratch[0][:, :1])
        if hi0.ndim == 2:
            hi0 ^= c3
            hi0 ^= k1
        else:
            hi0 = np.bitwise_xor(hi0 ^ c3, k1, out=free.pop())
        out[2] = hi0
    release(c3)
    hi1 = _mulhilo(c2, _M1, _M1_LO, _M1_HI, 0 in need, 1 in need, free, scratch)
    if 1 in need:
        out[1] = c2
    else:
        release(c2)
    if hi1 is not None:
        hi1 ^= c1
        hi1 ^= np.uint64((seed + r * _W0) % 2**64)
        out[0] = hi1
    release(c1)
    return out


def _round_needs(words: int) -> list[set]:
    """The output words each round must produce so that the last round
    gives the first ``words`` words of a block."""
    needs = [set(range(words))]
    while len(needs) < _ROUNDS:
        needs.append(set().union(*(_READS[w] for w in needs[-1])))
    return needs[::-1]


# by the number of words a call reads from each block
_NEEDS = {words: _round_needs(words) for words in range(1, 5)}


def _as_u64(name: str, x) -> np.uint64:
    """A key or counter word; not an integer in [0, 2**64) raises, never wraps."""
    if (isinstance(x, (bool, np.bool_)) or not isinstance(x, (int, np.integer))
            or not 0 <= int(x) < 1 << 64):
        raise ContractViolationError(f"{name} must be an integer in [0, 2**64), got {x!r}")
    return np.uint64(int(x))


def _lanes(seed, sub1, sub2) -> tuple[np.uint64, np.uint64, np.uint64]:
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


def _chunk_rows(n_blocks: int) -> int:
    return max(1, _CHUNK_WORDS // n_blocks)


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
    [0, 2**64) and ``n`` an integer at least 0, or
    :class:`ContractViolationError` is raised.
    """
    seed, sub1, sub2 = _lanes(seed, sub1, sub2)
    keys = stream_keys(streams)
    if isinstance(n, (bool, np.bool_)) or not isinstance(n, (int, np.integer)) or n < 0:
        raise ContractViolationError(f"n must be an integer >= 0, got {n!r}")
    n = int(n)
    out = np.empty((keys.size, n))
    if out.size == 0:
        return out
    n_blocks = -(-n // 4)
    needs = _NEEDS[min(n, 4)]
    step = _chunk_rows(n_blocks)
    with _workspace(min(step, keys.size) * n_blocks) as ws:
        for lo in range(0, keys.size, step):
            rows = keys[lo:lo + step, None]
            views = [b[:rows.size * n_blocks].reshape(rows.size, n_blocks) for b in ws]
            scratch, free = views[:3], views[3:]
            # NumPy's Philox advances the counter before producing a block,
            # so the first emitted block sits at counter word 1; match that
            words = [np.arange(1, n_blocks + 1, dtype=np.uint64), np.zeros(1, np.uint64),
                     np.full(1, sub1), np.full(1, sub2)]
            for r, need in enumerate(needs):
                words = _round(words, need, r, int(seed), rows, free, scratch)
            for j, word in enumerate(words[:n]):
                word >>= _SH11
                np.multiply(word[:, :len(range(j, n, 4))], _DOUBLE_SCALE,
                            out=out[lo:lo + step, j::4])
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
