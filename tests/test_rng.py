"""Stream generator: the counter-range layout against the reference
block function and NumPy's Philox, independence, reproducibility."""

import hashlib
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.random import Generator, Philox

from poisson_chaos import rng
from poisson_chaos.errors import ContractViolationError
from poisson_chaos.estimation import BATCH_SIZE
from poisson_chaos.rng import RngStream, stream_uniforms

import oracle

TOP = 2**64 - 1


def native_uniforms(seed: int, stream: int, n: int, sub1: int = 0, sub2: int = 0):
    """NumPy's own Philox-4x64 doubles for one stream of the layout: lane
    ``(sub1, sub2)`` keyed by ``(seed, 0)``, from its word ``stream * n``
    on, reached by NumPy's own ``advance``."""
    bit_gen = Philox(key=np.array([seed, 0], dtype=np.uint64),
                     counter=np.array([0, 0, sub1, sub2], dtype=np.uint64))
    block, skip = divmod(int(stream) * n, 4)
    bit_gen.advance(block)
    bit_gen.random_raw(skip)
    return Generator(bit_gen).random(n)


def lane_doubles(seed: int, words: int, sub1: int = 0, sub2: int = 0) -> np.ndarray:
    """The first ``words`` doubles of a lane, from :func:`oracle.raw_blocks`."""
    raw = oracle.raw_blocks(seed, np.zeros(1, dtype=np.uint64), -(-words // 4), sub1, sub2)[0]
    return (raw[:words] >> np.uint64(11)).astype(np.float64) * 2.0**-53


class TestReferenceAgreement:
    """The reference block function in ``oracle`` and the generator must
    match NumPy's Philox bit for bit."""

    def test_raw_blocks_match_numpy(self):
        for seed, stream in [(0, 0), (7, 3), (2**63, 2**64 - 1), (123456789, 42)]:
            mine = oracle.raw_blocks(seed, np.array([stream], dtype=np.uint64), 4)[0]
            ref = Philox(key=[np.uint64(seed), np.uint64(stream)]).random_raw(16)
            assert np.array_equal(mine, ref.astype(np.uint64))

    def test_substream_matches_offset_counter(self):
        mine = oracle.raw_blocks(9, np.array([5], dtype=np.uint64), 3, sub1=11, sub2=2)[0]
        ref = Philox(counter=[0, 0, 11, 2], key=[np.uint64(9), np.uint64(5)]).random_raw(12)
        assert np.array_equal(mine, ref.astype(np.uint64))

    def test_raw_blocks_carry_into_the_second_counter_word(self):
        # blocks 2**64 - 2 .. 2**64 + 1: the block index passes 2**64
        first = 2**64 - 2
        mine = oracle.raw_blocks(3, np.zeros(1, dtype=np.uint64), 4, 5, 6, [first])[0]
        bit_gen = Philox(key=np.array([3, 0], dtype=np.uint64),
                         counter=np.array([first, 0, 5, 6], dtype=np.uint64))
        assert np.array_equal(mine, bit_gen.random_raw(16).astype(np.uint64))

    def test_uniform_doubles_match_numpy(self):
        # stream 4 of 19 doubles reads doubles 76..94 of the lane
        u = stream_uniforms(31, np.array([4], dtype=np.uint64), 19)[0]
        gen = Generator(Philox(key=np.array([31, 0], dtype=np.uint64)))
        assert np.array_equal(u, gen.random(5 * 19)[4 * 19:])

    @pytest.mark.parametrize("n", [1, 3, 4, 6])
    def test_doubles_are_raw_blocks_sliced_by_the_layout(self, n):
        # consecutive streams tile their lane: stream s is doubles [s*n, (s+1)*n)
        for sub1, sub2 in ((0, 0), (1, 2), (TOP, 7)):
            u = stream_uniforms(2024, np.arange(37, dtype=np.uint64), n, sub1, sub2)
            assert np.array_equal(u.ravel(), lane_doubles(2024, 37 * n, sub1, sub2))
            u = stream_uniforms(2024, np.arange(20, 37, dtype=np.uint64), n, sub1, sub2)
            assert np.array_equal(u.ravel(), lane_doubles(2024, 37 * n, sub1, sub2)[20 * n:])


class TestChunkedBlocks:
    """Batches split into runs of consecutive streams, long rows and
    counters at the top of their range equal the reference in ``oracle``
    and NumPy's Philox."""

    # streams per run of consecutive streams in test_streams_around_a_chunk
    RUN = 1000

    def check(self, seed, streams, n, sub1=0, sub2=0, native_rows=()):
        u = stream_uniforms(seed, streams, n, sub1, sub2)
        assert u.shape == (streams.size, n)
        assert np.array_equal(u, oracle.philox_uniforms(seed, streams, n, sub1, sub2))
        for i in native_rows:
            assert np.array_equal(u[i], native_uniforms(seed, int(streams[i]), n, sub1, sub2))

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 49])
    @pytest.mark.parametrize("extra", [-1, 0, 1, "two chunks + 3"])
    def test_streams_around_a_chunk(self, n, extra):
        # runs of RUN consecutive streams with a gap of 7 between them
        step = self.RUN
        count = 2 * step + 3 if extra == "two chunks + 3" else step + extra
        index = np.arange(count, dtype=np.uint64)
        streams = index + np.uint64(1000) + np.uint64(7) * (index // np.uint64(step))
        edges = {0, step - 2, step - 1, step, step + 1, 2 * step, count - 1}
        self.check(2024, streams, n, sub1=3, native_rows=sorted(i for i in edges if i < count))

    def test_more_blocks_than_a_chunk(self):
        # rows longer than a replicate batch has streams, one at the top
        n = 4 * (BATCH_SIZE + 1) - 2
        self.check(5, np.array([0, 7, TOP], dtype=np.uint64), n, sub2=9, native_rows=[0, 1, 2])

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 7, 9, 13])
    def test_words_not_a_multiple_of_four(self, n):
        self.check(77, np.arange(40, dtype=np.uint64), n, native_rows=[0, 39])

    def test_no_streams(self):
        empty = np.array([], dtype=np.uint64)
        self.check(1, empty, 8)
        assert stream_uniforms(1, np.arange(3, dtype=np.uint64), 0).shape == (3, 0)

    def test_all_keys_and_counters_at_the_top(self):
        streams = np.array([TOP, TOP - 1, 0], dtype=np.uint64)
        self.check(TOP, streams, 11, sub1=TOP, sub2=TOP, native_rows=[0, 1, 2])
        self.check(TOP, streams, 11, sub1=TOP - 1, sub2=TOP, native_rows=[0])

    def test_threads_at_once_get_the_serial_rows(self):
        """Concurrent calls share no generator state."""
        calls = [(11, np.arange(3 * BATCH_SIZE // 2, dtype=np.uint64), 2, 0),
                 (12, np.arange(5000, dtype=np.uint64) + np.uint64(7), 7, 3),
                 (13, np.arange(4, dtype=np.uint64), 49, 0),
                 (14, np.arange(BATCH_SIZE, dtype=np.uint64), 1, 5),
                 (15, np.arange(500, dtype=np.uint64)[::-1].copy(), 3, 0)]
        want = [stream_uniforms(seed, streams, n, sub1) for seed, streams, n, sub1 in calls]
        barrier = threading.Barrier(len(calls), timeout=30)
        got = [[] for _ in calls]

        def run(i):
            seed, streams, n, sub1 = calls[i]
            barrier.wait()
            for _ in range(3):
                got[i].append(stream_uniforms(seed, streams, n, sub1))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(calls))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for rows, w in zip(got, want):
            assert len(rows) == 3 and all(np.array_equal(g, w) for g in rows)

    def test_warm_call_allocates_no_full_size_temporaries(self):
        # the doubles are drawn straight into the result
        streams = np.arange(BATCH_SIZE, dtype=np.uint64)
        stream_uniforms(3, streams, 2)
        tracemalloc.start()
        try:
            u = stream_uniforms(3, streams, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - u.nbytes <= 0.5 * 2**20

    def test_golden_digest(self):
        # NumPy's Philox doubles are (word >> 11) * 2**-53, integer
        # arithmetic and an exact power-of-two scale: the same bytes on
        # every platform
        u = stream_uniforms(7919, np.arange(70_001, dtype=np.uint64), 49, sub1=2)
        assert hashlib.sha256(u.tobytes()).hexdigest() == (
            "276f8833da53e6611f7a1aa3fd46ca5916d8cb5dc81906cca89204331a4c4d88")


class TestInputContract:
    """Bad arguments raise instead of returning a wrong shape or stream."""

    @pytest.mark.parametrize("n", [-1, -3, -5])
    def test_negative_word_count(self, n):
        # -3 used to return shape (3, 0), -5 a bare ValueError
        with pytest.raises(ContractViolationError):
            stream_uniforms(1, np.arange(3, dtype=np.uint64), n)

    @pytest.mark.parametrize("n", [2.5, "2", None, True, np.float64(2.0), np.bool_(True)])
    def test_word_count_not_an_integer(self, n):
        # 2.5, "2" and None used to raise bare TypeErrors, True "an
        # integer is required"
        with pytest.raises(ContractViolationError, match="n must be an integer"):
            stream_uniforms(1, np.arange(3, dtype=np.uint64), n)
        with pytest.raises(ContractViolationError, match="n must be an integer"):
            RngStream(1, 2).uniforms(n)

    def test_numpy_integer_word_count(self):
        want = stream_uniforms(1, np.arange(3, dtype=np.uint64), 5)
        for n in (np.int64(5), np.uint8(5)):
            assert np.array_equal(stream_uniforms(1, np.arange(3, dtype=np.uint64), n), want)
        assert np.array_equal(RngStream(1, 2).uniforms(np.int32(5)), want[2])

    @pytest.mark.parametrize("streams", [
        np.array([3, -1]),                          # used to wrap to 2**64 - 1
        [-1],
        np.array([1.7]),                            # used to become stream 1
        [0.0, 1.0],
        np.array([True, False]),
        np.arange(6, dtype=np.uint64).reshape(2, 3),  # a bare broadcast error
        np.uint64(4),
    ])
    def test_bad_streams(self, streams):
        with pytest.raises(ContractViolationError):
            stream_uniforms(1, streams, 4)

    @pytest.mark.parametrize("word", ["seed", "sub1", "sub2"])
    @pytest.mark.parametrize("value", [
        -1,            # used to equal 2**64 - 1
        2**64,         # used to equal 0
        1.7,           # used to equal 1
        2.0,
        True,          # used to equal 1
        np.float64(3.0),
        np.int64(-2),
    ])
    def test_bad_seed_and_substream_words(self, word, value):
        args = {"seed": 5, "sub1": 0, "sub2": 0, word: value}
        streams = np.arange(3, dtype=np.uint64)
        with pytest.raises(ContractViolationError, match=word):
            stream_uniforms(args["seed"], streams, 4, args["sub1"], args["sub2"])
        with pytest.raises(ContractViolationError, match=word):
            RngStream(args["seed"], 0, args["sub1"], args["sub2"])
        # before any word is drawn
        with pytest.raises(ContractViolationError, match=word):
            stream_uniforms(args["seed"], streams, 0, args["sub1"], args["sub2"])

    def test_bad_stream_handle_rejected(self):
        for stream in (-1, 2**64, 0.5):
            with pytest.raises(ContractViolationError, match="stream"):
                RngStream(1, stream)

    def test_integer_words_of_any_type(self):
        streams = np.arange(3, dtype=np.uint64)
        want = stream_uniforms(TOP, streams, 5, sub1=2**63, sub2=7)
        for seed, sub1, sub2 in ((np.uint64(TOP), np.uint64(2**63), np.int8(7)),
                                 (TOP, np.uint64(2**63), np.int64(7))):
            assert np.array_equal(stream_uniforms(seed, streams, 5, sub1, sub2), want)
        assert np.array_equal(RngStream(TOP, 1, 2**63, 7).uniforms(5), want[1])

    def test_integer_streams_of_any_width(self):
        want = stream_uniforms(3, np.array([0, 5, 2**40], dtype=np.uint64), 6)
        for streams in ([0, 5, 2**40], np.array([0, 5, 2**40], dtype=np.int64)):
            assert np.array_equal(stream_uniforms(3, streams, 6), want)
        small = np.array([0, 5], dtype=np.uint8)
        assert np.array_equal(stream_uniforms(3, small, 6), want[:2])


class TestStreamContract:
    def test_same_pair_same_sequence(self):
        a = RngStream(11, 2).uniforms(64)
        b = RngStream(11, 2).uniforms(64)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(11, 2).uniforms(64)
        b = RngStream(11, 3).uniforms(64)
        c = RngStream(12, 2).uniforms(64)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_substreams_do_not_collide_with_root(self):
        root = RngStream(5, 0)
        assert not np.array_equal(root.uniforms(16), root.substream(0).uniforms(16))
        assert not np.array_equal(root.substream(0).uniforms(16),
                                  root.substream(1).uniforms(16))

    def test_batch_rows_equal_individual_streams(self):
        streams = np.arange(50, dtype=np.uint64)
        batch = stream_uniforms(77, streams, 8)
        for i in range(50):
            assert np.array_equal(batch[i], RngStream(77, i).uniforms(8))

    @pytest.mark.parametrize("n", [1, 5, 7])
    def test_no_two_pairs_share_a_counter(self, n):
        """(replicate, lane) pairs near stream 0, at the top of the stream
        range and where the block index passes 2**64 draw distinct words."""
        cross = 2**66 // n
        streams = sorted(s for s in {*range(6), *range(TOP - 5, TOP + 1),
                                     *range(cross - 3, cross + 3)} if s <= TOP)
        streams = np.array(streams, dtype=np.uint64)
        lanes = [(0, 0), (1, 0), (0, 1), (1, 1), (TOP, TOP)]
        rows = [stream_uniforms(5, streams, n, a, b) for a, b in lanes]
        for (a, b), u in zip(lanes, rows):
            assert np.array_equal(u, oracle.philox_uniforms(5, streams, n, a, b))
        words = np.concatenate([u.ravel() for u in rows])
        assert np.unique(words).size == words.size == len(lanes) * streams.size * n
        # streams 2i and 2i + 1 at n doubles are stream i at 2n
        for i in {0, 3, min(cross // 2 - 1, TOP // 2), min(cross // 2, TOP // 2), TOP // 2}:
            pair = stream_uniforms(5, np.array([2 * i, 2 * i + 1], dtype=np.uint64), n)
            assert np.array_equal(pair.ravel(), RngStream(5, i).uniforms(2 * n))

    def test_seeds_above_two_to_the_63_keep_every_bit(self):
        # a key passed to NumPy as a Python list goes through float64 there,
        # which would give these three seeds one key
        seeds = [2**63 + 1, 2**63 + 2, TOP - 1]
        rows = [stream_uniforms(seed, np.arange(3, dtype=np.uint64), 4) for seed in seeds]
        for seed, u in zip(seeds, rows):
            assert np.array_equal(u, oracle.philox_uniforms(seed, np.arange(3), 4))
        assert not np.array_equal(rows[0], rows[1])

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_scattered_streams_give_single_stream_rows(self, n):
        streams = np.array([9, 3, 4, 5, 3, TOP, 0, 1, 2, 10**12, TOP - 1, 8], dtype=np.uint64)
        u = stream_uniforms(41, streams, n, 2, 3)
        for i, s in enumerate(streams):
            assert np.array_equal(u[i], stream_uniforms(41, np.array([s]), n, 2, 3)[0])
        assert np.array_equal(u, oracle.philox_uniforms(41, streams, n, 2, 3))

    def test_import_leaves_numpy_random_unimported(self):
        # the command line pays for numpy.random at its first draw only
        script = textwrap.dedent("""
            import sys
            import numpy
            before = "numpy.random" in sys.modules
            import poisson_chaos.cli
            print(before, "numpy.random" in sys.modules)
            from poisson_chaos.rng import RngStream
            RngStream(1).uniforms(2)
            print("numpy.random" in sys.modules)
        """)
        src = str(Path(rng.__file__).resolve().parents[1])
        path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
        out = subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": path}).stdout.split()
        # NumPy before 2.0 imports numpy.random itself
        assert out[1] == out[0] and out[2] == "True"

    def test_uniform_range_and_mean(self):
        u = stream_uniforms(1, np.arange(20_000, dtype=np.uint64), 4)
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        assert abs(u.mean() - 0.5) < 0.005
