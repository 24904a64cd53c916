"""Deterministic named RNG streams (repro.util.rng)."""

import pickle
import random
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.explore.sampler import bootstrap_mean_ci
from repro.util.rng import RngStreams, Stream
from repro.util.stats import quantile, row_means


class TestRngStreams:
    def test_same_seed_same_stream(self):
        a = RngStreams(42).get("x")
        b = RngStreams(42).get("x")
        assert [float(a.random()) for _ in range(5)] == [float(b.random()) for _ in range(5)]

    def test_different_seeds_differ(self):
        a = RngStreams(1).get("x")
        b = RngStreams(2).get("x")
        assert float(a.random()) != float(b.random())

    def test_streams_are_independent_by_name(self):
        s = RngStreams(7)
        a = [float(s.get("alpha").random()) for _ in range(3)]
        b = [float(s.get("beta").random()) for _ in range(3)]
        assert a != b

    def test_new_stream_does_not_perturb_existing(self):
        s1 = RngStreams(5)
        first = float(s1.get("failures").random())
        s2 = RngStreams(5)
        s2.get("unrelated-extra-stream").random()  # extra consumer
        assert float(s2.get("failures").random()) == first

    def test_get_returns_same_object(self):
        s = RngStreams(0)
        assert s.get("a") is s.get("a")

    def test_get_keeps_position(self):
        s = RngStreams(0)
        v1 = float(s.get("a").random())
        v2 = float(s.get("a").random())
        assert v1 != v2  # position advanced, not rewound

    def test_fresh_rewinds(self):
        s = RngStreams(9)
        v1 = float(s.get("a").random())
        float(s.get("a").random())
        v3 = float(s.fresh("a").random())
        assert v3 == v1

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RngStreams("abc")  # type: ignore[arg-type]

    def test_bool_seed_allowed_as_int(self):
        # bools are ints in Python; document the behaviour
        assert RngStreams(True).seed is True


#: Every stream a consumer draws from: MTTF restarts, FINJ bit flips,
#: soft errors and migration predictions.
CONSUMER_STREAMS = ("restart-failures", "finject", "soft-errors", "migration-predictions")


def numpy_stream(seed, name):
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(zlib.crc32(name.encode("utf-8")),))
    return np.random.Generator(np.random.PCG64(seq))


class TestStreamIsNumpys:
    """A stream draws what numpy's PCG64 generator of the same seed and
    name draws, bit for bit: in pure Python for scalar ``integers``,
    ``uniform`` and ``random``, and as numpy itself after any other draw."""

    SEEDS = [0, True, 1, 2**32 - 1, 2**32, 2**64 + 3, 10**30, 10**40] + [
        random.Random(seed).getrandbits(1 + seed * 3) for seed in range(56)
    ]
    SPANS = (1, 8, 125, 2**31, 2**31 + 1, 2**32 - 1, 2**32, 3, 1000003)  # 2**31 + 1 rejects ~half
    LOWS = (0, 0, -7, 12345, -(2**40))

    @staticmethod
    def draw(rng, stream, reference):
        kind = rng.randrange(4)
        if kind == 0:
            return stream.random(), reference.random()
        if kind == 1:
            low = rng.choice((0.0, -5.5, 3, 1e-300))
            high = low + rng.choice((1.0, 6000.0, 1e300, 0.0, 3))
            return stream.uniform(low, high), reference.uniform(low, high)
        span = rng.choice(TestStreamIsNumpys.SPANS)
        if kind == 2:
            return stream.integers(span), reference.integers(span)
        low = rng.choice(TestStreamIsNumpys.LOWS)
        return stream.integers(low, low + span), reference.integers(low, low + span)

    def test_mixed_draws_match_numpy(self):
        rng = random.Random(55)
        draws = 0
        for seed in self.SEEDS:
            for name in CONSUMER_STREAMS + ("x",):
                stream, reference = RngStreams(seed).get(name), numpy_stream(seed, name)
                for _ in range(160):
                    got, want = self.draw(rng, stream, reference)
                    assert got == want and type(got) in (int, float), (seed, name, draws)
                    draws += 1
                assert stream._generator is None  # no draw left pure Python
        assert draws >= 50_000 and len(self.SEEDS) >= 60

    @pytest.mark.parametrize("handoff", [
        lambda g: g.exponential(2.0), lambda g: g.poisson(0.3),
        lambda g: tuple(g.integers(0, 9, size=3)), lambda g: g.integers(0, 2**40),
        lambda g: g.integers(5, endpoint=True), lambda g: tuple(g.random(2)),
    ])
    def test_a_handoff_keeps_the_stream_and_pickles(self, handoff):
        rng = random.Random(7)
        stream, reference = RngStreams(11).get("soft-errors"), numpy_stream(11, "soft-errors")
        for round_ in range(3):
            for _ in range(rng.randrange(1, 6)):
                got, want = self.draw(rng, stream, reference)
                assert got == want
            stream = pickle.loads(pickle.dumps(stream))
            assert handoff(stream) == handoff(reference)
            stream = pickle.loads(pickle.dumps(stream))
        assert stream._generator is not None

    def test_a_pickle_between_a_words_halves_keeps_the_high_half(self):
        stream, reference = RngStreams(5).get("x"), numpy_stream(5, "x")
        assert stream.integers(8) == reference.integers(8)  # 8 divides 2**32: no rejection
        assert stream._has_uint32  # the word's high half is buffered
        stream = pickle.loads(pickle.dumps(stream))
        assert stream.integers(3, 11) == reference.integers(3, 11)
        assert stream.indices(2**31 + 1, 5) == reference.integers(0, 2**31 + 1, size=5).tolist()
        assert stream._generator is None

    def test_refusals_are_numpys(self):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            RngStreams(-1).get("x")
        with pytest.raises(OverflowError, match="high - low range exceeds valid bounds"):
            RngStreams(0).get("x").uniform(0.0, 2.0 * 1e308)
        with pytest.raises(ValueError):
            RngStreams(0).get("x").integers(5, 2)

    def test_true_seeds_as_one_and_fresh_rewinds(self):
        assert RngStreams(True).get("x").random() == RngStreams(1).get("x").random()
        streams = RngStreams(3)
        first = streams.get("x").exponential(1.0)
        assert streams.fresh("x").exponential(1.0) == first


def numpy_child(entropy, spawn_key):
    seq = np.random.SeedSequence(entropy, spawn_key=spawn_key)
    return np.random.Generator(np.random.PCG64(seq))


def sample(seed, count):
    """``count`` floats of mixed sign and scale, with repeats, -0.0 and 0.0;
    seed 0 gives all -0.0."""
    rng = random.Random(seed)
    if seed == 0:
        return [-0.0] * count
    draw = (rng.random, lambda: rng.gauss(0.0, 1e6), lambda: rng.uniform(-1e-300, 1e-300),
            lambda: -0.0, lambda: 0.0, lambda: float(rng.randrange(-3, 4)))
    return [rng.choice(draw)() for _ in range(count)]


def hexes(values):
    return [float(v).hex() for v in values]  # tells -0.0 from 0.0


SIZES = (1, 7, 8, 9, 128, 129, 1000)


class TestNumpyIsTheOracle:
    """What the explorer draws and reduces without numpy is what numpy
    draws and reduces: a spawned child's stream, ``integers(0, n,
    size=k)``, ``mean(axis=1)`` (pairwise summation, never ``sum()``,
    which compensates on Python 3.12) and ``quantile``."""

    @settings(max_examples=40)
    @given(entropy=st.integers(0, 2**160) | st.lists(st.integers(0, 2**70), max_size=5),
           spawn_key=st.lists(st.integers(0, 2**40), max_size=3),
           n=st.sampled_from(SIZES + (2**31 + 1, 2**32 - 1, 2**32)) | st.integers(1, 2**32),
           size=st.integers(0, 300), before=st.integers(0, 3))
    @example(entropy=0, spawn_key=[0], n=1, size=5, before=1)
    @example(entropy=(7, 0xB007, 3), spawn_key=[], n=8, size=0, before=0)
    @example(entropy=2**1000 + 1, spawn_key=[1], n=9, size=7, before=1)  # past _HASH's words
    def test_a_spawned_streams_bulk_draws_are_numpys(self, entropy, spawn_key, n, size, before):
        stream, reference = Stream(entropy, tuple(spawn_key)), numpy_child(entropy, spawn_key)
        for _ in range(before):  # an odd count leaves a half word buffered
            assert stream.integers(0, 5) == reference.integers(0, 5)
        assert stream.indices(n, size) == reference.integers(0, n, size=size).tolist()
        assert stream.integers(0, n) == reference.integers(0, n)  # after an odd count, a high half
        assert stream.random() == reference.random()
        assert stream._generator is None

    @settings(max_examples=30)
    @given(n=st.sampled_from(SIZES), rows=st.integers(1, 3), seed=st.integers(0, 2**32))
    @example(n=9, rows=2, seed=0)
    def test_row_means_are_numpys(self, n, rows, seed):
        array = np.array(sample(seed, n * rows)).reshape(rows, n)
        assert hexes(row_means([list(column) for column in array.T])) == hexes(array.mean(axis=1))

    @pytest.mark.parametrize("n", [8192, 8193, 20000])
    def test_a_long_row_is_summed_whole(self, n):
        # numpy sums a contiguous float64 row in one pairwise pass, not in
        # 8,192-element buffers (seed 1 at n = 20000 tells the two apart).
        values = sample(1, n)
        assert row_means([[v] for v in values])[0].hex() == float(np.mean(values)).hex()

    @settings(max_examples=30)
    @given(n=st.sampled_from(SIZES), q=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
    @example(n=1, q=1.0, seed=0)
    @example(n=129, q=0.025, seed=0)
    @example(n=8, q=0.5, seed=24)  # the lerp's two ends round apart at g = 0.5
    def test_quantiles_are_numpys(self, n, q, seed):
        # Which of -0.0 and 0.0 numpy's partition puts at an index is its
        # own affair, so a sample holds one sign of zero (the bootstrap's
        # means, 0.0 + a sum, are never -0.0).
        values = [v or 0.0 for v in sample(seed, n)] if seed else sample(seed, n)
        assert quantile(values, q).hex() == float(np.quantile(values, q)).hex()

    def test_empty_input(self):
        assert Stream(3, (1,)).indices(7, 0) == []
        assert bootstrap_mean_ci([], (0, 1)) == (0.0, 0.0)
        with pytest.raises(IndexError):
            np.quantile([], 0.5)
        with pytest.raises(IndexError):
            quantile([], 0.5)

    @pytest.mark.parametrize("n", SIZES[:-1])
    def test_the_bootstrap_is_numpys(self, n):
        values, material = sample(n, n), (n, 0xB007, 2**40 + n)
        means = np.array(values)[numpy_child(material, ()).integers(0, n, size=(200, n))].mean(axis=1)
        want = (float(np.quantile(means, 0.025)), float(np.quantile(means, 0.975)))
        assert hexes(bootstrap_mean_ci(values, material)) == hexes(want if n > 1 else values * 2)
