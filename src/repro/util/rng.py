"""Deterministic random-number streams.

The paper stresses that "the experiments are repeatable as the simulator and
the application are deterministic".  To keep every stochastic component
reproducible *and* independent — the failure injector must draw the same
rank/time pairs regardless of whether the soft-error injector also ran —
each consumer asks :class:`RngStreams` for a stream by name.  Stream
``name`` of seed ``seed`` draws exactly what numpy's
``Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(crc32(name),))))``
draws, so adding a new named stream never perturbs existing ones; any
other ``SeedSequence(entropy, spawn_key)`` is a :class:`Stream` too.

A failure run makes a few scalar draws a segment, a campaign a few a cell
and its bootstrap resamples, and numpy costs a process 14 MB and ~0.1 s to
import.  So :class:`Stream` computes numpy's (2.4.6) SeedSequence, PCG64
(O'Neill, https://www.pcg-random.org/paper.html), scalar ``integers`` /
``uniform`` / ``random`` and ``integers(0, n, size=k)`` in pure Python, bit
for bit; any other draw hands the exact state to a numpy ``Generator``
once, and the stream draws there from then on.
"""

from __future__ import annotations

import math
import struct
import zlib
from functools import lru_cache
from typing import Any

from repro.util.lazy import np

_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
# numpy.random.SeedSequence's pool size and hash constants.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_INT64 = 1 << 63


def _constants(init: int, mult: int, count: int) -> list[int]:
    return [init * pow(mult, i, 1 << 32) & _MASK32 for i in range(count)]


# SeedSequence's i-th ``hashmix`` XORs _HASH[i] and multiplies by
# _HASH[i + 1] (the pool's fill and cross-mix take 16 calls, each further
# entropy word 4 more; a longer entropy builds its own table); its i-th
# output word does the same with _OUT.
_HASH = _constants(_INIT_A, _MULT_A, 4 * 24 + 1)
_OUT = _constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE + 1)


def _words(n: Any) -> list[int]:
    """SeedSequence's little-endian uint32 words of an int or of a sequence's ints."""
    if not isinstance(n, int):
        return [word for item in n for word in _words(item)]
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hashmix(value: int, i: int, table: list[int] = _HASH) -> int:
    value = (value ^ table[i]) * table[i + 1] & _MASK32
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


@lru_cache(maxsize=64)
def _mixed_pool(head: tuple[int, ...]) -> tuple[int, ...]:
    """The pool filled and cross-mixed from the first four entropy words."""
    pool = [_hashmix(word, i) for i, word in enumerate(head)]
    i = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], i))
                i += 1
    return tuple(pool)


def _seed_words(entropy: Any, spawn_key: Any) -> list[int]:
    """``SeedSequence(entropy, spawn_key=spawn_key).generate_state(4, uint64)``."""
    run = _words(entropy)
    words = run + [0] * (_POOL_SIZE - len(run)) + _words(spawn_key)
    count = 4 * len(words) + 1
    table = _HASH if count <= len(_HASH) else _constants(_INIT_A, _MULT_A, count)
    pool = list(_mixed_pool(tuple(words[:_POOL_SIZE])))
    i = 4 * _POOL_SIZE
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, i, table))
            i += 1
    state = [value ^ value >> 16 for i in range(2 * _POOL_SIZE)
             for value in ((pool[i % _POOL_SIZE] ^ _OUT[i]) * _OUT[i + 1] & _MASK32,)]
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


class Stream:
    """numpy's ``Generator(PCG64(SeedSequence(entropy, spawn_key=spawn_key)))``:
    scalar ``random()``, ``uniform`` and ``integers`` (over at most 2**32
    values) and :meth:`indices` are computed here, any other draw numpy's."""

    def __init__(self, entropy: Any, spawn_key: tuple[int, ...] = ()):
        s = _seed_words(entropy, spawn_key)
        # pcg64_srandom_r: state 0, step, add the seed, step.
        self._inc = inc = ((s[2] << 64 | s[3]) << 1 | 1) & _MASK128
        self._state = ((inc + (s[0] << 64 | s[1])) * _PCG_MULT + inc) & _MASK128
        # next_uint32 keeps a 64-bit word's high half for the next call.
        self._has_uint32, self._uinteger = 0, 0
        self._generator: Any = None

    def _next64(self) -> int:
        self._state = state = (self._state * _PCG_MULT + self._inc) & _MASK128
        word, rot = (state >> 64 ^ state) & _MASK64, state >> 122  # XSL-RR
        return (word >> rot | word << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        if self._has_uint32:
            self._has_uint32 = 0
            return self._uinteger
        word = self._next64()
        self._has_uint32, self._uinteger = 1, word >> 32
        return word & _MASK32

    def _numpy(self) -> Any:
        """The numpy ``Generator`` the stream becomes at its first numpy draw."""
        if self._generator is None:
            generator = np.random.Generator(np.random.PCG64())
            generator.bit_generator.state = {
                "bit_generator": "PCG64", "state": {"state": self._state, "inc": self._inc},
                "has_uint32": self._has_uint32, "uinteger": self._uinteger}
            self._generator = generator
        return self._generator

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_"):  # pickle probes an instance still empty
            raise AttributeError(name)
        return getattr(self._numpy(), name)

    def random(self, *args: Any, **kwargs: Any) -> Any:
        if args or kwargs or self._generator is not None:
            return self._numpy().random(*args, **kwargs)
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def uniform(self, low: Any = 0.0, high: Any = 1.0, *args: Any, **kwargs: Any) -> Any:
        if (args or kwargs or self._generator is not None
                or not isinstance(low, (int, float)) or not isinstance(high, (int, float))):
            return self._numpy().uniform(low, high, *args, **kwargs)
        span = float(high) - float(low)
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if math.copysign(1.0, span) < 0:
            return self._numpy().uniform(low, high)  # numpy's refusal
        return float(low) + span * self.random()

    def integers(self, low: Any, high: Any = None, *args: Any, **kwargs: Any) -> Any:
        lo, hi = (0, low) if high is None else (low, high)
        if (args or kwargs or self._generator is not None
                or type(lo) is not int or type(hi) is not int
                or not -_INT64 <= lo < hi <= min(lo + (1 << 32), _INT64)):
            return self._numpy().integers(low, high, *args, **kwargs)
        n = hi - lo  # numpy draws nothing for one value
        if n == 1:
            return lo
        # Lemire's nearly-divisionless rejection on 32-bit words.
        m, threshold = self._next32() * n, (1 << 32) % n
        while m & _MASK32 < threshold:
            m = self._next32() * n
        return lo + (m >> 32)

    def indices(self, n: int, size: int) -> list[int]:
        """``integers(0, n, size=size)`` as a list: ``size`` scalar Lemire
        draws on 32-bit words (none for ``n == 1``)."""
        if self._generator is not None or not 1 <= n <= 1 << 32:
            return self._numpy().integers(0, n, size=size).tolist()
        if n == 1:
            return [0] * size
        # The draws are the stream's accepted 32-bit words in order, so whole
        # batches of words are computed at once, the state in a local.
        state, inc, half, threshold = self._state, self._inc, self._uinteger, (1 << 32) % n
        pending, out = [half] if self._has_uint32 else [], []
        while (need := size - len(out)) > 0:
            states = [(state := (state * _PCG_MULT + inc) & _MASK128)
                      for _ in range((need - len(pending) + 1) // 2)]
            words = [(x << 64 | x) >> (s >> 122) & _MASK64  # XSL-RR
                     for s in states for x in ((s >> 64 ^ s) & _MASK64,)]
            halves = pending + list(  # each word's low half, then its high half
                struct.unpack(f"<{2 * len(words)}I", struct.pack(f"<{len(words)}Q", *words)))
            half, pending = halves[-1] if words else half, halves[need:]
            out += [m >> 32 for m in [h * n for h in halves[:need]] if m & _MASK32 >= threshold]
        self._state, self._has_uint32, self._uinteger = state, len(pending), half
        return out


class RngStreams:
    """A family of independent, reproducible named :class:`Stream` s.

    >>> streams = RngStreams(1234)
    >>> a = streams.get("failures")
    >>> b = RngStreams(1234).get("failures")
    >>> float(a.random()) == float(b.random())
    True
    """

    def __init__(self, seed: int = 0):
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = seed
        self._streams: dict[str, Stream] = {}

    def get(self, name: str) -> Stream:
        """Return the stream for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* stream
        object, so a consumer that draws incrementally keeps its position.
        """
        stream = self._streams.get(name)
        if stream is None:
            stream = self._streams[name] = Stream(self.seed, (zlib.crc32(name.encode()),))
        return stream

    def fresh(self, name: str) -> Stream:
        """Return a brand-new stream for ``name`` rewound to its start."""
        self._streams.pop(name, None)
        return self.get(name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStreams(seed={self.seed}, streams={sorted(self._streams)})"
