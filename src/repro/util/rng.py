"""Deterministic named random-number streams.

The paper stresses that "the experiments are repeatable as the simulator and
the application are deterministic".  To keep every stochastic component
reproducible *and* independent — the failure injector must draw the same
rank/time pairs regardless of whether the soft-error injector also ran —
each consumer asks :class:`RngStreams` for a stream by name.  Stream
``name`` of seed ``seed`` draws exactly what numpy's
``Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(crc32(name),))))``
draws, so adding a new named stream never perturbs existing ones.

A failure run makes a few scalar draws a segment, and numpy costs a process
16 MB and ~0.1 s to import.  So :class:`Stream` computes numpy's (2.4.6)
SeedSequence, PCG64 (O'Neill, https://www.pcg-random.org/paper.html) and
scalar ``integers`` / ``uniform`` / ``random`` in pure Python, bit for bit;
any other draw hands the exact state to a numpy ``Generator`` once, and the
stream draws there from then on.
"""

from __future__ import annotations

import math
import zlib
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


def _words(n: int) -> list[int]:
    """``n``'s little-endian uint32 words, as SeedSequence reads an int."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _seed_words(seed: int, key: int) -> list[int]:
    """``SeedSequence(seed, spawn_key=(key,)).generate_state(4, uint64)``."""
    run = _words(seed)
    entropy = run + [0] * (_POOL_SIZE - len(run)) + _words(key)
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, state = _INIT_B, []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        state.append(value ^ value >> 16)
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


class Stream:
    """numpy's PCG64 ``Generator`` for ``(seed, name)``: scalar ``random()``,
    ``uniform(low, high)`` and ``integers(low, high)`` over at most 2**32
    values are Python numbers computed here, any other draw numpy's."""

    def __init__(self, seed: int, name: str):
        s = _seed_words(seed, zlib.crc32(name.encode("utf-8")))
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
        excl = hi - lo  # numpy draws on [lo, hi - 1], and nothing for one value
        if excl == 1:
            return lo
        # Lemire's nearly-divisionless rejection on 32-bit words.
        m, threshold = self._next32() * excl, (1 << 32) % excl
        while m & _MASK32 < threshold:
            m = self._next32() * excl
        return lo + (m >> 32)


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
            stream = self._streams[name] = Stream(self.seed, name)
        return stream

    def fresh(self, name: str) -> Stream:
        """Return a brand-new stream for ``name`` rewound to its start."""
        self._streams.pop(name, None)
        return self.get(name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStreams(seed={self.seed}, streams={sorted(self._streams)})"
