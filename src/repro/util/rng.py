"""Deterministic named random-number streams.

The paper stresses that "the experiments are repeatable as the simulator and
the application are deterministic".  To keep every stochastic component
reproducible *and* independent — the failure injector must draw the same
rank/time pairs regardless of whether the soft-error injector also ran —
each consumer asks :class:`RngStreams` for a stream by name.  Streams are
derived from the root seed with :class:`numpy.random.SeedSequence` spawning
keyed by the stream name, so adding a new named stream never perturbs
existing ones.
"""

from __future__ import annotations

import zlib

from repro.util.lazy import np


class RngStreams:
    """A family of independent, reproducible :class:`numpy.random.Generator` s.

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
        self._streams: dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* generator
        object, so a consumer that draws incrementally keeps its position.
        """
        gen = self._streams.get(name)
        if gen is None:
            key = zlib.crc32(name.encode("utf-8"))
            seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(key,))
            gen = np.random.Generator(np.random.PCG64(seq))
            self._streams[name] = gen
        return gen

    def fresh(self, name: str) -> np.random.Generator:
        """Return a brand-new generator for ``name`` rewound to its start."""
        self._streams.pop(name, None)
        return self.get(name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStreams(seed={self.seed}, streams={sorted(self._streams)})"
