"""How fast the host runs right now, from a fixed reference task.

The benchmark shares its host with other tenants, whose load slows every
instruction it runs -- through the shared caches and memory bandwidth --
by up to half, for seconds at a time.  Process CPU time does not see
this.  So the benchmark times a small, fixed task of its own before and
after each round it measures, and scales the round's CPU time by
``REFERENCE_MS`` over the mean of the two.  A slow spell slows the round
and the tasks beside it alike, and the ratio between them, which is what
a change to the program moves, stays put.

The task mixes what the program's rounds spend their time on: a Python
loop of small NumPy calls on a frontier of a few hundred entries, and
gathers, a sort and a segmented minimum over arrays larger than the
per-core cache.  It uses nothing from ``repro``, so no change to the
program can change it.
"""

from __future__ import annotations

import time

import numpy as np

#: the nominal time of one task: reported times read as CPU milliseconds on
#: a host that runs the task in this long
REFERENCE_MS = 10.0

_TABLE = 1 << 20  # 8 MiB of float64, twice the per-core L2
_SMALL = 384  # entries per small call, a thin wave's frontier
_CALLS = 192
_PY_STEPS = 12000


class HostSpeed:
    """The reference task, and the samples of its CPU time taken so far."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._values = rng.random(_TABLE)
        self._index = rng.integers(0, _TABLE, size=_SMALL * _CALLS)
        self._big = rng.integers(0, _TABLE, size=1 << 15)
        self.samples_ms: list[float] = []

    def _interpreter(self) -> int:
        # bookkeeping in plain Python: small tuples, dicts and lists
        owner: dict[int, list[tuple[int, float]]] = {}
        for i in range(_PY_STEPS):
            key = (i * 7919) % 257
            owner.setdefault(key, []).append((i, i * 0.5))
        return sum(len(v) for v in owner.values() if v[0][0] % 2 == 0)

    def _dispatch(self) -> float:
        # many NumPy calls on a few hundred entries each
        best = np.full(_SMALL * _CALLS, np.inf)
        acc = 0.0
        for k in range(_CALLS):
            sel = self._index[k * _SMALL:(k + 1) * _SMALL]
            cand = self._values[sel] + 0.5
            slot = sel % len(best)
            np.minimum.at(best, slot, cand)
            acc += float(cand[best[slot] == cand].sum())
        return acc

    def _memory(self) -> float:
        # gathers, a sort and a segmented minimum beyond the per-core cache
        cand = self._values[self._big] + self._values[self._big[::-1]]
        order = np.argsort(self._big, kind="stable")
        return float(np.minimum.reduceat(cand[order], np.arange(0, len(order), 64)).sum())

    def sample(self) -> float:
        """Run the task once; returns (and records) its CPU time in ms, this thread only."""
        t0 = time.thread_time()
        self._interpreter()
        self._dispatch()
        self._memory()
        ms = (time.thread_time() - t0) * 1e3
        self.samples_ms.append(ms)
        return ms


def scale(before_ms: float, after_ms: float) -> float:
    """The factor for a CPU time measured between two task samples."""
    return 2 * REFERENCE_MS / (before_ms + after_ms)
