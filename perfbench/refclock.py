"""Host-speed reference: a fixed pure-Python kernel timed beside every op.

On a shared host the machine's speed drifts by tens of percent over seconds
and minutes, and the drift moves every op of a run together.  A reference
kernel timed right before and right after an op slows down with it, so the
ratio of op time to reference time holds still while raw op time does not.
The kernel is part of the benchmark, not of relock, so a change to relock
moves the op and never the reference.

The kernel mixes the two kinds of work relock's hot paths do: integer
arithmetic in a loop, and a packed gate-evaluation loop over a small fixed
random circuit (list indexing and tuple unpacking).
"""

from __future__ import annotations

import random
import time

MIN_REPS = 4  # a tick is never shorter than this many reps
_rnd = random.Random(20_105_168)
_N_IN = 32
_GATES = tuple(
    (_rnd.randrange(3), _N_IN + j, (_rnd.randrange(_N_IN + j), _rnd.randrange(_N_IN + j)))
    for j in range(600)
)


def _rep() -> int:
    """One unit of reference work (about 3 ms on a 2-vCPU x86 VM)."""
    s = 0
    for i in range(12_000):
        s ^= (i * 2654435761) & 0xFFFFFFFF
    v = [0] * (_N_IN + len(_GATES))
    for c in range(20):
        for i in range(_N_IN):
            v[i] = (s >> (i + c)) & 1
        for code, out, (a, b) in _GATES:
            if code == 0:
                v[out] = v[a] & v[b]
            elif code == 1:
                v[out] = (v[a] | v[b]) ^ 1
            else:
                v[out] = v[a] ^ v[b]
    return v[-1]


class RefClock:
    """Scales wall times to a nominal host speed.

    ``nominal_rep_s`` is what one rep of the kernel takes on the nominal
    host; a timed call scales its wall time by ``nominal_rep_s / rep_s``, where
    ``rep_s`` is the mean seconds per rep of the ticks just before and just
    after the call.
    """

    def __init__(self, nominal_rep_s: float, share: float) -> None:
        self.nominal_rep_s = nominal_rep_s
        self.share = share  # each tick lasts about this share of the call it brackets
        self.reps = MIN_REPS
        self.ticks: list[float] = []

    def tick(self) -> float:
        """Seconds per rep, measured now."""
        t = time.perf_counter()
        for _ in range(self.reps):
            _rep()
        rep_s = (time.perf_counter() - t) / self.reps
        self.ticks.append(rep_s)
        return rep_s

    def timed(self, fn, *args):
        """Call ``fn(*args)`` between two ticks; returns (result, wall
        seconds, scale), where wall * scale is the time at nominal speed."""
        before = self.tick()
        t = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t
        after = self.tick()
        self.reps = max(MIN_REPS, round(self.share * wall / after))
        return result, wall, self.nominal_rep_s / ((before + after) / 2)
