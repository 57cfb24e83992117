"""The machine's speed, read from a fixed pure-Python reference loop.

The shared host's speed shifts by up to 1.8x, within a second as well as for
minutes at a time, and a slow period slows every process alike, in CPU time
as well as in wall time.  So each timed call is divided by the mean time of
a fixed chunk of reference work run inside it, every `TICK_S` of the
process's CPU time, from a signal handler.  The call is reported in
reference seconds: the time it would take if one chunk took `REF_CHUNK_S`.
The time spent in chunks inside a call is taken out of the call's time.  A
call too short for a tick is scaled by chunks run right before and after it
instead.  A call that runs in a child process is scaled by chunks run inside
the child: the child may run on another core than the parent, whose chunks
then do not show its speed.

The chunk is plain interpreter work (tuple keys, a dict, integer arithmetic,
a sort) that imports nothing from the package, so no change to the program
changes it.  The garbage collector is off while it runs, so that objects the
program keeps alive do not slow it.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

REF_CHUNK_S = 0.0005  # about one chunk's time on a 2.0 GHz Xeon core
TICK_S = 0.01  # the ticks take 5-7% of a call's time, which is then taken out


def _chunk() -> int:
    table: dict = {}
    acc = 0
    for i in range(600):
        key = (i % 97, i % 13, "x")
        table[key] = table.get(key, 0) + i * 3
        acc += len(key) + (i ^ 5)
    return acc + len(sorted(table.items()))


def _timed_chunk() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _chunk()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def sample(chunks: int) -> list[float]:
    """The times of `chunks` chunks run back to back."""
    return [_timed_chunk() for _ in range(chunks)]


def scale(chunks: list[float]) -> float:
    """Reference seconds per second at the speed these chunk times show."""
    return REF_CHUNK_S * len(chunks) / sum(chunks)


class InCall:
    """Runs a chunk every `TICK_S` of CPU time while the block runs.

    `chunks` holds their times and `spent` the wall time the ticks took.
    The ticks run between two bytecodes of the program, in the main thread;
    a process that only waits (for a child, say) gets none.
    """

    def __init__(self) -> None:
        self.chunks: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self.chunks.append(_timed_chunk())
        self.spent += perf_counter() - start

    def __enter__(self) -> "InCall":
        self._previous = signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._previous)
