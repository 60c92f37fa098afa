"""A fixed slice of pure-Python work, run on a timer through the whole
run, that measures how fast the host runs Python from moment to moment.

On a virtual machine whose host cores are shared, the same code runs up
to twice as slow in some phases as in others; phases last a few tenths
of a second and their share drifts over minutes, so whole runs can
differ by that much in wall-clock time.  ``Speedometer`` interrupts the
run every ``INTERVAL_S`` with a ``SIGALRM`` and times one
``reference_slice`` in the handler, so the slices sample the host's
speed evenly over the run's wall time, inside items as well as between
them.  ``factor`` is the run's mean slice time over ``NOMINAL_SLICE_S``,
and ``spent()`` lets a caller take the slices' time back out of what it
timed.

The slice mixes the operations the package spends its time on: bitmask
recursion with a degree array and a memo dict (the solvers), and
frozenset copies with set membership tests (``GameState``).  It touches
nothing of the package, so no change to the package moves it.
"""

from __future__ import annotations

import gc
import signal
import time

INTERVAL_S = 0.04
# Seconds one slice takes in the host's fast phases: about the fastest of
# 2,000 slices on a 2-vCPU x86-64 virtual machine with CPython 3.11.7.
NOMINAL_SLICE_S = 0.0015


def _search(mask: int, ends: tuple, deg: list, memo: dict) -> bool:
    if mask == 0:
        return False
    hit = memo.get(mask)
    if hit is not None:
        return hit
    win = False
    m = mask
    while m:
        bit = m & -m
        m ^= bit
        a, b = ends[bit.bit_length() - 1]
        deg[a] -= 1
        deg[b] -= 1
        child = _search(mask ^ bit, ends, deg, memo)
        deg[a] += 1
        deg[b] += 1
        win = win or not child
    memo[mask] = win
    return win


_ENDS = tuple((i % 5, (i * 3 + 1) % 7) for i in range(10))
_ALIVE = frozenset(range(60))


def reference_slice() -> int:
    """A fixed amount of work; the result is always the same."""
    win = _search((1 << len(_ENDS)) - 1, _ENDS, [10] * 7, {})
    alive = _ALIVE
    total = 0
    for sid in range(0, 60, 2):
        alive = alive - {sid}
        total += sum(1 for s in range(60) if s in alive)
    return total + win


class Speedometer:
    """Times a slice on every tick of an interval timer while running.

    Use as a context manager around the timed part of a run.  The
    collector is paused during a slice, so that a collection of the
    package's objects is never charged to the host."""

    def __init__(self):
        self.slices = 0
        self.seconds = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_slice()
            self.seconds += time.perf_counter() - t0
            self.slices += 1
        finally:
            if collecting:
                gc.enable()

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.slices:  # a run shorter than one interval
            self._tick(None, None)

    def spent(self) -> tuple[float, int]:
        """Seconds the slices have taken so far, and their number."""
        return self.seconds, self.slices

    @property
    def factor(self) -> float:
        """Mean slice time over the nominal one: 1.0 when the run saw only
        fast phases, 1.5 when it saw the host 50% slower on average."""
        return self.seconds / self.slices / NOMINAL_SLICE_S
