"""The host's speed, sampled while a pass runs, to scale the pass's times.

The benchmark runs on shared hosts whose speed drifts by tens of percent
within a minute as other tenants' load comes and goes; a fixed Python loop
can take twice as long from one second to the next.  Times measured across
such drift spread more between runs than any bound a change could be held
to.  So a pass times a fixed snippet of pure-Python work every ``PERIOD_S``
seconds of wall time, from a ``SIGALRM`` handler in the pass's own thread,
which samples the host's speed over the same interval as the commands.  A
time scaled by it reads as seconds on a host where the snippet takes
``NOMINAL_S``.

The snippet hashes tuples and looks them up in a dict, like much of
lpsurf's work, but calls nothing of lpsurf and allocates no container
object, so it never triggers the garbage collector and does not depend on
the program's heap.
"""

from __future__ import annotations

import signal
import time

NOMINAL_S = 0.001
PERIOD_S = 0.05

_KEYS = [(i % 17, i % 5, i) for i in range(400)]
_TABLE = dict.fromkeys(_KEYS, 3)
_WORK = _KEYS * 16


def snippet() -> int:
    total = 0
    for key in _WORK:
        total += _TABLE[key] + hash(key) % 101
    return total


def time_snippet() -> float:
    t0 = time.perf_counter()
    snippet()
    return time.perf_counter() - t0


def scale(snippet_mean_s: float) -> float:
    """Factor from seconds measured to seconds at nominal speed."""
    return NOMINAL_S / snippet_mean_s


class Sampler:
    """Times the snippet every ``PERIOD_S`` seconds while in its ``with`` block."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(time_snippet())

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
