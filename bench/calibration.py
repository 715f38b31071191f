"""Host-speed calibration: a fixed loop whose time tracks the CPU speed.

On a 2-core host with Python 3.11, the time of a CPU-bound loop drifts by up
to a factor of two over seconds to minutes. Offline times are
therefore scaled to a host on which ``loop`` takes ``REFERENCE_MS``. Only the
standard library is used, so a child process can import this module before
it imports ``sopflow``.
"""

from __future__ import annotations

import statistics
from time import perf_counter

REFERENCE_MS = 1.5
_VALUES = [0.1 * i + 0.37 for i in range(12)]


def loop() -> None:
    """Fixed standard-library work shaped like an episode's hot paths: exact
    ``statistics`` arithmetic, float formatting, dict and string traffic. It
    runs no program code, so its time follows the host's CPU speed only."""
    for _ in range(4):
        statistics.pstdev(_VALUES)
        table = {f"k{i}": f"{i * 1.5:.6g}" for i in range(300)}
        ",".join(table.values())


def timed_loop() -> float:
    start = perf_counter()
    loop()
    return perf_counter() - start


def speed_s(repeats: int = 5) -> float:
    """Median time of a few loops, after two untimed ones that warm up a
    fresh interpreter: the host's current speed."""
    loop()
    loop()
    return statistics.median(timed_loop() for _ in range(repeats))


def scale(seconds: float, loop_s: float) -> float:
    """``seconds`` measured while the loop took ``loop_s``, at reference speed."""
    return seconds * REFERENCE_MS / 1000.0 / loop_s
