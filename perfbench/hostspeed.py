"""Host-speed gauge: a fixed 2 ms probe, timed every 0.2 s of a pass.

Shared hosts change speed by 20-40 % over tens of seconds to minutes
(other tenants on the same cores and caches), far more than the changes
the benchmark must resolve.  Within a pass the program and the probe slow
down together, so the benchmark reports times scaled to a nominal host
speed:

    nominal seconds = measured seconds * NOMINAL_PROBE_S / mean probe time

where the mean is over the probes timed during the measured interval.
The probe mixes the two kinds of work the program does: pure-Python
elimination over a small prime field (like ``linalg`` and ``plucker``) and
numpy table gathers (like the sweep engine).  It depends on nothing in
``grasscodes``, so a change to the program never changes the unit.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

NOMINAL_PROBE_S = 1.5e-3  # probe time on a quiet 2-core Xeon VM
PERIOD_S = 0.2
PROBES_AFTER_SETUP = 20   # set-up is too short to sample, so probe right after it

_P = 7
_ADD = np.add.outer(np.arange(_P), np.arange(_P)).astype(np.int16) % _P
_MUL = np.multiply.outer(np.arange(_P), np.arange(_P)).astype(np.int16) % _P
_TAB = (np.arange(1 << 15, dtype=np.int64).reshape(-1, 8) * 2654435761
        % _P).astype(np.int16)


def _eliminate(rounds: int) -> int:
    acc = 0
    for r in range(rounds):
        a = [[(i * 7 + j * 3 + r) % _P for j in range(6)] for i in range(6)]
        for c in range(6):
            piv = next((k for k in range(c, 6) if a[k][c]), None)
            if piv is None:
                break
            a[c], a[piv] = a[piv], a[c]
            inv = pow(a[c][c], _P - 2, _P)
            for k in range(c + 1, 6):
                f = a[k][c] * inv % _P
                if f:
                    a[k] = [(x - f * y) % _P for x, y in zip(a[k], a[c])]
        acc += a[5][5]
    return acc


def _gather(rounds: int) -> int:
    total = 0
    for r in range(rounds):
        acc = np.zeros(_TAB.shape[0], dtype=np.int16)
        for i in range(_TAB.shape[1]):
            acc = _ADD[acc, _MUL[(r + i) % (_P - 1) + 1][_TAB[:, i]]]
        total += int(np.count_nonzero(acc))
    return total


def probe() -> float:
    """Wall time of one probe."""
    t0 = time.perf_counter()
    _eliminate(40)
    _gather(2)
    return time.perf_counter() - t0


def setup_probe() -> float:
    """Mean probe time right after set-up."""
    return statistics.fmean(probe() for _ in range(PROBES_AFTER_SETUP))


class Sampler:
    """Times a probe every PERIOD_S seconds of wall time, on SIGALRM.

    ``probe_s`` is the total time spent probing, which the pass subtracts
    from the job it interrupted.
    """

    def __init__(self, on_probe=None):
        self.samples: list[float] = []
        self.probe_s = 0.0
        self.on_probe = on_probe  # told each probe's time, e.g. by a tracer

    def _tick(self, signum, frame) -> None:
        dt = probe()
        self.samples.append(dt)
        self.probe_s += dt
        if self.on_probe:
            self.on_probe(dt)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean(self) -> float:
        """Mean probe time; a probe now if the pass was shorter than a period."""
        return statistics.fmean(self.samples) if self.samples else probe()
