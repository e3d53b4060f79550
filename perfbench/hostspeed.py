"""The host's speed, sampled with a fixed probe, to put times on one scale.

The benchmark host's speed is not steady: the same pure-Python loop runs
1.4x to 2x slower in spells that last from 0.1 s to minutes, whatever the
process does. A probe made of the package's two dominant kinds of work
(byte-table convolution, as in ``ga_mul``, and nested table lookups, as in
table validation) is timed between items and every PERIOD seconds during
them, from a SIGALRM handler. An interval's time on the reference scale is
its own time, less the probes inside it, times the mean of
``PROBE_REF_S / probe time`` over the probes within _MARGIN seconds of it:
the seconds the work would take on the reference host in its fast state. The
probe is the benchmark's own code, so no change to the package can change it.
"""

from __future__ import annotations

import random
import signal
import time

PERIOD = 0.25
# The probe's time on the 2-core reference box in its fast state.
PROBE_REF_S = 0.007
_MARGIN = 1.0


def _conv_tables(n: int):
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    tables = []
    for j in range(n):
        chunks = []
        for c in range(n // 8):
            arr = [0] * 256
            for v in range(1, 256):
                low = v & -v
                arr[v] = arr[v ^ low] ^ (1 << mul[c * 8 + low.bit_length() - 1][j])
            chunks.append(arr)
        tables.append(chunks)
    return tables


_TABLES = _conv_tables(16)
_rng = random.Random(0)
_PAIRS = tuple((_rng.getrandbits(16), _rng.getrandbits(16)) for _ in range(2400))
_GRID = tuple(tuple((i + j) % 28 for j in range(28)) for i in range(28))


def probe() -> float:
    """Time one fixed batch of interpreter work; returns seconds."""
    t0 = time.perf_counter()
    acc = 0
    tables = _TABLES
    for x, y in _PAIRS:
        while y:
            tj = tables[(y & -y).bit_length() - 1]
            y &= y - 1
            xm = x
            c = 0
            while xm:
                byte = xm & 0xFF
                if byte:
                    acc ^= tj[c][byte]
                xm >>= 8
                c += 1
    grid = _GRID
    n = len(grid)
    for i in range(n):
        row = grid[i]
        for j in range(n):
            ij = row[j]
            for k in range(n):
                if grid[ij][k] != row[grid[j][k]]:
                    acc += 1
    return time.perf_counter() - t0


class HostSpeed:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._previous = None
        self._busy = False

    def sample(self) -> None:
        if self._busy:  # an alarm during an explicit probe
            return
        self._busy = True
        try:
            start = time.perf_counter()
            self.samples.append((start, probe()))
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start_periodic(self) -> None:
        """Also probe every PERIOD seconds, from the main thread. Work spread
        over threads would run on vCPUs whose speeds vary independently, and
        the handler would compete with the pool for the GIL."""
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop_periodic(self) -> None:
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1], less the probes inside it, on the reference scale."""
        inside = sum(d for s, d in self.samples if s >= t0 and s + d <= t1)
        near = [d for s, d in self.samples if t0 - _MARGIN <= s <= t1 + _MARGIN]
        if not near:
            raise RuntimeError("no speed probe near the interval")
        speed = sum(PROBE_REF_S / d for d in near) / len(near)
        return (t1 - t0 - inside) * speed
