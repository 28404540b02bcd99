"""Scale timed intervals to a fixed machine speed.

The benchmark's host lends it a share of a shared machine whose speed
drifts: a fixed pure-Python loop took anywhere from 0.30 to 0.54 s of CPU
time within three minutes, in spells of ten seconds to a minute. A run of
half a minute can fall wholly inside a slow or a fast spell, so its raw
times say as much about the moment as about the program.

A `SpeedClock` runs a short fixed probe between operations, at most every
PROBE_EVERY_S seconds, and never inside a timed operation. limpack, like
the probe, is plain Python bytecode, so the two slow down largely
together; what slows one and not the other stays in the scaled times. An
interval is scaled piece by piece, each piece between two probes by
REF_PROBE_S over the local probe time (the median of the probes around
it), which gives its length in seconds at the reference speed: the speed
at which one probe takes REF_PROBE_S. Time spent in probes is left out.
A change that makes limpack do more work makes the scaled time longer in
the same proportion; the probe does not depend on limpack.

`RawClock` has the same interface, never probes and returns raw lengths;
the traced runs use it so that no probe falls inside a span.
"""
from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

PROBE_EVERY_S = 0.25
PROBE_ROUNDS = 8000
REF_PROBE_S = 0.0016    # about the probe's median time on a 2-vCPU Xeon VM
WINDOW = 4              # probes on each side of a piece that set its speed

_MASKS = [(i * 0x9E3779B1) & 0xFFFFFF for i in range(64)]


def probe_work() -> int:
    """Integer and bit operations, list indexing and a loop, as in limpack's solvers."""
    acc = 0
    masks = _MASKS
    for i in range(PROBE_ROUNDS):
        m = masks[i & 63] ^ (acc & 0xFFFF)
        acc += (m & -m).bit_length() + m.bit_count()
    return acc


class RawClock:
    def probe(self) -> None:
        pass

    def maybe_probe(self) -> None:
        pass

    def scaled(self, start: float, end: float) -> float:
        return end - start

    def raw(self, start: float, end: float) -> float:
        return end - start


class SpeedClock(RawClock):
    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.times: list[float] = []
        self._pieces: list[tuple[float, float, float]] | None = None

    def probe(self) -> None:
        t = perf_counter()
        probe_work()
        e = perf_counter()
        self.starts.append(t)
        self.ends.append(e)
        self.times.append(e - t)
        self._pieces = None

    def maybe_probe(self) -> None:
        if perf_counter() - self.ends[-1] >= PROBE_EVERY_S:
            self.probe()

    def _build(self) -> list[tuple[float, float, float]]:
        """(start, end, scale) of every gap between consecutive probes."""
        pieces = []
        times = self.times
        for k in range(len(times) - 1):
            near = times[max(0, k + 1 - WINDOW):k + 1 + WINDOW]
            pieces.append((self.ends[k], self.starts[k + 1], REF_PROBE_S / statistics.median(near)))
        return pieces

    def _overlap(self, start: float, end: float, scaled: bool) -> float:
        """Length of [start, end] outside the probes, optionally scaled.

        The interval must lie between the first and the last probe.
        """
        if self._pieces is None:
            self._pieces = self._build()
        if not self.ends or start < self.ends[0] or end > self.starts[-1]:
            raise ValueError("interval is not bracketed by probes")
        total = 0.0
        first = max(0, bisect_right(self.ends, start) - 1)
        last = min(len(self._pieces), bisect_left(self.ends, end))
        for lo, hi, scale in self._pieces[first:last]:
            length = min(hi, end) - max(lo, start)
            if length > 0:
                total += length * scale if scaled else length
        return total

    def scaled(self, start: float, end: float) -> float:
        return self._overlap(start, end, True)

    def raw(self, start: float, end: float) -> float:
        return self._overlap(start, end, False)
