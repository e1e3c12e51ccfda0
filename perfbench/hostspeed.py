"""Timing at a reference host speed.

The benchmark host is a share of a machine whose other tenants load the
shared cores.  Its speed swings by up to 2x, within seconds and for minutes
at a time, and CPU time swings with it, so two runs of the same code can
differ by a third.  A fixed reference kernel is therefore timed every
PROBE_INTERVAL_S while a timed region runs, from a timer signal handled in
the main thread.  The region's time, less the probes' own, is scaled to the
reference speed, at which one probe takes REFERENCE_S seconds (about its time
on an unloaded 2-core Xeon VM).  Only the standard library is imported here,
so a fresh interpreter can start sampling before it imports spanfact.
"""
from __future__ import annotations

import signal
import statistics
import time

PROBE_INTERVAL_S = 0.02
REFERENCE_S = 0.0008
# probes taken just before and just after a timed region
EDGE_PROBES = 3


def reference_kernel() -> int:
    """Fixed pure-Python work of the kinds spanfact does: small-int
    arithmetic, tuple hashing and dict updates.  It calls no spanfact code,
    so no change to the program moves it."""
    table, acc = {}, 0
    for i in range(2000):
        k = (i * 7919) & 1023
        table[k] = table.get(k, 0) + i
        acc ^= hash((k, i & 15))
        acc += i * i % 7
    return acc


class HostSpeed:
    """Samples the host's speed around and during a timed region.

    with HostSpeed() as speed: ... times the reference kernel `edges` times
    on entry and on exit and, with sample set, every PROBE_INTERVAL_S in
    between; without it only on entry and exit, for a region that runs in
    another process.  The time of the probes in between is kept in
    inside_s.  speed.scale(seconds) turns the region's measured seconds into
    seconds at the reference speed."""

    def __init__(self, sample: bool = True, edges: int = EDGE_PROBES):
        self.sample = sample
        self.edges = edges
        self.probes: list[float] = []
        self.inside_s = 0.0
        self._inside = False

    def _probe(self, *_) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        seconds = time.perf_counter() - t0
        self.probes.append(seconds)
        if self._inside:
            self.inside_s += seconds

    def __enter__(self) -> "HostSpeed":
        for _ in range(self.edges):
            self._probe()
        if self.sample:
            self._previous = signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self._inside = True
        return self

    def __exit__(self, *exc) -> None:
        self._inside = False
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        for _ in range(self.edges):
            self._probe()

    def scale(self, seconds: float, inside_s: float = 0.0, probes=()) -> tuple[float, float]:
        """(seconds less the probes' own time, the same at the reference
        speed).  inside_s and probes add another process's probes of the
        same region.  Work done is time times speed, and the probes are
        evenly spaced in time, so the mean speed is the mean of
        REFERENCE_S / probe."""
        net = seconds - self.inside_s - inside_s
        return net, net * statistics.fmean(REFERENCE_S / p for p in [*self.probes, *probes])
