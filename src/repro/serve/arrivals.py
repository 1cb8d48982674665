"""Seeded arrival processes — the serve layer's load generators.

An arrival process is drawn *up front* from one seeded RNG, exactly
like :class:`repro.faults.FaultPlan`: the whole schedule is fixed
before the simulation starts, so a serving run is a pure function of
``(tenants, config)`` and every latency report replays byte-identically
from its seeds.  ``schedule(n)`` returns the absolute arrival instants
(ns); ``gaps(n)`` the inter-arrival gaps.  Gaps are rounded to 1/1000
ns so schedules are stable, printable numbers rather than raw float
noise.

The generators here model the paper's §1 traffic shapes:

- :class:`DeterministicArrivals` — a metronome feed (the existing
  ``spawn_gap_ns`` behaviour of the figure experiments);
- :class:`PoissonArrivals` — memoryless open-loop traffic, the standard
  model for aggregated independent request sources;
- :class:`BurstyArrivals` — an on/off source: bursts of back-to-back
  tasks separated by (optionally jittered) idle periods, the shape that
  stresses admission control hardest;
- :class:`TraceArrivals` — replay of a fixed schedule of arrival
  instants, the bridge from production traces (see
  :mod:`repro.scenarios.trace`) into the serve layer.

Generators are **idempotent**: ``gaps``/``schedule`` build a fresh
``random.Random(seed)`` per call, so repeated calls on one instance —
or calls on a pickled copy in another process — return the exact same
numbers.  ``tests/serve/test_arrivals.py`` locks this in.
"""

from __future__ import annotations

import math
import random
from typing import List


def _cumsum(gaps: List[float]) -> List[float]:
    out: List[float] = []
    t = 0.0
    for g in gaps:
        t = round(t + g, 3)
        out.append(t)
    return out


class ArrivalProcess:
    """Base class: a deterministic factory of arrival schedules."""

    def gaps(self, n: int) -> List[float]:
        """The first ``n`` inter-arrival gaps in ns."""
        raise NotImplementedError

    def schedule(self, n: int) -> List[float]:
        """Absolute arrival instants (ns) for ``n`` requests."""
        if n < 0:
            raise ValueError("n must be >= 0")
        return _cumsum(self.gaps(n))

    def describe(self) -> str:
        """Stable one-line description (goes into the report JSON)."""
        raise NotImplementedError


class DeterministicArrivals(ArrivalProcess):
    """One request every ``gap_ns`` — a metronome feed."""

    def __init__(self, gap_ns: float) -> None:
        if gap_ns < 0:
            raise ValueError("gap_ns must be >= 0")
        self.gap_ns = float(gap_ns)

    def gaps(self, n: int) -> List[float]:
        return [self.gap_ns] * n

    def describe(self) -> str:
        return f"deterministic(gap_ns={self.gap_ns:g})"


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at ``rate_per_s`` requests per second.

    Gaps are drawn as ``-mean * ln(1 - u)`` from ``random.Random(seed)``
    directly (not :func:`random.expovariate`) so the schedule depends
    only on the documented cross-version stability of ``random()``.
    """

    def __init__(self, rate_per_s: float, seed: int = 0) -> None:
        if rate_per_s <= 0:
            raise ValueError("rate_per_s must be > 0")
        self.rate_per_s = float(rate_per_s)
        self.seed = seed

    @property
    def mean_gap_ns(self) -> float:
        """Mean inter-arrival gap implied by the rate."""
        return 1e9 / self.rate_per_s

    def gaps(self, n: int) -> List[float]:
        rng = random.Random(self.seed)
        mean = self.mean_gap_ns
        return [round(-mean * math.log(1.0 - rng.random()), 3)
                for _ in range(n)]

    def describe(self) -> str:
        return f"poisson(rate_per_s={self.rate_per_s:g}, seed={self.seed})"


class BurstyArrivals(ArrivalProcess):
    """On/off traffic: bursts of ``burst_size`` requests spaced
    ``gap_in_burst_ns`` apart, bursts separated by ``idle_gap_ns``.

    ``jitter`` > 0 multiplies each idle gap by a seeded uniform draw in
    ``[1 - jitter, 1 + jitter]`` so consecutive bursts do not beat
    against periodic service effects.

    The first burst starts at ~t=0 like every other generator: the
    gap at index 0 is 0.0, not an idle period.  (Until repro.serve/1
    reports generated after this fix, ``gaps`` emitted a full idle gap
    before the first request, which delayed the whole schedule by one
    idle period and skewed the offered rate against
    :class:`PoissonArrivals` at equal configured mean rates — golden
    seeded schedules recorded before the fix shift back by that first
    idle gap, and jittered schedules additionally re-index their idle
    draws since the leading gap no longer consumes one.)
    """

    def __init__(self, burst_size: int, gap_in_burst_ns: float,
                 idle_gap_ns: float, jitter: float = 0.0,
                 seed: int = 0) -> None:
        if burst_size < 1:
            raise ValueError("burst_size must be >= 1")
        if gap_in_burst_ns < 0 or idle_gap_ns < 0:
            raise ValueError("gaps must be >= 0")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        self.burst_size = burst_size
        self.gap_in_burst_ns = float(gap_in_burst_ns)
        self.idle_gap_ns = float(idle_gap_ns)
        self.jitter = float(jitter)
        self.seed = seed

    def gaps(self, n: int) -> List[float]:
        rng = random.Random(self.seed)
        out: List[float] = []
        for i in range(n):
            if i == 0:
                # first arrival lands at ~t=0; no idle period (and no
                # RNG draw) before traffic exists
                out.append(0.0)
            elif i % self.burst_size == 0:
                idle = self.idle_gap_ns
                if self.jitter:
                    idle *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
                out.append(round(idle, 3))
            else:
                out.append(round(self.gap_in_burst_ns, 3))
        return out

    @property
    def mean_gap_ns(self) -> float:
        """Long-run mean inter-arrival gap implied by the shape: one
        idle period plus ``burst_size - 1`` in-burst gaps per burst."""
        return (self.idle_gap_ns
                + (self.burst_size - 1) * self.gap_in_burst_ns
                ) / self.burst_size

    def describe(self) -> str:
        return (f"bursty(burst={self.burst_size}, "
                f"in_burst_ns={self.gap_in_burst_ns:g}, "
                f"idle_ns={self.idle_gap_ns:g}, jitter={self.jitter:g}, "
                f"seed={self.seed})")


class TraceArrivals(ArrivalProcess):
    """Replay of a fixed, pre-computed schedule of arrival instants.

    This is how production-shaped traffic enters the serve layer: the
    trace loader (:mod:`repro.scenarios.trace`) converts trace rows
    into a strictly-increasing list of instants (ns, rounded to 1/1000
    ns like every other generator) and wraps it here.  The instants
    *are* the schedule — there is no RNG at replay time, so a trace
    tenant is byte-stable by construction.

    ``cycle_ns`` > 0 lets ``schedule(n)`` ask for more arrivals than
    the trace holds: the instants repeat shifted by whole multiples of
    the cycle (an infinite periodic extension of the trace window).
    Without it, over-asking raises — silently looping a trace is a
    workload change the caller must opt into.
    """

    def __init__(self, instants: List[float], cycle_ns: float = 0.0,
                 label: str = "trace") -> None:
        if not instants:
            raise ValueError("need at least one arrival instant")
        rounded = [round(float(t), 3) for t in instants]
        if not all(math.isfinite(t) for t in rounded):
            raise ValueError("arrival instants must be finite")
        if rounded[0] < 0.0:
            raise ValueError("arrival instants must be >= 0")
        for a, b in zip(rounded, rounded[1:]):
            if b <= a:
                raise ValueError(
                    f"arrival instants must be strictly increasing "
                    f"({a} then {b})"
                )
        if cycle_ns and cycle_ns <= rounded[-1]:
            raise ValueError(
                f"cycle_ns={cycle_ns:g} must exceed the last instant "
                f"({rounded[-1]:g}) for the extension to stay increasing"
            )
        self.instants = tuple(rounded)
        self.cycle_ns = float(cycle_ns)
        self.label = str(label)

    def signature(self) -> str:
        """Short blake2b digest of the replayed instants — names the
        exact trace content in reports."""
        import hashlib
        payload = ",".join(f"{t:.3f}" for t in self.instants)
        return hashlib.blake2b(payload.encode("utf-8"),
                               digest_size=6).hexdigest()

    def schedule(self, n: int) -> List[float]:
        if n < 0:
            raise ValueError("n must be >= 0")
        m = len(self.instants)
        if n <= m:
            return list(self.instants[:n])
        if not self.cycle_ns:
            raise ValueError(
                f"trace {self.label!r} holds {m} arrivals but {n} were "
                "requested; pass cycle_ns to replay it periodically"
            )
        return [round(self.instants[k % m] + (k // m) * self.cycle_ns, 3)
                for k in range(n)]

    def gaps(self, n: int) -> List[float]:
        sched = self.schedule(n)
        return [round(b - a, 3)
                for a, b in zip([0.0] + sched[:-1], sched)]

    def describe(self) -> str:
        return (f"trace(label={self.label}, n={len(self.instants)}, "
                f"span_ns={self.instants[-1]:g}, "
                f"cycle_ns={self.cycle_ns:g}, sig={self.signature()})")
