"""The metrics registry: counters, gauges, and virtual-time statistics.

One :class:`Obs` instance is the observability context of one run.
Components accept an optional ``obs`` argument and either

- keep the reference and guard each hot call site with
  ``if self.obs is not None:`` (the pattern for per-event paths where
  even a no-op method call is measurable), or
- resolve *handles* once at construction —
  ``self._bytes = obs.counter("pcie.h2d.bytes") if obs else NULL_COUNTER``
  — and call them unconditionally (the pattern for per-transaction
  paths, where a single no-op bound-method call disappears in the
  noise).

Either way the contract is the same: **with no** ``Obs`` **attached, a
run is bit-identical to an uninstrumented one** — instrumentation never
takes simulated time, never perturbs event ordering, and the null
handles mutate nothing.

Metric naming follows ``<component>.<object>.<quantity>`` with dots,
lower case, and unit suffixes where the unit is not obvious:
``pcie.h2d.bytes``, ``table.slots_occupied``, ``sched.decisions.defer``,
``gpu.smm3.busy_warps``, ``serve.queue_depth``.  Names are the registry
key — asking for the same name twice returns the same instrument, which
is how two MTBs on one SMM share that SMM's utilization track.

Everything here is plain integer/float arithmetic on deterministic
inputs: snapshots of two identical runs are identical, dict for dict.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: schema tag carried by every stats snapshot (bump on shape changes).
SNAPSHOT_SCHEMA = "repro.obs/1"


class Counter:
    """Monotonic event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A piecewise-constant level with time-weighted averaging.

    ``add``/``set`` take the current virtual time; ``average(end)``
    integrates the level over the run and ``integral(end)`` returns the
    raw level-time area.  Besides the registered ``obs`` gauges, the
    hardware models own private instances for occupancy (SMM resident
    warps, MTB busy executor warps), which exist with obs off because
    ``RunStats.mean_occupancy`` is read from them.
    """

    __slots__ = ("name", "_value", "_last", "_integral", "peak")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._last = 0.0
        self._integral = 0.0
        self.peak = 0.0

    def set(self, time: float, value: float) -> None:
        if time < self._last:
            raise ValueError("time went backwards")
        self._integral += self._value * (time - self._last)
        self._value = value
        self._last = time
        if value > self.peak:
            self.peak = value

    def add(self, time: float, delta: float) -> None:
        # inlined set(): this runs once per warp start and finish
        if time < self._last:
            raise ValueError("time went backwards")
        value = self._value + delta
        self._integral += self._value * (time - self._last)
        self._value = value
        self._last = time
        if value > self.peak:
            self.peak = value

    @property
    def current(self) -> float:
        return self._value

    def average(self, end: float) -> float:
        """Mean level over ``[0, end]`` (every run's clock starts at 0)."""
        if end <= 0:
            return self._value
        return (self._integral + self._value * (end - self._last)) / end

    def integral(self, end: float) -> float:
        """Level-time area up to ``end``.  Differences between two
        reads give a window's integral, which the elastic rebalancer
        turns into window utilization."""
        if end <= self._last:
            return self._integral
        return self._integral + self._value * (end - self._last)


class Distribution:
    """Order-free summary of per-event samples (count/sum/min/max).

    For queue waits and similar per-transaction quantities where the
    full histogram is overkill but mean and extremes matter.
    """

    __slots__ = ("name", "count", "sum", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def record(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class VtHistogram:
    """Virtual-time-weighted histogram of a piecewise-constant value.

    ``observe(t, v)`` says "the value became ``v`` at time ``t``"; each
    value is weighted by how long it held, so ``percentile(50)`` of a
    queue-depth histogram answers "what depth did the queue sit at half
    of the time" — the distribution Fig. 10-style breakdowns need,
    which a per-sample histogram (weighting each *change* equally)
    silently gets wrong.
    """

    __slots__ = ("name", "weights", "_value", "_last", "_started")

    def __init__(self, name: str) -> None:
        self.name = name
        #: value -> total virtual time spent at that value.
        self.weights: Dict[float, float] = {}
        self._value = 0.0
        self._last = 0.0
        self._started = False

    def observe(self, time: float, value: float) -> None:
        if self._started:
            span = time - self._last
            if span > 0:
                self.weights[self._value] = (
                    self.weights.get(self._value, 0.0) + span
                )
        self._started = True
        self._value = value
        self._last = time

    def close(self, end: float) -> None:
        """Account the final value's dwell up to ``end``."""
        if self._started and end > self._last:
            self.weights[self._value] = (
                self.weights.get(self._value, 0.0) + (end - self._last)
            )
            self._last = end

    @property
    def total_weight(self) -> float:
        return sum(self.weights.values())

    def percentile(self, pct: float) -> float:
        """Smallest value at or below which the level sat ``pct`` % of
        the observed time."""
        if not 0 <= pct <= 100:
            raise ValueError("percentile must be in [0, 100]")
        if not self.weights:
            raise ValueError(f"empty vt-histogram {self.name!r}")
        total = self.total_weight
        target = pct / 100.0 * total
        cumulative = 0.0
        last_value = 0.0
        for value in sorted(self.weights):
            cumulative += self.weights[value]
            last_value = value
            if cumulative >= target:
                return value
        return last_value


class Series:
    """A (time, value) counter-track timeline for the trace exporter.

    ``add(t, delta)`` keeps a running level and appends one sample per
    change; same-instant changes coalesce into the final level so the
    Perfetto counter track never shows a same-timestamp zigzag.
    """

    __slots__ = ("name", "samples", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.samples: List[Tuple[float, float]] = []
        self._value = 0.0

    def add(self, time: float, delta: float) -> None:
        self.set(time, self._value + delta)

    def set(self, time: float, value: float) -> None:
        self._value = value
        if self.samples and self.samples[-1][0] == time:
            self.samples[-1] = (time, value)
        else:
            self.samples.append((time, value))

    @property
    def current(self) -> float:
        return self._value


class _NullInstrument:
    """Shared no-op implementation behind every disabled handle."""

    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, time: float, value: float) -> None:
        pass

    def add(self, time: float, delta: float) -> None:
        pass

    def record(self, value: float) -> None:
        pass

    def observe(self, time: float, value: float) -> None:
        pass


#: the no-op handle: hand this out wherever obs is disabled, and the
#: instrumented call site pays one bound-method call and nothing else.
NULL_INSTRUMENT = _NullInstrument()
NULL_COUNTER = NULL_INSTRUMENT
NULL_GAUGE = NULL_INSTRUMENT
NULL_SERIES = NULL_INSTRUMENT
NULL_DISTRIBUTION = NULL_INSTRUMENT


class Obs:
    """One run's observability context: registry + event stream.

    ``profile=True`` additionally attaches a :class:`SimProfiler` to
    every engine the caller wires it into (see
    :meth:`repro.sim.Engine.spawn`), producing the deterministic
    top-N-processes report in :meth:`snapshot`.
    """

    def __init__(self, profile: bool = True, top_n: int = 10) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.distributions: Dict[str, Distribution] = {}
        self.vt_histograms: Dict[str, VtHistogram] = {}
        self.series: Dict[str, Series] = {}
        #: structured instant events: (track, name, t_ns, args-dict).
        self.instants: List[Tuple[str, str, float, dict]] = []
        #: structured spans: (track, name, t_ns, dur_ns, args-dict).
        self.spans: List[Tuple[str, str, float, float, dict]] = []
        self.top_n = top_n
        self.profiler = None
        if profile:
            from repro.obs.profiler import SimProfiler
            self.profiler = SimProfiler()

    # -- instrument lookup (same name -> same instrument) --------------------

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        return g

    def distribution(self, name: str) -> Distribution:
        d = self.distributions.get(name)
        if d is None:
            d = self.distributions[name] = Distribution(name)
        return d

    def vt_histogram(self, name: str) -> VtHistogram:
        h = self.vt_histograms.get(name)
        if h is None:
            h = self.vt_histograms[name] = VtHistogram(name)
        return h

    def timeline(self, name: str) -> Series:
        s = self.series.get(name)
        if s is None:
            s = self.series[name] = Series(name)
        return s

    # -- event stream ---------------------------------------------------------

    def instant(self, track: str, name: str, t_ns: float, **args) -> None:
        """One structured instant event (a scheduler decision, a drop)."""
        self.instants.append((track, name, t_ns, args))

    def span(self, track: str, name: str, t_ns: float, dur_ns: float,
             **args) -> None:
        """One structured duration event."""
        self.spans.append((track, name, t_ns, dur_ns, args))

    # -- the snapshot ---------------------------------------------------------

    def snapshot(self, engine=None) -> dict:
        """The run's whole statistics digest, JSON-ready and validated.

        Deterministic: sorted names, engine-clock timestamps only.
        ``engine`` adds the sim section (events executed, final clock)
        and closes time-weighted instruments at the engine's ``now``.
        """
        now = float(engine.now) if engine is not None else 0.0
        snap: dict = {
            "schema": SNAPSHOT_SCHEMA,
            "now_ns": now,
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {
                n: {
                    "current": g.current,
                    "peak": g.peak,
                    "average": round(g.average(now), 6),
                }
                for n, g in sorted(self.gauges.items())
            },
            "distributions": {
                n: {
                    "count": d.count,
                    "sum": round(d.sum, 6),
                    "mean": round(d.mean, 6),
                    "min": d.min if d.min is not None else 0.0,
                    "max": d.max if d.max is not None else 0.0,
                }
                for n, d in sorted(self.distributions.items())
            },
            "vt_histograms": {
                n: {
                    "total_weight_ns": round(h.total_weight, 6),
                    "p50": h.percentile(50) if h.weights else 0.0,
                    "p99": h.percentile(99) if h.weights else 0.0,
                }
                for n, h in sorted(self.vt_histograms.items())
            },
            "series": {
                n: {"samples": len(s.samples), "last": s.current}
                for n, s in sorted(self.series.items())
            },
            "events": {
                "instants": len(self.instants),
                "spans": len(self.spans),
            },
        }
        if engine is not None:
            snap["sim"] = {
                "events_executed": engine.event_count,
                "final_now_ns": now,
            }
        if self.profiler is not None:
            snap["profile"] = self.profiler.report(self.top_n)
        return validate_snapshot(snap)


#: schema tag of a cross-node merged snapshot.
AGGREGATE_SCHEMA = "repro.obs/aggregate/1"


def aggregate_snapshots(snaps: Dict[str, dict]) -> dict:
    """Merge per-node :meth:`Obs.snapshot` dicts into one fleet digest.

    ``snaps`` maps node name -> snapshot (each validated against
    ``repro.obs/1``).  Counters, distribution mass, series samples and
    event counts are summed; gauge peaks and clocks take the max;
    gauge averages combine time-weighted by each node's clock.
    Determinism carries over: the output is a pure function of the
    inputs with sorted keys, independent of dict iteration order.
    Percentile fields (vt-histogram p50/p99) are *not* mergeable from
    digests and are dropped — only the total dwell mass survives.
    """
    if not snaps:
        raise ValueError("nothing to aggregate")
    parts = [validate_snapshot(snaps[name]) for name in sorted(snaps)]

    def _names(section: str) -> List[str]:
        return sorted({n for p in parts for n in p[section]})

    def _rows(section: str, name: str) -> List[dict]:
        return [p[section][name] for p in parts if name in p[section]]

    counters = {
        n: sum(p["counters"].get(n, 0) for p in parts)
        for n in _names("counters")
    }
    total_now = sum(p["now_ns"] for p in parts)
    gauges = {}
    for n in _names("gauges"):
        rows = _rows("gauges", n)
        weighted = sum(
            p["gauges"][n]["average"] * p["now_ns"]
            for p in parts if n in p["gauges"]
        )
        gauges[n] = {
            "current": sum(r["current"] for r in rows),
            "peak": max(r["peak"] for r in rows),
            "average": round(weighted / total_now, 6) if total_now else 0.0,
        }
    distributions = {}
    for n in _names("distributions"):
        rows = _rows("distributions", n)
        count = sum(r["count"] for r in rows)
        total = sum(r["sum"] for r in rows)
        # an empty distribution snapshots min/max as 0.0; that is a
        # placeholder, not a sample, so it must not enter the extremes
        sampled = [r for r in rows if r["count"]]
        distributions[n] = {
            "count": count,
            "sum": round(total, 6),
            "mean": round(total / count, 6) if count else 0.0,
            "min": min(r["min"] for r in sampled) if sampled else 0.0,
            "max": max(r["max"] for r in sampled) if sampled else 0.0,
        }
    vt_histograms = {
        n: {"total_weight_ns": round(
            sum(r["total_weight_ns"] for r in _rows("vt_histograms", n)),
            6)}
        for n in _names("vt_histograms")
    }
    series = {
        n: {"samples": sum(r["samples"] for r in _rows("series", n))}
        for n in _names("series")
    }
    agg: dict = {
        "schema": AGGREGATE_SCHEMA,
        "nodes": sorted(snaps),
        "now_ns": max(p["now_ns"] for p in parts),
        "counters": counters,
        "gauges": gauges,
        "distributions": distributions,
        "vt_histograms": vt_histograms,
        "series": series,
        "events": {
            "instants": sum(p["events"]["instants"] for p in parts),
            "spans": sum(p["events"]["spans"] for p in parts),
        },
    }
    sims = [p["sim"] for p in parts if "sim" in p]
    if sims:
        agg["sim"] = {
            "events_executed": sum(s["events_executed"] for s in sims),
            "final_now_ns": max(s["final_now_ns"] for s in sims),
        }
    return agg


def validate_snapshot(snap: dict) -> dict:
    """Check a snapshot against the ``repro.obs/1`` shape; returns it.

    Plain-python validation (no jsonschema dependency): required keys,
    value types, and the per-section record shapes.  Raises
    :class:`ValueError` naming the offending field.
    """
    if not isinstance(snap, dict):
        raise ValueError("snapshot must be a dict")
    if snap.get("schema") != SNAPSHOT_SCHEMA:
        raise ValueError(
            f"snapshot schema {snap.get('schema')!r} != {SNAPSHOT_SCHEMA!r}"
        )
    if not isinstance(snap.get("now_ns"), (int, float)):
        raise ValueError("snapshot.now_ns must be a number")
    for section, fields in (
        ("counters", None),
        ("gauges", ("current", "peak", "average")),
        ("distributions", ("count", "sum", "mean", "min", "max")),
        ("vt_histograms", ("total_weight_ns", "p50", "p99")),
        ("series", ("samples", "last")),
    ):
        table = snap.get(section)
        if not isinstance(table, dict):
            raise ValueError(f"snapshot.{section} must be a dict")
        for name, value in table.items():
            if fields is None:
                if not isinstance(value, (int, float)):
                    raise ValueError(
                        f"snapshot.{section}[{name!r}] must be a number"
                    )
                continue
            if not isinstance(value, dict):
                raise ValueError(f"snapshot.{section}[{name!r}] must be a dict")
            for f in fields:
                if not isinstance(value.get(f), (int, float)):
                    raise ValueError(
                        f"snapshot.{section}[{name!r}].{f} must be a number"
                    )
    events = snap.get("events")
    if (not isinstance(events, dict)
            or not isinstance(events.get("instants"), int)
            or not isinstance(events.get("spans"), int)):
        raise ValueError("snapshot.events must carry instants/spans counts")
    if "sim" in snap:
        sim = snap["sim"]
        if (not isinstance(sim, dict)
                or not isinstance(sim.get("events_executed"), int)
                or not isinstance(sim.get("final_now_ns"), (int, float))):
            raise ValueError("snapshot.sim shape invalid")
    if "profile" in snap:
        prof = snap["profile"]
        if not isinstance(prof, dict) or not isinstance(
                prof.get("top"), list):
            raise ValueError("snapshot.profile.top must be a list")
        for row in prof["top"]:
            if (not isinstance(row, dict)
                    or not isinstance(row.get("name"), str)
                    or not isinstance(row.get("events"), int)
                    or not isinstance(row.get("vtime_ns"), (int, float))):
                raise ValueError("snapshot.profile.top rows malformed")
        if not isinstance(prof.get("heap_peak"), int):
            raise ValueError("snapshot.profile.heap_peak must be an int")
    return snap
