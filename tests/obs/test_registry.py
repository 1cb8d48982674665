"""The metrics registry: instruments, null handles, and the snapshot."""

import pytest

from repro.obs import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_SERIES,
    SNAPSHOT_SCHEMA,
    Gauge,
    Obs,
    aggregate_snapshots,
    validate_snapshot,
)


def test_counter_counts():
    obs = Obs(profile=False)
    c = obs.counter("x.y.z")
    c.inc()
    c.inc(5)
    assert c.value == 6


def test_same_name_returns_same_instrument():
    """Two MTBs on one SMM share that SMM's utilization track."""
    obs = Obs(profile=False)
    assert obs.counter("a") is obs.counter("a")
    assert obs.gauge("g") is obs.gauge("g")
    assert obs.timeline("t") is obs.timeline("t")
    assert obs.distribution("d") is obs.distribution("d")
    assert obs.vt_histogram("h") is obs.vt_histogram("h")
    # distinct kinds may share a name without colliding
    assert obs.counter("n") is not obs.gauge("n")


def test_gauge_time_weighted_average_and_peak():
    obs = Obs(profile=False)
    g = obs.gauge("depth")
    g.set(0.0, 2.0)    # level 2 over [0, 10)
    g.add(10.0, 4.0)   # level 6 over [10, 20)
    assert g.current == 6.0
    assert g.peak == 6.0
    assert g.average(20.0) == pytest.approx((2 * 10 + 6 * 10) / 20)


def test_gauge_constant_level():
    g = Gauge("level")
    g.set(0.0, 5.0)
    assert g.average(10.0) == 5.0


def test_gauge_step():
    g = Gauge("level")
    g.set(0.0, 0.0)
    g.set(5.0, 10.0)  # 0 for [0,5), 10 for [5,10)
    assert g.average(10.0) == pytest.approx(5.0)
    assert g.peak == 10.0
    assert g.current == 10.0


def test_gauge_add():
    g = Gauge("level")
    g.add(2.0, 4.0)
    g.add(4.0, -4.0)
    # value 0 on [0,2), 4 on [2,4), 0 afterwards
    assert g.average(8.0) == pytest.approx(1.0)


def test_gauge_zero_span_average_is_current():
    g = Gauge("level")
    g.set(0.0, 3.0)
    assert g.average(0.0) == 3.0


def test_gauge_backwards_time_raises():
    g = Gauge("level")
    g.set(5.0, 1.0)
    with pytest.raises(ValueError, match="time went backwards"):
        g.set(4.0, 2.0)
    with pytest.raises(ValueError, match="time went backwards"):
        g.add(4.0, 1.0)


def test_gauge_integral_windows():
    """Differences of integral() between two reads give the window's
    level-time area (what the elastic rebalancer computes)."""
    g = Gauge("busy")
    g.add(0.0, 2.0)    # 2 over [0, 10)
    g.add(10.0, 3.0)   # 5 over [10, 30)
    assert g.integral(10.0) == 20.0
    assert g.integral(30.0) == 120.0
    assert g.integral(30.0) - g.integral(10.0) == 100.0
    # a read at or before the last change returns the settled area
    assert g.integral(5.0) == 20.0
    assert g.average(30.0) == 4.0


def test_vt_histogram_weights_by_dwell_time():
    """A level held 90% of the time dominates the percentile read even
    if it was *set* only once — the property a per-sample histogram
    gets wrong."""
    obs = Obs(profile=False)
    h = obs.vt_histogram("queue")
    h.observe(0.0, 5.0)     # 5 for [0, 90)
    h.observe(90.0, 50.0)   # 50 for [90, 100)
    h.close(100.0)
    assert h.total_weight == pytest.approx(100.0)
    assert h.percentile(50) == 5.0
    assert h.percentile(95) == 50.0


def test_series_coalesces_same_instant_changes():
    obs = Obs(profile=False)
    s = obs.timeline("busy")
    s.add(0.0, 1)
    s.add(0.0, 1)   # same instant: one sample at the final level
    s.add(5.0, -1)
    assert s.samples == [(0.0, 2.0), (5.0, 1.0)]
    assert s.current == 1.0


def test_null_handles_are_inert():
    for handle in (NULL_COUNTER, NULL_GAUGE, NULL_SERIES):
        handle.inc()
        handle.inc(10)
        handle.set(1.0, 2.0)
        handle.add(1.0, 2.0)
        handle.record(3.0)
        handle.observe(1.0, 2.0)
    assert not hasattr(NULL_COUNTER, "value")


def test_snapshot_shape_and_determinism():
    def build():
        obs = Obs(profile=False)
        obs.counter("b").inc(2)
        obs.counter("a").inc(1)
        obs.gauge("g").set(0.0, 3.0)
        obs.timeline("t").add(1.0, 1)
        obs.instant("track", "evt", 5.0, k=1)
        obs.span("track", "sp", 5.0, 2.0)
        return obs.snapshot()

    snap = build()
    assert snap["schema"] == SNAPSHOT_SCHEMA
    assert list(snap["counters"]) == ["a", "b"]  # sorted names
    assert snap["events"] == {"instants": 1, "spans": 1}
    assert snap == build()  # identical construction -> identical dict


def test_snapshot_with_engine_carries_sim_section():
    from repro.sim import Engine

    def proc():
        yield 10.0
        yield 10.0

    engine = Engine()
    engine.spawn(proc(), "p")
    engine.run()
    obs = Obs()
    snap = obs.snapshot(engine)
    assert snap["sim"]["events_executed"] == engine.event_count
    assert snap["sim"]["final_now_ns"] == engine.now
    assert "profile" in snap


def test_validate_snapshot_rejects_malformed():
    good = Obs(profile=False).snapshot()
    assert validate_snapshot(good) is good
    with pytest.raises(ValueError, match="schema"):
        validate_snapshot({**good, "schema": "bogus/9"})
    with pytest.raises(ValueError, match="now_ns"):
        validate_snapshot({**good, "now_ns": "yesterday"})
    with pytest.raises(ValueError, match="counters"):
        validate_snapshot({**good, "counters": {"c": "three"}})
    with pytest.raises(ValueError, match="events"):
        validate_snapshot({**good, "events": {"instants": 0}})
    bad_profile = {**good, "profile": {"top": [{"name": 3}]}}
    with pytest.raises(ValueError, match="heap_peak|top"):
        validate_snapshot(bad_profile)


def test_aggregate_distribution_extremes_skip_empty_nodes():
    """An empty distribution snapshots min/max as 0.0 placeholders;
    merging it must not drag the fleet min down to 0.0."""
    sampled = Obs(profile=False)
    sampled.distribution("pcie.d2h.queue_wait_ns").record(5.0)
    empty = Obs(profile=False)
    empty.distribution("pcie.d2h.queue_wait_ns")
    agg = aggregate_snapshots({"n0": sampled.snapshot(),
                               "n1": empty.snapshot()})
    row = agg["distributions"]["pcie.d2h.queue_wait_ns"]
    assert row["count"] == 1
    assert row["min"] == 5.0
    assert row["max"] == 5.0


def test_aggregate_all_empty_distribution_reports_zero():
    a, b = Obs(profile=False), Obs(profile=False)
    a.distribution("d")
    b.distribution("d")
    agg = aggregate_snapshots({"a": a.snapshot(), "b": b.snapshot()})
    assert agg["distributions"]["d"] == {
        "count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0}
