"""Load generators: golden seeded schedules and shape invariants."""

import pytest

from repro.serve import (BurstyArrivals, DeterministicArrivals,
                         PoissonArrivals, TraceArrivals)


def test_poisson_golden_schedule():
    """The seeded schedule is a contract: byte-identical reports depend
    on these exact numbers, so a drift here is a breaking change."""
    assert PoissonArrivals(250_000.0, seed=42).schedule(8) == [
        4080.241, 4181.556, 5468.052, 6478.397,
        11812.768, 16329.46, 25238.612, 25602.422,
    ]


def test_bursty_golden_schedule():
    """The first burst starts at t=0 — no idle gap before traffic
    exists.  (This golden moved back by one idle period when the
    first-gap bug was fixed; see the compatibility note on
    BurstyArrivals.)"""
    assert BurstyArrivals(burst_size=3, gap_in_burst_ns=100.0,
                          idle_gap_ns=5_000.0, seed=7).schedule(8) == [
        0.0, 100.0, 200.0, 5200.0, 5300.0, 5400.0,
        10400.0, 10500.0,
    ]


def test_bursty_first_arrival_is_at_zero():
    """The first-gap bug class: every generator's first arrival lands
    at (or near) t=0, bursty included — jittered or not."""
    for jitter in (0.0, 0.4):
        arr = BurstyArrivals(burst_size=4, gap_in_burst_ns=50.0,
                             idle_gap_ns=10_000.0, jitter=jitter, seed=3)
        assert arr.gaps(8)[0] == 0.0
        assert arr.schedule(8)[0] == 0.0


def test_deterministic_schedule():
    assert DeterministicArrivals(250.0).schedule(4) == [
        250.0, 500.0, 750.0, 1000.0,
    ]


def test_same_seed_same_schedule_fresh_instance():
    a = PoissonArrivals(100_000.0, seed=9).schedule(64)
    b = PoissonArrivals(100_000.0, seed=9).schedule(64)
    assert a == b


@pytest.mark.parametrize("arr", [
    PoissonArrivals(100_000.0, seed=9),
    BurstyArrivals(burst_size=3, gap_in_burst_ns=100.0,
                   idle_gap_ns=5_000.0, seed=7),
    # jitter > 0 is the path that conditionally draws from the RNG —
    # a stateful (non-reset) RNG would diverge on the second call
    BurstyArrivals(burst_size=4, gap_in_burst_ns=50.0,
                   idle_gap_ns=10_000.0, jitter=0.5, seed=11),
    DeterministicArrivals(250.0),
    TraceArrivals([0.0, 10.5, 99.0], cycle_ns=200.0),
], ids=lambda a: a.describe())
def test_schedule_and_gaps_are_idempotent(arr):
    """Repeated calls on ONE instance return the exact same numbers:
    generators build a fresh seeded RNG per call, they never carry
    state from a previous schedule."""
    assert arr.gaps(64) == arr.gaps(64)
    assert arr.schedule(64) == arr.schedule(64)
    # interleaving different lengths does not perturb either
    arr.gaps(7)
    assert arr.schedule(64) == arr.schedule(64)


def test_different_seeds_differ():
    assert (PoissonArrivals(100_000.0, seed=1).schedule(16)
            != PoissonArrivals(100_000.0, seed=2).schedule(16))


def test_poisson_mean_gap_tracks_rate():
    rate = 200_000.0  # mean gap 5000 ns
    sched = PoissonArrivals(rate, seed=3).schedule(4000)
    mean_gap = sched[-1] / len(sched)
    assert mean_gap == pytest.approx(1e9 / rate, rel=0.05)


def test_bursty_poisson_offered_rate_parity():
    """Equal configured mean rates offer equal load: over a long
    horizon, bursty and Poisson schedules put the same number of
    requests into a measurement window within tolerance.  (The
    first-gap bug shifted every bursty window by one idle period,
    which is exactly the skew this catches.)"""
    bursty = BurstyArrivals(burst_size=8, gap_in_burst_ns=500.0,
                            idle_gap_ns=20_000.0, seed=5)
    rate_per_s = 1e9 / bursty.mean_gap_ns
    poisson = PoissonArrivals(rate_per_s, seed=6)
    n = 4000
    window_ns = 0.9 * min(bursty.schedule(n)[-1], poisson.schedule(n)[-1])
    in_window = {
        arr.describe(): sum(1 for t in arr.schedule(n) if t <= window_ns)
        for arr in (bursty, poisson)
    }
    counts = list(in_window.values())
    assert counts[0] == pytest.approx(counts[1], rel=0.05), in_window


def test_schedules_are_strictly_increasing():
    for arr in (PoissonArrivals(500_000.0, seed=0),
                BurstyArrivals(burst_size=4, gap_in_burst_ns=10.0,
                               idle_gap_ns=100.0, jitter=0.5, seed=1),
                DeterministicArrivals(1.0),
                TraceArrivals([0.0, 3.5, 10.0], cycle_ns=50.0)):
        sched = arr.schedule(256)
        assert all(b > a for a, b in zip(sched, sched[1:])), arr.describe()


def test_describe_mentions_parameters():
    assert "250000" in PoissonArrivals(250_000.0, seed=42).describe()
    assert "seed" in PoissonArrivals(250_000.0, seed=42).describe()


# -- trace replay -------------------------------------------------------------


def test_trace_arrivals_replays_instants_verbatim():
    arr = TraceArrivals([5.0, 100.0, 2_500.125])
    assert arr.schedule(3) == [5.0, 100.0, 2500.125]
    assert arr.schedule(2) == [5.0, 100.0]
    assert arr.gaps(3) == [5.0, 95.0, 2400.125]


def test_trace_arrivals_overask_without_cycle_raises():
    with pytest.raises(ValueError, match="cycle_ns"):
        TraceArrivals([1.0, 2.0]).schedule(3)


def test_trace_arrivals_cycles_periodically():
    arr = TraceArrivals([10.0, 60.0], cycle_ns=100.0)
    assert arr.schedule(5) == [10.0, 60.0, 110.0, 160.0, 210.0]


def test_trace_arrivals_validates_input():
    with pytest.raises(ValueError, match="at least one"):
        TraceArrivals([])
    with pytest.raises(ValueError, match="strictly increasing"):
        TraceArrivals([5.0, 5.0])
    with pytest.raises(ValueError, match=">= 0"):
        TraceArrivals([-1.0, 5.0])
    with pytest.raises(ValueError, match="cycle_ns"):
        TraceArrivals([0.0, 50.0], cycle_ns=40.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_trace_arrivals_rejects_non_finite_instants(bad):
    # every comparison with NaN is False, so the ordering checks alone
    # would accept it
    with pytest.raises(ValueError, match="finite"):
        TraceArrivals([0.0, bad])
    with pytest.raises(ValueError, match="finite"):
        TraceArrivals([bad, 5.0])


def test_trace_arrivals_signature_names_content():
    a = TraceArrivals([1.0, 2.0, 3.0])
    b = TraceArrivals([1.0, 2.0, 3.0])
    c = TraceArrivals([1.0, 2.0, 4.0])
    assert a.signature() == b.signature()
    assert a.signature() != c.signature()
    assert a.signature() in a.describe()
