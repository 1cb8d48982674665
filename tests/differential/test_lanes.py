"""Both engine drains ≡ the reference core; end-to-end bytes are pinned.

The engine keeps one queue (heap plus ready ring) and two drains over
it: the unguarded hot loop behind ``run()`` and the per-record bounded
loop behind ``run(until=..., max_events=...)``,
``run_until_idle_processes`` and ``run_until`` (docs/INTERNALS.md §10).
The engine-level tests below hold both drains against the frozen seed
engine in :mod:`repro.sim.reference`: same trace, same clock, same
event count.

The end-to-end tests pin the golden corpus, a 25-seed hostile sweep
(with and without an active FaultPlan), fully instrumented obs
snapshots and serve reports to fixed digests.  Only a deliberate change
to simulated behaviour may move them.  The obs snapshots' work counts
(engine events and the profiler section, ``heap_peak`` included) are
pinned apart from their digests: they move when the same schedule is
simulated with less host work.  ``python -m tests.differential.harness``
prints the current values.
"""

import math

import pytest

from repro.sim import DeadlockError, Engine, Event
from repro.sim.reference import ReferenceEngine

from tests.differential.harness import (
    DIFF_SEEDS,
    OBS_SEEDS,
    chaos_fingerprint,
    corpus_fingerprint,
    digest,
    obs_snapshot_json,
    serve_report_json,
    split_work_counts,
)
from tests.test_determinism import (
    GOLDEN_APPROX_CASES,
    GOLDEN_EXACT_CASES,
    _engine_soup,
)


class BoundedEngine(Engine):
    """An engine whose plain ``run()`` takes the bounded drain."""

    def run(self, until=None, max_events=None, raise_on_deadlock=False):
        if until is None and max_events is None:
            until = math.inf
        return super().run(until, max_events, raise_on_deadlock)


# ---------------------------------------------------------------------------
# Engine level
# ---------------------------------------------------------------------------

def test_engine_soup_three_way():
    """Trace, final clock, and event count agree across the unbounded
    drain, the bounded drain, and the frozen seed implementation."""
    unbounded = _engine_soup(Engine)
    bounded = _engine_soup(BoundedEngine)
    reference = _engine_soup(ReferenceEngine)
    assert unbounded == bounded == reference


def test_lane_argument_is_validated():
    """There is one run loop, so the engine takes no arguments."""
    with pytest.raises(TypeError):
        Engine("fast")
    assert not hasattr(Engine(), "lane")


def _bounded_trace(engine, until=None, max_events=None):
    trace = []

    def ticker(i):
        for j in range(6):
            yield 1.0
            trace.append((engine.now, i, j))

    for i in range(4):
        engine.spawn(ticker(i), name=f"t{i}")
    end = engine.run(until=until, max_events=max_events)
    return tuple(trace), end, engine.event_count


@pytest.mark.parametrize("until,max_events", [
    (None, 7), (3.5, None), (3.0, None), (None, 1), (2.0, 9),
])
def test_bounded_runs_equivalent(until, max_events):
    """``until``/``max_events`` bounds stop at the same event, clock,
    and count as the reference — including stops inside one instant."""
    got = _bounded_trace(Engine(), until, max_events)
    want = _bounded_trace(ReferenceEngine(), until, max_events)
    assert got == want


def test_bounded_run_resumes_identically():
    """A run stopped inside one instant by ``max_events`` resumes in
    the original order."""
    def run(engine):
        trace = []

        def ticker(i):
            for j in range(4):
                yield 1.0
                trace.append((engine.now, i, j))

        for i in range(5):
            engine.spawn(ticker(i), name=f"t{i}")
        engine.run(max_events=3)   # stops inside the t=0 spawn wave
        mid = tuple(trace)
        engine.run()               # drain the remainder
        return mid, tuple(trace), engine.now, engine.event_count

    assert run(Engine()) == run(ReferenceEngine())


def test_run_until_idle_processes_equivalent():
    def run(engine):
        trace = []

        def rearming():
            # keeps re-arming timers; only liveness stops the run
            for j in range(3):
                yield 1.0
                trace.append((engine.now, "work", j))
            engine.call_after(1.0, lambda: trace.append((engine.now, "cb")))

        engine.spawn(rearming(), name="w")
        end = engine.run_until_idle_processes()
        return tuple(trace), end, engine.event_count

    assert run(Engine()) == run(ReferenceEngine())


def test_deadlock_detection_both_lanes():
    """Both drains report a stranded process once the queue drains."""
    for make in (Engine, BoundedEngine):
        engine = make()

        def stuck():
            yield Event()  # never fires

        engine.spawn(stuck(), name="stuck")
        with pytest.raises(DeadlockError, match="stuck"):
            engine.run(raise_on_deadlock=True)


def test_exception_mid_batch_preserves_remainder():
    """An exception thrown from a callback leaves the same events
    pending as the reference, and they drain in the original order.

    The bounded drain counts events after dispatch, like the reference,
    so the raising callback is not counted; the unbounded drain counts
    it before dispatch."""
    def run(engine):
        trace = []

        def ticker(i):
            yield 1.0
            trace.append((engine.now, i))

        for i in range(6):
            engine.spawn(ticker(i), name=f"t{i}")

        def boom():
            raise RuntimeError("boom")

        engine.call_at(1.0, boom)
        with pytest.raises(RuntimeError, match="boom"):
            engine.run()
        mid = (tuple(trace), engine.event_count)
        engine.run()  # the remainder drains in original order
        return mid, tuple(trace), engine.now, engine.event_count

    reference = run(ReferenceEngine())
    assert run(BoundedEngine()) == reference
    (trace, count), *rest = run(Engine())
    assert (trace, count - 1) == reference[0]
    assert tuple(rest[:2]) == reference[1:3]


# ---------------------------------------------------------------------------
# Golden corpus (end-to-end runs)
# ---------------------------------------------------------------------------

CORPUS_DIGESTS = {
    ("mpe", "pagoda", 5): "a14ef00f130cdd58",
    ("mb", "hyperq", 3): "67d8672c50f7224c",
    ("3des", "pagoda", 7): "0976e256eaf276f5",
    ("fb", "pagoda", 11): "5a8756f973bb63bd",
    ("dct", "hyperq", 1): "1245beff4f4c35fc",
    ("mm", "pagoda", 13): "2717b61e4f3328c1",
    ("conv", "gemtc", 2): "e71855580464ca3c",
}


@pytest.mark.parametrize("workload,runtime,seed",
                         GOLDEN_EXACT_CASES + GOLDEN_APPROX_CASES)
def test_golden_corpus_lane_identical(workload, runtime, seed):
    """Every corpus cell — including the ULP-drift ones, which
    ``tests/test_determinism.py`` only compares to 1e-12 — reproduces
    its pinned fingerprint exactly."""
    got = digest(corpus_fingerprint(workload, runtime, seed))
    assert got == CORPUS_DIGESTS[(workload, runtime, seed)]


# ---------------------------------------------------------------------------
# Seed sweep: hostile mixes, with and without an active FaultPlan
# ---------------------------------------------------------------------------

CHAOS_DIGESTS = [
    "bbda8c2ae8c7a668", "51d5b51d3d8e09c9", "8524a003422b58e9",
    "8948ded12e3404e4", "d1a1af2eed5ad795", "6415c204fc71cbac",
    "f54e12acb7915f22", "cf6345f5d4f418db", "89df0621cc790354",
    "0c1e069024175576", "637792e8d2693634", "18174a5416cd6c75",
    "d93a3727c026b769", "94222110617359ca", "0f2798e79b03d33d",
    "2e963340b8d2852e", "1bf8fda902d8578b", "ec5757896e621b00",
    "ee2a154e667aebe7", "dcd474b2e52c1364", "3eac447b87b17b68",
    "0f4f5c817cfecae7", "a8520e6839eca7e4", "eb51cfaa5a6da5c4",
    "95e77884da4fe76d",
]

CHAOS_FAULTY_DIGESTS = [
    "4e5ced88ea742782", "55d92670a027e9e1", "d04ea7b306a9f088",
    "0ac8d4fd2a782535", "509092124dfeb152", "0f72a62ba63c4e35",
    "006d6f9bcbfd1544", "e34cdcc8ced55222", "59569ff9a9208f57",
    "4fdf36da0b383a26", "b1e611fc482d4bc3", "5e02fbaa3e621093",
    "be49fe55c6292a1b", "d3260ee37d49e526", "bc816b8fd2832d44",
    "5fec469834227e70", "6259fe16d1f8efaf", "2dec5ca9945f2463",
    "92be99e0d1802126", "f97c134b59feef01", "136adfa909da7991",
    "c2d8ac9d1ac5ad87", "dcbfda4074c879ce", "6dea4f90733b2633",
    "d30b476a3d8e24c3",
]


@pytest.mark.parametrize("seed", DIFF_SEEDS)
def test_chaos_seed_identical(seed):
    assert digest(chaos_fingerprint(seed)) == CHAOS_DIGESTS[seed]


@pytest.mark.parametrize("seed", DIFF_SEEDS)
def test_chaos_seed_identical_under_fault_plan(seed):
    got = digest(chaos_fingerprint(seed, faulty=True))
    assert got == CHAOS_FAULTY_DIGESTS[seed]


# ---------------------------------------------------------------------------
# Obs snapshots and serve reports (byte comparisons)
# ---------------------------------------------------------------------------

#: digest of each obs snapshot without its work counts (see
#: :func:`split_work_counts`): what the simulation decided.
OBS_DIGESTS = {
    0: "96e735c7b2301bd4",
    7: "a63acc13a0eeb68c",
    19: "4886c03c0c79cb71",
}

#: the snapshot's work counts: ``(sim.events_executed,
#: profile.heap_peak, profile.total_events, profile.processes,
#: digest(profile))``.  They move only when the simulator does the same
#: schedule with a different amount of host work.
OBS_WORK_COUNTS = {
    0: (598, 21, 600, 47, "84392eb080c2b4ab"),
    7: (597, 19, 600, 49, "8ecf84224c9fe7d8"),
    19: (592, 21, 600, 39, "a17e7983c7e8302b"),
}

SERVE_DIGESTS = {
    False: "3ccd09dcab2b1402",
    True: "7f385908ef6d4858",
}


@pytest.mark.parametrize("seed", OBS_SEEDS)
def test_obs_snapshot_byte_identical(seed):
    """Instrumented runs reproduce their pinned bytes — the simulated
    behaviour (occupancy-memo counters included) and, separately, the
    work counts (the profiler's ``heap_peak`` included)."""
    snapshot = obs_snapshot_json(seed)
    assert '"gpu.occupancy.memo_hits"' in snapshot
    assert '"heap_peak"' in snapshot
    behaviour, counts = split_work_counts(snapshot)
    assert digest(behaviour) == OBS_DIGESTS[seed]
    assert counts == OBS_WORK_COUNTS[seed]


def test_serve_report_byte_identical():
    assert digest(serve_report_json()) == SERVE_DIGESTS[False]


def test_serve_report_byte_identical_under_faults():
    assert digest(serve_report_json(faulty=True)) == SERVE_DIGESTS[True]
