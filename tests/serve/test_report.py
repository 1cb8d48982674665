"""The latency accountant: stage decomposition and byte-replayability."""

import json

import pytest

from repro.core import PagodaConfig
from repro.faults import FaultPlan
from repro.gpu.phases import Phase
from repro.obs import chrome_trace_events
from repro.serve import (STAGES, PoissonArrivals, ServeConfig, SloClass,
                         TenantSpec, serve)
from repro.tasks import TaskSpec


def kernel(task, block_id, warp_id):
    yield Phase(inst=1500, mem_bytes=128)


def make_tenants(n=80, deadline_us=200.0):
    tasks = [TaskSpec(f"t{i}", 128, 1, kernel) for i in range(n)]
    slo = SloClass("svc", deadline_ns=deadline_us * 1e3)
    return [TenantSpec("svc", tasks,
                       PoissonArrivals(150_000.0, seed=11), slo=slo)]


def run_once(config=None):
    return serve(make_tenants(), config)


def test_stage_decomposition_sums_to_total():
    """ingress + post + ready + exec == end-to-end, per request."""
    rep = run_once()
    assert set(rep.stage_hists) == set(STAGES)
    for req in rep.requests:
        assert req.status == "done"
        res = req.result
        stages = [
            req.dispatch_ns - req.arrival_ns,     # ingress_wait
            res.post_time - req.dispatch_ns,      # pcie_post
            res.sched_time - res.post_time,       # table_ready
            res.end_time - res.sched_time,        # warp_exec
        ]
        assert all(s >= 0 for s in stages), (req.index, stages)
        assert sum(stages) == pytest.approx(req.latency_ns)
    # and in aggregate: stage means sum to the total mean
    stage_mean = sum(rep.stage_hists[s].mean for s in STAGES)
    assert stage_mean == pytest.approx(rep.hist_total.mean, rel=0.01)


def test_counters_are_conserved():
    rep = run_once()
    assert rep.offered == 80
    assert rep.completed + rep.failed + rep.dropped == rep.offered
    assert rep.admitted == rep.completed + rep.failed
    assert rep.hist_total.total == rep.completed


def test_report_json_is_byte_identical_across_runs():
    assert run_once().to_json() == run_once().to_json()


def test_report_json_is_valid_and_canonical():
    report = run_once()
    digest = json.loads(report.to_json())
    assert digest["schema"] == "repro.serve/1"
    assert digest["policy"] == "always-admit"
    assert digest["totals"]["completed"] == report.completed
    assert set(digest["latency_us"]["stages"]) == set(STAGES)
    # canonical: re-serializing the parsed digest reproduces the bytes
    assert json.dumps(digest, sort_keys=True,
                      separators=(",", ":")) == report.to_json()


def chaos_config():
    plan = FaultPlan.generate(seed=3, n_faults=6, horizon_ns=300_000.0,
                              columns=48)
    watchdog = 2_000_000.0 if plan.needs_watchdog() else None
    return ServeConfig(pagoda=PagodaConfig(
        fault_plan=plan, watchdog_deadline_ns=watchdog))


def test_byte_identical_with_fault_plan_active():
    """Determinism must survive chaos: same seeds -> same bytes."""
    first = run_once(chaos_config())
    second = run_once(chaos_config())
    assert first.faults_injected > 0
    assert first.to_json() == second.to_json()


def test_serving_survives_chaos_with_conserved_counters():
    rep = run_once(chaos_config())
    assert rep.completed + rep.failed + rep.dropped == rep.offered
    assert rep.completed > 0
    # failed requests never contribute latency samples
    assert rep.hist_total.total == rep.completed


def test_goodput_and_deadlines():
    rep = run_once()
    met = rep.deadline_met_pct("svc")
    assert 0.0 <= met <= 100.0
    good = rep.tenant_stats["svc"]["good"]
    assert good == round(met / 100.0 * rep.offered)
    assert rep.goodput_per_s <= rep.throughput_per_s + 1e-9


def test_run_stats_bridges_to_chrome_trace():
    rep = run_once()
    stats = rep.run_stats()
    assert len(stats.results) == rep.completed
    # spawn_time is the request's *arrival* (latency includes queueing)
    assert all(r.spawn_time >= 0 for r in stats.results)
    events = chrome_trace_events(stats)
    assert any(e["name"] == "exec" for e in events)


def test_write_json_round_trip(tmp_path):
    rep = run_once()
    path = tmp_path / "report.json"
    rep.write_json(str(path))
    assert json.loads(path.read_text()) == rep.to_dict()
