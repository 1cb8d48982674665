"""Tests of the benchmark itself: its record, its checks, tiny runs.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import run, tracing, workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


# -- the record -----------------------------------------------------------------

def test_benchmark_json_has_exactly_the_contract_keys():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert BENCH["paths"] == ["perfbench"]
    assert isinstance(BENCH["run_seconds"], int)
    assert 1 <= BENCH["run_seconds"] <= 60


def test_metric_names_units_and_limits():
    e2e, layer = BENCH["end_to_end"], BENCH["per_layer"]
    assert 1 <= len(e2e) <= 16
    assert 1 <= len(layer) <= 128
    names = [m["name"] for m in e2e + layer]
    assert len(names) == len(set(names))
    for m in e2e:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in layer:
        assert set(m) == {"name", "unit", "better"}
    for m in e2e + layer:
        assert NAME.match(m["name"]), m["name"]
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", m["name"])
        assert UNIT.match(m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")


def test_setup_metric_has_the_largest_bound():
    e2e = {m["name"]: m for m in BENCH["end_to_end"]}
    setup = e2e["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in e2e.values())


def test_workloads_are_described_once():
    names = [w["name"] for w in BENCH["workloads"]]
    assert 2 <= len(names) <= 8
    assert names == list(workloads.SPEC["workloads"]) == list(
        workloads.WORKLOADS)
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"}
        assert NAME.match(w["name"])
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
        assert w["why"] == workloads.SPEC["workloads"][w["name"]]["why"]


def test_spec_and_benchmark_agree_on_metrics():
    spec = workloads.SPEC
    assert list(spec["per_layer"]) == [m["name"] for m in BENCH["per_layer"]]
    assert list(spec["end_to_end"]) == [m["name"] for m in BENCH["end_to_end"]]
    for name, row in spec["per_layer"].items():
        assert row["moves"] and row["workloads"], name
        assert set(row["workloads"]) <= set(spec["workloads"]), name


def test_paper_geomeans_match_the_fig5_module():
    from repro.bench.fig5 import PAPER_GEOMEANS
    conf = workloads.SPEC["workloads"]["paper_fig5"]
    assert conf["paper_geomeans"] == PAPER_GEOMEANS


def test_serve_rates_follow_the_recorded_capacity():
    conf = workloads.SPEC["workloads"]["serve_ladder"]
    for step in conf["steps"]:
        assert step["rate_per_s"] == pytest.approx(
            step["ratio"] * conf["capacity_per_s"], rel=1e-6)
        assert step["requests"] >= 1000


def test_no_engine_lane_option_is_named():
    for name in ("workloads.py", "run.py", "tracing.py"):
        with open(os.path.join(HERE, name)) as fh:
            assert "lane=" not in fh.read(), name


# -- the output checks fire -------------------------------------------------------

def test_ledger_check_fires_on_an_unbalanced_ledger():
    assert workloads.check_ledger("x", 100, 90, 10, 0, 100).ok
    assert not workloads.check_ledger("x", 100, 90, 9, 0, 100).ok
    assert not workloads.check_ledger("x", 99, 90, 9, 0, 100).ok


def test_same_bytes_check_fires_on_a_one_byte_difference():
    a = json.dumps({"p99": 12.5, "completed": 100})
    b = a.replace("12.5", "12.6")
    assert workloads.check_same_bytes("x", a, a).ok
    check = workloads.check_same_bytes("x", b, a)
    assert not check.ok and "byte" in check.detail


def test_cell_check_fires_on_missing_or_unfinished_tasks():
    from repro.bench.harness import make_tasks, run_tasks
    tasks = make_tasks("3des", 8, 128, 0)
    stats = run_tasks(tasks, "pagoda")
    assert workloads.check_cell("x", 8, stats).ok
    assert not workloads.check_cell("x", 9, stats).ok
    assert not workloads.check_cell("x", 8, None).ok
    stats.results[3].end_time = 0.0
    assert not workloads.check_cell("x", 8, stats).ok


def test_repeat_check_fires_when_passes_disagree():
    assert workloads.check_repeat("x", ["a", "a"]).ok
    assert not workloads.check_repeat("x", ["a", "b"]).ok


def test_fig5_geomeans_match_the_fig5_module(tiny_spec):
    from repro.bench import fig5
    tiny_spec["workloads"]["paper_fig5"]["apps"] = fig5.WORKLOADS
    wl = workloads.PaperFig5(2)
    result = wl.run_pass(tracing.Tracer("t"))
    expected = fig5.run(num_tasks=12, seed=2)["geomeans"]
    for rt in fig5.PAPER_GEOMEANS:
        assert result.sim[f"fig5.geomean_{rt}"] == pytest.approx(
            expected[rt], rel=1e-12)


def test_serve_ledger_check_fires_on_a_doctored_report(tiny_spec):
    wl = workloads.ServeLadder(3)
    from repro.serve import serve
    rep = serve(wl.tenants(0), wl.config(0))
    n = wl.steps[0]["requests"]
    assert workloads.check_ledger("x", rep.offered, rep.completed,
                                  rep.dropped, rep.failed, n).ok
    assert not workloads.check_ledger("x", rep.offered, rep.completed - 1,
                                      rep.dropped, rep.failed, n).ok


def test_fleet_checks_fire_on_a_doctored_report(tiny_spec):
    import types
    wl = workloads.FleetLossy(3)
    assert all(c.ok for c in wl.run_reference(tracing.Tracer("t")))
    good = wl.reference_json
    flipped = "1" if good[-2] != "1" else "2"
    bad = good[:-2] + flipped + good[-1]
    assert len(bad) == len(good)
    assert workloads.check_same_bytes("x", good, wl.reference_json).ok
    assert not workloads.check_same_bytes("x", bad, wl.reference_json).ok
    frontier = dict(json.loads(good)["frontier"])
    assert wl._frontier_check("x", types.SimpleNamespace(
        frontier=frontier)).ok
    frontier["completed"] -= 1
    assert not wl._frontier_check("x", types.SimpleNamespace(
        frontier=frontier)).ok


# -- layer attribution -------------------------------------------------------------

def test_layer_of_maps_files_to_layers():
    assert tracing.layer_of("/x/src/repro/sim/engine.py") == "sim"
    assert tracing.layer_of("/x/src/repro/faults/plan.py") == "cluster"
    assert tracing.layer_of("/x/src/repro/tasks.py") == "other"
    assert tracing.layer_of("/usr/lib/python3/heapq.py") == "other"


def test_builtins_are_charged_to_the_calling_layer():
    from repro.bench.harness import make_tasks, run_tasks
    tasks = make_tasks("mm", 32, 128, 0)
    profile = tracing.LayerProfile()
    tracer = tracing.Tracer("t", profile)
    with tracer.span("cell", group="pagoda"):
        run_tasks(tasks, "pagoda")
    layers = profile.layer_self_s()
    table = profile.stats()
    builtin_s = sum(row[2] for f, row in table.items() if f[0] == "~")
    total = sum(v for k, v in layers.items() if k != "sim.ps")
    assert total == pytest.approx(sum(row[2] for row in table.values()))
    assert layers["sim"] > 0 and layers["core"] > 0
    # builtins are real work here (heapq, list ops) and most of it is
    # charged to repro layers, not to "other"
    assert builtin_s > 0 and layers["other"] < builtin_s
    assert layers["sim"] >= layers["sim.ps"] > 0


def test_span_self_time_subtracts_children():
    tracer = tracing.Tracer("t")
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    own = tracer.self_times()
    outer, inner = tracer.spans
    assert inner["parent"] == outer["id"]
    assert own[outer["id"]] == pytest.approx(
        tracer.duration(outer) - tracer.duration(inner))


# -- tiny smoke runs ---------------------------------------------------------------

@pytest.fixture
def tiny_spec(monkeypatch):
    spec = copy.deepcopy(workloads.SPEC)
    fig5 = spec["workloads"]["paper_fig5"]
    fig5["apps"] = ["3des", "slud"]
    fig5["tasks_per_app"] = 12
    for step in spec["workloads"]["serve_ladder"]["steps"]:
        step["requests"] = 40
    spec["workloads"]["fleet_lossy"]["requests"] = 60
    monkeypatch.setattr(workloads, "SPEC", spec)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    return spec


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_smoke_run(tiny_spec, capsys, name, trace):
    code = run.main(["--workload", name, "--seed", "2", "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0, lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in BENCH[section]]
    for m in BENCH[section]:
        row = result["metrics"][m["name"]]
        assert row["unit"] == m["unit"]
        assert isinstance(row["value"], (int, float))
    if not trace:
        assert all(row["value"] > 0 for row in result["metrics"].values())
    assert any(line.startswith("  check ") for line in lines)


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_fig5",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
