"""The benchmark's three workloads: inputs from a seed, passes, checks.

Each workload builds its inputs from ``--seed`` alone and drives the
simulator only through public entry points (``repro.bench.harness``
``make_tasks``/``run_tasks``, ``repro.core.run_pagoda``,
``repro.serve.serve`` and ``repro.cluster.run_cluster``). It passes no
engine-lane option, so the runs use each entry point's own default.

A *pass* is one full execution of the workload. Timed passes repeat on
the same inputs; their simulated outcome must not change between
passes, which is one of the output checks. Constants come from
``spec.json`` next to this file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import traceback
from typing import Dict, List, Optional

from repro.bench.harness import copy_fraction, make_tasks, run_tasks
from repro.cluster import (ConsistentHashRouter, NodeSpec, Topology,
                           run_cluster)
from repro.core import PagodaConfig, run_pagoda
from repro.faults import FaultPlan, FaultSpec
from repro.obs import Obs
from repro.serve import (DropTail, PoissonArrivals, ServeConfig,
                         TaskServer, TenantSpec, serve)
from repro.serve.slo import SloClass

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "spec.json")) as _fh:
    SPEC = json.load(_fh)

#: derived seeds are ``seed * SEED_STRIDE + offset``; offsets stay
#: below the stride so two run seeds never share an input stream.
SEED_STRIDE = 100
#: offset of arrival-process seeds from task seeds.
ARRIVAL_SEED_OFFSET = 50


def sub_seed(seed: int, offset: int) -> int:
    if not 0 <= offset < SEED_STRIDE:
        raise ValueError(f"seed offset {offset} outside [0, {SEED_STRIDE})")
    return seed * SEED_STRIDE + offset


@dataclasses.dataclass
class Check:
    """One output check and its verdict."""

    name: str
    ok: bool
    detail: str = ""


@dataclasses.dataclass
class PassResult:
    """What one pass produced."""

    wall_s: float
    attempted: int
    completed: int
    failed: int
    checks: List[Check]
    #: fingerprint of the simulated outcome; equal across passes.
    digest: str
    #: simulated-time metrics of the pass.
    sim: Dict[str, float]
    #: host seconds of each timed call: a cell ``app/runtime``, a
    #: serve step, or the pooled fleet run.
    cells_s: Dict[str, float] = dataclasses.field(default_factory=dict)


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def _geomean(values) -> float:
    logs = [math.log(v) for v in values]
    return math.exp(sum(logs) / len(logs))


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile, as ``RunStats.latency_percentile``."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    index = min(len(ordered) - 1,
                int(round(pct / 100 * (len(ordered) - 1))))
    return ordered[index]


# -- output checks -------------------------------------------------------------

def check_cell(cell: str, num_tasks: int, stats) -> Check:
    """A Fig. 5 cell returned every task, and every task completed."""
    name = "every cell completes all its tasks"
    if stats is None:
        return Check(name, False, f"{cell} raised")
    done = sum(1 for r in stats.results
               if r.end_time > 0 and r.end_time >= r.spawn_time)
    if len(stats.results) != num_tasks or done != num_tasks:
        return Check(name, False, f"{cell}: {done} of {num_tasks} tasks "
                     f"completed, {len(stats.results)} results returned")
    if not stats.makespan > 0:
        return Check(name, False, f"{cell}: makespan {stats.makespan}")
    return Check(name, True)


def check_ledger(name: str, offered: int, completed: int, dropped: int,
                 failed: int, expected: int) -> Check:
    """Every offered request is accounted for exactly once."""
    if offered != expected:
        return Check(name, False, f"offered {offered}, sent {expected}")
    if offered != completed + dropped + failed:
        return Check(name, False, f"offered {offered} != completed "
                     f"{completed} + dropped {dropped} + failed {failed}")
    return Check(name, True)


def check_same_bytes(name: str, got: str, reference: str) -> Check:
    """Two reports are byte-identical."""
    if got == reference:
        return Check(name, True)
    at = next((i for i, (a, b) in enumerate(zip(got, reference)) if a != b),
              min(len(got), len(reference)))
    return Check(name, False, f"reports differ at byte {at} "
                 f"(lengths {len(got)} and {len(reference)})")


def check_repeat(name: str, digests: List[str]) -> Check:
    """Every pass on the same inputs simulated the same outcome."""
    if len(set(digests)) <= 1:
        return Check(name, True)
    return Check(name, False, f"{len(set(digests))} distinct outcomes "
                 f"over {len(digests)} passes")


def _counter_ratio(counters: dict, num: str, den: str) -> float:
    d = counters.get(den, 0)
    return counters.get(num, 0) / d if d else 0.0


def obs_count_metrics(counters: dict, dists: dict, tasks: int) -> dict:
    """Per-task work counts of the core and pcie layers from an Obs
    snapshot's counters and distributions."""
    hits = counters.get("gpu.occupancy.memo_hits", 0)
    misses = counters.get("gpu.occupancy.memo_misses", 0)
    waits = [dists[k] for k in ("pcie.h2d.queue_wait_ns",
                                "pcie.d2h.queue_wait_ns") if k in dists]
    wait_n = sum(d["count"] for d in waits)
    return {
        "table.posts_per_task": counters.get("table.entry_posts", 0) / tasks,
        "table.copy_backs_per_task":
            counters.get("table.copy_backs", 0) / tasks,
        "table.rows_per_scan": _counter_ratio(
            counters, "table.dirty_rows_visited", "table.dirty_row_scans"),
        "sched.defer_ratio": _counter_ratio(
            counters, "sched.decisions.defer", "sched.decisions.schedule"),
        "sched.tasks_failed": counters.get("sched.tasks_failed", 0),
        "gpu.occupancy.memo_hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "pcie.transactions_per_task": (
            counters.get("pcie.h2d.transactions", 0)
            + counters.get("pcie.d2h.transactions", 0)) / tasks,
        "pcie.bytes_per_task": (counters.get("pcie.h2d.bytes", 0)
                                + counters.get("pcie.d2h.bytes", 0)) / tasks,
        "pcie.queue_wait_us": (sum(d["sum"] for d in waits) / wait_n / 1e3
                               if wait_n else 0.0),
    }


def _merge_counts(into: dict, snap: dict) -> None:
    for name, value in snap["counters"].items():
        into["counters"][name] = into["counters"].get(name, 0) + value
    for name, row in snap["distributions"].items():
        acc = into["distributions"].setdefault(name, {"count": 0, "sum": 0.0})
        acc["count"] += row["count"]
        acc["sum"] += row["sum"]
    into["events"] += snap.get("sim", {}).get("events_executed", 0)


def _empty_counts() -> dict:
    return {"counters": {}, "distributions": {}, "events": 0}


# -- paper_fig5 ----------------------------------------------------------------

class PaperFig5:
    """The Fig. 5 grid: nine apps under five runtimes, all at t=0."""

    name = "paper_fig5"

    def __init__(self, seed: int) -> None:
        self.conf = SPEC["workloads"][self.name]
        self.seed = seed
        self.tasks = {
            app: make_tasks(app, self.conf["tasks_per_app"],
                            self.conf["threads_per_task"], seed)
            for app in self.conf["apps"]
        }
        self.cells = [
            (app, rt) for app in self.conf["apps"]
            for rt in self.conf["runtimes"]
            if rt not in self.conf["skip"].get(app, [])
        ]
        self.attempted_per_pass = sum(len(self.tasks[a]) for a, _ in self.cells)
        #: the Pagoda cells' makespans in the last pass, in app order.
        self.pagoda_makespans: List[float] = []

    def run_pass(self, tracer) -> PassResult:
        stats: Dict[tuple, object] = {}
        cells: Dict[str, float] = {}
        checks: List[Check] = []
        failed = 0
        with tracer.span(f"{self.name}.pass") as whole:
            for app, rt in self.cells:
                tasks = self.tasks[app]
                with tracer.span(f"cell.{app}.{rt}", group=rt) as span:
                    try:
                        result = run_tasks(tasks, rt,
                                           copies=self.conf["copies"])
                    except Exception:
                        traceback.print_exc()
                        result = None
                cells[f"{app}/{rt}"] = tracer.duration(span)
                check = check_cell(f"{app}/{rt}", len(tasks), result)
                checks.append(check)
                if not check.ok:
                    done = 0 if result is None else sum(
                        1 for r in result.results if r.end_time > 0)
                    failed += len(tasks) - done
                stats[(app, rt)] = result
        completed = self.attempted_per_pass - failed
        sim = self.sim_metrics(stats) if failed == 0 else {}
        self.pagoda_makespans = [
            stats[(a, "pagoda")].makespan for a in self.conf["apps"]
            if stats[(a, "pagoda")] is not None]
        digest = _digest(sorted(
            (k, s.makespan, s.copy_time, s.mean_occupancy)
            for k, s in stats.items() if s is not None))
        return PassResult(tracer.duration(whole), self.attempted_per_pass,
                          completed, failed, checks, digest, sim, cells)

    def sim_metrics(self, stats: Dict[tuple, object]) -> Dict[str, float]:
        paper = self.conf["paper_geomeans"]
        apps = self.conf["apps"]
        out: Dict[str, float] = {}
        for rt in paper:
            ran = [a for a in apps if (a, rt) in stats]
            # Pagoda's geomean speedup over sequential, over the apps
            # the baseline ran, divided by the baseline's (as fig5.run)
            measured = (_geomean(stats[(a, "sequential")].makespan
                                 / stats[(a, "pagoda")].makespan for a in ran)
                        / _geomean(stats[(a, "sequential")].makespan
                                   / stats[(a, rt)].makespan for a in ran))
            out[f"fig5.geomean_{rt}"] = measured
            out[f"fig5_err_{rt}_pct"] = (abs(measured - paper[rt])
                                         / paper[rt] * 100)
        for pct in (50, 99):
            out[f"p{pct}_us"] = _geomean(
                percentile([r.latency for r in stats[(a, "pagoda")].results],
                           pct) for a in apps) / 1e3
        done = sum(len(stats[(a, "pagoda")].results) for a in apps)
        span_ns = sum(stats[(a, "pagoda")].makespan for a in apps)
        out["goodput_kps"] = done * 1e9 / span_ns / 1e3
        for rt in ("pagoda", "hyperq", "gemtc"):
            cells = [stats[(a, rt)] for a in apps if (a, rt) in stats]
            out[f"gpu.occupancy.{rt}"] = (
                sum(s.mean_occupancy for s in cells) / len(cells))
            out[f"pcie.copy_share.{rt}"] = (
                sum(copy_fraction(s) for s in cells) / len(cells))
        return out

    def count_metrics(self, reference: PassResult, tracer) -> tuple:
        """Obs counts of the Pagoda cells (the only ones that take an
        Obs), plus a check that attaching it left the schedule alone."""
        counts = _empty_counts()
        tasks = 0
        makespans = []
        with tracer.span(f"{self.name}.count"):
            for app in self.conf["apps"]:
                stats = run_pagoda(self.tasks[app],
                                   config=PagodaConfig(obs=Obs()))
                _merge_counts(counts, stats.meta["stats_snapshot"])
                tasks += len(self.tasks[app])
                makespans.append(stats.makespan)
        out = obs_count_metrics(counts["counters"], counts["distributions"],
                                tasks)
        out["sim.events_per_task"] = counts["events"] / tasks
        out["_events"] = counts["events"]
        same = makespans == self.pagoda_makespans
        return out, [Check("pagoda obs on/off identical", same,
                           "" if same else "makespans differ with an Obs")]


# -- serve_ladder --------------------------------------------------------------

class ServeLadder:
    """Two tenants on one Pagoda GPU at three fixed offered rates."""

    name = "serve_ladder"

    def __init__(self, seed: int) -> None:
        self.conf = SPEC["workloads"][self.name]
        self.seed = seed
        self.steps = self.conf["steps"]
        tenants = self.conf["tenants"]
        self.tasks: List[List[list]] = []
        for j, step in enumerate(self.steps):
            counts = _split(step["requests"], [t["share"] for t in tenants])
            self.tasks.append([
                make_tasks(t["app"], n, self.conf["threads_per_task"],
                           sub_seed(seed, 10 * j + k))
                for k, (t, n) in enumerate(zip(tenants, counts))
            ])
        self.attempted_per_pass = sum(s["requests"] for s in self.steps)

    def tenants(self, j: int) -> List[TenantSpec]:
        step = self.steps[j]
        return [
            TenantSpec(t["name"], self.tasks[j][k],
                       PoissonArrivals(step["rate_per_s"] * t["share"],
                                       seed=sub_seed(self.seed, 10 * j + k
                                                     + ARRIVAL_SEED_OFFSET)),
                       slo=SloClass(t["name"], deadline_ns=t["deadline_ns"]))
            for k, t in enumerate(self.conf["tenants"])
        ]

    def config(self, j: int) -> ServeConfig:
        return ServeConfig(policy=DropTail(self.conf["queue_depth"]),
                           label=f"{self.name}.{self.steps[j]['name']}")

    def run_pass(self, tracer) -> PassResult:
        reports = {}
        cells: Dict[str, float] = {}
        checks: List[Check] = []
        failed = 0
        with tracer.span(f"{self.name}.pass") as whole:
            for j, step in enumerate(self.steps):
                name = step["name"]
                with tracer.span(f"step.{name}", group=name) as span:
                    try:
                        rep = serve(self.tenants(j), self.config(j))
                    except Exception:
                        traceback.print_exc()
                        rep = None
                cells[name] = tracer.duration(span)
                if rep is None:
                    checks.append(Check(f"ledger {name}", False, "raised"))
                    failed += step["requests"]
                    continue
                check = check_ledger(f"ledger {name}", rep.offered,
                                     rep.completed, rep.dropped, rep.failed,
                                     step["requests"])
                checks.append(check)
                failed += rep.failed + max(
                    0, step["requests"] - rep.completed - rep.dropped
                    - rep.failed)
                reports[name] = rep
        completed = sum(r.completed for r in reports.values())
        sim = self.sim_metrics(reports) if len(reports) == len(self.steps) \
            else {}
        digest = _digest(sorted((n, r.to_json()) for n, r in reports.items()))
        return PassResult(tracer.duration(whole), self.attempted_per_pass,
                          completed, failed, checks, digest, sim, cells)

    @staticmethod
    def sim_metrics(reports: dict) -> Dict[str, float]:
        knee, over = reports["knee"], reports["over"]
        out = {
            "p50_us": knee.hist_total.percentile(50) / 1e3,
            "p99_us": knee.p99_us,
            "goodput_kps": over.goodput_per_s / 1e3,
            "p99_us_low": reports["low"].p99_us,
            "p99_us_over": over.p99_us,
            "drop_pct_over": over.drop_pct,
            "serve.max_queue_depth": over.max_queue_depth,
            "serve.requests_per_spawn": (
                sum(r.completed for r in reports.values())
                / max(1, sum(r.spawns for r in reports.values()))),
        }
        for stage, hist in knee.stage_hists.items():
            out[f"serve.{stage}.p99_us"] = hist.percentile(99) / 1e3
        return out

    def count_metrics(self, reference: PassResult, tracer) -> tuple:
        """Obs counts over all three steps, plus a check that attaching
        the Obs left every report byte-identical. ``TaskServer`` is the class
        ``serve`` runs; built directly, its engine is at hand for the
        snapshot's executed-event count."""
        counts = _empty_counts()
        completed = 0
        reports = []
        with tracer.span(f"{self.name}.count"):
            for j in range(len(self.steps)):
                base = self.config(j)
                obs = Obs()
                config = dataclasses.replace(
                    base, pagoda=dataclasses.replace(base.pagoda, obs=obs))
                server = TaskServer(self.tenants(j), config)
                rep = server.run()
                _merge_counts(counts, obs.snapshot(server.engine))
                completed += rep.completed
                reports.append((self.steps[j]["name"], rep.to_json()))
        out = obs_count_metrics(counts["counters"], counts["distributions"],
                                completed)
        out["sim.events_per_task"] = counts["events"] / completed
        out["_events"] = counts["events"]
        same = _digest(sorted(reports)) == reference.digest
        return out, [Check("serve obs on/off identical", same,
                           "" if same else "reports differ with an Obs")]


def _split(total: int, shares: List[float]) -> List[int]:
    """Split ``total`` by ``shares``; the last part takes the rest."""
    counts = [int(round(total * s)) for s in shares[:-1]]
    return counts + [total - sum(counts)]


# -- fleet_lossy ---------------------------------------------------------------

class FleetLossy:
    """An 8-node fleet over a 1%-lossy fabric, sharded on a worker pool."""

    name = "fleet_lossy"

    def __init__(self, seed: int) -> None:
        self.conf = SPEC["workloads"][self.name]
        self.seed = seed
        tenants = self.conf["tenants"]
        counts = _split(self.conf["requests"], [t["share"] for t in tenants])
        self.tenant_specs = [
            TenantSpec(t["name"],
                       make_tasks(t["app"], n, self.conf["threads_per_task"],
                                  sub_seed(seed, k)),
                       PoissonArrivals(self.conf["rate_per_s"] * t["share"],
                                       seed=sub_seed(
                                           seed, k + ARRIVAL_SEED_OFFSET)),
                       slo=SloClass(t["name"], deadline_ns=t["deadline_ns"]))
            for k, (t, n) in enumerate(zip(tenants, counts))
        ]
        self.topology = Topology(
            nodes=[NodeSpec(f"node{i}") for i in range(self.conf["nodes"])],
            link_ns=self.conf["link_ns"])
        fault = self.conf["fault"]
        self.plan = FaultPlan(specs=[
            FaultSpec(kind=fault["kind"], meta={"rate": fault["rate"]}),
        ], seed=seed)
        self.attempted_per_pass = self.conf["requests"]
        self.reference_json: Optional[str] = None
        self.reference_s = 0.0

    def run_fleet(self, workers: int, obs: bool = False):
        return run_cluster(
            self.tenant_specs, self.topology,
            router=ConsistentHashRouter(self.topology, key="request"),
            workers=workers, fabric_plan=self.plan, obs=obs,
            label=self.name)

    def run_reference(self, tracer) -> List[Check]:
        """The ``workers=0`` run every pooled run must equal, byte for
        byte. It sits outside the timed region."""
        with tracer.span(f"{self.name}.reference", group="inproc") as span:
            rep = self.run_fleet(0)
        self.reference_s = tracer.duration(span)
        self.reference_json = rep.to_json()
        return [self._frontier_check("frontier reference", rep)]

    def _frontier_check(self, name: str, rep) -> Check:
        f = rep.frontier
        return check_ledger(name, f.get("offered", -1), f.get("completed", 0),
                            f.get("dropped", 0), f.get("failed", 0),
                            self.conf["requests"])

    def run_pass(self, tracer) -> PassResult:
        if self.reference_json is None:
            raise RuntimeError("run_reference must come first")
        checks: List[Check] = []
        with tracer.span(f"{self.name}.pass") as whole:
            with tracer.span("fleet.pool", group="pool") as span:
                try:
                    rep = self.run_fleet(self.conf["workers"])
                except Exception:
                    traceback.print_exc()
                    rep = None
        cells = {"pool": tracer.duration(span)}
        if rep is None:
            checks.append(Check("fleet pooled run", False, "raised"))
            return PassResult(tracer.duration(whole), self.attempted_per_pass,
                              0, self.attempted_per_pass, checks, "", {},
                              cells)
        checks.append(self._frontier_check("frontier", rep))
        checks.append(check_same_bytes("report equals workers=0",
                                       rep.to_json(), self.reference_json))
        f = rep.frontier
        lost = max(0, f.get("offered", 0) - f.get("completed", 0)
                   - f.get("dropped", 0) - f.get("failed", 0))
        failed = f.get("failed", 0) + lost
        digest = _digest(rep.to_json())
        return PassResult(tracer.duration(whole), self.attempted_per_pass,
                          f.get("completed", 0), failed, checks, digest,
                          self.sim_metrics(rep), cells)

    @staticmethod
    def sim_metrics(rep) -> Dict[str, float]:
        hist = rep.merged_hist()
        good = sum(s["good"] for r in rep.node_reports.values()
                   for s in r.tenant_stats.values())
        placed = list(rep.routed.values())
        totals = rep.totals()
        return {
            "p50_us": hist.percentile(50) / 1e3,
            "p99_us": rep.p99_us,
            "goodput_kps": good * 1e9 / rep.makespan_ns / 1e3,
            "cluster.epochs": rep.epochs,
            "fabric.retransmit_ratio": (rep.fabric_retransmits
                                        / max(1, rep.fabric_posted)),
            "fabric.wire_dropped": rep.fabric_wire_dropped,
            "cluster.rerouted": rep.rerouted,
            "cluster.hedges": rep.hedges,
            "cluster.route_skew": max(placed) / (sum(placed) / len(placed)),
            "serve.requests_per_spawn": (totals["completed"]
                                         / max(1, totals["spawns"])),
        }

    def count_metrics(self, reference: PassResult, tracer) -> tuple:
        """Obs counts of an in-process run (report obs is merged over
        nodes, so the worker count does not matter)."""
        with tracer.span(f"{self.name}.count"):
            rep = self.run_fleet(0, obs=True)
        snap = rep.obs or {}
        completed = rep.totals()["completed"]
        out = obs_count_metrics(snap.get("counters", {}),
                                snap.get("distributions", {}), completed)
        events = snap.get("sim", {}).get("events_executed", 0)
        out["sim.events_per_task"] = events / completed
        out["_events"] = events
        return out, [self._frontier_check("frontier with obs", rep)]


WORKLOADS = {w.name: w for w in (PaperFig5, ServeLadder, FleetLossy)}
