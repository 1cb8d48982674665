"""Trace loader: golden round-trip of the bundled sample trace."""

import pytest

from repro.scenarios.trace import (
    SAMPLE_TRACE,
    load_trace,
    task_mix,
    tenant_arrivals,
    trace_schedules,
)


def test_sample_trace_loads_and_sorts():
    rows = load_trace()
    assert len(rows) == 16
    keys = [(r.start_s, r.job, r.task_type) for r in rows]
    assert keys == sorted(keys)
    assert rows[0].job == "job-0031"


def test_sample_trace_task_mix():
    """The Alibaba-style task-type mix of the checked-in sample."""
    assert task_mix(load_trace()) == {
        "PyTorchWorker": 12,
        "chief": 1,
        "evaluator": 3,
        "ps": 3,
        "xComputeWorker": 7,
        "xtensorflow": 15,
    }


def test_golden_seeded_schedule_round_trip():
    """The loader's byte-stability contract: the checked-in sample
    trace converts to these exact instants at seed 0 (ns, 1e6 ns per
    trace second, 2000 ns stagger).  A drift here silently changes
    every trace-replay scenario's report bytes — which is why it is a
    golden, not a property."""
    schedules = trace_schedules(load_trace(), time_scale_ns=1e6,
                                stagger_ns=2_000.0, seed=0)
    assert schedules["ps"] == [627.314, 1215.751, 14500512.055]
    assert schedules["evaluator"] == [
        4001257.211, 9001844.079, 26001850.029]
    assert schedules["chief"] == [5500218.051]
    # every type's schedule is strictly increasing and sorted output
    # covers exactly the mix
    mix = task_mix(load_trace())
    assert {k: len(v) for k, v in schedules.items()} == mix
    for instants in schedules.values():
        assert all(b > a for a, b in zip(instants, instants[1:]))


def test_schedules_are_row_order_independent():
    """Instants derive from row identity, not file position: loading
    twice (and hashing per instance) gives identical schedules, and a
    different seed moves every stagger."""
    a = trace_schedules(load_trace(), seed=0)
    b = trace_schedules(load_trace(), seed=0)
    assert a == b
    c = trace_schedules(load_trace(), seed=1)
    assert a != c


def test_tenant_arrivals_wraps_schedules():
    arrivals = tenant_arrivals(load_trace(), cycle_ns=40e6, label="smp")
    assert set(arrivals) == set(task_mix(load_trace()))
    ps = arrivals["ps"]
    assert ps.label == "smp:ps"
    assert ps.schedule(3) == [627.314, 1215.751, 14500512.055]
    # the cycle extends the trace window periodically
    assert ps.schedule(4)[3] == pytest.approx(627.314 + 40e6)


def test_task_type_filter_and_missing_type():
    schedules = trace_schedules(load_trace(), task_types=["ps"])
    assert set(schedules) == {"ps"}
    with pytest.raises(ValueError, match="no rows for task types"):
        trace_schedules(load_trace(), task_types=["nope"])


def test_malformed_traces_are_rejected(tmp_path):
    missing = tmp_path / "missing.csv"
    missing.write_text("job_name,task_name\nj,t\n")
    with pytest.raises(ValueError, match="missing columns"):
        load_trace(missing)

    bad_count = tmp_path / "bad.csv"
    bad_count.write_text(
        "job_name,task_name,inst_num,start_time\nj,t,0,1.0\n")
    with pytest.raises(ValueError, match="inst_num"):
        load_trace(bad_count)

    empty = tmp_path / "empty.csv"
    empty.write_text("job_name,task_name,inst_num,start_time\n")
    with pytest.raises(ValueError, match="no rows"):
        load_trace(empty)


@pytest.mark.parametrize("column,row", [
    ("start_time", "j,t,1,nan,,"),
    ("start_time", "j,t,1,inf,,"),
    ("end_time", "j,t,1,1.0,inf,"),
    ("plan_gpu", "j,t,1,1.0,2.0,nan"),
])
def test_non_finite_times_are_rejected(tmp_path, column, row):
    # float("nan") < 0 is False, so a sign check alone lets NaN through
    trace = tmp_path / "nonfinite.csv"
    trace.write_text(
        "job_name,task_name,inst_num,start_time,end_time,plan_gpu\n"
        "ok,t,1,0.5,,\n" + row + "\n")
    with pytest.raises(ValueError,
                       match=f"line 3: {column} must be finite"):
        load_trace(trace)


def test_sample_trace_is_checked_in():
    assert SAMPLE_TRACE.exists()
    header = SAMPLE_TRACE.read_text().splitlines()[0]
    assert header.startswith("job_name,task_name,inst_num")
