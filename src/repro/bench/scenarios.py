"""``repro.bench`` "scenarios" experiment — the incident catalog, run.

Runs every registered :mod:`repro.scenarios` scenario at its default
seed and reports one pass/fail line per scenario (the same lines the
CI ``extras`` job puts in its summary).  The cell also
re-asserts the catalog's core promise before reporting: a repeat run
of a scenario reproduces its result digest byte for byte — a verdict
that changes between runs is not a verdict.

``python -m repro.bench scenarios --check`` exits non-zero if any
scenario fails, which is how CI's ``extras`` job consumes it.
"""

from __future__ import annotations

from typing import Dict, List

from repro.scenarios import names, run_scenario

#: scenarios whose repeat-run identity is re-asserted by the bench cell
#: (one per layer keeps the cell fast; tests/scenarios covers the rest).
IDENTITY_PROBES = ("serve.trace_replay", "cluster.lossy_fabric")


def run() -> Dict:
    """Run the whole catalog; returns per-scenario summaries."""
    rows: List[Dict] = []
    digests: Dict[str, str] = {}
    for name in names():
        result = run_scenario(name)
        digests[name] = result.to_json()
        rows.append({
            "name": name,
            "version": result.scenario.version,
            "layer": result.scenario.layer,
            "seed": result.params.seed,
            "passed": result.passed,
            "detectors_passed":
                sum(1 for v in result.verdicts if v.passed),
            "detectors_total": len(result.verdicts),
            "line": result.summary_line(),
            "failures": [v.to_dict() for v in result.verdicts
                         if not v.passed],
        })
    for name in IDENTITY_PROBES:
        if run_scenario(name).to_json() != digests[name]:
            raise RuntimeError(
                f"scenario {name!r} result bytes differ between runs"
            )
    return {
        "scenarios": rows,
        "passed": sum(1 for r in rows if r["passed"]),
        "total": len(rows),
        "all_passed": all(r["passed"] for r in rows),
        "identity_probes": list(IDENTITY_PROBES),
    }


def report(results: Dict) -> str:
    """One line per scenario, plus any failing detector's evidence."""
    lines = [
        f"SCENARIOS: incident catalog, {results['passed']}/"
        f"{results['total']} passed (repeat-run identity verified on "
        f"{', '.join(results['identity_probes'])})"
    ]
    for row in results["scenarios"]:
        lines.append("  " + row["line"])
        for failure in row["failures"]:
            lines.append(f"      FAIL {failure['detector']}: "
                         f"{failure['detail']}")
    return "\n".join(lines)


def run_check() -> int:
    """``--check`` mode: print the report, exit 1 on any failure."""
    results = run()
    print(report(results))
    return 0 if results["all_passed"] else 1
