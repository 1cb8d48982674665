"""Fig. 7 — compute time vs threads per task (no shared memory).

Paper headline: at 128 threads per task Pagoda's compute-only geomean
is 2.29x over HyperQ and 2.26x over GeMTC; the HyperQ gap narrows as
threads per task grow.
"""

from conftest import bench_tasks

from repro.bench import fig7
from repro.bench.harness import geometric_mean


def test_fig7_thread_count_sweep(benchmark, report_sink):
    n = bench_tasks(256)
    results = benchmark.pedantic(
        lambda: fig7.run(num_tasks=n), rounds=1, iterations=1
    )
    report_sink("fig7_thread_counts", fig7.report(results))

    # headline geomeans at 128 threads, in the paper's neighbourhood
    assert 1.3 < results["geomeans_128"]["hyperq"] < 3.5
    assert 1.3 < results["geomeans_128"]["gemtc"] < 3.5

    # Pagoda outperforms HyperQ and GeMTC in (almost) all configurations
    wins = total = 0
    for per_rt in results["times"].values():
        for threads, pagoda_t in per_rt["pagoda"].items():
            total += 1
            if pagoda_t <= per_rt["hyperq"][threads]:
                wins += 1
    assert wins / total > 0.85

    # the Pagoda-over-HyperQ advantage shrinks with thread count
    def adv_at(threads):
        ratios = [
            per_rt["hyperq"][threads] / per_rt["pagoda"][threads]
            for per_rt in results["times"].values()
        ]
        return geometric_mean(ratios)

    counts = results["thread_counts"]
    assert adv_at(counts[0]) > adv_at(counts[-1])
