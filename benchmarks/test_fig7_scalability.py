"""Figure 7: scalability — success rate and overhead vs system size.

Node counts 200–600 at a fixed 80 req/min workload; the deployment places
components per node, so candidate pools grow proportionally with the
system (Section 4.1).  Shapes to verify:

* 7(a): success rises with the node count (more capacity and more
  candidates for the same offered load), ACP tracking the optimal;
* 7(b): the optimal algorithm's overhead grows much faster than ACP's —
  the overhead reduction widens with system size.
"""

import pytest

from repro.experiments import EXPERIMENTS

FIG7 = EXPERIMENTS["fig7"]


@pytest.fixture(scope="module")
def fig7(publish):
    outcome = FIG7.run()
    publish(outcome)
    return outcome.figures


def test_fig7_single_point_benchmark(benchmark):
    outcome = benchmark.pedantic(
        lambda: FIG7.run(seed=1, counts=(200,), algorithms=("ACP",)),
        rounds=1,
        iterations=1,
    )
    assert outcome.figures[0].series["ACP"].points[0][1] > 0.0


class TestFig7a:
    def test_success_grows_with_system_size(self, fig7, benchmark):
        success, _overhead = fig7
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        for algorithm in ("Optimal", "ACP"):
            ys = success.series[algorithm].ys()
            assert ys[-1] > ys[0] + 0.05, f"{algorithm}: no scaling gain {ys}"

    def test_acp_tracks_optimal_scaling(self, fig7, benchmark):
        success, _overhead = fig7
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        for (count, optimal), (_c, acp) in zip(
            success.series["Optimal"].points, success.series["ACP"].points
        ):
            assert acp >= optimal - 0.15, f"gap too wide at {count} nodes"

    def test_probing_beats_oneshot_at_every_size(self, fig7, benchmark):
        success, _overhead = fig7
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        for acp_point, random_point, static_point in zip(
            success.series["ACP"].points,
            success.series["Random"].points,
            success.series["Static"].points,
        ):
            assert acp_point[1] > random_point[1] > static_point[1]


class TestFig7b:
    def test_reduction_widens_with_size(self, fig7, benchmark):
        _success, overhead = fig7
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        optimal = overhead.series["Optimal"].ys()
        acp = overhead.series["ACP"].ys()
        ratios = [o / a for o, a in zip(optimal, acp)]
        assert all(r > 5.0 for r in ratios)
        # the overhead gap grows as candidate pools grow (paper Fig. 7(b):
        # "The overhead reduction increases as the node number increases")
        assert ratios[-1] > ratios[0]

    def test_optimal_overhead_grows_superlinearly_vs_acp(self, fig7, benchmark):
        _success, overhead = fig7
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        optimal = overhead.series["Optimal"].ys()
        acp = overhead.series["ACP"].ys()
        optimal_growth = optimal[-1] / optimal[0]
        acp_growth = max(acp[-1] / acp[0], 1e-9)
        assert optimal_growth > acp_growth
