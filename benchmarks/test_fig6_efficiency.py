"""Figure 6: efficiency — success rate and overhead vs request rate.

400 nodes, α = 0.3, request rates 20–100 req/min, all six algorithms.
Shapes to verify against the paper:

* 6(a): success falls with the request rate for every algorithm, with the
  ordering Optimal ≥ ACP ≳ SP > RP > Random > Static;
* 6(b): the optimal algorithm's exhaustive-search overhead is at least an
  order of magnitude above ACP's (the paper reports "as much as 95 %"
  reduction), and ACP ≈ RP plus a small global-state increment.
"""

import pytest

from repro.experiments import EXPERIMENTS

FIG6 = EXPERIMENTS["fig6"]


@pytest.fixture(scope="module")
def fig6(publish):
    outcome = FIG6.run()
    publish(outcome)
    return outcome.figures


def test_fig6_runs_and_publishes(benchmark):
    outcome = benchmark.pedantic(
        lambda: FIG6.run(seed=1, rates=(40.0,), algorithms=("ACP",)),
        rounds=1,
        iterations=1,
    )
    # the single-point run only times one simulation; assertions use the
    # module-scoped full sweep below
    assert outcome.figures[0].series["ACP"].points[0][1] > 0.0


class TestFig6a:
    def test_success_declines_with_load(self, fig6, benchmark):
        success, _overhead = fig6
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        for algorithm in ("Optimal", "ACP", "SP", "RP"):
            ys = success.series[algorithm].ys()
            assert ys[0] > ys[-1], f"{algorithm}: no decline {ys}"

    def test_algorithm_ordering(self, fig6, benchmark):
        success, _overhead = fig6
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)

        def mean(algorithm):
            ys = success.series[algorithm].ys()
            return sum(ys) / len(ys)

        assert mean("Optimal") >= mean("ACP") - 0.02
        assert mean("ACP") > mean("RP")
        assert mean("SP") > mean("RP")
        assert mean("RP") > mean("Random")
        assert mean("Random") > mean("Static")

    def test_acp_tracks_optimal(self, fig6, benchmark):
        """ACP stays within ~12 points of the optimal algorithm at every
        rate (the paper's 'similar performance as the optimal')."""
        success, _overhead = fig6
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        for (rate, optimal), (_r, acp) in zip(
            success.series["Optimal"].points, success.series["ACP"].points
        ):
            assert acp >= optimal - 0.12, f"gap too wide at rate {rate}"


class TestFig6b:
    def test_overhead_ordering_and_reduction(self, fig6, benchmark):
        _success, overhead = fig6
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        optimal = overhead.series["Optimal"].ys()
        acp = overhead.series["ACP"].ys()
        rp = overhead.series["RP"].ys()
        for o, a in zip(optimal, acp):
            assert a < o / 10.0, "ACP must cut overhead by >90%"
        # hybrid: ACP pays only a modest premium over the fully
        # distributed RP (global-state maintenance messages)
        for a, r in zip(acp, rp):
            assert a < 3.0 * r + 100.0

    def test_overhead_grows_with_rate(self, fig6, benchmark):
        _success, overhead = fig6
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        for algorithm in ("Optimal", "ACP"):
            ys = overhead.series[algorithm].ys()
            assert ys[-1] > ys[0]
