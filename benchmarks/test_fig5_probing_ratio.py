"""Figure 5: composition success rate vs probing ratio.

5(a) sweeps the probing ratio under two request rates (50 and 100
req/min); 5(b) under two QoS stringency levels.  The paper's shapes to
verify: success rises steeply with α and saturates early; the saturation
level drops with workload and with QoS stringency.
"""

from repro.experiments import EXPERIMENTS

FIG5A = EXPERIMENTS["fig5a"]
FIG5B = EXPERIMENTS["fig5b"]


def _assert_rising_then_saturating(series):
    ys = series.ys()
    # the plateau end must not sit below the start of the curve
    assert ys[-1] >= ys[0] - 0.05, f"{series.label}: no rise ({ys})"
    # saturation: the last half of the grid moves less than the first half
    first_half = abs(ys[len(ys) // 2] - ys[0])
    second_half = abs(ys[-1] - ys[len(ys) // 2])
    assert second_half <= first_half + 0.10, f"{series.label}: no saturation"


def test_fig5a_success_vs_ratio_by_request_rate(benchmark, publish):
    outcome = benchmark.pedantic(FIG5A.run, rounds=1, iterations=1)
    publish(outcome)
    (result,) = outcome.figures

    light = result.series["50 reqs/min"]
    heavy = result.series["100 reqs/min"]
    _assert_rising_then_saturating(light)
    _assert_rising_then_saturating(heavy)
    # heavier workload saturates strictly lower (paper Fig. 5(a))
    assert max(heavy.ys()) < max(light.ys())
    # and is lower pointwise almost everywhere
    worse = sum(1 for l, h in zip(light.ys(), heavy.ys()) if h < l)
    assert worse >= len(FIG5A.params["ratios"]) - 1


def test_fig5b_success_vs_ratio_by_qos_level(benchmark, publish):
    outcome = benchmark.pedantic(FIG5B.run, rounds=1, iterations=1)
    publish(outcome)
    (result,) = outcome.figures

    high = result.series["high QoS"]
    very_high = result.series["very_high QoS"]
    _assert_rising_then_saturating(high)
    # stricter QoS saturates lower (paper Fig. 5(b))
    assert max(very_high.ys()) < max(high.ys())
