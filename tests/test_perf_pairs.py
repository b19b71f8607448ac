"""The verdict logic of ``benchmarks/perf_pairs.py`` on hand-made pairs:
wins (ties count for neither side), the gain-claim rule (at least 9 wins
in 10, a median difference above the base's interquartile range, in the
metric's better direction, and no larger share of failed finds), the
relative bound (worse, unresolved when the base spreads wider than it,
ok), and seed parsing."""

import pytest

from benchmarks.perf_pairs import parse_seeds, quartiles, verdict

#: (failed, attempted) finds of the base and of the change: none failed
NO_FAILS = ((0, 1000), (0, 1000))


def test_quartiles_inclusive():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_clear_gain_on_a_lower_is_better_metric_holds():
    # base 10.0..10.9 (IQR 0.45), change 5 ms faster in every pair
    pairs = [(10.0 + 0.1 * i, 5.0 + 0.1 * i) for i in range(10)]
    v = verdict("wall_ms_per_request", "lower", 0.25, pairs, NO_FAILS)
    assert (v.wins, v.pairs) == (10, 10)
    assert v.claim_holds
    assert v.bound == "ok"


def test_ties_count_for_neither_side():
    pairs = [(10.0, 10.0)] * 2 + [(10.0 + i, 1.0 + i) for i in range(8)]
    v = verdict("find_p95_ms", "lower", 0.25, pairs, NO_FAILS)
    assert v.wins == 8
    assert not v.claim_holds  # 8 wins < 9 of 10


def test_nine_wins_but_median_gain_inside_base_iqr_does_not_hold():
    # base spread 0..90 (IQR 45), change 1 lower in 9 pairs
    pairs = [(10.0 * i, 10.0 * i - 1.0) for i in range(9)] + [(90.0, 91.0)]
    v = verdict("find_p95_ms", "lower", 0.25, pairs, NO_FAILS)
    assert v.wins == 9
    assert not v.claim_holds


def test_higher_is_better_metric():
    pairs = [(0.80 + 0.001 * i, 0.90 + 0.001 * i) for i in range(10)]
    v = verdict("success_rate", "higher", 0.19, pairs, NO_FAILS)
    assert v.wins == 10
    assert v.claim_holds
    worse = verdict(
        "success_rate", "higher", 0.19, [(b, b * 0.7) for b, _ in pairs], NO_FAILS
    )
    assert worse.wins == 0
    assert worse.bound == "WORSE"


def test_bound_is_relative_to_the_base_median():
    pairs = [(10.0, 12.4)] * 5
    assert verdict("wall_ms_per_request", "lower", 0.25, pairs, NO_FAILS).bound == "ok"
    pairs = [(10.0, 12.6)] * 5
    v = verdict("wall_ms_per_request", "lower", 0.25, pairs, NO_FAILS)
    assert v.bound == "WORSE"


def test_a_larger_share_of_failed_finds_withholds_the_claim():
    pairs = [(10.0 + 0.1 * i, 5.0 + 0.1 * i) for i in range(10)]

    def holds(finds):
        return verdict("find_p95_ms", "lower", 0.25, pairs, finds).claim_holds

    assert holds(((2, 1000), (2, 1000)))
    assert not holds(((2, 1000), (3, 1000)))
    assert not holds(((0, 1000), (1, 1000)))
    # the share counts, not the count: 3 of 2000 fail less often than 2 of 1000
    assert holds(((2, 1000), (3, 2000)))
    assert not holds(((2, 1000), (5, 2000)))


def test_a_base_spread_wider_than_the_bound_is_unresolved():
    # base 10..19: IQR 4.5 against a bound of 0.25 x median 14.5 = 3.625
    base = [10.0 + i for i in range(10)]
    same = verdict("find_p95_ms", "lower", 0.25, [(b, b) for b in base], NO_FAILS)
    assert same.bound == "unresolved"
    # a change inside the spread is unresolved even where it reads better
    faster = [(b, b - 2.0) for b in base]
    assert verdict("find_p95_ms", "lower", 0.25, faster, NO_FAILS).bound == "unresolved"
    # ... unless every change run reads better than every base run
    apart = [(b, b - 10.0) for b in base]
    assert verdict("find_p95_ms", "lower", 0.25, apart, NO_FAILS).bound == "ok"
    # worse beyond the bound stays worse, however wide the spread
    slower = [(b, b + 4.0) for b in base]
    assert verdict("find_p95_ms", "lower", 0.25, slower, NO_FAILS).bound == "WORSE"


def test_unknown_direction_rejected():
    with pytest.raises(ValueError, match="better"):
        verdict("x", "smaller", 0.1, [(1.0, 1.0)], NO_FAILS)


def test_parse_seeds():
    assert parse_seeds("2-5") == [2, 3, 4, 5]
    assert parse_seeds("2,4 7") == [2, 4, 7]
    assert parse_seeds("101-103,9") == [101, 102, 103, 9]
