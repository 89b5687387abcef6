import statistics

import pytest

from stats import nearest_rank, quartiles, relative_spread, tail, verdict


def test_nearest_rank_picks_the_sample_at_ceil_qn():
    samples = list(range(1, 101))
    assert nearest_rank(samples, 0.5) == 50
    assert nearest_rank(samples, 0.99) == 99
    assert nearest_rank(samples, 1.0) == 100
    assert nearest_rank([7.0], 0.5) == 7.0
    assert nearest_rank(list(reversed(samples)), 0.01) == 1


@pytest.mark.parametrize("q", [0.0, 1.5])
def test_nearest_rank_rejects_bad_quantiles(q):
    with pytest.raises(ValueError):
        nearest_rank([1.0], q)


def test_tail_is_p99_with_a_thousand_samples():
    value, q = tail(list(range(1000)))
    assert (value, q) == (989, 0.99)
    assert sum(1 for s in range(1000) if s > value) == 10


@pytest.mark.parametrize("n", range(1, 3000, 7))
def test_tail_leaves_ten_samples_beyond_it_or_falls_back_to_the_median(n):
    samples = list(range(n))
    value, q = tail(samples)
    beyond = sum(1 for s in samples if s > value)
    assert q <= 0.99
    if n >= 20:
        assert beyond >= 10
    else:
        assert value == nearest_rank(samples, 0.5)


def test_tail_is_the_median_of_window_tails_so_one_burst_does_not_set_it():
    samples = [1.0] * 4000
    samples[1000:1100] = [50.0] * 100
    assert nearest_rank(samples, 0.99) == 50.0
    assert tail(samples) == (1.0, 0.99)
    assert tail(list(range(2000)))[0] == statistics.median([989, 1989])


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    assert list(quartiles(values)) == statistics.quantiles(values, n=4)
    assert relative_spread(values) == pytest.approx(
        (quartiles(values)[2] - quartiles(values)[0]) / quartiles(values)[1]
    )


def _noisy(centre, spread, n=10):
    return [centre * (1 + spread * ((i % 5) - 2) / 4) for i in range(n)]


def test_verdict_improved_needs_nine_tenths_of_wins_and_a_gap_beyond_the_spread():
    parent = _noisy(100.0, 0.02)
    change = [v * 1.2 for v in parent]
    assert verdict(parent, change, "higher", 0.1)["verdict"] == "improved"
    assert verdict(parent, change, "lower", 0.1)["verdict"] == "regressed"


def test_verdict_unchanged_within_the_bound():
    parent = _noisy(100.0, 0.02)
    change = list(reversed(parent))
    result = verdict(parent, change, "lower", 0.1)
    assert result["verdict"] == "unchanged"
    assert result["wins"] < 9


def test_verdict_unresolved_when_the_parent_spread_exceeds_the_bound():
    parent = _noisy(100.0, 0.8)
    change = [v * 1.05 for v in parent]
    assert verdict(parent, change, "lower", 0.1)["verdict"] == "unresolved"


def test_verdict_claims_no_gain_from_too_few_pairs():
    parent = _noisy(100.0, 0.02, n=5)
    change = [v * 1.5 for v in parent]
    assert verdict(parent, change, "higher", 0.1)["verdict"] == "unchanged"
