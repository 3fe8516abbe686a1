"""``tools/bench_pair.py`` summarizes interleaved pairs of benchmark runs.

Its summary decides whether a BENCH file reads a change as a gain, within
its bounds, outside them or unresolved, so the ratio, the pairs won, the
verdict, the gain and the flag on a low ``verify`` pass are checked here on
made-up runs.
"""

import importlib
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
METRICS = [{"name": "wall_s", "better": "lower", "bound": 0.22},
           {"name": "ops_per_s", "better": "higher", "bound": 0.15}]


def _runs(parent, change):
    """Pairs of runs, one (wall_s, ops_per_s) pair per tree and pair."""
    return [{"pair": i, "tree": tree, "seed": 40 + i, "digest_sha256": "d", "failed": 0,
             "metrics": {"wall_s": wall, "ops_per_s": ops}}
            for i, pair in enumerate(zip(parent, change))
            for tree, (wall, ops) in zip(("parent", "change"), pair)]


@pytest.fixture
def bench_pair(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("bench_pair")


def test_summary_reads_ratios_wins_bounds_and_low_verify_runs(bench_pair):
    parent = [(2.0, 100), (2.1, 101), (1.5, 99), (2.0, 100), (2.2, 98)]
    change = [(1.0, 130), (1.1, 131), (1.2, 129), (2.0, 97), (2.5, 128)]
    out = bench_pair.summarize("verify", _runs(parent, change), METRICS)
    assert (out["pairs"], out["digests_equal"], out["failed_ops"]) == (
        5, True, {"parent": 0, "change": 0})
    assert out["wall_s"] == {
        "parent_q1_median_q3": [2.0, 2.0, 2.1], "change_q1_median_q3": [1.1, 1.2, 2.0],
        "change_over_parent_median": 0.6, "change_better_in_pairs": 3, "bound": 0.22,
        "verdict": "within bound", "median_gain_over_parent_spread": [0.8, 0.1],
        "gain": False}
    assert out["ops_per_s"]["change_over_parent_median"] == 1.29
    assert out["ops_per_s"]["change_better_in_pairs"] == 4
    # the parent's 1.5 s is 25 % below its median, the change's 1.0 s 17 %
    assert out["low_wall_s_runs"] == [
        {"tree": "parent", "seed": 42, "wall_s": 1.5, "tree_median_wall_s": 2.0}]
    worse = bench_pair.summarize("fixed-points", _runs(parent, [(3.0, 50)] * 5), METRICS)
    assert worse["wall_s"]["verdict"] == worse["ops_per_s"]["verdict"] == "outside bound"
    assert not worse["wall_s"]["gain"] and worse["wall_s"]["median_gain_over_parent_spread"] == [
        -1.0, 0.1]
    assert "low_wall_s_runs" not in worse


def test_summary_reads_a_gain_only_past_the_parents_spread_in_nine_pairs_of_ten(bench_pair):
    parent = [(2.0 + i / 100, 100) for i in range(10)]
    better = bench_pair.summarize("fixed-points", _runs(parent, [(1.5, 100)] * 10), METRICS)
    assert better["wall_s"]["gain"] and better["wall_s"]["change_better_in_pairs"] == 10
    # 9 pairs of 10 still read a gain, 8 do not
    nine = [(1.5, 100)] * 9 + [(2.5, 100)]
    assert bench_pair.summarize("fixed-points", _runs(parent, nine), METRICS)["wall_s"]["gain"]
    eight = [(1.5, 100)] * 8 + [(2.5, 100)] * 2
    assert not bench_pair.summarize("fixed-points", _runs(parent, eight), METRICS)["wall_s"]["gain"]
    # better in every pair, but by less than the parent's quartile spread of 0.045 s
    close = [(w - 0.03, ops) for w, ops in parent]
    out = bench_pair.summarize("fixed-points", _runs(parent, close), METRICS)["wall_s"]
    assert out["change_better_in_pairs"] == 10 and not out["gain"]


def test_summary_is_unresolved_when_the_parent_spreads_past_the_bound(bench_pair):
    # the parent's q3 - q1 = 1.0 s is wider than 0.22 of its 2.0 s median:
    # a ratio of 1.0 shows nothing either way
    parent = [(1.0, 100), (1.5, 100), (2.0, 100), (2.5, 100), (3.0, 100)]
    out = bench_pair.summarize("fixed-points", _runs(parent, parent), METRICS)
    assert out["wall_s"]["verdict"] == "unresolved"
    assert out["ops_per_s"]["verdict"] == "within bound"
    # unless every change run is better than every parent run
    faster = [(0.9 - i / 10, ops) for i, (_, ops) in enumerate(parent)]
    out = bench_pair.summarize("fixed-points", _runs(parent, faster), METRICS)
    assert out["wall_s"]["verdict"] == "within bound"


def test_plans_of_fewer_than_two_pairs_are_refused(bench_pair):
    with pytest.raises(ValueError, match="at least 2"):
        bench_pair.summarize("verify", _runs([(2.0, 100)], [(1.0, 100)]), METRICS)
    with pytest.raises(SystemExit, match="verify need at least 2 pairs"):
        bench_pair.main(["--parent", ".", "--change", str(TOOLS.parent), "--tag", "t",
                         "--plan", "fixed-points:2,verify:1"])
