"""tools/paired_bench.py's summary, on synthetic runs: no benchmark is run."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "paired_bench.py"
_spec = importlib.util.spec_from_file_location("paired_bench", _PATH)
paired_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_bench)

SPEC = [
    {"name": "job_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ok_frac", "unit": "ratio", "better": "higher", "bound": 0.03},
]


def _side(values, correct=True, failed=0, attempted=100):
    return {"metrics": {k: {"value": v} for k, v in values.items()}, "correct": correct,
            "failed": failed, "attempted": attempted}


def _runs(parent, change, **change_side):
    """One pair per (parent, change) value of job_ms; ok_frac is 1 on both sides."""
    return [{"parent": _side({"job_ms": p, "ok_frac": 1.0}),
             "change": _side({"job_ms": c, "ok_frac": 1.0}, **change_side)}
            for p, c in zip(parent, change)]


PARENT = [100.0 + i for i in range(10)]  # median 104.5, IQR 4.5


def test_ten_wins_above_the_iqr_are_claimable():
    out = paired_bench.summarize(_runs(PARENT, [x - 20.0 for x in PARENT]), SPEC)
    s = out["job_ms"]
    assert (s["wins"], s["losses"], s["ties"]) == (10, 0, 0)
    assert s["median_gain_rel"] == pytest.approx(20.0 / 104.5)  # lower is better: positive
    assert s["parent_iqr"] == pytest.approx(4.5)
    assert s["claimable_gain"] and s["within_bound"]
    tie = out["ok_frac"]
    assert (tie["wins"], tie["losses"], tie["ties"]) == (0, 0, 10)
    assert tie["median_gain_rel"] == 0.0 and not tie["claimable_gain"] and tie["within_bound"]


def test_higher_better_sign():
    runs = _runs(PARENT, PARENT)
    for r, v in zip(runs, [0.5] * 10):
        r["change"]["metrics"]["ok_frac"]["value"] = v
    s = paired_bench.summarize(runs, SPEC)["ok_frac"]
    assert (s["wins"], s["losses"]) == (0, 10)
    assert s["median_gain_rel"] == pytest.approx(-0.5)  # higher is better: negative
    assert not s["within_bound"] and not s["claimable_gain"]


def test_losses_and_the_bound():
    """10% slower is within the 25% bound, 30% slower is not; neither is a gain."""
    for slower, ok in ((1.1, True), (1.3, False)):
        s = paired_bench.summarize(_runs(PARENT, [x * slower for x in PARENT]), SPEC)["job_ms"]
        assert (s["wins"], s["losses"], s["ties"]) == (0, 10, 0)
        assert s["median_gain_rel"] == pytest.approx(1.0 - slower)
        assert s["within_bound"] is ok and not s["claimable_gain"]


def test_mixed_pairs_and_a_gain_within_the_iqr():
    """8 wins of 10 fall short of 9 in 10; a 10/10 win by less than the IQR is no gain."""
    change = [x - 20.0 for x in PARENT[:8]] + [x + 1.0 for x in PARENT[8:]]
    s = paired_bench.summarize(_runs(PARENT, change), SPEC)["job_ms"]
    assert (s["wins"], s["losses"], s["ties"]) == (8, 2, 0) and not s["claimable_gain"]
    s = paired_bench.summarize(_runs(PARENT, [x - 1.0 for x in PARENT]), SPEC)["job_ms"]
    assert s["wins"] == 10 and not s["claimable_gain"]


@pytest.mark.parametrize("change_side", [{"correct": False}, {"failed": 1}])
def test_no_gain_from_an_incorrect_run_or_more_failures(change_side):
    runs = _runs(PARENT, [x - 20.0 for x in PARENT], **change_side)
    s = paired_bench.summarize(runs, SPEC)["job_ms"]
    assert s["wins"] == 10 and s["within_bound"] and not s["claimable_gain"]


WIDE = [100.0, 100.0, 100.0, 100.0, 100.0, 150.0, 150.0, 150.0, 150.0, 150.0]  # IQR 50 of 125


def test_a_spread_wider_than_the_bound_is_unresolved():
    """The parent's IQR is 40% of its median, above the 25% bound: a change within the bound
    whose runs interleave with the parent's is unresolved, not ok."""
    s = paired_bench.summarize(_runs(WIDE, WIDE[::-1]), SPEC)["job_ms"]
    assert s["parent_iqr_rel"] == pytest.approx(0.4)
    assert s["within_bound"] and s["unresolved"]
    assert paired_bench._verdict(s) == "unresolved"
    narrow = paired_bench.summarize(_runs(PARENT, PARENT), SPEC)["job_ms"]
    assert not narrow["unresolved"] and paired_bench._verdict(narrow) == "ok"


def test_every_change_run_better_resolves_a_wide_spread():
    """Every change run (at most 99) reads better than every parent run (at least 100)."""
    s = paired_bench.summarize(_runs(WIDE, [x - 51.0 for x in WIDE[::-1]]), SPEC)["job_ms"]
    assert s["within_bound"] and not s["unresolved"]
    assert paired_bench._verdict(s) == "ok"
    s = paired_bench.summarize(_runs(WIDE, [x - 50.0 for x in WIDE[::-1]]), SPEC)["job_ms"]
    assert s["unresolved"]  # a change run of 100 ties the best parent run


def test_worse_outside_the_bound_even_when_unresolved():
    s = paired_bench.summarize(_runs(WIDE, [x * 2.0 for x in WIDE]), SPEC)["job_ms"]
    assert not s["within_bound"] and s["unresolved"]
    assert paired_bench._verdict(s) == "WORSE"
