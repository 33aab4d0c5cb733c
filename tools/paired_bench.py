"""Paired benchmark runs of a base revision against the working tree.

    python3 tools/paired_bench.py REV [--out FILE]

Run from the repository root. REV (a commit, branch or tag) is exported
with ``git archive`` into a temporary directory, which is removed at the
end. For each workload of BENCHMARK.json it runs
``python3 benchmarks/run.py --workload W --seed S --seconds T`` in the
exported tree (the parent) and in the working tree (the change), once
each per pair, PAIRS (10) pairs, seed S = pair number, alternating which side
runs first. T is BENCHMARK.json's run_seconds. A run of one side does
not overlap a run of the other.

The JSON written to FILE (BENCH.json by default) holds every run's
metrics and, per workload and end-to-end metric: each side's median and
quartiles; the parent's interquartile range, also relative to its median,
beside the metric's bound from BENCHMARK.json; the relative change of the
medians, positive when better; the pairs the change wins, loses and ties;
whether the median gain exceeds the parent's IQR and the change wins at
least 9 in 10 pairs, with every run correct and no larger share of
failed operations than the parent's (a claimable gain); whether the
change's median stays within the bound of the parent's; and whether the
metric is unresolved: the parent's IQR, relative to its median, is wider
than the bound, and not every change run reads better than every parent
run, so within the bound does not mean unchanged. Per workload it also
holds each side's share of failed operations and whether every run was
correct. A summary table goes to standard output; its bound column reads
WORSE outside the bound, else unresolved or ok.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def _export(rev: str, dest: Path) -> str:
    """Write REV's files into dest; returns its full commit id."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    with subprocess.Popen(["git", "archive", "--format=tar", sha], cwd=ROOT,
                          stdout=subprocess.PIPE) as proc:
        with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
            tar.extractall(dest, filter="data")
        proc.stdout.read()  # the padding after the end marker, or git may die of SIGPIPE
    if proc.returncode:
        raise RuntimeError(f"git archive {sha} exited {proc.returncode}")
    return sha


def _run(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in tree: its final JSON line, with the wall time it took."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py in {tree} exited {proc.returncode}:\n{proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["wall_s"] = time.perf_counter() - t0
    return out


def _quartiles(xs: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def _failed_frac(runs: list[dict], side: str) -> float:
    """The share of side's operations that failed, over all its runs."""
    return (sum(r[side]["failed"] for r in runs)
            / max(1, sum(r[side]["attempted"] for r in runs)))


def summarize(runs: list[dict], spec: list[dict]) -> dict:
    """Per end-to-end metric of BENCHMARK.json: both sides' quartiles, the parent's IQR against
    the bound, the pairs won, whether the gain is claimable and the change within bound, and
    whether the metric is unresolved (the parent's spread wider than the bound, and some
    change run no better than some parent run). No gain is claimable where a run is not
    correct or the change fails a larger share of its operations than the parent."""
    sound = (all(r[side]["correct"] for r in runs for side in ("parent", "change"))
             and _failed_frac(runs, "change") <= _failed_frac(runs, "parent"))
    out = {}
    for m in spec:
        name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
        par = [r["parent"]["metrics"][name]["value"] for r in runs]
        chg = [r["change"]["metrics"][name]["value"] for r in runs]
        p, c = _quartiles(par), _quartiles(chg)
        iqr = p["q3"] - p["q1"]
        gain = sign * (c["median"] - p["median"])  # > 0: the change is better
        scale = abs(p["median"]) or 1.0
        wins = sum(sign * (y - x) > 0 for x, y in zip(par, chg))
        losses = sum(sign * (y - x) < 0 for x, y in zip(par, chg))
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": p, "change": c,
            "parent_iqr": iqr, "parent_iqr_rel": iqr / scale,
            "median_gain_rel": gain / scale,
            "wins": wins, "losses": losses, "ties": len(runs) - wins - losses,
            "claimable_gain": sound and wins >= 0.9 * len(runs) and gain > iqr,
            "within_bound": -gain / scale <= m["bound"],
            "unresolved": (iqr / scale > m["bound"]
                           and min(sign * y for y in chg) <= max(sign * x for x in par)),
        }
    return out


def _verdict(s: dict) -> str:
    """The bound column of the summary table for one metric's summary s."""
    return "WORSE" if not s["within_bound"] else "unresolved" if s["unresolved"] else "ok"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="paired benchmark runs, REV against the working tree")
    ap.add_argument("rev")
    ap.add_argument("--out", default="BENCH.json")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    report = {"rev": None, "pairs": PAIRS, "seconds": seconds,
              "python": platform.python_version(), "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="paired-bench-") as tmp:
        parent = Path(tmp)
        report["rev"] = _export(args.rev, parent)
        for w in (spec["name"] for spec in bench["workloads"]):
            runs = []
            for i in range(PAIRS):
                seed, first = i + 1, ("parent", "change")[i % 2]
                pair = {"seed": seed, "first": first}
                for side in (first, "change" if first == "parent" else "parent"):
                    pair[side] = _run(parent if side == "parent" else ROOT, w, seed, seconds)
                runs.append(pair)
                print(f"{w} pair {i + 1}/{PAIRS} (seed {seed}, {first} first) done",
                      flush=True)
            report["workloads"][w] = {
                "runs": runs,
                "failed_frac": {side: _failed_frac(runs, side) for side in ("parent", "change")},
                "all_correct": all(r[side]["correct"] for r in runs
                                   for side in ("parent", "change")),
                "metrics": summarize(runs, bench["end_to_end"]),
            }
    (ROOT / args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"{'workload':9} {'metric':15} {'parent median [q1, q3]':>34} {'change median':>14} "
          f"{'gain':>8} {'IQR/bound':>10} {'wins':>6}  claim  bound")
    for w, rec in report["workloads"].items():
        for name, s in rec["metrics"].items():
            p = s["parent"]
            print(f"{w:9} {name:15} {p['median']:12.6g} [{p['q1']:.6g}, {p['q3']:.6g}]"
                  f" {s['change']['median']:14.6g} {s['median_gain_rel']:+8.2%}"
                  f" {s['parent_iqr_rel']:.3f}/{s['bound']:<4g} {s['wins']:3d}/{len(rec['runs'])}"
                  f"  {'yes' if s['claimable_gain'] else 'no':5}"
                  f"  {_verdict(s)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
