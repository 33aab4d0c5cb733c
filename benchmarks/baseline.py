"""Runs the benchmark over seeds 1 to 10 and summarizes each metric.

    python3 benchmarks/baseline.py [--out FILE]

Run from the repository root. For each workload it makes one timed run per
seed, then one traced run (seed 1), and prints for every end-to-end
metric the median, the quartiles and their distance as a share of the
median next to the metric's bound in BENCHMARK.json. With ``--out`` it also
writes the summary, the per-layer figures and the machine description as
JSON, which is how benchmarks/baseline.json was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import jobs  # noqa: E402

SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def summarize(values: list[float], bound: float) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "bound": bound,
            "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None, help="write the summary as JSON to this file")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"seconds": spec["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    for workload in jobs.WORKLOADS:
        runs = []
        for seed in SEEDS:
            last, head = run(workload, seed, spec["run_seconds"], 0)
            doc.setdefault("machine", next(l for l in head if l.startswith("machine:")))
            runs.append(last)
            print(f"{workload} seed {seed}: correct={last['correct']} attempted={last['attempted']} "
                  f"failed={last['failed']}", flush=True)
        summary = {name: summarize([r["metrics"][name]["value"] for r in runs], bound)
                   for name, bound in bounds.items()}
        for name, s in summary.items():
            verdict = "ok" if s["spread"] <= s["bound"] / 3 else "within bound" if s["spread"] <= s["bound"] else "OVER BOUND"
            print(f"  {name:16} median {s['median']:<12.6g} quartiles {s['q1']:.6g}..{s['q3']:.6g} "
                  f"spread {s['spread']:.4f} bound {s['bound']} {verdict}", flush=True)
        traced, _ = run(workload, SEEDS[0], spec["run_seconds"], 1)
        doc["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": summary,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
