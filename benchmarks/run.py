"""selfsimspec benchmark: one workload, timed or traced, checked against references.

    python3 benchmarks/run.py --workload ladders --seed 1 --seconds 55 --trace 0

Run from the repository root. Workloads (see jobs.py): ladders, cli-mix. With ``--trace 0`` it prints the end-to-end
metrics, with ``--trace 1`` the per-layer ones, each by name with unit and
direction, then the failed jobs and their reasons; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. BENCHMARK.json at the repository root names
the metrics and their units.

A job fails when it raises, exits with an unexpected code, prints a FAIL
line, differs from a golden file, or returns an eigenvalue more than 1e-12
relative away from the reference. ``correct`` is false only when a job
delivered a wrong result as a success; a job that fails loudly counts in
``failed`` instead. Failed jobs are +inf in the latency percentiles and do
no work in the throughput.

The speed of a shared host drifts by up to a factor of two over tens of
seconds, more than a run can average out. A class's best time in a run
(its jobs do the same work, see jobs.py) is steady while the host has quiet
spells and its mean time while it has none, and each is unsteady in the
other case; so the timing metrics take every job at the geometric mean of
its class's best and mean time in the run. The throughput is the
successful jobs over the run's jobs at those times, and the percentiles
are over the same times. The raw figures, each job as timed, are printed
beside them.

The jobs run in a worker process (worker.py) with the BLAS thread
variables pinned to 1; the set-up time is the median over fresh
interpreters that import selfsimspec and build one parameter set.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import jobs  # noqa: E402
import spans  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 12
SETUP_CODE = "import selfsimspec; selfsimspec.make_params(0.5, 0.5, 0.0, 1.0); print('ready', flush=True)"
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
EPS = 2.0**-52


def _fail(msg: str) -> int:
    print(f"benchmark cannot run: {msg}", file=sys.stderr)
    return 2


def _missing() -> str | None:
    """What the checkout lacks for a run, or None."""
    for need in (ROOT / "src" / "selfsimspec" / "__init__.py", ROOT / "BENCHMARK.json",
                 HERE / "reference.json"):
        if not need.is_file():
            return f"{need.relative_to(ROOT)} not found under {ROOT}"
    for _, name in jobs.GOLDENS:
        if not (ROOT / "tests" / "golden" / name).is_file():
            return f"tests/golden/{name} not found"
    have = json.loads((HERE / "reference.json").read_text())["entries"]
    lacking = [jobs.ref_key(*k) for k in jobs.needed_references() if jobs.ref_key(*k) not in have]
    if lacking:
        return f"{len(lacking)} reference spectra missing (first: {lacking[0]}); run benchmarks/reference.py"
    return None


def worker_env() -> dict:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    env.update({v: "1" for v in THREAD_VARS})
    return env


def setup_seconds(env: dict, repeats: int, warm_up: bool) -> list[float]:
    """Fresh interpreter to first make_params, timed `repeats` times."""
    samples = []
    for i in range(repeats + warm_up):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE], stdout=subprocess.PIPE,
                              env=env, cwd=ROOT, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.wait(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        if i or not warm_up:
            samples.append(t1 - t0)
    return samples


def run_worker(env: dict, args) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            cwd=ROOT, text=True, start_new_session=True)
    # the last pass may overrun --seconds by a pass, and a traced run adds a
    # warm-up pass and, for cli-mix, a pass of CLI processes
    timeout = 2 * args.seconds + 60
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any CLI process it started
        proc.communicate()
        raise RuntimeError(f"worker did not finish within {timeout} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def percentile(sorted_vals: list[float], p: float) -> float:
    """Linear-interpolation percentile; +inf entries stay +inf."""
    pos = p / 100.0 * (len(sorted_vals) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    if pos == lo or sorted_vals[lo] == sorted_vals[hi]:
        return sorted_vals[lo]
    return sorted_vals[lo] + (pos - lo) * (sorted_vals[hi] - sorted_vals[lo])


def lat_of(recs) -> list[float]:
    """Sorted job latencies in ms, +inf for a failed job."""
    return sorted(r["ms"] if r["ok"] else math.inf for r in recs)


def tail(lat: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond): the highest percentile with >= 10 samples beyond it."""
    n = len(lat)
    p = next((p for p in TAIL_PERCENTILES if n * (1.0 - p / 100.0) >= 10), 50.0)
    return p, percentile(lat, p), math.floor(n * (1.0 - p / 100.0))


def end_to_end(res: dict, setup: list[float]) -> tuple[dict, list[str]]:
    recs = res["records"]
    n = len(recs)
    ok = sum(r["ok"] for r in recs)
    reps = {}
    for r in recs:
        reps.setdefault(r["cls"], []).append(r["ms"])
    cls_ms = {c: math.sqrt(min(v) * statistics.fmean(v)) for c, v in reps.items()}
    lat = sorted(cls_ms[r["cls"]] if r["ok"] else math.inf for r in recs)
    busy_s = sum(cls_ms[r["cls"]] for r in recs) / 1e3
    p, tail_ms, beyond = tail(lat)
    raw, wall = lat_of(recs), sum(wall for _, wall, _ in res["passes"])
    errs = [r["err"] for r in recs if r["err"] is not None]
    worst = max(errs) if errs else math.inf
    warned = sum(r["warned"] for r in recs)
    values = {
        "setup_s": statistics.median(setup),
        "ok_jobs_per_s": ok / busy_s,
        "job_ms.p50": percentile(lat, 50.0),
        "job_ms.tail": tail_ms,
        "rel_err_digits": -math.log10(min(max(worst, EPS), 1.0)),
        "ok_frac": ok / n,
        "clean_frac": 1.0 - warned / n,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = [
        f"setup_s: median of {len(setup)} fresh interpreters, spread {min(setup):.4f}..{max(setup):.4f} s",
        f"job times: {n} jobs in {len(res['passes'])} passes, {len(reps)} classes of "
        f"{min(map(len, reps.values()))}..{max(map(len, reps.values()))} repetitions, each job at "
        f"sqrt(best * mean) of its class",
        f"ok_jobs_per_s: {ok} successful jobs / {busy_s:.4f} s of jobs at class times "
        f"(raw: {ok / wall:.4g} over {wall:.2f} s wall)",
        f"job_ms.p50: median of {n} jobs at class times (raw: {percentile(raw, 50.0):.4g} ms)",
        f"job_ms.tail: p{p:g} of {n} jobs at class times, {beyond} beyond it "
        f"(raw: {percentile(raw, p):.4g} ms)",
        f"rel_err_digits: worst relative error of eigenvalues and fits {worst:.3e} "
        f"over {len(errs)} checked jobs (floored at eps, capped at 1)",
        f"failed_frac = {(n - ok) / n:.6f} (lower)   warn_frac = {warned / n:.6f} (lower)",
    ]
    return values, notes


def _table(rows, spec) -> list[str]:
    lines = [f"{'metric':36} {'value':>16}  unit      better"]
    for m in spec:
        lines.append(f"{m['name']:36} {rows[m['name']]:16.6g}  {m['unit']:8}  {m['better']}")
    return lines


def per_layer_lines(per: dict, res: dict) -> list[str]:
    """Layer table per traced pass; share is self time over the traced job time."""
    total = per.get("job.busy_s", 0.0) or 1.0
    lines = [f"traced passes: {res['traced_passes']}, wrap points: {res['wrap_points']}, "
             f"spans: {res['spans']} (written to {res['span_file']})",
             f"{'layer':12}{'calls':>9}{'busy_s':>11}{'self_s':>11}{'share':>8}{'errors':>8}{'warnings':>10}"]
    for layer in ("job",) + spans.LAYERS:
        g = lambda k: per.get(f"{layer}.{k}", 0.0)  # noqa: E731
        lines.append(f"{layer:12}{g('calls'):9.0f}{g('busy_s'):11.4f}{g('self_s'):11.4f}"
                     f"{g('self_s') / total:8.1%}{g('errors'):8.0f}{g('warnings'):10.0f}")
    lines.append(f"one untraced pass as a user runs it takes {res['block_s']:.4f} s; eigensolve self "
                 f"time is {per.get('eigensolve.self_s', 0.0) / res['block_s']:.1%} of that")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="selfsimspec benchmark")
    ap.add_argument("--workload", choices=jobs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = _missing()
    if missing:
        return _fail(missing)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = worker_env()
    try:
        if args.trace:
            setup, res = [], run_worker(env, args)
        else:
            # half the set-up probes before the worker and half after, so that
            # a slow or fast spell of a shared machine weighs on both alike
            setup = setup_seconds(env, SETUP_REPEATS // 2, warm_up=True)
            res = run_worker(env, args)
            setup += setup_seconds(env, SETUP_REPEATS // 2, warm_up=False)
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        return _fail(str(exc))

    loop = "in-process" if args.trace or args.workload != "cli-mix" else "one CLI process per job"
    print(f"selfsimspec benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"machine: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
          f"python={platform.python_version()} numpy={importlib.metadata.version('numpy')} "
          + " ".join(f"{v}={env[v]}" for v in THREAD_VARS))
    print(f"loop: closed, 1 client, {loop}; {len(res['records'])} jobs, "
          f"{res['wall_s']:.2f} s {'untraced' if args.trace else 'measured'}")
    if args.trace:
        names = spec["per_layer"]
        values = {m["name"]: res["per_layer"].get(m["name"], 0.0) for m in names}
        print("\n".join(per_layer_lines(res["per_layer"], res)))
    else:
        names = spec["end_to_end"]
        values, notes = end_to_end(res, setup)
        print("\n".join(notes))
    print("\n".join(_table(values, names)))
    recs = res["records"]
    failures = Counter((r["name"], r["reason"]) for r in recs if not r["ok"])
    print(f"failed jobs: {sum(failures.values())} of {len(recs)}")
    for (name, reason), count in sorted(failures.items()):
        print(f"  {count} x {name}: {reason}")
    print(json.dumps({
        "correct": not any(r["wrong"] for r in recs),
        "attempted": len(recs),
        "failed": sum(failures.values()),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
