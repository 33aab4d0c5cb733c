"""Runs one workload's jobs in a closed loop and prints the raw results.

Started by run.py in a process of its own, with the BLAS thread variables
pinned to 1 in its environment before numpy loads. One client, one job at a
time: ``ladders`` calls the library in this process, cli-mix starts one
``python -m selfsimspec.cli`` process per job and waits for it.

With ``--trace 0`` it runs whole passes (the ladders in seeded order, or a
seeded cli-mix block) while the next pass, as long as the median pass so
far, still ends within ``--seconds``, and until at least MIN_SAMPLES jobs
were timed. With ``--trace 1`` it draws one pass and runs
it untraced and traced in turn, after one warm-up pass; cli-mix then calls
``cli.main`` in this process with its output captured, and runs the block
once more as CLI processes to give the time a user waits for it.

Prints one JSON document: a record per job (time, outcome, reason, worst
relative eigenvalue error, warnings), the successful jobs, wall time and
job count of each pass, the peak RSS, and, when traced, the per-layer figures.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import warnings
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import checks  # noqa: E402
import jobs  # noqa: E402
import spans  # noqa: E402
import selfsimspec as ss  # noqa: E402
import selfsimspec.cli as ss_cli  # noqa: E402

MIN_SAMPLES = 100
CLI_TIMEOUT_S = 60


@contextmanager
def captured_warnings(tracer):
    """Every warning raised inside, recorded by category and given to the tracer."""
    seen = []

    def hook(message, category, filename, lineno, file=None, line=None):
        seen.append(category)
        if tracer is not None:
            tracer.on_warning(category)

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = hook
        yield seen


def _record(job, ms, reason, err, delivered, warned):
    return {
        "name": job.get("name") or " ".join(job["argv"]),
        "cls": job["cls"],
        "ms": ms,
        "ok": reason is None,
        "reason": reason,
        "wrong": reason is not None and delivered,
        "warned": warned,
        "err": err,
        "form": job.get("form"),
        "N": job.get("N"),
    }


class Runner:
    def __init__(self, workload: str, in_process: bool):
        self.workload = workload
        self.in_process = in_process
        doc = json.loads((HERE / "reference.json").read_text())["entries"]
        self.refs = {k: np.array([float(x) for x in v]) for k, v in doc.items()}
        golden = ROOT / "tests" / "golden"
        self.goldens = {name: (golden / name).read_text() for _, name in jobs.GOLDENS}
        self.params = {}
        self.job_id = 0

    def run(self, job, tracer=None):
        self.job_id += 1
        if self.workload != "cli-mix":
            return self._ladder(job, tracer)
        if self.in_process:
            return self._cli_in_process(job, tracer)
        return self._cli_process(job)

    def _ladder(self, job, tracer):
        key = job["params"]
        if key not in self.params:
            self.params[key] = ss.make_params(*key)
        p = self.params[key]
        spec = fit = exc = None
        span = tracer.job_span(self.job_id, job["name"]) if tracer else nullcontext()
        with captured_warnings(tracer) as seen, span:
            t0 = time.perf_counter()
            try:
                spec = ss.compute_spectrum(p, job["N"], job["form"])
                if job["fit"] == "estimate_c":
                    fit = ss.estimate_c(spec, job["window"])
                elif job["fit"] == "indefinite_report":
                    fit = ss.indefinite_report(spec, job["window"])
            except Exception as e:  # a failed job is recorded, not fatal
                exc = e
                if tracer:
                    tracer.note_error(e)
            ms = (time.perf_counter() - t0) * 1e3
        warned = any(issubclass(c, RuntimeWarning) for c in seen)
        if exc is not None:
            return _record(job, ms, f"{type(exc).__name__}: {exc}", None, False, warned)
        reason, err = checks.check_ladder(job, spec, fit, self.refs[job["ref"]])
        return _record(job, ms, reason, err, True, warned)

    def _cli_process(self, job):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "selfsimspec.cli", *job["argv"]],
                capture_output=True, text=True, cwd=ROOT, timeout=CLI_TIMEOUT_S,
            )
            code, out, err_text = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:
            code, out, err_text = -1, "", f"no exit within {CLI_TIMEOUT_S} s"
        ms = (time.perf_counter() - t0) * 1e3
        return self._judge_cli(job, ms, code, out, err_text, "RuntimeWarning" in err_text)

    def _cli_in_process(self, job, tracer):
        out, err_io = io.StringIO(), io.StringIO()
        main = tracer.wrap(ss_cli.main) if tracer else ss_cli.main
        span = tracer.job_span(self.job_id, " ".join(job["argv"])) if tracer else nullcontext()
        with captured_warnings(tracer) as seen, redirect_stdout(out), redirect_stderr(err_io), span:
            t0 = time.perf_counter()
            try:
                code = main(job["argv"])
            except Exception as e:  # the CLI let an exception escape: a failed job
                code = -1
                err_io.write(f"{type(e).__name__}: {e}")
                if tracer:
                    tracer.note_error(e)
            ms = (time.perf_counter() - t0) * 1e3
        warned = any(issubclass(c, RuntimeWarning) for c in seen)
        return self._judge_cli(job, ms, code, out.getvalue(), err_io.getvalue(), warned)

    def _judge_cli(self, job, ms, code, out, err_text, warned):
        reason, err = checks.check_cli(job, code, out, err_text, self.refs, self.goldens)
        delivered = code == 0 and job["check"] != "verify"
        return _record(job, ms, reason, err, delivered, warned)


def timed(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    rng = random.Random(seed)
    records, passes = [], []
    start = time.perf_counter()
    while (not passes or len(records) < MIN_SAMPLES
           or time.perf_counter() - start + statistics.median(p[1] for p in passes) <= seconds):
        t0 = time.perf_counter()
        done = [runner.run(job) for job in jobs.block(workload, rng)]
        passes.append([sum(r["ok"] for r in done), time.perf_counter() - t0, len(done)])
        records += done
    who = resource.RUSAGE_CHILDREN if workload == "cli-mix" else resource.RUSAGE_SELF
    return {
        "records": records,
        "passes": passes,
        "wall_s": time.perf_counter() - start,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def n_exponent(records, form: str) -> float:
    """Least-squares slope of log(job time) against log(N) over the successful jobs of a route."""
    pts = [(math.log(r["N"]), math.log(r["ms"])) for r in records if r["ok"] and r["form"] == form]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    x, y = np.array(pts).T
    return float(np.polyfit(x, y, 1)[0])


def traced(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    block = jobs.block(workload, random.Random(seed))
    for job in block:  # warm-up: first calls and lazy imports
        runner.run(job)
    tracer = spans.Tracer()
    records, plain, untraced_s, traced_s = [], [], [], []
    wrap_points = 0
    start = time.perf_counter()
    while not untraced_s or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        plain += [runner.run(job) for job in block]
        untraced_s.append(time.perf_counter() - t0)
        wrap_points = tracer.install()
        try:
            t0 = time.perf_counter()
            records += [runner.run(job, tracer) for job in block]
            traced_s.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
    per_layer = tracer.layer_metrics(len(traced_s))
    for layer in spans.LAYERS:
        per_layer[f"{layer}.src_lines"] = spans.src_lines(layer)
    for form in jobs.LADDER_FORMS:
        per_layer[f"spectral.n_exponent.{form}"] = n_exponent(plain, form)
    # best pass against best pass: the host's drift would swamp a ratio of sums
    per_layer["trace.overhead_frac"] = min(traced_s) / min(untraced_s) - 1.0
    if workload == "cli-mix":  # the same block as CLI processes: what a user waits for
        runner.in_process = False
        t0 = time.perf_counter()
        records += [runner.run(job) for job in block]
        end_to_end_s = time.perf_counter() - t0
    else:
        end_to_end_s = statistics.median(untraced_s)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write(span_file)
    return {
        "records": plain + records,
        "wall_s": sum(untraced_s),
        "block_s": end_to_end_s,
        "per_layer": per_layer,
        "traced_passes": len(traced_s),
        "wrap_points": wrap_points,
        "spans": len(tracer.spans),
        "span_file": str(span_file.relative_to(ROOT)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=jobs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    runner = Runner(args.workload, in_process=bool(args.trace))
    run = traced if args.trace else timed
    print(json.dumps(run(runner, args.workload, args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
