"""Output checks: every job's output against references and closed forms.

Each check returns ``(reason, err)``: ``reason`` is None when the output is
right and otherwise says what is wrong; ``err`` is the worst relative
eigenvalue error the job delivered (None when its output holds no
eigenvalues). Eigenvalues must match the high-precision reference to
``TOL`` relative; weights and matrices must match their closed forms to the
same tolerance.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

TOL = 1e-12


def rel_err(values, ref) -> float:
    values, ref = np.asarray(values, dtype=float), np.asarray(ref, dtype=float)
    if values.shape != ref.shape:
        return math.inf
    if len(ref) == 0:
        return 0.0
    return float(np.max(np.abs(values - ref) / np.abs(ref)))


def _judge(what: str, err: float, tol: float = TOL):
    return None if err <= tol else f"{what} off by {err:.3e} relative (tolerance {tol:.0e})"


def _first(*reasons):
    return next((r for r in reasons if r), None)


def branches(ref: np.ndarray):
    """Positive eigenvalues ascending and negative ones by magnitude, paired."""
    pos = np.sort(ref[ref > 0.0])
    neg = np.sort(ref[ref < 0.0])[::-1]
    n = min(len(pos), len(neg))
    return pos[:n], neg[:n]


def c_estimate(ref: np.ndarray, q: float, window) -> float:
    """The geometric-law constant of the reference spectrum over a 1-based window."""
    k1, k2 = window
    per = ref[k1 - 1 : k2] / q ** np.arange(k1, k2 + 1, dtype=float)
    return math.copysign(math.exp(float(np.mean(np.log(np.abs(per))))), float(per[0]))


def check_ladder(job, spec, fit, ref: np.ndarray):
    """One in-process job: the spectrum, then the fit made from it."""
    err = rel_err(spec.values, ref)
    reason = _judge("eigenvalues", err)
    if fit is None:
        return reason, err
    if job["fit"] == "estimate_c":
        c_ref = c_estimate(ref, spec.params.q, job["window"])
        fit_err = abs(fit.c_estimate - c_ref) / abs(c_ref)
        return _first(reason, _judge("c estimate", fit_err)), max(err, fit_err)
    pos, neg = branches(ref)
    fit_err = max(rel_err(fit.positive, pos), rel_err(fit.negative, neg))
    return _first(reason, _judge("branch eigenvalues", fit_err)), max(err, fit_err)


# -- closed forms of the CLI's weight and matrix outputs --------------------


def _weight(params, N: int):
    a, d, b1, b2 = params
    jump = d * b1 + b2 - b1
    k = np.arange(1, N + 1, dtype=float)
    masses = [jump * d ** (j - 1) for j in range(1, N + 1)]
    steps = [b1] + [b1 + math.fsum(masses[:j]) for j in range(1, N + 1)]
    scale = [abs(b1)] + [abs(b1) + math.fsum(abs(m) for m in masses[:j]) for j in range(1, N + 1)]
    return 1.0 - a**k, np.array(masses), np.array(steps), np.array(scale)


def closed_matrix(params, N: int, kind: str) -> np.ndarray:
    a, d, b1, b2 = params
    q = 1.0 / (a * d)
    k = np.arange(N, dtype=float)
    i = np.arange(N - 1)
    out = np.zeros((N, N))
    if kind == "A":
        out[np.arange(N), np.arange(N)] = 1.0
        out[i, i + 1] = -1.0
    elif kind == "B":
        out = np.tril(np.outer(d**k, a**k))
    elif kind == "Binv":
        out[np.arange(N), np.arange(N)] = q**k
        out[i + 1, i] = -d * q ** k[1:]
    elif kind in ("ABinv", "sym"):
        out[np.arange(N), np.arange(N)] = (1.0 + d * q) * q**k
        upper = -(q ** (k[:-1] + 1.0)) if kind == "ABinv" else math.sqrt(d) * q ** (k[:-1] + 1.0)
        lower = -d * q ** k[1:] if kind == "ABinv" else upper
        out[i, i + 1], out[i + 1, i] = upper, lower
    else:
        h = np.concatenate(([1.0 - a], (1.0 - a) * a ** k[1:], [a**N]))
        masses = (d * b1 + b2 - b1) * d**k
        if kind == "K":
            out[np.arange(N), np.arange(N)] = 1.0 / h[:-1] + 1.0 / h[1:]
            out[i, i + 1] = out[i + 1, i] = -1.0 / h[1:-1]
        elif kind == "M":
            out = np.diag(masses)
        else:  # green: min(x_i, x_j) (1 - max(x_i, x_j)) m_j with x = 1 - a^k
            gaps = a ** (k + 1.0)
            lo, hi = np.minimum.outer(k, k).astype(int), np.maximum.outer(k, k).astype(int)
            out = (1.0 - gaps[lo]) * gaps[hi] * masses[None, :]
    return out


def _matrix_err(got: np.ndarray, want: np.ndarray) -> float:
    if got.shape != want.shape or np.any((want == 0.0) != (got == 0.0)):
        return math.inf
    nz = want != 0.0
    return float(np.max(np.abs(got[nz] - want[nz]) / np.abs(want[nz]), initial=0.0))


def _csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _column(rows, j: int) -> np.ndarray:
    return np.array([float(r[j]) for r in rows])


def check_cli(job, code: int, out: str, err_text: str, refs, goldens):
    """One CLI invocation: exit code, FAIL lines, goldens and values."""
    kind = job["check"]
    if kind == "verify":
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        if fails or code != 0:
            return f"exit {code}: " + ("; ".join(fails) or err_text.strip()), None
        return None, None
    if code != 0:
        return f"exit {code}: {err_text.strip()}", None
    if kind == "golden":
        return (None if out == goldens[job["golden"]] else "differs from golden file"), None
    csv_fmt = job["format"] == "csv"
    params, N = job["params"], job["N"]
    if kind == "weight":
        pos, masses, steps, scale = _weight(params, N)
        if csv_fmt:
            _, rows = _csv(out)
            got_pos, got_m, step_err = _column(rows, 1), _column(rows, 2), 0.0
        else:
            doc = json.loads(out)
            got_pos, got_m = doc["positions"], doc["masses"]
            got_s = np.asarray(doc["step_values"], dtype=float)
            step_err = float(np.max(np.abs(got_s - steps) / (np.abs(steps) + scale)))
        return _judge("weight", max(rel_err(got_pos, pos), rel_err(got_m, masses), step_err)), None
    if kind == "matrix":
        if csv_fmt:
            _, rows = _csv(out)
            got = np.array([[float(x) for x in r] for r in rows]).reshape(len(rows), -1)
        else:
            got = np.array(json.loads(out)["rows"], dtype=float).reshape(N, -1)
        return _judge(f"matrix {job['kind']}", _matrix_err(got, closed_matrix(params, N, job["kind"]))), None
    ref = refs[job["ref"]]
    if kind == "spectrum":
        got = _column(_csv(out)[1], 1) if csv_fmt else json.loads(out)["eigenvalues"]
        e = rel_err(got, ref)
        return _judge("eigenvalues", e), e
    # asymptotics over the full index range (no --window)
    if params[1] > 0:
        q = 1.0 / (params[0] * params[1])
        if csv_fmt:
            e = rel_err(_column(_csv(out)[1], 1), ref)
        else:
            doc = json.loads(out)
            per = np.asarray(doc["per_k_c"], dtype=float)
            e = rel_err(per * doc["q"] ** np.arange(1, len(per) + 1, dtype=float), ref)
            e = max(e, abs(doc["c_estimate"] - c_estimate(ref, q, (1, N))) / abs(c_estimate(ref, q, (1, N))))
        return _judge("asymptotics", e), e
    pos, neg = branches(ref)
    if csv_fmt:
        rows = _csv(out)[1]
        got_pos, got_neg = _column(rows, 1), _column(rows, 2)
    else:
        doc = json.loads(out)
        got_pos, got_neg = doc["positive"], doc["negative"]
    e = max(rel_err(got_pos, pos), rel_err(got_neg, neg))
    return _judge("branch eigenvalues", e), e
