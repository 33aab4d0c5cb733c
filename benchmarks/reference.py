"""Reference eigenvalues at high precision, independent of selfsimspec.

Builds the closed-form tridiagonal pencil K - sigma*M of each job directly
from (a, d, beta1, beta2) and finds every eigenvalue by inertia bisection in
mpmath (Parlett, The Symmetric Eigenvalue Problem, ch. 3): with K positive
definite, the number of negative pivots of LDL^T(K - sigma*M) is the number
of eigenvalues between 0 and sigma, for either sign of sigma and of the
masses.

* pencil (fem-pencil and green-kernel jobs): K is the stiffness of the hat
  functions on the grid x_k = 1 - a^k, M the point masses
  m_k = (d*beta1 + beta2 - beta1) * d^(k-1).
* section (jacobi-section jobs): K is the symmetrized slope section with
  diagonal (1 + d*q) q^(k-1) and off-diagonal sqrt(d) q^k, M = r*I, so the
  eigenvalues are those of the section divided by r.

A float64 bisection supplies starting brackets; each bracket is confirmed
by an mpmath inertia count before it is refined, so the float stage can
only cost time, never accuracy.

Run from the repository root:

    python3 benchmarks/reference.py    # self-check, then (re)build benchmarks/reference.json

The timed benchmark only reads the JSON file; it never imports this module.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import mpmath
import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import jobs  # noqa: E402

CACHE = HERE / "reference.json"
PREC_BITS = 120
REL_WIDTH = mpmath.mpf(2) ** -80
DIGITS = 22


def pencil(params, N: int):
    """(K diagonal, K off-diagonal squared, M diagonal) of the hat-function pencil."""
    a, d, b1, b2 = (mpmath.mpf(x) for x in params)
    jump = d * b1 + b2 - b1
    h = [1 - a] + [(1 - a) * a**k for k in range(1, N)] + [a**N]
    inv = [1 / x for x in h]
    kd = [inv[i] + inv[i + 1] for i in range(N)]
    ko2 = [inv[i + 1] ** 2 for i in range(N - 1)]
    m = [jump * d**k for k in range(N)]
    return kd, ko2, m


def section(params, N: int):
    """(T diagonal, T off-diagonal squared, r*I) of the symmetrized section, d > 0."""
    a, d, b1, b2 = (mpmath.mpf(x) for x in params)
    q = 1 / (a * d)
    r = (1 - a) * (d * b1 + b2 - b1)
    kd = [(1 + d * q) * q**k for k in range(N)]
    ko2 = [d * q ** (2 * (k + 1)) for k in range(N - 1)]
    return kd, ko2, [r] * N


def _count(kd, ko2, m, s) -> int:
    """Negative pivots of LDL^T(K - s*M)."""
    tiny = mpmath.mpf(2) ** -4000
    piv = kd[0] - s * m[0]
    neg = int(piv < 0)
    for i in range(1, len(kd)):
        if piv == 0:
            piv = tiny
        piv = kd[i] - s * m[i] - ko2[i - 1] / piv
        neg += piv < 0
    return neg


def _float_guesses(kd, ko2, m, sign: int, n: int) -> np.ndarray:
    """Float64 estimates of the n eigenvalues of one sign, by magnitude.

    Works on the congruent pencil D(K - s*M)D with D = diag(kd)^(-1/2),
    which has the same inertia and a unit diagonal, so its entries stay in
    double range even where q^(2N) would not.
    """
    ko2f = np.array([float(ko2[i] / (kd[i] * kd[i + 1])) for i in range(len(ko2))])
    mf = np.array([float(m[i] / kd[i]) for i in range(len(kd))])
    ko = np.sqrt(ko2f)
    bound = float(np.max((1.0 + np.append(ko, 0.0) + np.insert(ko, 0, 0.0)) / np.abs(mf)))
    lo = np.full(n, math.log(1e-300))
    hi = np.full(n, math.log(4.0 * bound))
    want = np.arange(1, n + 1)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            s = sign * np.exp(mid)
            piv = 1.0 - s * mf[0]
            cnt = (piv < 0).astype(int)
            for i in range(1, len(mf)):
                piv = np.where(piv == 0.0, 1e-300, piv)
                piv = 1.0 - s * mf[i] - ko2f[i - 1] / piv
                cnt += piv < 0
            up = cnt >= want
            hi = np.where(up, mid, hi)
            lo = np.where(up, lo, mid)
            if np.all(hi - lo <= 1e-15 * np.maximum(1.0, np.abs(hi))):
                break
    return sign * np.exp(0.5 * (lo + hi))


def _refine(kd, ko2, m, k: int, guess: float):
    """The k-th eigenvalue of sign(guess), counted by magnitude, to REL_WIDTH."""
    g = mpmath.mpf(guess)
    delta = mpmath.mpf("1e-12")
    while True:
        lo, hi = g * (1 - delta), g * (1 + delta)  # by magnitude, either sign
        if _count(kd, ko2, m, lo) < k <= _count(kd, ko2, m, hi):
            break
        if delta > 1:
            raise RuntimeError(f"no bracket for eigenvalue {k} near {guess!r}")
        delta *= 1000
    while abs(hi - lo) > REL_WIDTH * abs(hi):
        mid = (lo + hi) / 2
        if _count(kd, ko2, m, mid) >= k:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def eigenvalues(kd, ko2, m):
    """All eigenvalues of (K, M), ascending by signed value, as mpf."""
    if _count(kd, ko2, m, mpmath.mpf(0)) != 0:
        raise RuntimeError("K is not positive definite")
    out = []
    for sign in (1, -1):
        n = sum(1 for x in m if (x > 0) == (sign > 0))
        if n:
            guesses = _float_guesses(kd, ko2, m, sign, n)
            out += [_refine(kd, ko2, m, k + 1, float(g)) for k, g in enumerate(guesses)]
    return sorted(out)


def compute(kind: str, params, N: int) -> list[str]:
    with mpmath.workprec(PREC_BITS):
        build = section if kind == "section" else pencil
        return [mpmath.nstr(x, DIGITS, min_fixed=1, max_fixed=0) for x in eigenvalues(*build(params, N))]


def self_check() -> None:
    """The README's N = 2 canonical values (11 -/+ sqrt(57)) and the N = 2 section."""
    got = [float(x) for x in compute("pencil", jobs.CANONICAL, 2)]
    want = [3.45016556472925, 18.549834435270753]
    exact = [11.0 - math.sqrt(57.0), 11.0 + math.sqrt(57.0)]
    for g, w, e in zip(got, want, exact):
        if abs(g - w) > 1e-15 * w or abs(g - e) > 1e-15 * e:
            raise SystemExit(f"reference self-check failed: {got} against {want}")
    # the 2x2 section [[3, -4], [-2, 12]] divided by r = 1/2
    sec = [float(x) for x in compute("section", jobs.CANONICAL, 2)]
    for g, e in zip(sec, (15.0 - math.sqrt(113.0), 15.0 + math.sqrt(113.0))):
        if abs(g - e) > 1e-15 * e:
            raise SystemExit(f"reference self-check failed: section {sec}")
    print(f"reference self-check ok: N=2 pencil {got}, section {sec}")


def main() -> int:
    self_check()
    cached = json.loads(CACHE.read_text())["entries"] if CACHE.exists() else {}
    entries = {}
    for kind, params, N in jobs.needed_references():
        key = jobs.ref_key(kind, params, N)
        if key in cached:
            entries[key] = cached[key]
            continue
        t0 = time.perf_counter()
        entries[key] = compute(kind, params, N)
        print(f"{key}: {time.perf_counter() - t0:.1f} s", flush=True)
    doc = {"digits": DIGITS, "prec_bits": PREC_BITS, "entries": dict(sorted(entries.items()))}
    CACHE.write_text(json.dumps(doc, indent=0) + "\n")
    print(f"wrote {len(entries)} references to {CACHE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
