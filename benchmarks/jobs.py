"""Workload definitions: the jobs each workload runs, drawn from the seed.

A job is a plain dict, so this module imports nothing from selfsimspec and
can be shared by the timed worker and the reference generator.

* In-process jobs (``ladders``: the canonical ladder and the alternating
  one) carry ``params``, ``N``, ``form`` and ``fit``: one
  ``compute_spectrum`` call plus ``estimate_c`` over ``window`` or
  ``indefinite_report`` on the result.
* CLI jobs (``cli-mix``) carry ``argv`` for ``python -m selfsimspec.cli``
  and a ``check`` kind that says how the output is judged.

Jobs whose output holds eigenvalues name a reference key (``ref``); the
reference eigenvalues live in ``reference.json`` next to this file and are
computed by ``reference.py`` without any selfsimspec code.

Every job also carries a timing class (``cls``): the jobs of one class do
the same work, so run.py gives them one time from all their repetitions in
a run. A ladder job's class is its name; a CLI job's is its subcommand,
with the order for ``spectrum`` and ``verify`` and the whole invocation for
the fixed ``cli_slots``.
"""

from __future__ import annotations

import random

CANONICAL = (0.5, 0.5, 0.0, 1.0)
LADDER_FORMS = ("jacobi-section", "fem-pencil", "green-kernel")
CLI_FORMS = {"jacobi-section": "jacobi", "fem-pencil": "fem", "green-kernel": "green"}

# (a, d, beta1, beta2) and orders of the alternating ladder: the canonical
# indefinite twin, a weakly graded point (q ~ -1.11) and one with growing
# masses (|d| > 1).
ALTERNATING = (
    ((0.5, -0.5, 0.0, 1.0), (20, 60, 150, 300)),
    ((0.9, -1.0, 0.0, 1.0), (60, 100)),
    ((0.2, -1.5, 0.3, 1.0), (30, 60, 120)),
)

SPECTRUM_ORDERS = (10, 20, 30, 40)
ASYMPTOTICS_ORDER = 60
MATRIX_KINDS = ("A", "B", "Binv", "ABinv", "sym", "K", "M", "green")

# Golden invocations of the CLI, compared byte for byte with tests/golden.
GOLDENS = (
    (("weight", "--a", "0.5", "--d", "0.5", "--beta1", "0", "--beta2", "1",
      "--n", "3", "--format", "csv"), "weight_n3.csv"),
    (("matrix", "--kind", "ABinv", "--n", "3"), "matrix_abinv_n3.json"),
    (("spectrum", "--n", "2", "--formulation", "fem"), "spectrum_n2.json"),
    (("spectrum", "--n", "2", "--format", "csv"), "spectrum_n2.csv"),
)

POOL_SEED = 20090
POOL_SIZE = 16
VERIFY_SEED = POOL_SEED + 1


def ref_key(kind: str, params, N: int) -> str:
    """Reference key: 'pencil' for fem/green jobs, 'section' for jacobi-section."""
    return f"{kind} {' '.join(repr(float(x)) for x in params)} {N}"


def _ref_for(params, N: int, form: str) -> str:
    return ref_key("section" if form == "jacobi-section" else "pencil", params, N)


def _draw_params(rng: random.Random, sign: float | None = None):
    """A point of the contraction domain: a in (0.05, 0.95), a*d^2 < 0.95.

    Values are rounded to three decimals so the CLI arguments read back as
    the same doubles; |d| >= 0.14 and |jump| >= 0.1 keep every order used
    here below the range guard.
    """
    while True:
        a = round(rng.uniform(0.05, 0.95), 3)
        s = rng.uniform(0.02, 0.95)
        sgn = sign if sign is not None else rng.choice((-1.0, 1.0))
        d = round(sgn * (s / a) ** 0.5, 3)
        b1 = round(rng.uniform(-1.0, 1.0), 3)
        b2 = round(rng.uniform(-1.0, 2.0), 3)
        if 0.05 <= a <= 0.95 and abs(d) >= 0.14 and a * d * d < 0.95 and abs(d * b1 + b2 - b1) >= 0.1:
            return (a, d, b1, b2)


def _draw_dyadic(rng: random.Random):
    """A point whose a and d are binary fractions (eighths)."""
    while True:
        a = rng.randint(1, 7) / 8.0
        d = rng.choice((-1.0, 1.0)) * rng.randint(1, 16) / 8.0
        b1 = rng.randint(-4, 4) / 4.0
        b2 = rng.randint(-4, 8) / 4.0
        if a * d * d < 0.95 and abs(d * b1 + b2 - b1) >= 0.1:
            return (a, d, b1, b2)


def pool():
    """Fixed parameter points of cli-mix spectrum/asymptotics jobs, half of each sign."""
    rng = random.Random(POOL_SEED)
    return [_draw_params(rng, 1.0 if i % 2 == 0 else -1.0) for i in range(POOL_SIZE)]


def _forms(params):
    return LADDER_FORMS if params[1] > 0 else LADDER_FORMS[1:]


def cli_slots():
    """The spectrum and asymptotics invocations of every cli-mix block: (cmd, params, N, form).

    Their cost depends on the point (an order-60 solve takes 15 to 130 ms
    across the pool), so they are fixed rather than drawn: spectrum at each
    order and asymptotics twice, each at one pool point of either sign,
    taking the points in turn and the formulations valid for the sign in
    turn.
    """
    points = pool()
    sides = ([p for p in points if p[1] > 0], [p for p in points if p[1] < 0])
    orders = [("spectrum", N) for N in SPECTRUM_ORDERS] + [("asymptotics", ASYMPTOTICS_ORDER)] * 2
    slots = []
    for i, (cmd, N) in enumerate(orders):
        for side in sides:
            forms = _forms(side[i])
            slots.append((cmd, side[i], N, forms[i % len(forms)]))
    return slots


def canonical_jobs():
    jobs = []
    for N in (20, 60, 150, 300):
        for form in LADDER_FORMS:
            name = f"{form} N={N}"
            jobs.append({
                "name": name, "cls": name, "params": CANONICAL, "N": N, "form": form,
                "fit": "estimate_c" if N >= 60 else None, "window": (12, 20),
                "ref": _ref_for(CANONICAL, N, form),
            })
    return jobs


def alternating_jobs():
    jobs = []
    for params, orders in ALTERNATING:
        for N in orders:
            for form in LADDER_FORMS[1:]:
                name = f"{form} {params} N={N}"
                jobs.append({
                    "name": name, "cls": name, "params": params, "N": N, "form": form,
                    "fit": "indefinite_report", "window": None,
                    "ref": _ref_for(params, N, form),
                })
    return jobs


def _cli_args(params, N: int):
    a, d, b1, b2 = params
    return ["--a", repr(a), "--d", repr(d), "--beta1", repr(b1), "--beta2", repr(b2), "--n", str(N)]


def verify_points():
    """The fixed verify invocations of every cli-mix block: (params, N).

    One dyadic point at an order in 20..40 and one general point at an order
    in 40..60, drawn once. They are the same in every block, so the share of
    blocks that fail verify does not depend on the seed.
    """
    rng = random.Random(VERIFY_SEED)
    points = (_draw_dyadic(rng), _draw_params(rng))
    return list(zip(points, (rng.randint(20, 40), rng.randint(40, 60))))


def cli_block(rng: random.Random):
    """One seeded cli-mix block of 30 jobs, in seeded order.

    What sets a job's cost (subcommand, order, sign of d) is stratified so
    every block has the same mix; the parameters of weight and matrix, the
    output formats and the order of the jobs are drawn. Per block: the 4
    goldens; weight at N = 10, 20, 30, 40; one matrix of each kind; the 12
    cli_slots; the two verify_points.
    """
    jobs = [{"argv": list(argv), "cls": "golden", "check": "golden", "golden": name}
            for argv, name in GOLDENS]
    for N in SPECTRUM_ORDERS:
        params, fmt = _draw_params(rng), rng.choice(("json", "csv"))
        jobs.append({"argv": ["weight", *_cli_args(params, N), "--format", fmt], "cls": "weight",
                     "check": "weight", "params": params, "N": N, "format": fmt})
    for kind in MATRIX_KINDS:
        params = _draw_params(rng, 1.0 if kind == "sym" else None)
        N, fmt = rng.randint(1, 30), rng.choice(("json", "csv"))
        jobs.append({"argv": ["matrix", *_cli_args(params, N), "--kind", kind, "--format", fmt],
                     "cls": "matrix", "check": "matrix", "params": params, "N": N, "kind": kind,
                     "format": fmt})
    for cmd, params, N, form in cli_slots():
        fmt = rng.choice(("json", "csv"))
        argv = [cmd, *_cli_args(params, N), "--formulation", CLI_FORMS[form]]
        jobs.append({"argv": [*argv, "--format", fmt], "cls": " ".join(argv),
                     "check": cmd, "params": params, "N": N, "form": form, "format": fmt,
                     "ref": _ref_for(params, N, form)})
    for params, N in verify_points():
        jobs.append({"argv": ["verify", *_cli_args(params, N)], "cls": f"verify N={N}",
                     "check": "verify", "params": params, "N": N})
    rng.shuffle(jobs)
    return jobs


def needed_references():
    """Every (kind, params, N) whose reference eigenvalues some job compares against."""
    out = set()
    for job in canonical_jobs() + alternating_jobs():
        out.add((("section" if job["form"] == "jacobi-section" else "pencil"), job["params"], job["N"]))
    for _, params, N, form in cli_slots():
        out.add(("section" if form == "jacobi-section" else "pencil", params, N))
    return sorted(out, key=lambda t: (t[2], t[0], t[1]))


def block(workload: str, rng: random.Random):
    """One pass of the workload: both ladders in seeded order, or one cli-mix block."""
    if workload == "cli-mix":
        return cli_block(rng)
    jobs = canonical_jobs() + alternating_jobs()
    rng.shuffle(jobs)
    return jobs


WORKLOADS = ("ladders", "cli-mix")
