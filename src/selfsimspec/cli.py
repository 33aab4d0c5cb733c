"""Command line: weights, matrix sections, spectra, asymptotics, verification.

Output is machine readable and byte deterministic: JSON (indent 2, keys in
a fixed order, floats in shortest round-trip form) or CSV (header row,
"." decimal separator), written as it is formatted; verify prints one
PASS/FAIL line per check. Exit codes: 0 success, 1 verification failure,
2 validation error or an unwritable --out path, 3 numerical failure.

Only the commands that solve import spectral, and through it eigensolve:
weight and matrix load no solver.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from .errors import NumericalError, OutOfRange, ValidationError
from .operators import SECTION_KINDS, section
from .selfsim import make_params, step_function, weight_truncation

_FORMULATION = {"jacobi": "jacobi-section", "fem": "fem-pencil", "green": "green-kernel"}


def _cells(values) -> list[str]:
    return [repr(x) for x in values.tolist()]


def _indexed(k1: int, *columns):
    """CSV rows k1, k1 + 1, ...: the index, then one cell from each column."""
    return zip(map(str, range(k1, k1 + len(columns[0]))), *columns)


def _chunks(record, fmt: str):
    """The text of a (JSON payload, CSV header, CSV rows) record, piece by piece."""
    payload, header, rows = record
    if fmt == "json":
        yield from json.JSONEncoder(indent=2, default=np.ndarray.tolist).iterencode(payload)
        yield "\n"
        return
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(row) + "\n"


def _params_payload(p) -> dict:
    return {"a": p.a, "d": p.d, "beta1": p.beta1, "beta2": p.beta2, "q": p.q, "r": p.r}


def _parse_window(text: str | None) -> tuple[int, int] | None:
    if text is None:
        return None
    parts = text.split(":")
    if len(parts) != 2:
        raise OutOfRange(f"window must be k1:k2, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise OutOfRange(f"window must be k1:k2 with integer bounds, got {text!r}") from None


# Each command computes its whole result before it returns the record, so every
# error is raised before the first byte is written.


def _cmd_weight(args, params):
    w = weight_truncation(params, args.n)
    f = step_function(params, args.n)
    payload = {"params": _params_payload(params), "N": args.n, "positions": w.positions,
               "masses": w.masses, "step_values": f.values}
    return payload, ["k", "position", "mass"], _indexed(1, _cells(w.positions), _cells(w.masses))


def _cmd_matrix(args, params):
    data = section(params, args.n, args.kind)
    # row views, so the text of one row at a time exists besides the array
    payload = {"params": _params_payload(params), "kind": args.kind, "N": args.n,
               "rows": list(data)}
    return payload, [f"c{j + 1}" for j in range(data.shape[1])], map(_cells, data)


def _cmd_spectrum(args, params):
    from .spectral import compute_spectrum

    spec = compute_spectrum(params, args.n, _FORMULATION[args.formulation], count=args.count)
    payload = {"params": _params_payload(params), "N": spec.order,
               "formulation": spec.formulation, "eigenvalues": spec.values}
    return payload, ["k", "lambda"], _indexed(1, _cells(spec.values))


def _cmd_asymptotics(args, params):
    from .spectral import compute_spectrum, estimate_c, indefinite_report

    window = _parse_window(args.window)
    spec = compute_spectrum(params, args.n, _FORMULATION[args.formulation])
    rep = (estimate_c if params.d > 0 else indefinite_report)(spec, window)
    k1, k2 = rep.window
    payload = {"params": _params_payload(params), "N": spec.order,
               "formulation": spec.formulation, "window": list(rep.window), "q": rep.q_used}
    if params.d > 0:
        payload |= {"c_estimate": rep.c_estimate, "per_k_c": rep.per_k_c, "ratios": rep.ratios,
                    "max_rel_dispersion": rep.max_rel_dispersion}
        ratios = ["", *_cells(rep.ratios)]  # no ratio before the first window index
        rows = _indexed(k1, _cells(spec.values[k1 - 1 : k2]), _cells(rep.per_k_c), ratios)
        return payload, ["k", "lambda", "c_k", "ratio"], rows
    columns = ("positive", "negative", "c_plus", "c_minus", "cross_ratios")
    payload |= {key: getattr(rep, key) for key in (*columns, "ratios_positive", "ratios_negative")}
    rows = _indexed(k1, *(_cells(getattr(rep, key)) for key in columns))
    return payload, ["pair", "positive", "negative", "c_plus", "c_minus", "cross"], rows


_COMMANDS = {"weight": _cmd_weight, "matrix": _cmd_matrix, "spectrum": _cmd_spectrum,
             "asymptotics": _cmd_asymptotics}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfsimspec",
        description="Self-similar step functions, their discrete weights and spectra.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--a", type=float, default=0.5, help="similarity ratio, 0 < a < 1")
    common.add_argument("--d", type=float, default=0.5, help="plateau scaling, a*d**2 < 1")
    common.add_argument("--beta1", type=float, default=0.0, help="affine offset coefficient")
    common.add_argument("--beta2", type=float, default=1.0, help="affine shift coefficient")
    common.add_argument("--n", type=int, default=20, help="truncation order N")
    formatted = argparse.ArgumentParser(add_help=False, parents=[common])
    formatted.add_argument("--format", choices=("json", "csv"), default="json")
    for p in (common, formatted):  # verify writes plain text lines: no --format
        p.add_argument("--out", default=None, help="output path (default: stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("weight", parents=[formatted], help="positions, masses and plateau values")
    p_matrix = sub.add_parser("matrix", parents=[formatted], help="N x N matrix section")
    p_matrix.add_argument("--kind", choices=SECTION_KINDS, default="ABinv")
    solved = argparse.ArgumentParser(add_help=False, parents=[formatted])
    solved.add_argument("--formulation", choices=tuple(_FORMULATION), default="fem")
    p_spectrum = sub.add_parser("spectrum", parents=[solved], help="eigenvalues, ascending")
    p_spectrum.add_argument("--count", type=int, default=None)
    p_asym = sub.add_parser("asymptotics", parents=[solved], help="geometric-law fit")
    p_asym.add_argument("--window", default=None, help="index window k1:k2 (1-based)")
    sub.add_parser("verify", parents=[common], help="run the invariant suite")
    # argparse before Python 3.13 reads a value such as -1e-3 as an option
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(r"^-\.?\d")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    code = 0
    try:
        params = make_params(args.a, args.d, args.beta1, args.beta2)
        if args.command == "verify":
            from .spectral import verify_suite

            results = verify_suite(params, N=args.n)
            chunks = [
                f"{'PASS' if ok else 'FAIL'} {name}: {detail}\n" for name, ok, detail in results
            ]
            code = 0 if all(ok for _, ok, _ in results) else 1
        else:
            chunks = _chunks(_COMMANDS[args.command](args, params), args.format)
    except ValidationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            print(f"cannot write --out: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.writelines(chunks)
    return code


if __name__ == "__main__":
    sys.exit(main())
