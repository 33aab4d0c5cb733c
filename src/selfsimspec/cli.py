"""Command line: weights, matrix sections, spectra, asymptotics, verification.

Output is machine readable and byte deterministic: JSON (indent 2, keys in
a fixed order, floats in shortest round-trip form) or CSV (header row,
"." decimal separator). Exit codes: 0 success, 1 verification failure,
2 validation error or an unwritable --out path, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .errors import NumericalError, OutOfRange, ValidationError
from .operators import SECTION_KINDS, section
from .selfsim import make_params, step_function, weight_truncation
from .spectral import compute_spectrum, estimate_c, indefinite_report, verify_suite

_FORMULATION = {"jacobi": "jacobi-section", "fem": "fem-pencil", "green": "green-kernel"}


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(header)] + [",".join(r) for r in rows]
    return "\n".join(lines) + "\n"


def _cell(x) -> str:
    return repr(float(x))


def _params_payload(p) -> dict:
    return {
        "a": p.a,
        "d": p.d,
        "beta1": p.beta1,
        "beta2": p.beta2,
        "q": p.q,
        "r": p.r,
    }


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


def _cmd_weight(args, params) -> str:
    w = weight_truncation(params, args.n)
    if args.format == "csv":
        rows = [
            [str(k + 1), _cell(w.positions[k]), _cell(w.masses[k])] for k in range(w.order)
        ]
        return _csv_text(["k", "position", "mass"], rows)
    f = step_function(params, args.n)
    return _json_text(
        {
            "params": _params_payload(params),
            "N": args.n,
            "positions": [float(x) for x in w.positions],
            "masses": [float(x) for x in w.masses],
            "step_values": [float(x) for x in f.values],
        }
    )


def _cmd_matrix(args, params) -> str:
    data = section(params, args.n, args.kind)
    if args.format == "csv":
        header = [f"c{j + 1}" for j in range(data.shape[1])]
        rows = [[_cell(x) for x in row] for row in data]
        return _csv_text(header, rows)
    return _json_text(
        {
            "params": _params_payload(params),
            "kind": args.kind,
            "N": args.n,
            "rows": [[float(x) for x in row] for row in data],
        }
    )


def _cmd_spectrum(args, params) -> str:
    spec = compute_spectrum(params, args.n, _FORMULATION[args.formulation], count=args.count)
    if args.format == "csv":
        rows = [[str(k + 1), _cell(v)] for k, v in enumerate(spec.values)]
        return _csv_text(["k", "lambda"], rows)
    return _json_text(
        {
            "params": _params_payload(params),
            "N": spec.order,
            "formulation": spec.formulation,
            "eigenvalues": [float(v) for v in spec.values],
        }
    )


def _cmd_asymptotics(args, params) -> str:
    window = _parse_window(args.window)
    spec = compute_spectrum(params, args.n, _FORMULATION[args.formulation])
    if params.d > 0:
        rep = estimate_c(spec, window)
        if args.format == "csv":
            k1, k2 = rep.window
            rows = []
            for i, k in enumerate(range(k1, k2 + 1)):
                ratio = _cell(rep.ratios[i - 1]) if i > 0 else ""
                rows.append([str(k), _cell(spec.values[k - 1]), _cell(rep.per_k_c[i]), ratio])
            return _csv_text(["k", "lambda", "c_k", "ratio"], rows)
        return _json_text(
            {
                "params": _params_payload(params),
                "N": spec.order,
                "formulation": spec.formulation,
                "window": list(rep.window),
                "q": float(rep.q_used),
                "c_estimate": float(rep.c_estimate),
                "per_k_c": [float(x) for x in rep.per_k_c],
                "ratios": [float(x) for x in rep.ratios],
                "max_rel_dispersion": float(rep.max_rel_dispersion),
            }
        )
    rep = indefinite_report(spec, window)
    if args.format == "csv":
        k1, k2 = rep.window
        rows = []
        for i, k in enumerate(range(k1, k2 + 1)):
            rows.append(
                [
                    str(k),
                    _cell(rep.positive[i]),
                    _cell(rep.negative[i]),
                    _cell(rep.c_plus[i]),
                    _cell(rep.c_minus[i]),
                    _cell(rep.cross_ratios[i]),
                ]
            )
        return _csv_text(["pair", "positive", "negative", "c_plus", "c_minus", "cross"], rows)
    return _json_text(
        {
            "params": _params_payload(params),
            "N": spec.order,
            "formulation": spec.formulation,
            "window": list(rep.window),
            "q": float(rep.q_used),
            "positive": [float(x) for x in rep.positive],
            "negative": [float(x) for x in rep.negative],
            "c_plus": [float(x) for x in rep.c_plus],
            "c_minus": [float(x) for x in rep.c_minus],
            "cross_ratios": [float(x) for x in rep.cross_ratios],
            "ratios_positive": [float(x) for x in rep.ratios_positive],
            "ratios_negative": [float(x) for x in rep.ratios_negative],
        }
    )


def _cmd_verify(args, params) -> tuple[str, int]:
    results = verify_suite(params, N=args.n)
    lines = [
        f"{'PASS' if ok else 'FAIL'} {name}: {detail}" for name, ok, detail in results
    ]
    code = 0 if all(ok for _, ok, _ in results) else 1
    return "\n".join(lines) + "\n", code


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
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None, help="output path (default: stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("weight", parents=[common], help="positions, masses and plateau values")
    p_matrix = sub.add_parser("matrix", parents=[common], help="N x N matrix section")
    p_matrix.add_argument("--kind", choices=SECTION_KINDS, default="ABinv")
    solved = argparse.ArgumentParser(add_help=False)
    solved.add_argument("--formulation", choices=tuple(_FORMULATION), default="fem")
    p_spectrum = sub.add_parser("spectrum", parents=[common, solved], help="eigenvalues, ascending")
    p_spectrum.add_argument("--count", type=int, default=None)
    p_asym = sub.add_parser("asymptotics", parents=[common, solved], help="geometric-law fit")
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
        if args.command == "weight":
            text = _cmd_weight(args, params)
        elif args.command == "matrix":
            text = _cmd_matrix(args, params)
        elif args.command == "spectrum":
            text = _cmd_spectrum(args, params)
        elif args.command == "asymptotics":
            text = _cmd_asymptotics(args, params)
        else:
            text, code = _cmd_verify(args, params)
    except ValidationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"cannot write --out: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
