"""Command line front end.

Subcommands: validate, cohomology, weights, omega-set, scan, novikov,
example. Exit codes: 0 success, 1 validation or parse failure (a usage
error included), 2 computation-domain failure (non-closed form, not
solvable, not rationally triangularizable), 3 I/O failure. All output is
deterministic; --json output is byte-stable across runs on the same input.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .algebra import LieAlgebra, classify, is_unimodular
from .catalog import CATALOG_NAMES, load_example
from .cohomology import betti_numbers, cohomology
from .errors import ComputationDomainError, JacobiError, StructureError
from .reports import novikov_report, scan_line
from .serialization import (
    algebra_to_dict,
    format_form,
    format_rational,
    form_to_terms,
    one_form_to_list,
    parse_algebra,
    parse_one_form,
)
from .weights import adapted_basis, omega_set, weight_sum_check


def _load_algebra(path: str) -> LieAlgebra:
    # parse_algebra decodes the bytes, and refuses what is no UTF-8, -16 or -32
    with open(path, "rb") as fh:
        return parse_algebra(fh.read())


def _emit_json(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _cmd_validate(args) -> int:
    _load_algebra(args.file)
    print("OK")
    return 0


def _cmd_cohomology(args) -> int:
    g = _load_algebra(args.file)
    omega = parse_one_form(args.omega, g.dim)
    # representatives cost far more than Betti numbers; build them only on request
    if args.reps:
        result = cohomology(g, omega)
        betti, reps = result.betti, result.representatives
    else:
        betti, reps = betti_numbers(g, omega), ()
    if args.json:
        doc = {
            "omega": one_form_to_list(omega),
            "betti": list(betti),
        }
        if args.reps:
            doc["representatives"] = [
                [form_to_terms(r) for r in degree_reps]
                for degree_reps in reps
            ]
        _emit_json(doc)
    else:
        lines = [f"omega = ({args.omega})", "betti = [" + ", ".join(str(b) for b in betti) + "]"]
        lines += [f"H^{p} representatives: " + ", ".join(format_form(r) for r in degree_reps)
                  for p, degree_reps in enumerate(reps) if degree_reps]
        print("\n".join(lines))
    return 0


def _cmd_weights(args) -> int:
    g = _load_algebra(args.file)
    data = adapted_basis(g)
    if args.json:
        _emit_json({
            "k": data.k,
            "weights": [one_form_to_list(w) for w in data.weights],
            "adapted_change": [[format_rational(data.adapted_change[i, j])
                                for j in range(g.dim)] for i in range(g.dim)],
            "weight_sum_zero": weight_sum_check(data),
            "unimodular": is_unimodular(g),
        })
    else:
        print(f"closed block size k = {data.k}")
        for i, w in enumerate(data.weights, start=1):
            print(f"alpha_{i} = ({','.join(one_form_to_list(w))})")
        print(f"weight sum zero: {weight_sum_check(data)}")
    return 0


def _cmd_omega_set(args) -> int:
    g = _load_algebra(args.file)
    data = adapted_basis(g)
    elements = omega_set(data).sorted_elements()
    if args.json:
        _emit_json({"omega_set": [one_form_to_list(w) for w in elements]})
    else:
        for w in elements:
            print(f"({','.join(one_form_to_list(w))})")
    return 0


def _cmd_scan(args) -> int:
    g = _load_algebra(args.file)
    direction = parse_one_form(args.direction, g.dim)
    table = scan_line(g, direction)
    if args.json:
        _emit_json({
            "direction": one_form_to_list(direction),
            "critical": [format_rational(l) for l in table.critical_lambdas],
            "rows": [{"lambda": format_rational(r.lam), "betti": list(r.betti)}
                     for r in table.rows],
            "generic": {"lambda": format_rational(table.generic.lam),
                        "betti": list(table.generic.betti)},
        })
    else:
        for row in table.rows:
            print(f"lambda = {format_rational(row.lam):>8}  betti = "
                  + str(list(row.betti)))
        print(f"generic = {format_rational(table.generic.lam):>8}  betti = "
              + str(list(table.generic.betti)))
    return 0


def _cmd_novikov(args) -> int:
    g = _load_algebra(args.file)
    omega = parse_one_form(args.omega, g.dim)
    report = novikov_report(g, omega, args.lam,
                            [part.strip() for part in args.morse.split(",")])
    if args.json:
        _emit_json({
            "omega": one_form_to_list(omega),
            "lambda": format_rational(report.lam),
            "betti": list(report.betti),
            "morse": list(report.morse_counts),
            "holds": list(report.holds),
            "all_hold": report.all_hold,
            "lambda_critical": report.lambda_critical,
        })
    else:
        for p, (m, b, ok) in enumerate(zip(report.morse_counts, report.betti,
                                           report.holds)):
            status = "holds" if ok else "VIOLATED"
            print(f"degree {p}: m={m} b={b}  {status}")
        print("all hold" if report.all_hold else
              f"violated at degrees {list(report.violations)}")
        if report.lambda_critical:
            print("note: lambda lies in the critical set; the inequality is "
                  "only asserted for sufficiently large lambda")
    return 0


def _cmd_example(args) -> int:
    params = {}
    for item in args.param or []:
        if "=" not in item:
            raise StructureError(f"--param expects name=value, got {item!r}")
        key, value = item.split("=", 1)
        params[key.strip()] = value.strip()
    entry = load_example(args.name, **params)
    doc = algebra_to_dict(entry.algebra)
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.emit}")
    else:
        lines = [f"{entry.name} (dim {entry.algebra.dim}, "
                 f"{classify(entry.algebra).value})", entry.provenance]
        for item in doc["brackets"]:
            terms = " + ".join(f"{c}*e{m}" for m, c in item["coeffs"].items())
            lines.append(f"[e{item['i']},e{item['j']}] = {terms}")
        for omega, betti in entry.expected:
            lines.append(f"expected betti at ({','.join(one_form_to_list(omega))}): "
                         + str(list(betti)))
        print("\n".join(lines))
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with 1, the parse-failure code, instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="liecohom",
        description="Exact cohomology of Lie algebras twisted by a closed one-form",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a structure-constant file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("cohomology", help="Betti numbers of the twisted complex")
    p.add_argument("file")
    p.add_argument("--omega", required=True,
                   help="comma-separated rationals in the dual basis")
    p.add_argument("--reps", action="store_true",
                   help="include representative cocycles")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("weights", help="adapted basis and weight one-forms")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("omega-set", help="finite exceptional set of weight sums")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_omega_set)

    p = sub.add_parser("scan", help="Betti numbers along a line of one-forms")
    p.add_argument("file")
    p.add_argument("--direction", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("novikov", help="compare Morse counts with Betti numbers")
    p.add_argument("file")
    p.add_argument("--omega", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--morse", required=True,
                   help="comma-separated counts m_0..m_n")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_novikov)

    p = sub.add_parser("example", help="show or export a built-in algebra")
    p.add_argument("name", choices=CATALOG_NAMES)
    p.add_argument("--param", action="append",
                   help="k=<rational> for sol3, n=<int> for abelian")
    p.add_argument("--emit", help="write the algebra JSON to this file")
    p.set_defaults(func=_cmd_example)

    return parser


# Options whose value may be negative. argparse takes "-1,0,0" after a space
# for an unknown option and rejects the command line, so such a value is
# attached as "--omega=-1,0,0" before parsing.
_SIGNED_OPTIONS = ("--omega", "--direction", "--lambda")


def _attach_signed_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _SIGNED_OPTIONS and tok[:1] == "-" and tok[1:2].isdigit():
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_signed_values(
        sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except (StructureError, JacobiError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ComputationDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # str() of an int past sys.get_int_max_str_digits(); any other is a fault
        if "int_max_str_digits" not in str(exc):
            raise
        hint = "; write the algebra with --emit instead" if args.command == "example" else ""
        print(f"error: {args.command}: the output has a value too long to print as a "
              f"decimal{hint}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
