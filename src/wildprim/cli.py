"""Command-line front end.

    wildprim enumerate --p 2 --f 1 --char 0 --n 2 [--format json|csv] [--out F]
    wildprim reps --p 2 --f 1 --char 0 --n 2
    wildprim verify --suite quick|full [--out F]

Exit codes: 0 success, 1 verification failure, usage error or write error,
2 invariant violation, 3 precision exhaustion.  enumerate --seed is recorded
in the catalog metadata and changes no computation.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from .enumerator import enumerate_primitive, list_representations
from .errors import InvariantViolation, PrecisionExhausted
from .tower import BaseField


def _base_from_args(args) -> BaseField:
    char = 0 if args.char == "0" else args.p
    return BaseField(args.p, args.f, char)


def _add_base_flags(sub):
    sub.add_argument("--p", type=int, required=True, help="residue characteristic")
    sub.add_argument("--f", type=int, required=True, help="base residue degree")
    sub.add_argument("--char", choices=["0", "p"], required=True,
                     help="base field characteristic")
    sub.add_argument("--n", type=int, required=True, help="degree parameter (p^n)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wildprim", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    enum = subs.add_parser("enumerate",
                           help="enumerate primitive degree-p^n extensions")
    _add_base_flags(enum)
    enum.add_argument("--seed", type=int, default=0,
                      help="recorded in the catalog metadata; changes no output")
    enum.add_argument("--level-bound", type=int, default=None,
                      help="pole-order bound (required in char p)")
    enum.add_argument("--precision", type=int, default=None,
                      help="working uniformizer-adic precision")
    enum.add_argument("--format", choices=["json", "csv"], default="json")
    enum.add_argument("--out", default=None, help="output path (default stdout)")

    reps = subs.add_parser("reps", help="list simple representation classes")
    _add_base_flags(reps)

    ver = subs.add_parser("verify", help="run the verification suite")
    ver.add_argument("--suite", choices=["quick", "full"], default="quick")
    ver.add_argument("--seed", type=int, default=0,
                     help="seed of the randomized chop in the full suite's oracle")
    ver.add_argument("--out", default=None, help="write a JSON report here")
    return parser


def cmd_enumerate(args) -> int:
    from . import serialize
    base = _base_from_args(args)
    result = enumerate_primitive(
        base, args.n, level_bound=args.level_bound, precision=args.precision,
        seed=args.seed)
    if args.format == "json":
        payload = serialize.to_json_bytes(result)
    else:
        payload = serialize.to_csv_text(result).encode()
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
    return 0


def cmd_reps(args) -> int:
    base = _base_from_args(args)
    classes = list_representations(base, args.n)
    print(f"# simple classes of dimension {args.n}: {len(classes)}")
    print("identifier  dim  end_degree  inertia_exponent  mult_in_regular")
    for c in classes:
        print(f"{c.identifier:<10}  {c.dim:<3}  {c.end_degree:<10}  "
              f"{c.inertia_exponent:<16}  {c.multiplicity_in_regular}")
    return 0


# towers exercised by the verification suites: (base, n, level bound)
QUICK_TOWERS = [(BaseField(2, 1, 0), 1, None), (BaseField(2, 1, 0), 2, None),
                (BaseField(2, 1, 2), 1, 5)]
FULL_TOWERS = QUICK_TOWERS + [
    (BaseField(2, 1, 0), 3, None), (BaseField(2, 2, 0), 2, None),
    (BaseField(3, 1, 0), 1, None), (BaseField(3, 1, 0), 2, None),
    (BaseField(2, 1, 2), 2, 5), (BaseField(3, 1, 3), 1, 4),
    (BaseField(2, 2, 2), 1, 3)]


def _verify_suite(suite: str, seed: int):
    from .verify import (VerificationReport, cross_checks, mass_check,
                         quadratic_catalog_check, simple_classes_oracle_check,
                         structure_checks)
    report = VerificationReport()
    report.extend(quadratic_catalog_check(seed))
    report.add("mass[Q_2]", mass_check(BaseField(2, 1, 0), seed=seed), 2)
    towers = FULL_TOWERS if suite == "full" else QUICK_TOWERS
    results = {(base, n): enumerate_primitive(base, n, level_bound=bound, seed=seed)
               for base, n, bound in towers}
    if suite == "full":
        report.add("mass[Q_4]", mass_check(BaseField(2, 2, 0), seed=seed), 2)
        report.add("mass[Q_3]", mass_check(BaseField(3, 1, 0), seed=seed), 3)
        report.add("count[Q_2,n=3]", len(results[BaseField(2, 1, 0), 3].records), 16)
        res4 = results[BaseField(2, 2, 0), 2]
        report.add("no-S4[Q_4,n=2]", sorted(set(r.closure_order for r in res4.records)), [12])
    for result in results.values():
        report.extend(structure_checks(result))
        report.extend(cross_checks(result))
        if suite == "full":
            report.extend(simple_classes_oracle_check(result.tower, seed))
    return report


def cmd_verify(args) -> int:
    import json
    report = _verify_suite(args.suite, args.seed)
    print(report.render())
    summary = "all checks passed" if report.passed else "FAILURES present"
    print(f"# {summary} ({len(report.checks)} checks)")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        # a missing or unwritable --out directory fails before the run, not
        # after it; the file itself is opened only for the final write
        if getattr(args, "out", None):
            tempfile.TemporaryFile(dir=os.path.dirname(args.out) or os.curdir).close()
        if args.command == "enumerate":
            return cmd_enumerate(args)
        if args.command == "reps":
            return cmd_reps(args)
        if args.command == "verify":
            return cmd_verify(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except PrecisionExhausted as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
