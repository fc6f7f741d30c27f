"""Command-line interface.

One subcommand per artifact: decompose (closed forms and both
parametric engines), verify, scan (a prime range), sieve (progression
classes), stats (density report) and table (published-row audit with
errata).  Output is deterministic for fixed argv: JSON lines when
stdout is not a TTY, an aligned table when it is, CSV on request.
Every subcommand builds plain records and hands them to _emit, the one
place that knows the three formats.  json and csv are written record by
record, so a scan streams its solutions; only the table waits for the
last record, because it needs the column widths.  numpy is imported by
sieve and stats alone, when they run.

Exit codes: 0 success; 1 no solution found within bounds (or a failed
verify); 2 usage error; 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections.abc import Iterable

from .arith import MR_DETERMINISTIC_BOUND, is_prime, primes_between
from .ed1 import default_gamma_max, ed1_reconstruct, ed1_search
from .ed2 import default_delta_max, ed2_reconstruct, ed2_search
from .errors import DeltaFilterFailed, InvariantViolation, SerpError, WrongResidue
from .explicit import decompose_explicit, repair_distinct
from .solution import Solution, SolutionClass, classify_solution, make_solution, verify_solution
from .tables import ROW_COLUMNS, TABLE_IDS, TABLES, audit_table, row_from_bc

SOLUTION_COLUMNS = ("P", "A", "B", "C", "class", "strict")
SOLUTION_CSV_COLUMNS = ("#",) + ROW_COLUMNS  # the published-table layout
CSV_FIELDS = ("delta", "r", "modulus", "residue", "primes_found", "first_prime", "exceptional")
ERRATA_CSV_COLUMNS = (
    ("#", "status", "xy_lemma_ok", "mismatched_columns")
    + tuple(f"printed_{c}" for c in ROW_COLUMNS)
    + tuple(f"recomputed_{c}" for c in ROW_COLUMNS)
)
ERRATA_TABLE_COLUMNS = ("#", "status", "xy_lemma_ok", "mismatched", "recomputed")

_USAGE_EXIT = 2
_INVARIANT_EXIT = 3


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (dict, list)):
        return json.dumps(value)
    return str(value)


def _emit(records: Iterable[dict], columns, fmt: str, out) -> None:
    """The one serialiser of every subcommand.

    json writes each whole record as a compact, key-sorted line; csv and
    table write the given columns, a missing key or None as an empty
    cell and a nested value as its JSON text.  json and csv write each
    record as it comes; the table reads them all first, for the widths.
    """
    if fmt == "json":
        for record in records:
            out.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
        return
    rows = ([_cell(r.get(c)) for c in columns] for r in records)
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        return
    cells = list(rows)
    widths = [max([len(c)] + [len(row[i]) for row in cells]) for i, c in enumerate(columns)]
    for row in [list(columns)] + cells:
        out.write("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() + "\n")


def _pick_format(args) -> str:
    if args.format:
        return args.format
    return "table" if sys.stdout.isatty() else "json"


def _solution_table_row(idx: int, sol: Solution) -> dict:
    """Solution rendered in the published-table column layout; columns
    that only exist for two-multiple rows stay empty otherwise."""
    row = {"#": idx, "A": sol.A, "B": sol.B, "C": sol.C}
    if sol.B % sol.P == 0 and sol.C % sol.P == 0:
        full = row_from_bc(sol.P, sol.B // sol.P, sol.C // sol.P)
        if full is not None and full["A"] == sol.A:
            row.update(full)
    return row


def _emit_solutions(solutions: Iterable[Solution], fmt: str, out) -> None:
    """Write solutions as they come, each verified just before (no
    unchecked output).  Generators throughout, so json and csv output
    holds no solution past its own line."""

    def checked():
        for sol in solutions:
            if not verify_solution(sol.P, sol.A, sol.B, sol.C):
                raise InvariantViolation(f"unverified solution reached output: {sol}")
            yield sol

    if fmt == "csv":
        rows = (_solution_table_row(i, s) for i, s in enumerate(checked(), start=1))
        _emit(rows, SOLUTION_CSV_COLUMNS, fmt, out)
    else:
        _emit((s.as_dict() for s in checked()), SOLUTION_COLUMNS, fmt, out)


def _bounds_for(P: int, args) -> tuple[int, int]:
    """(gamma_max, delta_max) for P: each flag, else P's default."""
    return (default_gamma_max(P) if args.gamma_max is None else args.gamma_max,
            default_delta_max(P) if args.delta_max is None else args.delta_max)


def _decompose(P: int, method: str, gamma_max: int, delta_max: int,
               want_all: bool, weak: bool) -> list[Solution]:
    residue = P % 5
    if residue == 0:
        raise SerpError(f"P = {P} is out of scope (5 divides P)")
    if P == 2:
        raise SerpError("P = 2 is out of scope (no three distinct unit fractions sum to 5/2)")
    if method == "explicit" or (method == "auto" and residue != 1):
        sol = decompose_explicit(P)  # raises WrongResidue when residue is 1
        if not weak:
            sol = repair_distinct(sol)
        return [sol]
    if method == "ed1" and residue != 1:  # an empty gamma range never reaches ed1_search
        raise WrongResidue(f"ED1 search needs P = 1 (mod 5), got P = {P}")
    # ED2 over delta, then ED1 over gamma = 4 (mod 5), as (search,
    # reconstruct, parameter steps).  Built per call, not at module level,
    # so a wrapper later bound to a search's module name is the one called.
    engines = [
        (search, reconstruct, steps)
        for name, search, reconstruct, steps in (
            ("ed2", ed2_search, ed2_reconstruct, range(1, delta_max + 1)),
            ("ed1", ed1_search, ed1_reconstruct, range(4, gamma_max + 1, 5)),
        )
        if method in ("auto", name)
    ]
    if want_all:
        found = {reconstruct(w) for search, reconstruct, steps in engines
                 for w in search(P, steps.stop - 1)}
        return sorted(found, key=Solution.sort_key)
    for search, reconstruct, steps in engines:
        for t in steps:  # raise the parameter until the first hit
            found = search(P, t, t)
            if found:
                return [reconstruct(found[0])]
    return []


def cmd_decompose(args, out) -> int:
    P = args.P
    if not is_prime(P):
        raise SerpError(f"P = {P} is not prime; decompose needs a prime")
    gamma_max, delta_max = _bounds_for(P, args)
    solutions = _decompose(P, args.method, gamma_max, delta_max, args.all, args.weak)
    if not solutions:
        print(
            f"no solution for P = {P} within gamma <= {gamma_max}, "
            f"delta <= {delta_max}; raise --gamma-max/--delta-max",
            file=sys.stderr,
        )
        return 1
    _emit_solutions(solutions, _pick_format(args), out)
    return 0


def cmd_verify(args, out) -> int:
    if not is_prime(args.P):
        raise SerpError(f"P = {args.P} is not prime")
    ok = verify_solution(args.P, args.A, args.B, args.C)
    record = {"P": args.P, "A": args.A, "B": args.B, "C": args.C, "valid": ok}
    if ok and args.P not in (2, 3, 5):
        # provisional label; classification reads only P and the triple
        sol = make_solution(args.P, args.A, args.B, args.C, SolutionClass.ED1)
        mult = classify_solution(sol)
        record["multiplicity"] = {"count": mult.count, "positions": list(mult.positions)}
    _emit([record], list(record), _pick_format(args), out)
    return 0 if ok else 1


def cmd_scan(args, out) -> int:
    if args.to < getattr(args, "from"):
        raise SerpError("--to must be >= --from")
    if args.to >= MR_DETERMINISTIC_BOUND:
        raise SerpError(
            f"--to must be below {MR_DETERMINISTIC_BOUND}, "
            "the end of the deterministic primality range"
        )
    misses = []

    def solutions():
        for P in primes_between(getattr(args, "from"), args.to):
            if P in (2, 5):  # out of scope, see _decompose
                continue
            residue = P % 5
            if args.method == "explicit" and residue == 1:
                continue
            if args.method == "ed1" and residue != 1:
                continue
            gamma_max, delta_max = _bounds_for(P, args)
            found = _decompose(P, args.method, gamma_max, delta_max, False, args.weak)
            if found:
                yield from found
            else:
                misses.append(P)

    _emit_solutions(solutions(), _pick_format(args), out)
    if misses:
        print(f"no solution within bounds for: {misses}", file=sys.stderr)
        return 1
    return 0


def cmd_sieve(args, out) -> int:
    from .sieve import class_scans, reconstruct_from_class  # numpy loads here

    _, _, classes = class_scans(args.xmax, args.rmax, args.delta)
    rows = []
    for c in classes:
        row = c.as_dict()
        row["first_solution"] = None
        if c.first_prime is not None:
            try:
                row["first_solution"] = reconstruct_from_class(c.first_prime, c.delta, c.r).as_dict()
            except DeltaFilterFailed:
                pass
        rows.append(row)
    _emit(rows, CSV_FIELDS, _pick_format(args), out)
    return 0


def cmd_stats(args, out) -> int:
    from .sieve import average_local_params  # numpy loads here

    report = average_local_params(args.x, args.rmax, args.delta)
    fmt = _pick_format(args)
    if fmt == "table":
        avg = "undefined (no primes)" if report.average is None else str(report.average)
        out.write(f"x = {report.x}  R = {report.R}  delta = {report.delta}\n")
        out.write(f"primes = 1 (mod 5) up to x: {report.prime_count}\n")
        out.write(f"mean N(P; R, delta): {avg}\n")
        out.write(f"sum 1/phi(5r): {report.phi_sum}\n")
        out.write(f"exceptional r: {list(report.exceptional)}\n")
    if fmt == "json":
        records = [report.as_dict()]
    else:  # one row per class; n_of_p is never built
        records = [c.as_dict() for c in report.classes]
    _emit(records, CSV_FIELDS, fmt, out)
    return 0


def _errata_row(e) -> dict:
    """One audited row with the cells of both the csv and the table layout."""
    if e.recomputed is None:
        summary = "unrecoverable from any anchor"
    else:
        summary = ", ".join(f"{k}={e.recomputed[k]}" for k in ("b", "c", "delta", "A"))
    row = {
        "#": e.row,
        "status": e.status,
        "xy_lemma_ok": e.xy_lemma_ok,
        "mismatched_columns": ";".join(e.mismatched_columns),
        "mismatched": ";".join(e.mismatched_columns) or "-",
        "recomputed": summary,
    }
    for c in ROW_COLUMNS:
        row[f"printed_{c}"] = e.printed.get(c)
        row[f"recomputed_{c}"] = None if e.recomputed is None else e.recomputed.get(c)
    return row


def cmd_table(args, out) -> int:
    fmt = _pick_format(args)
    if not args.check:
        rows = []
        for i, printed in enumerate(TABLES[args.table_id].rows, start=1):
            row = {c: printed.get(c, "") for c in ROW_COLUMNS}
            row["#"] = i
            rows.append(row)
        _emit(rows, SOLUTION_CSV_COLUMNS, fmt, out)
        return 0
    entries = audit_table(args.table_id)
    records = [e.as_dict() if fmt == "json" else _errata_row(e) for e in entries]
    _emit(records, ERRATA_CSV_COLUMNS if fmt == "csv" else ERRATA_TABLE_COLUMNS, fmt, out)
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="serp",
        description="Construct, enumerate, verify and audit unit-fraction "
        "decompositions 5/P = 1/A + 1/B + 1/C for primes P.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format",
            choices=("json", "csv", "table"),
            help="output format (default: table on a TTY, json otherwise)",
        )

    p = sub.add_parser("decompose", help="find decompositions for one prime")
    p.add_argument("P", type=int)
    p.add_argument("--method", choices=("auto", "explicit", "ed1", "ed2"), default="auto")
    p.add_argument("--all", action="store_true", help="emit every solution within bounds")
    p.add_argument("--gamma-max", type=_positive_int, help="one-multiple search bound")
    p.add_argument("--delta-max", type=_positive_int, help="two-multiple search bound")
    p.add_argument("--weak", action="store_true", help="allow repeated denominators (skip repair)")
    add_format(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="check one triple exactly")
    for name in ("P", "A", "B", "C"):
        p.add_argument(name, type=int)
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="decompose every prime in a range")
    p.add_argument("--from", type=int, required=True)
    p.add_argument("--to", type=int, required=True)
    p.add_argument("--method", choices=("auto", "explicit", "ed1", "ed2"), default="auto")
    p.add_argument("--gamma-max", type=_positive_int)
    p.add_argument("--delta-max", type=_positive_int)
    p.add_argument("--weak", action="store_true")
    add_format(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("sieve", help="scan progression classes for primes")
    p.add_argument("--delta", type=_positive_int, required=True)
    p.add_argument("--rmax", type=_positive_int, required=True)
    p.add_argument("--xmax", type=_positive_int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_sieve)

    p = sub.add_parser("stats", help="density statistics N(P; R, delta)")
    p.add_argument("--x", type=_positive_int, required=True)
    p.add_argument("--rmax", type=_positive_int, required=True)
    p.add_argument("--delta", type=_positive_int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("table", help="reproduce or audit a published table")
    p.add_argument("table_id", choices=TABLE_IDS, metavar="{" + ",".join(TABLE_IDS) + "}")
    p.add_argument("--check", action="store_true", help="audit rows against recomputation")
    add_format(p)
    p.set_defaults(func=cmd_table)

    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    stream = out if out is not None else sys.stdout
    try:
        return args.func(args, stream)
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return _INVARIANT_EXIT
    except (SerpError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
