"""Command-line interface.

One subcommand per artifact: decompose (closed forms and both
parametric engines), verify, scan (a prime range), sieve (progression
classes), stats (density report) and table (published-row audit with
errata).  Output is deterministic for fixed argv: JSON lines when
stdout is not a TTY, an aligned table when it is, CSV on request.
Every subcommand builds plain records and hands them to _emit, the one
place that knows the three formats.  json and csv are written record by
record, so a scan streams its solutions; only the table waits for the
last record, because it needs the column widths.  Two kinds of json
record are written around it, to the bytes it would write.  A
solution's line comes from one fixed-schema f-string in
_emit_solutions, since a scan writes one per prime.  The stats record
is written by _emit_streaming with its per-prime n_of_p object in pieces,
as the sieve formats them, so that object is never held whole.
Modules load with the subcommand that runs them: numpy with json stats
alone (sieve, and csv and table stats, count class rows from a bytearray
sieve), serp.tables and serp.bridge with table and csv solution rows
alone.  scan takes the first ED2 step, delta = 1, of every prime from
ed2._DeltaOne.

Exit codes: 0 success; 1 no solution found within bounds (or a failed
verify); 2 usage error; 3 internal invariant violation; 141 (128 +
SIGPIPE) stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from collections.abc import Iterable

from .arith import MR_DETERMINISTIC_BOUND, is_prime, primes_between
from .ed1 import default_gamma_max, ed1_reconstruct, ed1_search
from .ed2 import _DeltaOne, default_delta_max, ed2_reconstruct, ed2_search
from .errors import DeltaFilterFailed, InvariantViolation, SerpError, WrongResidue
from .explicit import decompose_explicit, repair_distinct
from .solution import Solution, SolutionClass, classify_solution, make_solution, verify_solution

# serp.tables (and through it serp.bridge) loads only where a subcommand
# writes a published-table layout: cmd_table and csv solution rows.  The
# parser needs the table ids before that; tests pin them to
# serp.tables.TABLE_IDS.
TABLE_IDS = ("31", "41", "73", "97", "2521", "3511")
SOLUTION_COLUMNS = ("P", "A", "B", "C", "class", "strict")
CSV_FIELDS = ("delta", "r", "modulus", "residue", "primes_found", "first_prime", "exceptional")
ERRATA_TABLE_COLUMNS = ("#", "status", "xy_lemma_ok", "mismatched", "recomputed")

_USAGE_EXIT = 2
_INVARIANT_EXIT = 3


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (dict, list)):
        return json.dumps(value)
    return str(value)


_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _emit(records: Iterable[dict], columns, fmt: str, out) -> None:
    """The one serialiser of every subcommand.

    json writes each record as a compact, key-sorted line, whole except
    for the stats record (see _emit_streaming); csv and table write the
    given columns, a missing key or None as an empty cell and a nested
    value as its JSON text.  json and csv write each record as it comes;
    the table reads them all first, for the widths.
    """
    if fmt == "json":
        for record in records:
            out.write(_json(record) + "\n")
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


def _emit_streaming(record: dict, key: str, members: Iterable[str], out) -> None:
    """_emit's json line for record plus an object at key that arrives as
    text pieces of comma-joined '"name":value' members in key order.

    record holds keys that sort before key and keys that sort after it;
    both parts are dumped as _emit dumps them, and each piece is written
    as it comes.
    """
    head = _json({k: v for k, v in record.items() if k < key})
    tail = _json({k: v for k, v in record.items() if k > key})
    out.write(f"{head[:-1]},{json.dumps(key)}:{{")
    sep = ""
    for piece in members:
        out.write(sep + piece)
        sep = ","
    out.write(f"}},{tail[1:]}\n")


def _pick_format(args) -> str:
    if args.format:
        return args.format
    return "table" if sys.stdout.isatty() else "json"


def _solution_table_rows(solutions: Iterable[Solution]) -> Iterable[dict]:
    """Solutions rendered in the published-table column layout, numbered
    from 1; columns that only exist for two-multiple rows stay empty
    otherwise."""
    from .tables import row_from_bc

    for idx, sol in enumerate(solutions, start=1):
        row = {"#": idx, "A": sol.A, "B": sol.B, "C": sol.C}
        if sol.B % sol.P == 0 and sol.C % sol.P == 0:
            full = row_from_bc(sol.P, sol.B // sol.P, sol.C // sol.P)
            if full is not None and full["A"] == sol.A:
                row.update(full)
        yield row


def _emit_solutions(solutions: Iterable[Solution], fmt: str, out) -> None:
    """Write solutions as they come, each verified just before (no
    unchecked output).  Generators throughout, so json and csv output
    holds no solution past its own line.

    A json line is written by one f-string with the fixed keys of
    Solution.as_dict in sorted order: the line _json(sol.as_dict())
    gives, byte for byte, without building the dict.
    """

    def checked():
        for sol in solutions:
            if not verify_solution(sol.P, sol.A, sol.B, sol.C):
                raise InvariantViolation(f"unverified solution reached output: {sol}")
            yield sol

    if fmt == "json":
        for s in checked():  # cls._value_: .value is a descriptor call per line
            out.write(f'{{"A":{s.A},"B":{s.B},"C":{s.C},"P":{s.P},'
                      f'"class":"{s.cls._value_}","strict":{"true" if s.strict else "false"}}}\n')
    elif fmt == "csv":
        from .tables import ROW_COLUMNS

        _emit(_solution_table_rows(checked()), ("#",) + ROW_COLUMNS, fmt, out)
    else:
        _emit((s.as_dict() for s in checked()), SOLUTION_COLUMNS, fmt, out)


def _bounds_for(P: int, args) -> tuple[int, int]:
    """(gamma_max, delta_max) for P: each flag, else P's default."""
    return (default_gamma_max(P) if args.gamma_max is None else args.gamma_max,
            default_delta_max(P) if args.delta_max is None else args.delta_max)


def _decompose(P: int, args, want_all: bool, delta_one: _DeltaOne | None = None) -> list[Solution]:
    """P's solutions by args.method, --weak and the bounds: the one rule
    of which primes a method covers.  Before any search it raises
    WrongResidue for a prime out of the method's scope, and it reads the
    bounds only when an engine runs.  A scan's delta_one answers the
    first ED2 step, delta = 1, where it can; the result is the same."""
    method, residue = args.method, P % 5
    if residue == 0:
        raise WrongResidue(f"P = {P} is out of scope (5 divides P)")
    if P == 2:
        raise WrongResidue("P = 2 is out of scope (no three distinct unit fractions sum to 5/2)")
    if method == "explicit" or (method == "auto" and residue != 1):
        sol = decompose_explicit(P)  # raises WrongResidue when residue is 1
        return [sol if args.weak else repair_distinct(sol)]
    if method == "ed1" and residue != 1:  # an empty gamma range never reaches ed1_search
        raise WrongResidue(f"ED1 search needs P = 1 (mod 5), got P = {P}")
    delta_first = 1  # the first ED2 step left to search
    if delta_one is not None and not want_all and method in ("auto", "ed2"):
        w, delta_first = delta_one.first(P)
        if w is not None:
            return [ed2_reconstruct(w)]
    gamma_max, delta_max = _bounds_for(P, args)
    # ED2 over delta, then ED1 over gamma = 4 (mod 5), as (name, search,
    # reconstruct, parameter steps).  Built per call, not at module level,
    # so a wrapper later bound to a search's module name is the one called.
    engines = [
        (name, search, reconstruct, steps)
        for name, search, reconstruct, steps in (
            ("ed2", ed2_search, ed2_reconstruct, range(delta_first, delta_max + 1)),
            ("ed1", ed1_search, ed1_reconstruct, range(4, gamma_max + 1, 5)),
        )
        if method in ("auto", name)
    ]
    if want_all:
        found = {reconstruct(w) for _, search, reconstruct, steps in engines
                 for w in search(P, steps.stop - 1)}
        return sorted(found, key=Solution.sort_key)
    for _, search, reconstruct, steps in engines:
        for t in steps:  # raise the parameter until the first hit
            found = search(P, t, t)
            if found:
                return [reconstruct(found[0])]
    return []


def cmd_decompose(args, out) -> int:
    P = args.P
    if not is_prime(P):
        raise SerpError(f"P = {P} is not prime; decompose needs a prime")
    solutions = _decompose(P, args, args.all)
    if not solutions:
        gamma_max, delta_max = _bounds_for(P, args)
        engines = (("ed1", "gamma", gamma_max), ("ed2", "delta", delta_max))
        ran = [(name, bound) for method, name, bound in engines if args.method in ("auto", method)]
        within = ", ".join(f"{name} <= {bound}" for name, bound in ran)
        flags = "/".join(f"--{name}-max" for name, _ in ran)
        print(f"no solution for P = {P} within {within}; raise {flags}", file=sys.stderr)
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
    """decompose's first hit for every prime in [--from, --to], each
    record written as it is found, and the misses on stderr at the end.
    Where ED2 runs, ed2._DeltaOne answers its delta = 1 step."""
    if args.to < getattr(args, "from"):
        raise SerpError("--to must be >= --from")
    if args.to >= MR_DETERMINISTIC_BOUND:
        raise SerpError(
            f"--to must be below {MR_DETERMINISTIC_BOUND}, "
            "the end of the deterministic primality range"
        )
    misses = []
    delta_one = _DeltaOne(args.to)

    def solutions():
        for P in primes_between(getattr(args, "from"), args.to):
            try:
                found = _decompose(P, args, False, delta_one)
            except WrongResidue:  # out of the method's scope
                continue
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
    from .sieve import class_scans, reconstruct_from_class

    rows = []
    for c in class_scans(args.xmax, args.rmax, args.delta).classes:
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


def _one_openblas_thread(call, *args):
    """call(*args) with OPENBLAS_NUM_THREADS=1 while it loads numpy for
    the first time in this process, so that OpenBLAS starts no pool of
    one idle thread per extra core: serp makes no BLAS call.  A value
    the caller set, or a numpy already loaded, is left alone, and
    os.environ ends as it began."""
    if "numpy" in sys.modules or "OPENBLAS_NUM_THREADS" in os.environ:
        return call(*args)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        return call(*args)
    finally:
        os.environ.pop("OPENBLAS_NUM_THREADS", None)


def cmd_stats(args, out) -> int:
    from .sieve import average_local_params, check_working_set, class_scans, phi_sum

    fmt = _pick_format(args)
    if fmt != "csv":  # json and table write phi_sum: refuse one they cannot, before sieving
        check_working_set(args.x, args.rmax)
        try:
            str(phi_sum(args.rmax, args.delta))
        except ValueError:  # a numerator or denominator past the int-to-str limit
            raise SerpError(
                f"phi_sum at R = {args.rmax} has more than {sys.get_int_max_str_digits()} "
                "digits, too many to write; lower --rmax, or use --format csv, which omits it"
            ) from None
    if fmt == "json":  # the one format that writes n_of_p; average_local_params loads numpy
        report = _one_openblas_thread(average_local_params, args.x, args.rmax, args.delta)
        _emit_streaming(report.as_dict(), "n_of_p", report.n_of_p_json(), out)
        return 0
    report = class_scans(args.x, args.rmax, args.delta)
    if fmt == "table":
        avg = "undefined (no primes)" if report.average is None else str(report.average)
        out.write(f"x = {report.x}  R = {report.R}  delta = {report.delta}\n")
        out.write(f"primes = 1 (mod 5) up to x: {report.prime_count}\n")
        out.write(f"mean N(P; R, delta): {avg}\n")
        out.write(f"sum 1/phi(5r): {report.phi_sum}\n")
        out.write(f"exceptional r: {list(report.exceptional)}\n")
    _emit([c.as_dict() for c in report.classes], CSV_FIELDS, fmt, out)
    return 0


def _errata_row(e, row_columns) -> dict:
    """One audited row with the cells of both the csv and the table
    layout, whose printed and recomputed cells follow row_columns."""
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
    for c in row_columns:
        row[f"printed_{c}"] = e.printed.get(c)
        row[f"recomputed_{c}"] = None if e.recomputed is None else e.recomputed.get(c)
    return row


def cmd_table(args, out) -> int:
    from .tables import ROW_COLUMNS, TABLES, audit_table

    fmt = _pick_format(args)
    if not args.check:
        rows = []
        for i, printed in enumerate(TABLES[args.table_id].rows, start=1):
            row = {c: printed.get(c, "") for c in ROW_COLUMNS}
            row["#"] = i
            rows.append(row)
        _emit(rows, ("#",) + ROW_COLUMNS, fmt, out)
        return 0
    entries = audit_table(args.table_id)
    records = [e.as_dict() if fmt == "json" else _errata_row(e, ROW_COLUMNS) for e in entries]
    errata_csv_columns = (
        ("#", "status", "xy_lemma_ok", "mismatched_columns")
        + tuple(f"printed_{c}" for c in ROW_COLUMNS)
        + tuple(f"recomputed_{c}" for c in ROW_COLUMNS)
    )
    _emit(records, errata_csv_columns if fmt == "csv" else ERRATA_TABLE_COLUMNS, fmt, out)
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

    def add_search(p):  # what _decompose reads from args
        p.add_argument("--method", choices=("auto", "explicit", "ed1", "ed2"), default="auto")
        p.add_argument("--gamma-max", type=_positive_int, help="one-multiple search bound")
        p.add_argument("--delta-max", type=_positive_int, help="two-multiple search bound")
        p.add_argument("--weak", action="store_true", help="allow repeated denominators (skip repair)")

    p = sub.add_parser("decompose", help="find decompositions for one prime")
    p.add_argument("P", type=int)
    p.add_argument("--all", action="store_true", help="emit every solution within bounds")
    add_search(p)
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
    add_search(p)
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
    except BrokenPipeError:  # the reader closed stdout, as `serp scan ... | head` does
        if stream is sys.stdout:  # so that the flush at exit finds no pipe to break
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE


if __name__ == "__main__":
    sys.exit(main())
