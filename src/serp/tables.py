"""Published numeric tables and their audit.

Each table is stored exactly as printed, including its errors.  The
audit recomputes every row from the first anchor that yields a
kernel-consistent witness, comparing column by column:

  1. (b, c)   -> r = 5b-1, s = 5c-1, N = r*s, delta = (N-1)/(5P), ...
  2. (X, Y)   -> b = (X+1)/5, c = (Y+1)/5, then as above
  3. (B, C)   -> b = B/P, c = C/P, then as above

Rows where no anchor reconstructs a valid witness are flagged Mismatch
with recomputed = None.  Printed values are never corrected in place;
the audit reports both value sets side by side.  The per-row lemma
check X*Y = 5*alpha*P*dprime^2 + 1 (the source's own "OK" column) is
reported separately, since a row can pass it and still be wrong.
"""

from __future__ import annotations

from collections import namedtuple

from .bridge import convolve_ed2_to_ed1
from .ed2 import Ed2Witness, ed2_normalize, pair_from_divisor
from .errors import InvariantViolation
from .solution import verify_solution

ROW_COLUMNS = (
    "alpha",
    "bprime",
    "cprime",
    "g",
    "b",
    "c",
    "delta",
    "X",
    "Y",
    "N",
    "A",
    "B",
    "C",
    "dprime",
)


# rows: one dict per printed row, keyed by columns
PaperTable = namedtuple("PaperTable", "table_id P columns rows")


def _full(*values) -> dict:
    return dict(zip(ROW_COLUMNS, values, strict=True))


_SHORT_COLS = ("A", "B", "C", "b", "c", "delta", "alpha", "dprime")

TABLES: dict[str, PaperTable] = {
    "31": PaperTable(
        "31", 31, ROW_COLUMNS,
        (
            _full(1, 1, 8, 1, 1, 8, 1, 4, 39, 156, 8, 31, 248, 1),
            _full(1, 1, 7, 2, 2, 14, 4, 9, 69, 621, 7, 62, 434, 2),
        ),
    ),
    "41": PaperTable(
        "41", 41, ROW_COLUMNS,
        (
            _full(3, 1, 3, 3, 3, 9, 9, 14, 44, 616, 616, 123, 369, 1),
        ),
    ),
    "2521": PaperTable(
        "2521", 2521, ROW_COLUMNS,
        (
            _full(5, 193, 2, 10, 1930, 20, 49, 9649, 99, 955251, 788, 486, 50420, 7),
            _full(9, 183, 11, 25, 4575, 275, 50, 22874, 1374, 31413876, 251, 277310, 289915, 5),
            _full(3, 2, 87, 3, 6, 261, 3, 29, 1304, 37816, 522, 15126, 657981, 1),
            _full(3, 2, 85, 9, 18, 765, 27, 89, 3824, 340336, 510, 45378, 1928565, 3),
            _full(15, 39, 1, 13, 39, 39, 507, 194, 2534, 491596, 507, 98319, 1278147, 13),
        ),
    ),
    # The 3511 table prints alpha = 1, d' = 1 in its caption.
    "3511": PaperTable(
        "3511", 3511, ROW_COLUMNS,
        (
            _full(1, 1, 878, 1, 1, 878, 1, 4, 4389, 17556, 878, 3511, 3082658, 1),
            _full(1, 3, 251, 1, 3, 251, 1, 14, 1254, 17556, 753, 10533, 881261, 1),
            _full(1, 4, 185, 1, 4, 185, 1, 19, 924, 17556, 740, 14044, 649535, 1),
            _full(1, 9, 80, 1, 9, 80, 1, 44, 399, 17556, 720, 31599, 280880, 1),
            _full(1, 17, 42, 1, 17, 42, 1, 84, 209, 17556, 714, 59687, 147462, 1),
            _full(1, 23, 31, 1, 23, 31, 1, 114, 154, 17556, 713, 80753, 108841, 1),
        ),
    ),
    "73": PaperTable(
        "73", 73, _SHORT_COLS,
        (
            dict(A=15, B=584, C=8760, b=8, c=120, delta=64, alpha=1, dprime=8),
            dict(A=15, B=657, C=3285, b=9, c=45, delta=27, alpha=3, dprime=3),
            dict(A=15, B=730, C=2190, b=10, c=30, delta=20, alpha=5, dprime=2),
            dict(A=15, B=876, C=1460, b=12, c=20, delta=16, alpha=1, dprime=4),
        ),
    ),
    # Worked-example table; its duplicate P = 73 row is audited above.
    "97": PaperTable(
        "97", 97, _SHORT_COLS,
        (
            dict(A=22, B=194, C=1067, b=2, c=11, delta=1, alpha=1, dprime=1),
        ),
    ),
}

TABLE_IDS = tuple(sorted(TABLES, key=int))


class ErrataEntry(namedtuple("ErrataEntry", "table_id row printed recomputed status "
                                            "mismatched_columns xy_lemma_ok bridge")):
    """One audited row.  row is 1-based, as printed; recomputed is None
    when no anchor gives a valid row; status is "Match" or "Mismatch";
    xy_lemma_ok is whether the printed X*Y == 5*alpha*P*dprime^2 + 1;
    bridge is the forward-conversion outcome for the recomputed row."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return {
            "table": self.table_id,
            "row": self.row,
            "status": self.status,
            "mismatched_columns": list(self.mismatched_columns),
            "xy_lemma_ok": self.xy_lemma_ok,
            "printed": self.printed,
            "recomputed": self.recomputed,
            "bridge": self.bridge,
        }


def row_from_bc(P: int, b: int, c: int) -> dict | None:
    """Full kernel-consistent row from (b, c), or None if inconsistent."""
    delta, rem = divmod((5 * b - 1) * (5 * c - 1) - 1, 5 * P)
    w = None if rem else pair_from_divisor(P, delta, 5 * min(b, c) - 1)
    if w is None:
        return None
    n = ed2_normalize(w)
    row = _full(
        n.alpha, n.bprime, n.cprime, n.g, w.b, w.c, w.delta, w.r, w.s, w.r * w.s,
        w.A, w.B, w.C, n.dprime,
    )
    if not verify_solution(P, w.A, w.B, w.C):
        raise InvariantViolation(f"row from (b, c) = ({b}, {c}) does not verify for P = {P}")
    return row


def recompute_row(P: int, printed: dict) -> dict | None:
    """Recomputed row from the first anchor that reconstructs validly."""
    anchors: list[tuple[int, int]] = []
    if "b" in printed and "c" in printed:
        anchors.append((printed["b"], printed["c"]))
    if "X" in printed and "Y" in printed:
        X, Y = printed["X"], printed["Y"]
        if X % 5 == 4 and Y % 5 == 4:
            anchors.append(((X + 1) // 5, (Y + 1) // 5))
    if "B" in printed and "C" in printed:
        B, C = printed["B"], printed["C"]
        if B % P == 0 and C % P == 0:
            anchors.append((B // P, C // P))
    for b, c in anchors:
        row = row_from_bc(P, b, c)
        if row is not None:
            return row
    return None


def _xy_lemma_ok(P: int, printed: dict) -> bool:
    X = printed.get("X", 5 * printed["b"] - 1)
    Y = printed.get("Y", 5 * printed["c"] - 1)
    return X * Y == 5 * printed["alpha"] * P * printed["dprime"] ** 2 + 1


def audit_table(table_id: str) -> list[ErrataEntry]:
    """Match/Mismatch verdict per printed row, with recomputed values."""
    table = TABLES[str(table_id)]
    entries = []
    for i, printed in enumerate(table.rows, start=1):
        rec = recompute_row(table.P, printed)
        if rec is None:
            bad: tuple[str, ...] = ()
            status = "Mismatch"
            bridge = None
        else:
            bad = tuple(
                col
                for col in table.columns
                if col in printed and printed[col] != rec[col]
            )
            status = "Match" if not bad else "Mismatch"
            w = Ed2Witness(
                table.P, rec["delta"], rec["b"], rec["c"], rec["X"], rec["Y"], rec["A"]
            )
            bridge = convolve_ed2_to_ed1(w).as_dict()
        entries.append(
            ErrataEntry(
                table_id=table.table_id,
                row=i,
                printed=dict(printed),
                recomputed=rec,
                status=status,
                mismatched_columns=bad,
                xy_lemma_ok=_xy_lemma_ok(table.P, printed),
                bridge=bridge,
            )
        )
    return entries
