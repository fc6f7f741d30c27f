"""The record contract every serp record keeps, and the wire forms built
from record fields.

Each record is an immutable named tuple: assignment raises
AttributeError, it holds no __dict__, its repr reads Name(field=value,
...), and one whose fields are hashable survives a pickle round trip.
ScanReport holds numpy arrays, so it compares by identity instead.
"""

import pickle

import pytest

from serp.arith import factorize
from serp.bridge import convolve_ed2_to_ed1
from serp.ed1 import ed1_search
from serp.ed2 import ed2_normalize, ed2_search, ed2_witness_row
from serp.lattice import SublatticeClass
from serp.oracle import OracleEnumeration, enumerate_all_solutions
from serp.sieve import average_local_params, build_progression_class, class_scans
from serp.solution import SolutionClass, classify_solution, make_solution
from serp.tables import TABLES, ErrataEntry, audit_table

# One instance of every record type, each built by the code that builds it.
RECORDS = {
    "Solution": lambda: make_solution(11, 99, 3, 9, SolutionClass.ED1),
    "MultiplicityClass": lambda: classify_solution(make_solution(11, 99, 3, 9, SolutionClass.ED1)),
    "Factorization": lambda: factorize(17556),
    "Ed1Witness": lambda: ed1_search(11, 4)[0],
    "Ed2Witness": lambda: ed2_search(11, 1)[0],
    "NormalizedEd2": lambda: ed2_normalize(ed2_search(11, 1)[0]),
    "OracleEnumeration": lambda: enumerate_all_solutions(11),
    "ProgressionClass": lambda: build_progression_class(1, 4),
    "ClassScan": lambda: class_scans(10**4, 64, 1)[0],
    "ScanReport": lambda: average_local_params(100, 16, 1),
    "SublatticeClass": lambda: SublatticeClass((3, 5), (4, -1)),
    "BridgeResult": lambda: convolve_ed2_to_ed1(ed2_search(11, 1)[0]),
    "PaperTable": lambda: TABLES["31"],
    "ErrataEntry": lambda: audit_table("31")[0],
}


def _hashable(record) -> bool:
    try:
        hash(tuple(record))
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_contract(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")
    fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in record._fields)
    assert repr(record) == f"{name}({fields})"
    if name != "ScanReport" and _hashable(record):
        assert hash(record) == hash(tuple(record))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(record, protocol))
            assert type(back) is type(record) and back == record


def test_scan_report_compares_by_identity():
    a, b = average_local_params(100, 16, 1), average_local_params(100, 16, 1)
    assert a == a and not a != a
    assert a != b and not a == b  # equal arrays, yet no element-wise comparison
    assert len({a, b}) == 2


# Wire forms read from record fields, pinned to the values the records
# wrote when they were dataclasses.
def test_ed2_witness_row_is_pinned():
    assert list(ed2_witness_row(ed2_search(11, 1)[0]).items()) == [
        ("P", 11), ("delta", 1), ("b", 1), ("c", 3), ("r", 4), ("s", 14), ("A", 3),
        ("g", 1), ("bprime", 1), ("cprime", 3), ("alpha", 1), ("dprime", 1), ("m", 4),
        ("canonical", True),
    ]


def test_class_scan_row_is_pinned():
    assert list(class_scans(10**4, 64, 1)[0].as_dict().items()) == [
        ("delta", 1), ("r", 4), ("residue", 11), ("modulus", 20), ("primes_found", 154),
        ("first_prime", 11), ("exceptional", False),
    ]


def test_record_field_names_are_pinned():
    assert OracleEnumeration._fields == ("P", "distinct_only", "solutions")
    assert ErrataEntry._fields == (
        "table_id", "row", "printed", "recomputed", "status", "mismatched_columns",
        "xy_lemma_ok", "bridge",
    )
