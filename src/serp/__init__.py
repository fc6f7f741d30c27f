"""Exact search, classification and audit tools for unit-fraction
decompositions 5/P = 1/A + 1/B + 1/C over primes P.

serp.sieve needs numpy, so its names are served on first use (PEP 562)
and `import serp` stays free of numpy.
"""

from importlib import import_module

from .arith import (
    Factorization,
    crt_combine,
    euler_phi,
    factorize,
    is_prime,
    mod_inverse,
    squarefree_split,
)
from .bridge import BridgeResult, anticonvolve_ed1_to_ed2, convolve_ed2_to_ed1
from .ed1 import Ed1Witness, default_gamma_max, ed1_reconstruct, ed1_search
from .ed2 import (
    Ed2Witness,
    NormalizedEd2,
    default_delta_max,
    ed2_case_a,
    ed2_normalize,
    ed2_reconstruct,
    ed2_search,
    ed2_witness_row,
)
from .explicit import decompose_explicit, repair_distinct
from .lattice import (
    SublatticeClass,
    class_count_in_box,
    delta_window_bound,
    delta_window_count,
    lattice_search_m,
)
from .oracle import OracleEnumeration, enumerate_all_solutions
from .solution import (
    MultiplicityClass,
    Solution,
    SolutionClass,
    classify_solution,
    make_solution,
    verify_solution,
)
from .tables import ErrataEntry, TABLES, audit_table

_SIEVE_NAMES = frozenset({
    "ProgressionClass",
    "ScanReport",
    "average_local_params",
    "build_progression_class",
    "reconstruct_from_class",
    "scan_class_primes",
})


def __getattr__(name: str):
    if name in _SIEVE_NAMES:
        return getattr(import_module(".sieve", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__version__ = "0.1.0"

__all__ = [
    "BridgeResult",
    "Ed1Witness",
    "Ed2Witness",
    "ErrataEntry",
    "Factorization",
    "MultiplicityClass",
    "NormalizedEd2",
    "OracleEnumeration",
    "ProgressionClass",
    "ScanReport",
    "Solution",
    "SolutionClass",
    "SublatticeClass",
    "TABLES",
    "anticonvolve_ed1_to_ed2",
    "audit_table",
    "average_local_params",
    "build_progression_class",
    "class_count_in_box",
    "classify_solution",
    "convolve_ed2_to_ed1",
    "crt_combine",
    "decompose_explicit",
    "default_delta_max",
    "default_gamma_max",
    "delta_window_bound",
    "delta_window_count",
    "ed1_reconstruct",
    "ed1_search",
    "ed2_case_a",
    "ed2_normalize",
    "ed2_reconstruct",
    "ed2_search",
    "ed2_witness_row",
    "enumerate_all_solutions",
    "euler_phi",
    "factorize",
    "is_prime",
    "lattice_search_m",
    "make_solution",
    "mod_inverse",
    "reconstruct_from_class",
    "repair_distinct",
    "scan_class_primes",
    "squarefree_split",
    "verify_solution",
]
