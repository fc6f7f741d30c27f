"""Exact search, classification and audit tools for unit-fraction
decompositions 5/P = 1/A + 1/B + 1/C over primes P.

_EXPORTS maps each home module to the public names it defines, and
__all__ is read from it.  Nothing is imported with the package: a
public name or a submodule is served on first use (PEP 562), so
`import serp` loads no submodule and no numpy, and a process loads only
the modules it uses (numpy only when a serp.sieve function builds
per-prime arrays, as json stats does).  Each serp command keeps this:
verify loads no engine; decompose and scan load serp.explicit with the
first closed form, serp.ed2 with the first search (scan loads it at its
start) and serp.ed1 only once a search has spent ED2's steps; sieve
and stats load serp.sieve, and sieve serp.ed2 with its first class row
that has a prime; table loads serp.tables and serp.bridge.  json, csv,
fractions and statistics load only where a record is dumped as json,
csv is written, a Fraction is built or a slope is fitted (see
serp.cli).
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "arith": ("Factorization", "crt_combine", "euler_phi", "factorize", "is_prime",
              "mod_inverse", "squarefree_split"),
    "bridge": ("BridgeResult", "anticonvolve_ed1_to_ed2", "convolve_ed2_to_ed1"),
    "ed1": ("Ed1Witness", "default_gamma_max", "ed1_reconstruct", "ed1_search"),
    "ed2": ("Ed2Witness", "NormalizedEd2", "default_delta_max", "ed2_case_a", "ed2_normalize",
            "ed2_reconstruct", "ed2_search", "ed2_witness_row"),
    "explicit": ("decompose_explicit", "repair_distinct"),
    "lattice": ("SublatticeClass", "class_count_in_box", "delta_window_bound",
                "delta_window_count", "lattice_search_m"),
    "oracle": ("OracleEnumeration", "enumerate_all_solutions"),
    "sieve": ("ProgressionClass", "ScanReport", "average_local_params",
              "build_progression_class", "reconstruct_from_class", "scan_class_primes"),
    "solution": ("MultiplicityClass", "Solution", "SolutionClass", "classify_solution",
                 "make_solution", "verify_solution"),
    "tables": ("ErrataEntry", "TABLES", "audit_table"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name, name)
    if module.isidentifier():
        try:
            found = import_module(f".{module}", __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{module}":
                raise  # a dependency of the submodule is missing
        else:
            return found if module == name else getattr(found, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
