import ast
import contextlib
import importlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import serp
from serp.cli import main

SRC = Path(serp.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

# Run under `python -O`: the invariant checks must still raise, and the
# output must not change.
OPTIMISED_SCRIPT = """
import sys
from serp.cli import main
from serp.ed2 import Ed2Witness, ed2_reconstruct
from serp.errors import InvalidSolution, KernelViolation
from serp.solution import SolutionClass, make_solution

if sys.flags.optimize != 1:
    sys.exit(f"sys.flags.optimize = {sys.flags.optimize}")
checks = [
    (lambda: ed2_reconstruct(Ed2Witness(11, 1, 1, 3, 4, 14, 4)), KernelViolation),
    (lambda: make_solution(11, 3, 9, 100, SolutionClass.ED1), InvalidSolution),
]
for check, exc in checks:
    try:
        check()
    except exc:
        continue
    sys.exit(f"{exc.__name__} not raised")
sys.exit(main(["decompose", "11", "--all", "--format", "json"]))
"""


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so invariants must raise explicitly.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _serp_imports(tree):
    """Names of the serp modules a module imports, relative or absolute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("serp.")}
            found |= {"serp" for a in node.names if a.name == "serp"}
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "serp":
                continue
            if node.level == 0:
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:
                found |= {a.name for a in node.names}
    return found


def test_oracle_is_independent_of_the_engines():
    # The oracle audits ed1, ed2, sieve, lattice, bridge, tables and
    # explicit, so it may build only on the exact primitives.
    path = SRC / "oracle.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _serp_imports(tree) <= {"arith", "errors", "solution"}
    # nor on the progression sieve that feeds ed1
    assert "factorize_progression" not in path.read_text()


def test_serp_imports_sees_every_import_form():
    tree = ast.parse(
        "import serp\nimport serp.ed1\nfrom serp import ed2\nfrom serp.sieve import x\n"
        "from . import lattice\nfrom .bridge import y\nfrom .tables.sub import z\n"
        "import json\nfrom math import gcd\n"
    )
    assert _serp_imports(tree) == {"serp", "ed1", "ed2", "sieve", "lattice", "bridge", "tables"}


def test_invariant_checks_run_under_python_O():
    path = os.pathsep.join([str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMISED_SCRIPT],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    expected = io.StringIO()
    assert main(["decompose", "11", "--all", "--format", "json"], out=expected) == 0
    assert proc.stdout == expected.getvalue()


# numpy builds the per-prime arrays of json stats alone: importing serp
# must not load it, and json stats loads it when it runs (sieve, and csv
# and table stats, run without it: see WITHOUT_NUMPY_SCRIPT).
IMPORT_GRAPH_SCRIPT = """
import io
import sys

import serp

loaded = sorted(m for m in sys.modules if m.startswith("serp."))
if loaded:
    sys.exit(f"submodules loaded by import serp: {loaded}")
import serp.bridge
import serp.cli
import serp.lattice
import serp.oracle
import serp.tables

if "numpy" in sys.modules:
    sys.exit("numpy loaded by import")
if serp.cli.main(["stats", "--x", "100", "--rmax", "4", "--delta", "1"], out=io.StringIO()):
    sys.exit("stats failed")
if "numpy" not in sys.modules:
    sys.exit("numpy not loaded by stats")
import serp.sieve
if serp.average_local_params is not serp.sieve.average_local_params:
    sys.exit("serp.average_local_params is not the sieve's")
names = {}
exec("from serp import *", names)
missing = sorted(set(serp.__all__) - set(names))
if missing:
    sys.exit(f"not bound by import *: {missing}")
"""


def test_numpy_loads_only_for_the_sieve():
    path = os.pathsep.join([str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GRAPH_SCRIPT],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# sieve, and stats as csv or table, count their class rows and primes
# from bytearray segments: with numpy made unimportable they must still
# write what they write with it (tests/test_cli.py pins both).
SIEVE_ARGV = ["sieve", "--delta", "7", "--rmax", "64", "--xmax", "1100000", "--format", "json"]
STATS_ARGV = ["stats", "--x", "1100000", "--rmax", "64", "--delta", "7", "--format"]
WITHOUT_NUMPY_SCRIPT = """
import sys

sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import serp.cli

sys.exit(serp.cli.main(sys.argv[1:]))
"""


def _assert_runs_without_numpy(argv):
    proc = _python(WITHOUT_NUMPY_SCRIPT, *argv)
    assert proc.returncode == 0, proc.stderr
    expected = io.StringIO()
    assert main(argv, out=expected) == 0
    assert proc.stdout == expected.getvalue()


def test_sieve_runs_without_numpy():
    _assert_runs_without_numpy(SIEVE_ARGV)


def test_stats_csv_runs_without_numpy():
    for fmt in ("csv", "table"):
        _assert_runs_without_numpy(STATS_ARGV + [fmt])


# stats loads numpy with OPENBLAS_NUM_THREADS=1 unless the caller set it:
# serp makes no BLAS call, so OpenBLAS needs no pool of one thread per
# extra core.  os.environ must end as it began.
STATS_THREADS_SCRIPT = """
import io
import os
import sys

import serp.cli

before = dict(os.environ)
if serp.cli.main(["stats", "--x", "1000", "--rmax", "16", "--delta", "1"], out=io.StringIO()):
    sys.exit("stats failed")
if "numpy" not in sys.modules:
    sys.exit("numpy not loaded by stats")
if dict(os.environ) != before:
    sys.exit(f"os.environ changed: {before} -> {dict(os.environ)}")
print(len(os.listdir("/proc/self/task")))
"""


# OpenBLAS starts no more threads than the CPUs this process may run on.
@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs Linux's /proc/self/task and at least two usable CPUs")
@pytest.mark.parametrize("caller, threads", [(None, 1), ("2", 2)])
def test_stats_starts_openblas_with_one_thread_unless_the_caller_sets_it(caller, threads):
    path = os.pathsep.join([str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = path
    if caller is not None:
        env["OPENBLAS_NUM_THREADS"] = caller
    proc = subprocess.run([sys.executable, "-c", STATS_THREADS_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == threads


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        serp.no_such_name


def test_missing_dependency_of_a_submodule_is_reraised(monkeypatch):
    # only a missing submodule becomes AttributeError; a dependency that
    # the submodule cannot import keeps its own ModuleNotFoundError
    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.delitem(sys.modules, "serp._kernels", raising=False)
    with pytest.raises(ModuleNotFoundError) as info:
        serp.__getattr__("_kernels")
    assert info.value.name == "numpy"


def _imported_names(tree):
    return {a.name.rsplit(".", 1)[-1] for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}


def test_every_public_name_has_a_user():
    # A name in serp.__all__ must be used by another serp module, bound
    # by the benchmark (by import or in a string, as the tracer does),
    # or imported by an acceptance criterion.  lattice_search_m is the
    # paper's search, pinned against ed2_search in tests/test_lattice.py.
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used |= _imported_names(tree)
        used |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for path in (ROOT / "perfbench").glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        used |= _imported_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= set(re.findall(r"\w+", node.value))
    acceptance = ROOT / "tests" / "test_acceptance.py"
    used |= _imported_names(ast.parse(acceptance.read_text(), filename=str(acceptance)))
    assert sorted(set(serp.__all__) - used - {"lattice_search_m"}) == []


def _python(script, *args):
    path = os.pathsep.join([str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )


# The CLI needs neither the paper's lattice search, the oracle nor the
# sieve until a subcommand imports them.
CLI_IMPORT_SCRIPT = """
import sys

import serp.cli

loaded = [m for m in ("serp.lattice", "serp.oracle", "serp.sieve", "serp._kernels", "numpy")
          if m in sys.modules]
if loaded:
    sys.exit(f"loaded by import serp.cli: {loaded}")
"""


def test_cli_import_loads_only_what_it_uses():
    proc = _python(CLI_IMPORT_SCRIPT)
    assert proc.returncode == 0, proc.stderr


# Records are named tuples from collections, which argparse loads anyway:
# no serp module may bring in dataclasses, or inspect with it, at import.
# Under -S no site hook has loaded either before serp does.
RECORD_IMPORT_SCRIPT = """
import sys

import serp.cli
import serp.lattice
import serp.oracle
import serp.sieve
import serp.tables

loaded = [m for m in ("dataclasses", "inspect") if m in sys.modules]
if loaded:
    sys.exit(f"loaded by importing serp: {loaded}")
"""


def test_serp_imports_neither_dataclasses_nor_inspect():
    proc = subprocess.run(
        [sys.executable, "-S", "-c", RECORD_IMPORT_SCRIPT],
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# serp.tables, and through it serp.bridge, loads only where a subcommand
# writes a published-table layout: table and csv solution rows.  Each
# argv runs in a fresh process after import serp.cli; the script prints
# whether either module was loaded before the run, the exit code, and
# whether each is loaded after.
TABLE_MODULES_SCRIPT = """
import io
import sys

import serp.cli

before = "serp.tables" in sys.modules or "serp.bridge" in sys.modules
code = serp.cli.main({argv!r}, out=io.StringIO())
print(before, code, "serp.tables" in sys.modules, "serp.bridge" in sys.modules)
"""


@pytest.mark.parametrize("argv, loaded", [
    (["scan", "--from", "2", "--to", "3000", "--format", "json"], False),
    (["decompose", "2521", "--all", "--format", "json"], False),
    (["decompose", "2521", "--all", "--format", "csv"], True),
    (["table", "31", "--check"], True),
])
def test_tables_load_only_for_table_layouts(argv, loaded):
    proc = _python(TABLE_MODULES_SCRIPT.format(argv=argv))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "0", str(loaded), str(loaded)]


def test_cli_table_ids_are_the_tables():
    import serp.cli
    import serp.tables

    assert serp.cli.TABLE_IDS == serp.tables.TABLE_IDS


SUBMODULE_SCRIPT = """
import sys

import serp

for name in ("arith", "ed2", "sieve"):
    if getattr(serp, name) is not sys.modules[f"serp.{name}"]:
        sys.exit(f"serp.{name} is not the submodule")
"""


def test_submodules_resolve_after_a_bare_import():
    proc = _python(SUBMODULE_SCRIPT)
    assert proc.returncode == 0, proc.stderr


PUBLIC_NAMES = [
    "BridgeResult", "Ed1Witness", "Ed2Witness", "ErrataEntry", "Factorization",
    "MultiplicityClass", "NormalizedEd2", "OracleEnumeration", "ProgressionClass",
    "ScanReport", "Solution", "SolutionClass", "SublatticeClass", "TABLES",
    "anticonvolve_ed1_to_ed2", "audit_table", "average_local_params",
    "build_progression_class", "class_count_in_box", "classify_solution",
    "convolve_ed2_to_ed1", "crt_combine", "decompose_explicit", "default_delta_max",
    "default_gamma_max", "delta_window_bound", "delta_window_count", "ed1_reconstruct",
    "ed1_search", "ed2_case_a", "ed2_normalize", "ed2_reconstruct", "ed2_search",
    "ed2_witness_row", "enumerate_all_solutions", "euler_phi", "factorize", "is_prime",
    "lattice_search_m", "make_solution", "mod_inverse", "reconstruct_from_class",
    "repair_distinct", "scan_class_primes", "squarefree_split", "verify_solution",
]


def test_public_names_are_pinned():
    assert sorted(serp.__all__) == PUBLIC_NAMES


def _defined_names(path):
    """Names a module binds at top level by def, class or assignment."""
    found = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found |= {t.id for t in targets if isinstance(t, ast.Name)}
    return found


def test_each_public_name_is_its_home_modules_object():
    star = {}
    exec("from serp import *", star)
    for module, names in serp._EXPORTS.items():
        home = importlib.import_module(f"serp.{module}")
        defined = _defined_names(SRC / f"{module}.py")
        for name in names:
            assert name in defined, (module, name)
            assert getattr(serp, name) is getattr(home, name) is star[name], name


def test_dir_lists_every_public_name():
    assert set(serp.__all__) <= set(dir(serp))


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    example = re.search(r"## Library example\s+```python\n(.*?)```", readme, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(example, {})
    *rows, total = out.getvalue().splitlines()
    assert total == "21 solutions in total"
    rows = [ast.literal_eval(row) for row in rows]
    assert [(r["P"], r["delta"], r["b"], r["c"]) for r in rows] == [
        (73, 16, 12, 20), (73, 20, 10, 30), (73, 27, 9, 45), (73, 64, 8, 120),
    ]
