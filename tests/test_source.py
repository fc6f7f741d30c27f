import ast
import io
import os
import subprocess
import sys
from pathlib import Path

import serp
from serp.cli import main

SRC = Path(serp.__file__).parent

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
