"""Fail when a statement of src/serp is not executed by the test suite.

    python tools/lineguard/run.py [pytest arguments]

runs `python -m pytest` with this directory on PYTHONPATH, so that the
sitecustomize beside this file traces the suite and every Python process
it starts, and then reads the statements of each src/serp module from
its AST.  A statement counts as executed when a line that is its own
(its lines minus those of the statements nested in it) ran in any
process.  Docstrings are not statements.  The only statements allowed
to stay unexecuted are `raise`s of InvariantViolation or a subclass,
the bug traps of provable identities; the subclasses are read from
src/serp/errors.py.  Exit status: pytest's when it fails, else 1 when a
statement other than those stayed unexecuted, else 0.
"""

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SERP = ROOT / "src" / "serp"


def invariant_errors(errors: ast.Module) -> set[str]:
    """InvariantViolation and every class that errors.py derives from it."""
    bases = {node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
             for node in errors.body if isinstance(node, ast.ClassDef)}
    family = {"InvariantViolation"}
    while grown := {name for name, parents in bases.items() if parents & family} - family:
        family |= grown
    return family


def statements(tree: ast.Module) -> dict[ast.stmt, set[int]]:
    """Every statement of tree but docstrings, with the lines it owns:
    its first line, and each of its lines that no nested statement spans."""
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {node.body[0] for node in ast.walk(tree)
                  if isinstance(node, scopes) and ast.get_docstring(node) is not None}
    owned = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        lines = set(range(first, node.end_lineno + 1))
        for child in ast.walk(node):
            if child is not node and isinstance(child, ast.stmt):
                lines -= set(range(child.lineno, child.end_lineno + 1))
        owned[node] = lines | {node.lineno}
    return owned


def exempt(node: ast.stmt, family: set[str]) -> bool:
    """node raises InvariantViolation or a subclass."""
    if not isinstance(node, ast.Raise):
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id in family


def run_suite(records: str, args: list[str]) -> int:
    paths = [str(HERE), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p),
               LINEGUARD_DIR=records)
    return subprocess.run([sys.executable, "-m", "pytest", *args], cwd=ROOT, env=env).returncode


def executed_lines(records: str) -> dict[str, set[int]]:
    executed = {}
    for name in os.listdir(records):
        with open(os.path.join(records, name)) as rows:
            for row in rows:
                path, line = row.rsplit("\t", 1)
                executed.setdefault(path, set()).add(int(line))
    return executed


def main(args: list[str]) -> int:
    with tempfile.TemporaryDirectory() as records:
        status = run_suite(records, args)
        if status:
            print(f"lineguard: pytest exited {status}")
            return status
        executed = executed_lines(records)
    family = invariant_errors(ast.parse((SERP / "errors.py").read_text()))
    total = ran = 0
    traps, missed = [], []
    for path in sorted(SERP.glob("*.py")):
        source = path.read_text()
        lines = executed.get(os.path.realpath(path), set())
        found = statements(ast.parse(source, filename=str(path)))
        for node, owned in sorted(found.items(), key=lambda item: item[0].lineno):
            total += 1
            if owned & lines:
                ran += 1
                continue
            where = (f"{path.relative_to(ROOT)}:{node.lineno}: "
                     f"{ast.get_source_segment(source, node).splitlines()[0]}")
            (traps if exempt(node, family) else missed).append(where)
    print(f"lineguard: src/serp has {total} statements; {ran} ran, {len(traps)} unexecuted "
          f"InvariantViolation raises, {len(missed)} other unexecuted")
    for where in traps:
        print(f"exempt  {where}")
    for where in missed:
        print(f"MISSED  {where}")
    return 1 if missed else 0

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
