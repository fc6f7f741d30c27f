"""Record the lines of src/serp that a Python process executes.

Python imports this module at start-up when its directory is on
PYTHONPATH, so tools/lineguard/run.py puts it there and every process
the suite starts, `python -m serp.cli` children included, is traced.
With LINEGUARD_DIR set, a sys.settrace hook collects the lines of each
src/serp file that run and, at exit, appends them to
LINEGUARD_DIR/<pid>.txt as "<file>\\t<line>" rows.  Without it this
module does nothing.
"""

import atexit
import os
import sys

_OUT = os.environ.get("LINEGUARD_DIR")
_SERP = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(os.path.realpath(__file__)))),
                     "src", "serp", "")
_lines = {}  # realpath of a src/serp file -> its executed line numbers
_tracers = {}  # co_filename -> that file's line tracer, or None for a file outside src/serp


def _tracer_for(filename):
    path = os.path.realpath(filename)
    if not path.startswith(_SERP):
        return None
    seen = _lines.setdefault(path, set())

    def trace_lines(frame, event, arg):
        seen.add(frame.f_lineno)
        return trace_lines

    return trace_lines


def _on_call(frame, event, arg):
    filename = frame.f_code.co_filename
    try:
        return _tracers[filename]
    except KeyError:
        tracer = _tracers[filename] = _tracer_for(filename)
        return tracer


def _write():
    sys.settrace(None)
    with open(os.path.join(_OUT, f"{os.getpid()}.txt"), "a") as out:
        out.writelines(f"{path}\t{line}\n" for path, lines in _lines.items() for line in lines)


if _OUT:
    atexit.register(_write)
    sys.settrace(_on_call)
