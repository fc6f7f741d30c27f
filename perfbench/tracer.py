"""In-process spans around the public functions of each serp layer.

`install` replaces a function under every name it is bound to, in every
loaded module: serp.cli imports ed2_search, is_prime, verify_solution
and others by name, serp.ed1 imports factorize and serp.sieve imports
class_primes, so a wrapper placed only on the defining module would
miss those calls.

A span is (id, parent id, name, start, end).  Spans stay in memory and
are written out by `write_spans` when the step ends.  A span's self
time is its duration minus the time spent in its direct children's
wrappers; calls run one at a time, so the children never overlap.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter


# Counter hooks: (tracer, bound arguments, result) -> increments.

def _ed2_counts(tracer, bound, result):
    lo = max(bound.arguments["delta_min"], 1)
    return {"ed2.deltas": max(0, bound.arguments["delta_max"] - lo + 1),
            "ed2.witnesses": len(result)}


def _prime_mask_counts(tracer, bound, result):
    # A cached mask comes back as the same array; its bytes count once.
    if tracer.first_sight(result):
        return {"kernels.prime_mask.bytes_computed": result.nbytes}
    return {}


# (module, function, span name, counter hook or None)
TARGETS = (
    ("serp.cli", "main", "cli", None),
    ("serp.ed2", "ed2_search", "ed2.search", _ed2_counts),
    ("serp.ed1", "ed1_search", "ed1.search", lambda t, b, r: {"ed1.witnesses": len(r)}),
    ("serp.arith", "factorize", "arith.factorize", None),
    ("serp.arith", "is_prime", "arith.is_prime", None),
    ("serp.explicit", "decompose_explicit", "explicit", None),
    ("serp.explicit", "repair_distinct", "explicit", None),
    ("serp.solution", "verify_solution", "solution.verify", None),
    ("serp._kernels", "prime_mask", "kernels.prime_mask", _prime_mask_counts),
    ("serp._kernels", "class_primes", "kernels.class_primes",
     lambda t, b, r: {"kernels.class_primes.found": int(r.size)}),
    ("serp.sieve", "average_local_params", "sieve.average_local_params", None),
    ("serp.sieve", "admissible_moduli", "sieve.admissible_moduli",
     lambda t, b, r: {"sieve.moduli": len(r)}),
    ("serp.sieve", "scan_class_primes", "sieve.scan_class_primes", None),
    ("serp.sieve", "reconstruct_from_class", "sieve.reconstruct", None),
    ("serp.oracle", "enumerate_all_solutions", "oracle.enumerate",
     lambda t, b, r: {"oracle.solutions": len(r.solutions)}),
    ("serp.tables", "audit_table", "tables.audit",
     lambda t, b, r: {"tables.mismatch_rows": sum(e.status == "Mismatch" for e in r)}),
    ("serp.bridge", "convolve_ed2_to_ed1", "bridge", None),
    ("serp.bridge", "anticonvolve_ed1_to_ed2", "bridge", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._seen: dict[int, object] = {}  # id -> object, kept alive so ids stay unique

    def first_sight(self, obj) -> bool:
        if id(obj) in self._seen:
            return False
        self._seen[id(obj)] = obj
        return True

    def wrap(self, fn, name: str, hook):
        sig = inspect.signature(fn) if hook else None

        def traced(*args, **kwargs):
            enter = perf_counter()
            self._next_id += 1
            span_id = self._next_id
            parent = self._stack[-1][0] if self._stack else 0
            frame = [span_id, 0.0]
            self._stack.append(frame)
            try:
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    self._stack.pop()
                    self.self_s[name] += end - start - frame[1]
                    self.calls[name] += 1
                    self.spans.append((span_id, parent, name, start, end))
                if hook:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.counters.update(hook(self, bound, result))
                return result
            finally:
                # The parent is charged the whole wrapper, so the tracer's
                # own bookkeeping lands in neither self time.
                if self._stack:
                    self._stack[-1][1] += perf_counter() - enter

        return traced

    def install(self) -> None:
        for modname, fname, name, hook in TARGETS:
            orig = getattr(importlib.import_module(modname), fname, None)
            if orig is None:
                continue  # the layer then records zero calls
            wrapper = self.wrap(orig, name, hook)
            for mod in list(sys.modules.values()):
                names = getattr(mod, "__dict__", {})
                for attr, value in list(names.items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)

    def metrics(self) -> dict:
        """Calls and self seconds per span name, plus the hook counters."""
        out: dict = dict(self.counters)
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
            out[f"{name}.self_s"] = self.self_s[name]
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as f:
            f.write("id\tparent\tname\tstart\tend\n")
            for span in self.spans:
                f.write("%d\t%d\t%s\t%.9f\t%.9f\n" % span)
