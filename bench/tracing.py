"""Spans and counters around the calls into each balcfg module, recorded
from the benchmark's side of the boundary.

`Tracer.install` wraps every public function of every loaded `balcfg`
module and rebinds the wrapper in every module namespace that holds the
function, because `from .x import f` copies the binding (`is_balanced` is
bound in balance, canonical, search, cli and the package). A wrapped call
records a span (name, start, end, parent, op id) in memory. The hottest
leaves, `det2` and `sign_at`, are only counted, which keeps the overhead
down. `uninstall` restores the original bindings.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter, defaultdict

COUNT_ONLY = frozenset({"geometry.det2", "polynomials.sign_at"})
# span name -> counter that accumulates len(result)
RESULT_SIZES = {
    "serialization.dumps_canonical": "serialization.bytes_out",
    "render.render_svg": "render.bytes_out",
    "search.enumerate_balanced": "search.hits",
    "polynomials.certified_roots": "polynomials.roots",
}


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index or -1, op id]
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._call_counts = {}
        self._patches = []

    # -- wrapping --------------------------------------------------------------

    def install(self) -> None:
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "balcfg" or key.startswith("balcfg.")]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{name}")
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    setattr(mod, name, wrappers[id(obj)])
                    self._patches.append((mod, name, obj))

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches.clear()

    def _wrap(self, fn, name):
        if name in COUNT_ONLY:
            cell = self._call_counts.setdefault(name, [0])

            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)

            return counted

        spans, stack, clock = self.spans, self._stack, time.perf_counter
        size_counter = RESULT_SIZES.get(name)
        counts = self.counts

        def spanned(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if size_counter is not None:
                counts[size_counter] += len(result)
            return result

        return spanned

    def calls(self, name: str) -> int:
        """Calls so far of a count-only function."""
        return self._call_counts.get(name, [0])[0]

    # -- analysis ----------------------------------------------------------------

    def self_times(self):
        """Per span: its duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def summary(self):
        """Totals by span name: inclusive seconds, self seconds and calls;
        self seconds by op id; and child calls by (parent name, child name)."""
        inclusive, own, calls = defaultdict(float), defaultdict(float), Counter()
        per_op, nested = defaultdict(float), Counter()
        for (name, start, end, parent, op), own_s in zip(self.spans, self.self_times()):
            inclusive[name] += end - start
            own[name] += own_s
            calls[name] += 1
            per_op[op] += own_s
            if parent >= 0:
                nested[(self.spans[parent][0], name)] += 1
        return inclusive, own, calls, per_op, nested

    def dump(self, path: str) -> None:
        """Write every span, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
