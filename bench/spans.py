"""Per-layer tracing from outside the library.

`Recorder.install()` replaces kzeta's public functions, at the bindings their
callers look up, with wrappers that record one span per call: (id, name,
parent id, op id, start, end).  Spans stay in memory; `layer_table()` reduces
them to calls, inclusive time and self time per span name, and `dump()` writes
them out.  kzeta itself carries no tracing.
"""

from __future__ import annotations

import functools
import itertools
import json
import time

from kzeta import characters, ktheory, lfun


def _digits(args, out):
    return {"digits": len(str(args[0]))}


def _resultant_size(args, out):
    size = {"dim": args[0].degree + args[1].degree}
    if out is not None:
        size["bits"] = abs(out).bit_length()
    return size


# (owner, attribute, span name, size properties recorded per call)
BINDINGS = (
    (characters.UnitGroupStructure, "dlog", "characters.dlog", None),
    (characters, "factorize", "factor.factorize", _digits),
    (lfun, "factorize", "factor.factorize", _digits),
    (lfun, "resultant", "poly.resultant", _resultant_size),
    (lfun, "bernoulli_number", "powersum.bernoulli", None),
    (ktheory, "zeta_value_negative", "lfun.zeta", None),
    (ktheory, "w_invariant", "ktheory.w", None),
    (ktheory, "divisibility_verdict", "ktheory.verdict", None),
    (ktheory, "lower_bound_exponent", "ktheory.bound", None),
    (ktheory, "browkin_density", "ktheory.density", None),
    (ktheory, "factorize", "factor.factorize", _digits),
    (ktheory, "primes_up_to", "factor.sieve", lambda args, out: {"n": args[0]}),
)


class Recorder:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, parent, op, start, end)
        self.sizes: dict[int, dict] = {}  # span id -> size properties
        self.stack: list[int] = []
        self.op = -1  # -1 during warm-up
        self._ids = itertools.count()

    def begin_op(self, op: int) -> None:
        self.op = op
        self.stack.clear()

    def wrap(self, name: str, fn, sizes=None):
        spans, stack, ids, perf = self.spans, self.stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            out = None
            start = perf()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = perf()
                stack.pop()
                spans.append((sid, name, parent, self.op, start, end))
                if sizes is not None:
                    self.sizes[sid] = sizes(args, out)

        return traced

    def install(self) -> None:
        for owner, attr, name, sizes in BINDINGS:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), sizes))
        # FieldSpec.characters is a cached_property: wrap the function it caches.
        prop = characters.FieldSpec.__dict__["characters"]
        traced = functools.cached_property(self.wrap("characters.enum", prop.func))
        traced.__set_name__(characters.FieldSpec, "characters")
        characters.FieldSpec.characters = traced

    def timed_spans(self) -> list[tuple]:
        return [s for s in self.spans if s[3] >= 0]

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w") as fh:
            json.dump(dict(extra, spans=self.spans, sizes=self.sizes), fh)


def layer_table(spans, passes: int = 1) -> dict[str, dict]:
    """{name: {calls, total_s, self_s}} over the given spans, per pass when the
    spans cover `passes` runs of the same ops.

    total_s counts only the outermost span of a name, so nesting is not counted
    twice; self_s is each span's duration minus that of its direct children.
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = {}
    for sid, _, parent, _, start, end in spans:
        if parent in by_id:
            child_time[parent] = child_time.get(parent, 0.0) + end - start
    table: dict[str, dict] = {}
    for sid, name, parent, _, start, end in spans:
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += end - start - child_time.get(sid, 0.0)
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[1] != name:
            ancestor = by_id.get(ancestor[2])
        if ancestor is None:
            row["total_s"] += end - start
    for row in table.values():
        row["calls"] = round(row["calls"] / passes)
        row["total_s"] /= passes
        row["self_s"] /= passes
    return table


def size_max(spans, sizes: dict, name: str, key: str) -> int:
    return max(
        (sizes[s[0]].get(key, 0) for s in spans if s[1] == name and s[0] in sizes),
        default=0,
    )
