"""Span tracing of lexbs from outside the package.

`install` wraps the public functions named in LAYERS.  Each wrapper
records one span (name, parent, start, end) per call into flat arrays,
and the wrapper replaces the function under every `lexbs.*` module
global, and every value of a module-level dict, that refers to the same
function object; the check registries in `cli` and `enumeration` are such
dicts.  A generator function gets one span per `next()`, so its self time
is the time spent producing items, not the time its consumer holds them.

The hot monomial primitives are deliberately not wrapped: a wrapper there
would cost more than the primitive and distort its callers' self time.
The lru caches are read through `cache_info()` instead.

Forked children (pool workers) inherit the wrappers but stop recording,
so a traced parallel campaign holds parent-side spans only.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from array import array

# module -> public functions that get spans
LAYERS = {
    "cli": ("main", "parse_ideal", "render_betti", "render_summand"),
    "enumeration": ("enumerate_artinian_lex",),
    "verify": (
        "chain_of",
        "check_colon_prefix",
        "check_tail_agreement",
        "check_excluded_family_tails",
        "check_cone_assembly",
        "check_lex_dominance",
        "check_split_identities",
        "explain_chain",
    ),
    "decompose": ("bs_decompose",),
    "pure": ("top_degree_sequence",),
    "betti": ("ek_betti", "mapping_cone_betti"),
    "ideal": (
        "is_stable",
        "is_lex_segment",
        "is_artinian",
        "colon_variable",
        "add_variable",
        "split_x",
        "lexify",
        "minimalize",
        "contains",
        "hilbert_value",
    ),
}

# (module, function) whose lru cache is read through cache_info()
CACHES = (
    ("verify", "chain_of"),
    ("ideal", "_members"),
    ("pure", "pure_diagram"),
    ("monomial", "monomials_of_degree"),
)

SPAN_ARRAYS = (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d"))


class Spans:
    """Flat span storage: parallel arrays indexed by span number.

    parent is the index of the enclosing span, or -1 at top level.
    """

    def __init__(self, names=()):
        self.names = list(names)
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")

    def add(self, name: str, parent: int, start: float, end: float) -> int:
        """Append one finished span; returns its index (for building trees)."""
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.name) - 1

    def name_id(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def __len__(self):
        return len(self.name)

    def dump(self, path: str) -> None:
        """One JSON header line, then the four arrays as raw bytes."""
        header = {
            "names": self.names,
            "count": len(self),
            "arrays": [[field, code] for field, code in SPAN_ARRAYS],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for field, _ in SPAN_ARRAYS:
                getattr(self, field).tofile(f)

    @classmethod
    def load(cls, path: str) -> "Spans":
        with open(path, "rb") as f:
            header = json.loads(f.readline())
            spans = cls(header["names"])
            for field, code in header["arrays"]:
                arr = array(code)
                arr.fromfile(f, header["count"])
                if header["byteorder"] != sys.byteorder:
                    arr.byteswap()
                setattr(spans, field, arr)
        return spans


def self_times(spans: Spans) -> dict[str, tuple[int, float, float]]:
    """Per name: (calls, total seconds, self seconds).

    A span's self time is its duration minus the durations of its direct
    children.  Children never outlive their parent here, because every
    span closes before the call that opened it returns.
    """
    n = len(spans)
    child = [0.0] * n
    start, end, parent = spans.start, spans.end, spans.parent
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    out: dict[str, list] = {}
    for i in range(n):
        dur = end[i] - start[i]
        row = out.setdefault(spans.names[spans.name[i]], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur
        row[2] += dur - child[i]
    return {k: tuple(v) for k, v in out.items()}


class Tracer:
    """Records spans for wrapped functions into a Spans store."""

    def __init__(self):
        self.spans = Spans()
        self.stack = [-1]
        self.recording = True

    def _wrap(self, name: str, fn):
        nid = self.spans.name_id(name)
        names, parents = self.spans.name, self.spans.parent
        starts, ends = self.spans.start, self.spans.end
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    if not tracer.recording:
                        yield from it
                        return
                    idx = len(names)
                    names.append(nid)
                    parents.append(stack[-1])
                    starts.append(0.0)
                    ends.append(0.0)
                    stack.append(idx)
                    starts[idx] = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        ends[idx] = clock()
                        stack.pop()
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        """Wrap every function in LAYERS wherever lexbs refers to it."""
        import lexbs.cli  # noqa: F401  (loads every lexbs module)

        modules = [
            m for k, m in sys.modules.items() if k == "lexbs" or k.startswith("lexbs.")
        ]
        for mod_name, functions in LAYERS.items():
            module = sys.modules[f"lexbs.{mod_name}"]
            for fn_name in functions:
                original = getattr(module, fn_name)
                wrapped = self._wrap(f"{mod_name}.{fn_name}", original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapped)
                        elif isinstance(value, dict):
                            for k, v in list(value.items()):
                                if v is original:
                                    value[k] = wrapped
        os.register_at_fork(after_in_child=self._stop)

    def _stop(self) -> None:
        self.recording = False


def cache_counters() -> dict[str, tuple[int, int]]:
    """(hits, misses) of each cache in CACHES, read through any wrapper."""
    out = {}
    for mod_name, fn_name in CACHES:
        fn = getattr(sys.modules[f"lexbs.{mod_name}"], fn_name)
        while not hasattr(fn, "cache_info"):
            fn = fn.__wrapped__
        info = fn.cache_info()
        out[f"{mod_name}.{fn_name}"] = (info.hits, info.misses)
    return out
