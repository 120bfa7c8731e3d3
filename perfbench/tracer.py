"""Outside-in tracing of quivernc, and the arithmetic on the spans it records.

`install()` runs inside a program process. It wraps every public function
of each layer module, plus `GroupElement.inverse`, in every namespace of the
package that binds it (modules use `from .x import name`, and `cli.COMMANDS`
and `verify.SUITES` hold functions in dicts). Each call records a span: name,
start, end, parent span and operation id. Spans stay in memory and
`Tracer.dump` writes them out once, at the end of the process.

The analysis half (`self_times`, `Totals`, `weyl_order`, ...) uses only
the standard library, so the benchmark runner imports this module without
importing quivernc.
"""

from __future__ import annotations

import json
import math
import time
from array import array

LAYERS = ("quiver", "fields", "weyl", "replab", "tors", "cluster", "stab",
          "ncmap", "latt", "verify", "cli")

# lru_cache counters reported as hit ratios
CACHED = ("replab.indecomposable", "replab.hom_dim_roots",
          "tors.enumerate_torsion_classes", "weyl.weyl_group")


# --- Dynkin data, computed by the benchmark itself -------------------------

def degrees(dynkin: str) -> list[int]:
    """Degrees of the Weyl group of a simply laced Dynkin type such as 'D5'."""
    kind, n = dynkin[0], int(dynkin[1:])
    if kind == "A":
        return list(range(2, n + 2))
    if kind == "D":
        return sorted(list(range(2, 2 * n - 1, 2)) + [n])
    return {6: [2, 5, 6, 8, 9, 12], 7: [2, 6, 8, 10, 12, 14, 18],
            8: [2, 8, 12, 14, 18, 20, 24, 30]}[n]


def dynkin_types(n: int, arrows) -> list[str]:
    """Dynkin type of each connected component of the underlying graph."""
    adj = {v: set() for v in range(1, n + 1)}
    for s, t in arrows:
        adj[s].add(t)
        adj[t].add(s)
    seen, types = set(), []
    for v in adj:
        if v in seen:
            continue
        comp, stack = [], [v]
        seen.add(v)
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in adj[x] - seen:
                seen.add(y)
                stack.append(y)
        types.append(_tree_type(comp, adj))
    return types


def _tree_type(comp: list[int], adj) -> str:
    k = len(comp)
    branch = [v for v in comp if len(adj[v]) >= 3]
    if not branch:
        return f"A{k}"
    if len(branch) > 1 or len(adj[branch[0]]) > 3:
        raise ValueError("not a simply laced Dynkin diagram")
    arms = []
    for start in adj[branch[0]]:
        prev, cur, length = branch[0], start, 1
        while len(adj[cur]) == 2:
            prev, cur = cur, next(y for y in adj[cur] if y != prev)
            length += 1
        arms.append(length)
    arms.sort()
    if arms[:2] == [1, 1]:
        return f"D{k}"
    if arms[:2] == [1, 2] and arms[2] in (2, 3, 4):
        return f"E{k}"
    raise ValueError("not a simply laced Dynkin diagram")


def weyl_order(n: int, arrows) -> int:
    """|W| as the product of the degrees over the components."""
    return math.prod(math.prod(degrees(t)) for t in dynkin_types(n, arrows))


def subspace_count(q: int, dim: int) -> int:
    """Number of subspaces of GF(q)^dim: the sum of Gaussian binomials."""
    total = 0
    for k in range(dim + 1):
        num = den = 1
        for i in range(k):
            num *= q ** (dim - i) - 1
            den *= q ** (i + 1) - 1
        total += num // den
    return total


# --- recording, inside a program process ------------------------------------

class Tracer:
    def __init__(self, cap_error=()):
        self.cap_error = cap_error  # exception type counted as an oracle refusal
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op = -1
        self.counters = {
            "subrep_candidates": 0, "subrep_accepted": 0,
            "nc_size": 0, "weyl_size": 0,
            "sortable_true": 0, "sortable_calls": 0,
            "oracle_cap_refusals": 0,
        }
        self.cache_base: dict[str, tuple[int, int]] = {}
        self.cached_fns: dict = {}

    def wrap(self, name: str, fn, observe=None):
        idx = len(self.names)
        self.names.append(name)
        name_of, parent, op_of = self.name_of, self.parent, self.op_of
        start, end, stack = self.start, self.end, self.stack
        clock = time.perf_counter
        cap_error = self.cap_error

        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(idx)
            parent.append(stack[-1] if stack else -1)
            op_of.append(self.op)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except cap_error as exc:
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    self.counters["oracle_cap_refusals"] += 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def dump(self, path: str) -> None:
        cache = {}
        for name, fn in self.cached_fns.items():
            info = fn.cache_info()
            h0, m0 = self.cache_base[name]
            cache[name] = [info.hits - h0, info.misses - m0]
        header = {"names": self.names, "count": len(self.start),
                  "counters": self.counters, "cache": cache}
        with open(path, "wb") as fh:
            blob = json.dumps(header).encode()
            fh.write(len(blob).to_bytes(8, "little"))
            fh.write(blob)
            for arr in (self.name_of, self.parent, self.op_of, self.start, self.end):
                arr.tofile(fh)

    # observers for the waste ratios
    def _observe_subrep(self, args, kwargs, result):
        m = args[0] if args else kwargs["m"]
        self.counters["subrep_candidates"] += math.prod(
            subspace_count(m.field.p, d) for d in m.dims)
        self.counters["subrep_accepted"] += len(result)

    def _observe_nc(self, args, kwargs, result):
        q = args[0] if args else kwargs["q"]
        self.counters["nc_size"] += len(result)
        self.counters["weyl_size"] += weyl_order(q.n, q.arrows)

    def _observe_sortable(self, args, kwargs, result):
        self.counters["sortable_calls"] += 1
        self.counters["sortable_true"] += bool(result)


def install() -> Tracer:
    """Import quivernc and wrap its public entry points in every namespace."""
    import importlib

    from quivernc.errors import OracleCapError

    tracer = Tracer(OracleCapError)
    pkg = importlib.import_module("quivernc")
    mods = {layer: importlib.import_module(f"quivernc.{layer}") for layer in LAYERS}
    observers = {
        "replab.subrepresentation_subspaces": tracer._observe_subrep,
        "weyl.noncrossing_partitions": tracer._observe_nc,
        "weyl.is_c_sortable": tracer._observe_sortable,
    }
    wrapped = {}  # id(original) -> wrapper
    for layer, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            name = f"{layer}.{attr}"
            if name in CACHED:
                tracer.cached_fns[name] = obj
                info = obj.cache_info()
                tracer.cache_base[name] = (info.hits, info.misses)
            wrapped[id(obj)] = tracer.wrap(name, obj, observers.get(name))
    group = mods["weyl"].GroupElement
    group.inverse = tracer.wrap("weyl.GroupElement.inverse", group.inverse)

    for mod in [pkg, *mods.values()]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])
            elif isinstance(obj, dict):
                for key, val in list(obj.items()):
                    if callable(val) and id(val) in wrapped:
                        obj[key] = wrapped[id(val)]
    return tracer


# --- analysis, in the benchmark runner --------------------------------------

def load(path: str):
    with open(path, "rb") as fh:
        size = int.from_bytes(fh.read(8), "little")
        header = json.loads(fh.read(size))
        count = header["count"]
        arrays = []
        for code in "iiidd":
            arr = array(code)
            arr.fromfile(fh, count)
            arrays.append(arr)
    return header, arrays


def self_times(starts, ends, parents) -> array:
    """Each span's duration minus the part of it that its child spans cover.

    Spans must be in the order they started, as the tracer records them, so
    a parent precedes its children and siblings come in start order. The
    children's union is swept left to right and clipped to the parent, so
    overlapping children do not subtract any instant twice.
    """
    own = array("d", (e - s for s, e in zip(starts, ends)))
    reach = array("d", starts)  # how far into each span its children reach
    for i, p in enumerate(parents):
        if p < 0:
            continue
        lo, hi = max(starts[i], reach[p]), min(ends[i], ends[p])
        if hi > lo:
            own[p] -= hi - lo
            reach[p] = hi
    return own


class Totals:
    """Per-name call counts, self and inclusive times, and counters, summed
    over the span files of one traced pass. Inclusive time counts only spans
    with no ancestor of the same name, so recursion is not counted twice."""

    def __init__(self, incl_names):
        self.incl_names = list(incl_names)
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.incl_s: dict[str, float] = {n: 0.0 for n in self.incl_names}
        self.counters: dict[str, int] = {}
        self.cache: dict[str, list[int]] = {}

    def add(self, header, arrays) -> None:
        names = header["names"]
        name_of, parents, _ops, starts, ends = arrays
        own = self_times(starts, ends, parents)
        calls, own_by, incl_by = [0] * len(names), [0.0] * len(names), [0.0] * len(names)
        bits = [1 << self.incl_names.index(n) if n in self.incl_names else 0 for n in names]
        masks = array("H", bytes(2 * len(starts)))  # incl names among ancestors
        for i, j in enumerate(name_of):
            calls[j] += 1
            own_by[j] += own[i]
            p = parents[i]
            if p >= 0:
                masks[i] = masks[p] | bits[name_of[p]]
            if bits[j] and not masks[i] & bits[j]:
                incl_by[j] += ends[i] - starts[i]
        for j, name in enumerate(names):
            if calls[j]:
                self.calls[name] = self.calls.get(name, 0) + calls[j]
                self.self_s[name] = self.self_s.get(name, 0.0) + own_by[j]
            if name in self.incl_s:
                self.incl_s[name] += incl_by[j]
        for key, v in header["counters"].items():
            self.counters[key] = self.counters.get(key, 0) + v
        for key, (hits, misses) in header["cache"].items():
            acc = self.cache.setdefault(key, [0, 0])
            acc[0] += hits
            acc[1] += misses

    def module_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, v in self.self_s.items():
            out[name.split(".", 1)[0]] += v
        return out
