"""Run one benchmark operation with a span around every public polycrep
function.

Usage:
  python3 bench/traced.py OUT.json -m polycrep.cli ARGS...   (a CLI call)
  python3 bench/traced.py OUT.json SCRIPT ARGS...            (e.g. libop.py)

The program is not modified: before the operation starts, every public
function of the traced modules is replaced by a wrapper, in its own module
and in every polycrep module that bound it by `from ... import`.  A wrapper
records a span (id, parent id, name, start, end) and adds to per-name
totals: calls, inclusive seconds, self seconds (inclusive minus the spans
nested directly inside) and items (yields of a generator, the length of a
returned list, a returned count, or a report's "checked").  Spans stay in
memory and OUT.json is written when the operation ends.

Cost control: the first SPAN_CAP calls of a name keep their span record;
later ones only add to the totals.  ratgeom.dot, called millions of times
per chamber enumeration, is reduced to a call count.  arrangements.
count_regions is split by backend into count_regions.enumerate and
count_regions.charpoly.  Calls made inside `--parallelism` pool workers are
not seen (workers exit without writing).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import runpy
import sys
from time import perf_counter

MODULES = ("cli", "complexes", "hyper_cones", "arrangements", "ratgeom",
           "bunches", "polygon_cones", "crosscheck", "coxrelations")
COUNT_ONLY = {"ratgeom.dot"}
SPAN_CAP = 1000


def _items(result) -> int:
    if isinstance(result, bool):
        return 0
    if isinstance(result, int):
        return result
    if isinstance(result, list):
        return len(result)
    if isinstance(result, dict) and isinstance(result.get("checked"), int):
        return result["checked"]
    return 0


class Tracer:
    def __init__(self):
        self.origin = perf_counter()
        self.stack = [[0.0, 0]]  # open spans [child seconds, id]; 0 = root
        self.stats = {}  # name -> [calls, total_s, self_s, items]
        self.spans = []
        self.ids = itertools.count(1)

    def timed(self, name: str, fn):
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack, spans, ids, origin = (self.stack, self.spans, self.ids,
                                     self.origin)

        def call(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, next(ids)]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                parent[0] += d
                st[0] += 1
                st[1] += d
                st[2] += d - frame[0]
                if st[0] <= SPAN_CAP:
                    spans.append((frame[1], parent[1], name, t0 - origin,
                                  t1 - origin))
            st[3] += _items(result)
            return result
        return call

    def drive(self, name: str, gen):
        """Re-yield a generator, timing each resume as part of one span."""
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        st[0] += 1
        sid = next(self.ids)
        first = last = parent_id = None
        try:
            while True:
                parent = self.stack[-1]
                frame = [0.0, sid]
                self.stack.append(frame)
                t0 = perf_counter()
                if first is None:
                    first, parent_id = t0, parent[1]
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    last = perf_counter()
                    self.stack.pop()
                    d = last - t0
                    parent[0] += d
                    st[1] += d
                    st[2] += d - frame[0]
                st[3] += 1
                yield item
        finally:
            gen.close()
            if first is not None and st[0] <= SPAN_CAP:
                self.spans.append((sid, parent_id, name, first - self.origin,
                                   last - self.origin))

    def wrap(self, name: str, fn):
        if name in COUNT_ONLY:
            st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])

            def counted(*args):
                st[0] += 1
                return fn(*args)
            wrapper = counted
        elif inspect.isgeneratorfunction(fn):
            def generator(*args, **kwargs):
                return self.drive(name, fn(*args, **kwargs))
            wrapper = generator
        elif name == "arrangements.count_regions":
            backends = {m: self.timed(f"{name}.{m}", fn)
                        for m in ("enumerate", "charpoly")}

            def by_backend(a, mode="enumerate"):
                return backends.get(mode, fn)(a, mode)
            wrapper = by_backend
        else:
            wrapper = self.timed(name, fn)
        return functools.wraps(fn)(wrapper)

    def install(self):
        modules = [importlib.import_module(f"polycrep.{m}") for m in MODULES]
        wrapped = {}
        for short, mod in zip(MODULES, modules):
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    wrapped[value] = self.wrap(f"{short}.{attr}", value)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(mod, attr, wrapped[value])

    def dump(self, path: str, import_s: float):
        with open(path, "w") as f:
            json.dump({"import_s": import_s, "stats": self.stats,
                       "spans": self.spans}, f)


def main() -> int:
    out, target, *rest = sys.argv[1:]
    t0 = perf_counter()
    import polycrep.cli
    import_s = perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        if target == "-m":
            module, *args = rest
            if module != "polycrep.cli":
                raise SystemExit(f"only polycrep.cli is traced, not {module}")
            code = polycrep.cli.main(args)
        else:
            sys.argv = [target, *rest]
            try:
                runpy.run_path(target, run_name="__main__")
                code = 0
            except SystemExit as exc:
                code = exc.code or 0
    finally:
        tracer.dump(out, import_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
