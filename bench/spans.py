"""Layer spans and counters recorded from outside the program.

``Tracer.install`` replaces every public function of the seqent layers with
a wrapper, in every module namespace that holds a binding of it: the
defining module, each module that imported the name (``checks``,
``entropy`` and ``formats`` each hold their own ``max_independence``), and
the package namespace. Calls made through any binding therefore land in a
wrapper, and nothing under ``src/`` changes.

Spanned functions record (name, parent, start, end) into flat arrays kept in
memory; ``write`` dumps them when the run ends. Hot leaves (every ``model``
function, ``orbit_member`` among them, and ``as_tuple_spec``) are only
counted, and in a run of their own, so the counting wrappers' cost does not
land in any span. A layer's self time is its span time minus the time of its
child spans.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import os
import sys
import time

# modules whose public functions are wrapped, by layer name
LAYERS = ("construct", "model", "independence", "checks", "entropy",
          "flower", "formats", "cli")
# called too often to span: counted instead
COUNTED_LAYERS = {"model"}
COUNTED = {("independence", "as_tuple_spec")}
# bindings whose calls are also counted apart from the function's total
BINDING_COUNTED = {("entropy", "max_independence")}


class Tracer:
    """Spans and call counts for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._stack = [-1]
        self._counts: dict[str, list[int]] = {}

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
        return got

    def _counter(self, key: str) -> list[int]:
        return self._counts.setdefault(key, [0])

    def counts(self) -> dict[str, int]:
        """Every nonzero counter, by name."""
        return {k: v[0] for k, v in sorted(self._counts.items()) if v[0]}

    def _counted(self, fn, key):
        cell = self._counter(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanned(self, fn, name, keys):
        cells = [self._counter(k) for k in keys]
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        nid = self._name_id(name)
        span_id, observe = self._refinements(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for cell in cells:
                cell[0] += 1
            i = len(names)
            names.append(nid if span_id is None else span_id(args, kwargs))
            parents.append(stack[-1])
            stack.append(i)
            starts.append(clock())
            ends.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return wrapper

    def _refinements(self, name):
        """Per-call span name and outcome counter for the functions that
        have them: set size and success for is_independence_set, realized
        assignments for satisfiable, file bytes for the writers."""
        if name == "independence.is_independence_set":
            slots: dict[int, tuple[int, list[int], list[int]]] = {}

            def slot(args, kwargs):
                n = len(args[0] if args else kwargs["J"])
                got = slots.get(n)
                if got is None:
                    sub = f"{name}.size{n}"
                    got = slots[n] = (self._name_id(sub),
                                      self._counter(sub + ".calls"),
                                      self._counter(sub + ".ok"))
                return got

            def span_id(args, kwargs):
                sid, calls, _ok = slot(args, kwargs)
                calls[0] += 1
                return sid

            def observe(args, kwargs, result):
                if result.ok:
                    slot(args, kwargs)[2][0] += 1
            return span_id, observe
        if name == "independence.satisfiable":
            realized = self._counter(name + ".realized")

            def observe(args, kwargs, result):
                if result is not None:
                    realized[0] += 1
            return None, observe
        if name.startswith("formats.write_"):
            written = self._counter("formats.bytes_written")

            def observe(args, kwargs, result):
                path = kwargs["path"] if "path" in kwargs else args[1]
                written[0] += os.path.getsize(path)
            return None, observe
        return None, None

    # -- installation -------------------------------------------------------

    def install(self, mode: str, package: str = "seqent") -> None:
        """Wrap the layers' public functions at every binding.

        ``mode`` "spans" spans every function except the hot leaves and
        leaves those unwrapped, so their calls cost no tracer time inside
        the spans; "counts" only counts the hot leaves' calls.
        """
        originals: dict[int, tuple[str, str, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, value in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != mod.__name__):
                    continue
                originals[id(value)] = (layer, attr, value)
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for mod in modules:
            binder = mod.__name__.rpartition(".")[2]
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is None or attr.startswith("__"):
                    continue
                layer, fname, fn = hit
                name = f"{layer}.{fname}"
                leaf = layer in COUNTED_LAYERS or (layer, fname) in COUNTED
                if leaf != (mode == "counts"):
                    continue
                if leaf:
                    wrapped = self._counted(fn, name + ".calls")
                else:
                    keys = [name + ".calls"]
                    if (binder, fname) in BINDING_COUNTED:
                        keys.append(f"{binder}.{fname}.calls")
                    wrapped = self._spanned(fn, name, keys)
                setattr(mod, attr, wrapped)

    # -- results ------------------------------------------------------------

    def self_times(self, wall: float) -> dict[str, float]:
        """Self seconds per span name, plus the part of ``wall`` that no
        span covers."""
        n = len(self.span_name)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        child = [0.0] * n
        covered = 0.0
        for i in range(n):
            dur = ends[i] - starts[i]
            p = parents[i]
            if p >= 0:
                child[p] += dur
            else:
                covered += dur
        out = dict.fromkeys(self.names, 0.0)
        names = self.names
        for i in range(n):
            out[names[self.span_name[i]]] += ends[i] - starts[i] - child[i]
        out["unattributed"] = wall - covered
        return out

    def write(self, path_stem: str, origin: float) -> None:
        """Spans as raw arrays plus a JSON header naming their layout."""
        header = {"names": self.names, "count": len(self.span_name),
                  "origin_perf_counter": origin,
                  "arrays": [["name", "i", self.span_name.itemsize],
                             ["parent", "i", self.span_parent.itemsize],
                             ["start", "d", 8], ["end", "d", 8]],
                  "counts": self.counts()}
        with open(path_stem + ".bin", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(fh)
        with open(path_stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1)
            fh.write("\n")
