"""Spans recorded from the benchmark's own files, around the public entry
points of each library layer.  Nothing under ``src/`` is edited: the
wrappers are installed by rebinding module/class/instance attributes and
removed again by :meth:`Tracer.uninstall`.

A span is ``[name, start, end, parent, units]``; ``name`` is
``"<layer>:<function>"``, ``parent`` indexes the same thread's span list
(-1 for a root) and ``units`` is an optional work count (edges in an
``update_batch``, blocks in an ``engine.run_blocks``).  Spans stay in
memory; :func:`dump` writes them out when the run ends.  A span's *self*
time is its duration minus its direct children's, so layer times add up
to the root time without double counting.
"""

from __future__ import annotations

import inspect
import json
import sys
import threading
from time import perf_counter

NAME, START, END, PARENT, UNITS = range(5)


class _Buffer:
    __slots__ = ("spans", "stack", "generation")

    def __init__(self, generation: int):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.generation = generation


class Tracer:
    def __init__(self) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self._generation = 0
        self._undo: list = []

    # -- recording ------------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._tls, "buf", None)
        if buf is None or buf.generation != self._generation:
            buf = self._tls.buf = _Buffer(self._generation)
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _open(self, name: str) -> tuple[list, list]:
        buf = self._buffer()
        stack = buf.stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
        stack.append(len(buf.spans))
        buf.spans.append(rec)
        return rec, stack

    def wrap(self, fn, name: str, units=None):
        """``fn`` with a span around every call; ``units(args, kwargs)``
        optionally counts the work the call was handed."""
        def traced(*args, **kwargs):
            rec, stack = self._open(name)
            if units is not None:
                rec[UNITS] = units(args, kwargs)
            rec[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn, name: str):
        """A generator function whose every resumption is one span: the
        consumer's work between items is not the generator's."""
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                rec, stack = self._open(name)
                rec[START] = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec[END] = perf_counter()
                    stack.pop()
                yield item

        traced.__wrapped__ = fn
        return traced

    def root(self, name: str):
        """Context manager the harness opens once per unit of work."""
        return _Root(self, name)

    def reset(self) -> None:
        """Forget every span (buffers of finished threads included)."""
        with self._lock:
            self._generation += 1
            self._buffers = []

    def threads(self) -> list[list[list]]:
        with self._lock:
            return [b.spans for b in self._buffers if b.spans]

    # -- installation ---------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement) -> None:
        """Point every ``repro`` module global that *is* ``original`` at
        ``replacement``, so ``from x import f`` aliases are traced too."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def _function(self, fn, name: str, units=None) -> None:
        self._rebind(fn, self.wrap(fn, name, units))

    def _method(self, cls, attr: str, name: str, units=None) -> None:
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self.wrap(raw.__func__, name, units)))
        elif inspect.isgeneratorfunction(raw):
            self._set(cls, attr, self.wrap_generator(raw, name))
        else:
            self._set(cls, attr, self.wrap(raw, name, units))

    def install(self) -> None:
        """Wrap the public entry points of every layer (see README)."""
        from repro import lagraph, serve, stream
        from repro.graphblas import (
            Matrix, backends, engine, operations, plan, tiled,
        )
        from repro.lagraph import triangles

        for fname in lagraph.__all__:
            fn = getattr(lagraph, fname)
            if inspect.isfunction(fn) and not fname.startswith(("check_", "is_")):
                self._function(fn, f"lagraph:{fname}")
        self._function(triangles.triangle_count_delta,
                       "lagraph:triangle_count_delta")

        for fname in operations.__all__:
            fn = getattr(operations, fname)
            if inspect.isfunction(fn):
                self._function(fn, f"ops:{fname}")
        for fname, fn in list(vars(plan).items()):
            if fname.startswith("plan_") and inspect.isfunction(fn):
                self._function(fn, f"plan:{fname}")
        self._function(backends.dispatch, "dispatch:dispatch")
        self._function(tiled.execute, "tiled:execute")

        # The kernel tier seen from outside: the active backend's op
        # methods (kernel plus mask/accumulate/assembly).
        be = backends.current_backend()
        for op in plan.TABLE1_OPS:
            self._set(be, op, self.wrap(getattr(be, op), f"kernel:{op}"))
        self._function(engine.run_blocks, "engine:run_blocks",
                       units=lambda a, k: len(a[1]))

        def n_edges(args, kwargs):
            return len(args[1])

        self._method(Matrix, "set_element", "matrix:set_element")
        self._method(Matrix, "remove_element", "matrix:remove_element")
        self._method(Matrix, "wait", "matrix:wait")
        self._method(Matrix, "update_batch", "matrix:update_batch", n_edges)
        self._method(Matrix, "from_coo", "matrix:from_coo", n_edges)

        self._method(tiled.TiledMatrix, "from_store", "tiled:from_store")
        self._method(tiled.TiledMatrix, "iter_stripes", "tiled:iter_stripes")
        self._function(tiled.mxm_tiled, "tiled:mxm_tiled")

        for attr in ("ingest", "flush", "snapshot"):
            self._method(stream.GraphStream, attr, f"stream:{attr}")
        for cls, short in ((stream.DynamicPageRank, "pagerank"),
                           (stream.IncrementalComponents, "components"),
                           (stream.IncrementalTriangles, "triangles")):
            self._method(cls, "update", f"incr:{short}")

        for attr in ("submit", "ingest", "publish"):
            self._method(serve.GraphServer, attr, f"serve:{attr}")
        # one root per served query, on the worker thread that runs it
        for algo, fn in list(serve.ALGORITHMS.items()):
            serve.register_algorithm(
                algo, self.wrap(fn, f"serve:exec_{algo}"), replace=True)
            self._undo.append((serve.ALGORITHMS, algo, fn, True))

    def uninstall(self) -> None:
        for owner, attr, old, had in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = old
            elif had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._undo = []


class _Root:
    __slots__ = ("tracer", "name", "rec", "stack")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.rec, self.stack = self.tracer._open(self.name)
        self.rec[START] = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.rec[END] = perf_counter()
        self.stack.pop()


class NullTracer:
    """The untraced run: ``root()`` costs one attribute load and a no-op
    ``with``, identical for every workload."""

    class _Null:
        def __enter__(self):
            return self

        def __exit__(self, *exc) -> None:
            return None

    _null = _Null()

    def root(self, name: str):
        return self._null


# -- analysis -----------------------------------------------------------------

def layer_of(name: str) -> str:
    return name.split(":", 1)[0]


def summarize(threads: list[list[list]]) -> dict:
    """Per span name: calls, self seconds, units; plus root totals.

    ``ops_under_lagraph`` counts ``ops:*`` spans with a ``lagraph:*``
    ancestor — the algorithm layer's kernel-interface call count.
    """
    by_name: dict[str, list] = {}
    root_s = 0.0
    roots = 0
    ops_under_lagraph = 0
    for spans in threads:
        child_s = [0.0] * len(spans)
        under = [False] * len(spans)
        for i, rec in enumerate(spans):
            dur = rec[END] - rec[START]
            parent = rec[PARENT]
            layer = layer_of(rec[NAME])
            if parent < 0:
                root_s += dur
                roots += 1
            else:
                child_s[parent] += dur
                under[i] = under[parent] or layer_of(spans[parent][NAME]) == "lagraph"
            if layer == "ops" and under[i]:
                ops_under_lagraph += 1
        for i, rec in enumerate(spans):
            agg = by_name.setdefault(rec[NAME], [0, 0.0, 0])
            agg[0] += 1
            agg[1] += (rec[END] - rec[START]) - child_s[i]
            agg[2] += rec[UNITS]
    return {"by_name": by_name, "root_s": root_s, "roots": roots,
            "ops_under_lagraph": ops_under_lagraph}


def layer_totals(summary: dict) -> dict[str, tuple[int, float]]:
    """Per layer: (calls, self seconds)."""
    out: dict[str, list] = {}
    for name, (calls, self_s, _units) in summary["by_name"].items():
        agg = out.setdefault(layer_of(name), [0, 0.0])
        agg[0] += calls
        agg[1] += self_s
    return {k: (v[0], v[1]) for k, v in out.items()}


def dump(threads: list[list[list]], path) -> None:
    """Write spans as ``{name,start,end,parent,root,thread}`` rows."""
    rows = []
    for t, spans in enumerate(threads):
        root_of = [0] * len(spans)
        for i, rec in enumerate(spans):
            parent = rec[PARENT]
            root_of[i] = i if parent < 0 else root_of[parent]
            rows.append([rec[NAME], rec[START], rec[END], parent, root_of[i], t])
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"columns": ["name", "start", "end", "parent", "root",
                               "thread"], "spans": rows}, f)
