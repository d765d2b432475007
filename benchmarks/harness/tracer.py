"""In-memory span tracer over the public functions of glauert_bem.

The tracer wraps every public module-level function of the layers
``polar``, ``model``, ``solvers``, ``design``, ``config`` and ``cli``
(plus the public methods of ``PolarTable``) and rebinds each wrapped name
in every ``glauert_bem`` namespace and module-level dict that refers to
it, so calls between layers are recorded as well as calls from the
benchmark.  Nothing under ``src/`` is edited; :meth:`Tracer.uninstall`
puts every original object back.

A span is (name, start, end, parent span).  Spans are appended to
per-thread flat arrays while the run executes and are only analysed or
written out when it ends.  Worker threads of the CLI thread pool start
with an empty stack; their top spans take as parent the span open on the
main thread at that moment (the ``cmd_*`` call that owns the pool).
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from array import array

import numpy as np

PACKAGE = "glauert_bem"
LAYERS = ("polar", "model", "solvers", "design", "config", "cli")
UNIT_SPAN = "bench.unit"
_SLOT_SHIFT = 40
_LOCAL_MASK = (1 << _SLOT_SHIFT) - 1


class _Buffer:
    """Span arrays of one thread; span ids are ``slot << 40 | index``."""

    __slots__ = ("base", "name", "parent", "start", "end", "tag", "stack")

    def __init__(self, slot):
        self.base = slot << _SLOT_SHIFT
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.tag = array("b")
        self.stack = []


class Tracer:
    """Record spans around the public functions of the traced package.

    ``tags`` maps a span name to ``fn(args, kwargs) -> int`` (stored with
    each span, -1 when absent); ``results`` maps a span name to
    ``fn(args, kwargs, out, exc) -> tuple`` (kept in a dict by span id).
    """

    def __init__(self, tags=None, results=None):
        self.names = []
        self._ids = {}
        self._tags = dict(tags or {})
        self._results = dict(results or {})
        self.results = {}
        self.originals = {}
        self._patches = []
        self._buffers = []
        self._unit_of = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = self._buffer()

    # -- recording -------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _buffer(self):
        try:
            return self._local.buf
        except AttributeError:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
            return buf

    def _open(self, buf, nid, tag):
        stack = buf.stack
        idx = len(buf.name)
        if stack:
            parent = stack[-1]
        elif buf is not self._main and self._main.stack:
            parent = self._main.stack[-1]
        else:
            parent = -1
        buf.name.append(nid)
        buf.parent.append(parent)
        buf.start.append(0.0)
        buf.end.append(0.0)
        buf.tag.append(tag)
        stack.append(buf.base | idx)
        return idx

    def begin_unit(self, unit):
        """Open the benchmark's span around one unit (main thread only)."""
        idx = self._open(self._main, self._name_id(UNIT_SPAN), -1)
        self._unit_of[self._main.base | idx] = unit
        return idx, time.perf_counter()

    def end(self, handle):
        idx, t0 = handle
        t1 = time.perf_counter()
        buf = self._main
        buf.start[idx] = t0
        buf.end[idx] = t1
        buf.stack.pop()

    def _wrap(self, fn, name):
        nid = self._name_id(name)
        tag_fn = self._tags.get(name)
        result_fn = self._results.get(name)
        tracer = self
        local = self._local
        perf = time.perf_counter
        open_span = self._open
        results = self.results

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                buf = local.buf
            except AttributeError:
                buf = tracer._buffer()
            idx = open_span(buf, nid, -1 if tag_fn is None else tag_fn(args, kwargs))
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                buf.end[idx] = perf()
                buf.start[idx] = t0
                buf.stack.pop()
                if result_fn is not None:
                    results[buf.base | idx] = result_fn(args, kwargs, None, exc)
                raise
            buf.end[idx] = perf()
            buf.start[idx] = t0
            buf.stack.pop()
            if result_fn is not None:
                results[buf.base | idx] = result_fn(args, kwargs, out, None)
            return out

        traced.__bench_traced__ = True
        return traced

    # -- patching --------------------------------------------------------

    def install(self):
        """Wrap and rebind every public function of the traced layers."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = package_namespaces()
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                self.originals[name] = obj
                self._rebind(obj, self._wrap(obj, name), namespaces)
        table = sys.modules[f"{PACKAGE}.polar"].PolarTable
        for attr, obj in list(vars(table).items()):
            if not attr.startswith("_") and inspect.isfunction(obj):
                self.originals[f"polar.{attr}"] = obj
                setattr(table, attr, self._wrap(obj, f"polar.{attr}"))
                self._patches.append(("attr", table, attr, obj))

    def _rebind(self, original, wrapper, namespaces):
        for space in namespaces:
            for key, value in list(vars(space).items()):
                if value is original:
                    setattr(space, key, wrapper)
                    self._patches.append(("attr", space, key, original))
                elif isinstance(value, dict):
                    for item, entry in list(value.items()):
                        if entry is original:
                            value[item] = wrapper
                            self._patches.append(("item", value, item, original))

    def uninstall(self):
        """Put back every attribute and dict entry that install() replaced."""
        for kind, target, key, original in reversed(self._patches):
            if kind == "attr":
                setattr(target, key, original)
            else:
                target[key] = original
        self._patches.clear()

    # -- analysis --------------------------------------------------------

    def spans(self):
        """All spans as numpy columns, parents as row indices (-1 for roots)."""
        sizes = [len(buf.name) for buf in self._buffers]
        offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        cat = lambda field, dtype: np.concatenate(  # noqa: E731
            [np.frombuffer(getattr(buf, field), dtype=dtype) for buf in self._buffers])
        parent_gid = cat("parent", np.int64)
        parent = np.full(parent_gid.shape, -1, dtype=np.int64)
        has = parent_gid >= 0
        parent[has] = (offsets[parent_gid[has] >> _SLOT_SHIFT]
                       + (parent_gid[has] & _LOCAL_MASK))
        thread = np.repeat(np.arange(len(sizes), dtype=np.int16), sizes)

        def row(gid):
            return int(offsets[gid >> _SLOT_SHIFT] + (gid & _LOCAL_MASK))

        unit_index = np.full(len(parent), -1, dtype=np.int32)
        for gid, unit in self._unit_of.items():
            unit_index[row(gid)] = unit
        return SpanTable(self.names, cat("name", np.int32), parent, cat("start", np.float64),
                         cat("end", np.float64), cat("tag", np.int8), thread, unit_index,
                         {row(gid): value for gid, value in self.results.items()})


def package_namespaces():
    """Every imported module of the traced package, the package itself first."""
    return [module for name, module in sorted(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def leftover_wrappers():
    """Names still bound to a tracer wrapper; empty after a clean uninstall()."""
    found = []
    spaces = package_namespaces()
    table = sys.modules[f"{PACKAGE}.polar"].PolarTable
    for space in spaces + [table]:
        for key, value in list(vars(space).items()):
            if getattr(value, "__bench_traced__", False):
                found.append(f"{space.__name__}.{key}")
            elif isinstance(value, dict):
                found.extend(f"{space.__name__}.{key}[{item!r}]"
                             for item, entry in value.items()
                             if getattr(entry, "__bench_traced__", False))
    return found


class SpanTable:
    """Columns of every recorded span, ordered by thread then start."""

    def __init__(self, names, name, parent, start, end, tag, thread, unit_index, results):
        self.names = names
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.tag = tag
        self.thread = thread
        self.unit_index = unit_index
        self.results = results
        self.duration = end - start
        self.self_time = self._self_time()

    def __len__(self):
        return len(self.name)

    def ids(self, *names):
        return [self.names.index(n) for n in names if n in self.names]

    def mask(self, name):
        """Rows of the spans called ``name``."""
        return np.isin(self.name, self.ids(name))

    def _self_time(self):
        """Span duration minus the part of it that child spans cover."""
        n = len(self.name)
        covered = np.zeros(n)
        child = self.parent >= 0
        same = child.copy()
        same[child] = self.thread[self.parent[child]] == self.thread[child]
        np.add.at(covered, self.parent[same], self.duration[same])
        cross = np.nonzero(child & ~same)[0]
        groups = {}
        for row in cross:
            groups.setdefault(int(self.parent[row]), []).append(row)
        for parent, rows in groups.items():
            intervals = sorted((self.start[r], self.end[r]) for r in rows)
            total, cur_lo, cur_hi = 0.0, intervals[0][0], intervals[0][1]
            for lo, hi in intervals[1:]:
                if lo > cur_hi:
                    total += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            covered[parent] += total + cur_hi - cur_lo
        return np.maximum(self.duration - covered, 0.0)

    def nearest(self, target, include_self=False):
        """Row of the nearest ancestor whose name is in ``target`` (-1 if none)."""
        is_target = np.isin(self.name, self.ids(*target))
        rows = np.arange(len(self.name))
        anc = np.where(is_target, rows, self.parent) if include_self else self.parent.copy()
        while True:
            live = anc >= 0
            pending = np.zeros_like(live)
            pending[live] = ~is_target[anc[live]]
            if not pending.any():
                return anc
            anc[pending] = self.parent[anc[pending]]

    def unit_of_span(self):
        """Index of the unit whose span encloses each span (-1 outside units)."""
        unit_rows = self.nearest([UNIT_SPAN], include_self=True)
        unit = np.full(len(self.name), -1, dtype=np.int32)
        ok = unit_rows >= 0
        unit[ok] = self.unit_index[unit_rows[ok]]
        return unit

    def save(self, path):
        """Write every span (name, start, end, parent, unit, thread) to ``path``."""
        np.savez(path, names=np.array(self.names), name=self.name, start=self.start,
                 end=self.end, parent=self.parent, unit=self.unit_of_span(),
                 thread=self.thread)
