"""In-memory span tracer around the public functions of naimark's layers.

Spans are ``[name, layer, start, end, parent, op]`` lists kept in memory and
written out once, when the run ends.  The package imports functions by name
(``from .wh import displacement``), so a wrapper only sees calls from other
layers if it is rebound in every ``naimark.*`` module holding the original;
``install`` does that and ``uninstall`` restores the originals.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import sys
import time
import types
from collections import Counter, defaultdict

LAYERS = ("wh", "fiducials", "block", "bell", "simulate", "circuits", "io", "cli")

# io functions by direction; the cli's own json calls are traced as io.json.*.
ENCODE = {
    "io.matrix_to_obj", "io.save_matrix", "io.gate_to_obj", "io.gatelist_to_obj",
    "io.distribution_to_obj", "io.counts_to_obj", "io.json.dumps",
}
DECODE = {
    "io.obj_to_matrix", "io.load_matrix", "io.obj_to_gate", "io.obj_to_gatelist",
    "io.json.loads", "io.json.load",
}


class Tracer:
    """Spans and counters of one process, and the wrappers that record them."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _open(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op])
        self._stack.append(idx)
        self.spans[idx][2] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        idx = self._open(name, layer)
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def adopt(self, spans: list[list], counters: dict, parent: int) -> None:
        """Merge spans recorded by a child process under span ``parent``.

        ``time.perf_counter`` is the system-wide monotonic clock on Linux, so
        child timestamps share this process's time base.
        """
        base = len(self.spans)
        for name, layer, t0, t1, p, _ in spans:
            self.spans.append([name, layer, t0, t1, parent if p < 0 else p + base, self.op])
        self.counters.update(counters)

    def _json_proxy(self, real):
        """A stand-in for the cli's ``json`` module that times and counts bytes."""
        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(real))

        def dumps(obj, *args, **kwargs):
            text = real.dumps(obj, *args, **kwargs)
            self.counters["io.bytes_written"] += len(text.encode())
            return text

        def loads(text, *args, **kwargs):
            self.counters["io.bytes_read"] += len(text)
            return real.loads(text, *args, **kwargs)

        def load(fh, *args, **kwargs):
            self.counters["io.bytes_read"] += os.fstat(fh.fileno()).st_size
            return real.load(fh, *args, **kwargs)

        for fn in (dumps, loads, load):
            setattr(proxy, fn.__name__, self.wrap(fn, f"io.json.{fn.__name__}", "io"))
        return proxy

    def install(self) -> None:
        import naimark.cli  # noqa: F401  (imports every layer)

        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"naimark.{layer}"]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrapped[obj] = self.wrap(obj, f"{layer}.{attr}", layer)
        modules = [m for n, m in sys.modules.items() if n == "naimark" or n.startswith("naimark.")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        cli = sys.modules["naimark.cli"]
        self._undo.append((cli, "json", cli.json))
        cli.json = self._json_proxy(json)

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, obj = self._undo.pop()
            setattr(mod, attr, obj)

    @contextlib.contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


class Profile:
    """Self and inclusive times of a span list.

    A span's self time is its duration less the time its direct children
    cover; the self times of a tree add up to its root's duration.
    """

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        child = [0.0] * len(spans)
        for _, _, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self.self_by_layer: Counter = Counter()
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, (name, layer, t0, t1, _, _) in enumerate(spans):
            self.self_by_layer[layer] += (t1 - t0) - child[i]
            self.by_name[name].append(i)

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def inclusive(self, names) -> float:
        """Total duration of spans named in ``names`` that have no such ancestor."""
        names = {names} if isinstance(names, str) else set(names)
        total = 0.0
        for name in names:
            for i in self.by_name.get(name, ()):
                p = self.spans[i][4]
                while p >= 0 and self.spans[p][0] not in names:
                    p = self.spans[p][4]
                if p < 0:
                    total += self.spans[i][3] - self.spans[i][2]
        return total
