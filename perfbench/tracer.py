"""Span tracing around the public functions of gplabelnoise.

Tracing works by patching: every public function of the traced modules is
replaced, in every package module that binds it by name (``noiseopt`` imports
``fit_matrix`` from ``gpr``, so ``noiseopt.fit_matrix`` is patched as well as
``gpr.fit_matrix``), by a wrapper; ``GprState.solve`` is patched on the class.
``uninstall`` puts every original back, so untraced calls run the unmodified
library.

A span is (id, name, start, end, parent id, item id). Spans stay in memory in
flat arrays until ``write_spans`` writes them out at the end of a run. Self time, the span's
duration minus the time covered by its child spans, is aggregated per name as
spans close.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import logging
import sys
import time

LAYERS = ("kernel", "gpr", "noiseopt", "detect", "data", "cli")


def _public_functions(package: str) -> dict[int, tuple[str, object]]:
    """id(function) -> ("<layer>.<name>", function) for each layer's __all__."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{package}.{layer}")
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found[id(obj)] = (f"{layer}.{name}", obj)
    return found


class _Patcher:
    """Swaps the public functions for wrappers everywhere the package binds
    them, and back."""

    def __init__(self, package: str, wrap):
        """Build ``wrap(name, fn)`` once per public function."""
        functions = _public_functions(package)
        wrappers = {key: wrap(name, fn) for key, (name, fn) in functions.items()}
        self._sites: list[tuple[object, str, object, object]] = []
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for module in modules:
            for attr, value in vars(module).items():
                wrapper = wrappers.get(id(value))
                if wrapper is not None and functions[id(value)][1] is value:
                    self._sites.append((module, attr, value, wrapper))
        state_cls = importlib.import_module(f"{package}.gpr").GprState
        original = vars(state_cls)["solve"]
        self._sites.append((state_cls, "solve", original, wrap("gpr.solve", original)))

    def apply(self) -> None:
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)


class _CountingHandler(logging.Handler):
    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.records = 0

    def emit(self, record):
        self.records += 1


class Tracer:
    """Records a span for every call of a public function while installed.

    ``hooks`` maps a span name to ``hook(result, parent_name)``, called after
    the span closes; ``item`` tags new spans with the workload item they
    belong to. Warnings from the ``<package>.noiseopt`` logger are counted
    while installed.
    """

    def __init__(self, package: str, hooks=None):
        self.package = package
        self.hooks = dict(hooks or {})
        self.item = -1
        self.names: list[str] = []
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.span_id = array.array("q")
        self.span_name = array.array("l")
        self.span_start = array.array("q")
        self.span_end = array.array("q")
        self.span_parent = array.array("q")
        self.span_item = array.array("q")
        self._next_id = 0
        self._stack: list[list] = []  # [span id, name, child ns] per open span
        self._log_handler = _CountingHandler()
        self._patcher = _Patcher(package, self._wrap)

    @property
    def warnings(self) -> int:
        return self._log_handler.records

    def _wrap(self, name, fn):
        name_index = len(self.names)
        self.names.append(name)
        self.calls[name] = 0
        self.self_ns[name] = 0
        self.total_ns[name] = 0
        hook = self.hooks.get(name)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._next_id
            self._next_id = span + 1
            parent = stack[-1] if stack else None
            frame = [span, name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                self.calls[name] += 1
                self.total_ns[name] += duration
                self.self_ns[name] += duration - frame[2]
                self.span_id.append(span)
                self.span_name.append(name_index)
                self.span_start.append(start)
                self.span_end.append(end)
                self.span_parent.append(-1 if parent is None else parent[0])
                self.span_item.append(self.item)
            if hook is not None:
                hook(result, None if parent is None else parent[1])
            return result

        return traced

    def install(self) -> None:
        self._patcher.apply()
        logging.getLogger(f"{self.package}.noiseopt").addHandler(self._log_handler)

    def uninstall(self) -> None:
        logging.getLogger(f"{self.package}.noiseopt").removeHandler(self._log_handler)
        self._patcher.restore()

    def write_spans(self, path) -> None:
        """One CSV row per span, in closing order; times in ns from perf_counter."""
        with open(path, "w") as fh:
            fh.write("id,name,start_ns,end_ns,parent,item\n")
            for i in range(len(self.span_id)):
                fh.write(
                    f"{self.span_id[i]},{self.names[self.span_name[i]]},{self.span_start[i]},"
                    f"{self.span_end[i]},{self.span_parent[i]},{self.span_item[i]}\n"
                )
