"""Span tracer installed around statwintgen's public functions from outside.

The tracer wraps every public module-level function of the six layer
modules, in every ``statwintgen`` module namespace that binds it (so
``require_valid`` is traced whether ``legendrian`` or ``wintgen`` calls it),
and restores the original bindings afterwards.  Spans (name, start, end,
parent, item id, n) stay in memory until the run ends; self time is a span's
duration minus the time covered by its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

PACKAGE = "statwintgen"
LAYERS = ("tensor_core", "statistical_geometry", "warped_contact", "legendrian", "wintgen", "cli")

# Span fields, by position in the span list.
NAME, START, END, PARENT, ITEM, N = range(6)


def layer_functions() -> dict[str, object]:
    """Qualified name ("layer.function") -> function, for every traced function."""
    out = {}
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for attr, value in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if value.__module__ == module.__name__:
                out[f"{layer}.{attr}"] = value
    return out


class Tracer:
    """Records one span per call of a wrapped function while ``active``.

    A direct recursive call (``dump_json`` rendering its own elements) is
    folded into its caller's span.  ``n`` is the dimension of the
    Legendrian instance passed as first argument, inherited by callees that
    take no instance, so per-dimension figures can be attributed.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.item = -1
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = {id(fn): (name, fn) for name, fn in layer_functions().items()}
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        modules = [m for key, m in list(sys.modules.items()) if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))  # targets stay alive, so ids are unique
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        self.active = True

    def restore(self) -> None:
        """Put every original binding back; raise if one was changed meanwhile."""
        self.active = False
        patched, self._patched = self._patched, []
        for module, attr, original in reversed(patched):
            if getattr(getattr(module, attr), "__wrapped__", None) is not original:
                raise RuntimeError(f"{module.__name__}.{attr} was rebound while traced")
            setattr(module, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) record no spans."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or (stack and spans[stack[-1]][NAME] == name):
                return fn(*args, **kwargs)
            n = getattr(args[0], "n", None) if args else None
            if type(n) is not int:
                n = spans[stack[-1]][N] if stack else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.item, n]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return wrapper

    def write(self, path: Path) -> None:
        """Spans as gzipped TSV: id, parent, item, n, name, start_s, end_s."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\titem\tn\tname\tstart_s\tend_s\n")
            for sid, s in enumerate(self.spans):
                out.write(f"{sid}\t{s[PARENT]}\t{s[ITEM]}\t{s[N]}\t{s[NAME]}\t{s[START]!r}\t{s[END]!r}\n")


class Profile:
    """Per-function call counts, inclusive and self time, aggregated from spans."""

    def __init__(self, spans: list[list]) -> None:
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        self._calls: dict[tuple, int] = defaultdict(int)
        self._incl: dict[tuple, float] = defaultdict(float)
        self.layer_self_s: dict[str, float] = defaultdict(float)
        for s, inner in zip(spans, child):
            duration = s[END] - s[START]
            keys = ((s[NAME], None),) if s[N] is None else ((s[NAME], None), (s[NAME], s[N]))
            for key in keys:
                self._calls[key] += 1
                self._incl[key] += duration
            self.layer_self_s[s[NAME].split(".", 1)[0]] += duration - inner

    def calls(self, name: str, n: int | None = None) -> int:
        return self._calls.get((name, n), 0)

    def us_per_call(self, name: str, n: int | None = None) -> float:
        calls = self.calls(name, n)
        return 1e6 * self._incl[(name, n)] / calls if calls else 0.0

    def total_s(self, name: str) -> float:
        return self._incl.get((name, None), 0.0)
