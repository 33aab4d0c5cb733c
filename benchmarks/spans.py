"""Spans at the layer boundaries of selfsimspec, recorded from outside.

The layers are the package's modules. A wrap point is a function that one
package module imports from a sibling module (its ``__module__`` names the
sibling), plus the package-level names the benchmark calls; they are found
by introspection, so a refactor that deletes or renames a function yields
fewer spans rather than a crash. Calls inside one module, and imports made
inside a function body, are not boundaries and are not traced.

Spans live in memory (name, layer, start, end, parent, job) with the counts
seen at the boundary: array bytes passed in and returned; for eigensolve,
the eigenvalues, dropped count and residual bound it returned; and the
warnings and exceptions raised while the span was the innermost open one.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import pkgutil
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

PACKAGE = "selfsimspec"
LAYERS = ("selfsim", "operators", "eigensolve", "spectral", "cli")


@dataclasses.dataclass
class Span:
    name: str
    layer: str
    parent: int  # index of the enclosing span, -1 for a job's root span
    job: int
    start: float
    end: float = 0.0
    bytes_in: int = 0
    bytes_out: int = 0
    eigs_out: int = 0
    dropped: int = 0
    residual_bound: float = 0.0
    errors: int = 0
    warnings: int = 0


def _nbytes(obj, seen: set, depth: int = 0) -> int:
    """Bytes of the distinct arrays in obj, looking into dataclasses at any depth
    and into tuples, lists and dicts up to two levels deep."""
    if isinstance(obj, np.ndarray) or (dataclasses.is_dataclass(obj) and not isinstance(obj, type)):
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            return obj.nbytes
        return sum(_nbytes(getattr(obj, f.name), seen, depth) for f in dataclasses.fields(obj))
    if depth >= 2:
        return 0
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(x, seen, depth + 1) for x in obj)
    if isinstance(obj, dict):
        return sum(_nbytes(x, seen, depth + 1) for x in obj.values())
    return 0


def _eig_counts(out) -> tuple[int, int, float]:
    """(eigenvalues, dropped, residual bound) of a returned eigenvalue list or value array."""
    items = out if isinstance(out, tuple) else (out,)
    for x in items:
        if hasattr(x, "values") and hasattr(x, "residual_bound"):
            return len(x.values), int(getattr(x, "dropped", 0)), float(x.residual_bound)
    if items and isinstance(items[0], np.ndarray) and items[0].ndim == 1:
        return len(items[0]), 0, 0.0
    return 0, 0, 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.job = -1
        self._raised: list[BaseException] = []  # held until the job ends
        self._patched: list[tuple[object, str, object]] = []
        self.t0 = time.perf_counter()

    def wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, self.stack[-1] if self.stack else -1, self.job, 0.0)
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self._blame(span, exc)
                raise
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
            seen = set()
            span.bytes_in = sum(_nbytes(x, seen) for x in (*args, *kwargs.values()))
            span.bytes_out = _nbytes(out, set())
            if layer == "eigensolve":
                span.eigs_out, span.dropped, span.residual_bound = _eig_counts(out)
            return out

        return traced

    def _blame(self, span: Span, exc: BaseException) -> None:
        """Count an exception once, on the innermost span it passed through."""
        if not any(e is exc for e in self._raised):
            self._raised.append(exc)
            span.errors += 1

    def install(self) -> int:
        """Wrap every cross-module import of the package; returns the number of wrap points."""
        pkg = importlib.import_module(PACKAGE)
        modules = [pkg] + [importlib.import_module(f"{PACKAGE}.{m.name}") for m in pkgutil.iter_modules(pkg.__path__)]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ != mod.__name__
                    and obj.__module__.startswith(PACKAGE + ".")
                ):
                    setattr(mod, attr, self.wrap(obj))
                    self._patched.append((mod, attr, obj))
        return len(self._patched)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    @contextmanager
    def job_span(self, job_id: int, name: str):
        """The root span of one job; spans and warnings inside it carry its id."""
        self.job = job_id
        self._raised.clear()
        span = Span(name, "job", -1, job_id, time.perf_counter())
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self.stack.pop()

    def note_error(self, exc: BaseException) -> None:
        """An exception that reached the job: counted where it was first seen."""
        self._blame(self.spans[self.stack[-1]], exc)

    def on_warning(self, category) -> None:
        if issubclass(category, RuntimeWarning):
            self.spans[self.stack[-1]].warnings += 1

    def layer_metrics(self, blocks: int) -> dict[str, float]:
        """Per-block sums by layer: calls, busy and self seconds, errors, warnings, counts."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        out: dict[str, float] = {}

        def add(key, value):
            out[key] = out.get(key, 0.0) + value

        for i, s in enumerate(self.spans):
            dur = s.end - s.start
            add(f"{s.layer}.calls", 1)
            add(f"{s.layer}.self_s", dur - child_time[i])
            if not self._nested_in_layer(s):
                add(f"{s.layer}.busy_s", dur)
            add(f"{s.layer}.errors", s.errors)
            add(f"{s.layer}.warnings", s.warnings)
            add(f"{s.layer}.bytes_in", s.bytes_in)
            add(f"{s.layer}.bytes_out", s.bytes_out)
            add(f"{s.layer}.eigs_out", s.eigs_out)
            add(f"{s.layer}.dropped", s.dropped)
            out[f"{s.layer}.residual_bound_max"] = max(out.get(f"{s.layer}.residual_bound_max", 0.0), s.residual_bound)
        return {k: (v if k.endswith("_max") else v / blocks) for k, v in out.items()}

    def _nested_in_layer(self, span: Span) -> bool:
        p = span.parent
        while p >= 0:
            if self.spans[p].layer == span.layer:
                return True
            p = self.spans[p].parent
        return False

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                rec = dataclasses.asdict(s)
                rec["start"] -= self.t0
                rec["end"] -= self.t0
                fh.write(json.dumps(rec) + "\n")


def src_lines(layer: str) -> int:
    mod = importlib.import_module(f"{PACKAGE}.{layer}")
    return len(Path(inspect.getfile(mod)).read_text(encoding="utf-8").splitlines())
