"""Span tracer that wraps the public functions of every ``tripath`` module.

Nothing in the package knows about it.  ``Tracer.install`` replaces each
public function with a wrapper and rebinds that name in the defining
module and in every ``tripath`` module that imported it, so a call made
through ``from .kd import profile_values_batch`` inside ``classify`` is
traced as well.  Spans (name, start, end, parent) are kept in flat
arrays while the run goes on and written out once, at the end.

A few functions carry a hook that tags the span (``classify`` by
interior or boundary result, ``render`` by format, ``cli.main`` by
subcommand) or records exact counts next to it (rays per batch call,
boundary expansions, pixels per atlas).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

from checks import pixel_counts

MODULES = ("hilbert", "interferometer", "states", "kd", "classify", "atlas", "verify", "cli")
_PAGE_KB = resource.getpagesize() // 1024


def _classify_hook(args, kwargs, result):
    zeros = result.pattern.count(0)
    tag = "boundary" if zeros else "interior"
    return tag, {"classify.expansions": 2**zeros, "classify.boundary_results": int(zeros > 0)}


def _batch_rays_hook(counter):
    def hook(args, kwargs, result):
        return None, {counter: len(args[0])}

    return hook


def _render_hook(args, kwargs, result):
    return kwargs.get("fmt", args[1] if len(args) > 1 else "raster"), None


def _sample_atlas_hook(args, kwargs, result):
    return None, {f"atlas.{k}_pixels": v for k, v in pixel_counts(result.labels).items()}


def _cli_main_hook(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return (argv[0] if argv else "none"), None


# A hook sees (args, kwargs, result) of a traced call and returns a tag
# that renames the span to "name[tag]" (or None) and exact counts to
# record beside it (or None).
HOOKS = {
    "classify.classify": _classify_hook,
    "classify.classify_batch": _batch_rays_hook("classify.classify_batch_rays"),
    "kd.profile_values_batch": _batch_rays_hook("kd.profile_values_batch_rays"),
    "atlas.render": _render_hook,
    "atlas.sample_atlas": _sample_atlas_hook,
    "cli.main": _cli_main_hook,
}
# Spans of these functions also record how far the process's peak RSS
# rose above its RSS at entry (meaningful for the first call only).
MEMORY_SPANS = {"atlas.sample_atlas": "atlas.peak_rss_delta_kb"}


def current_rss_kb() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE_KB


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def public_functions(module):
    """(name, function) for each public function defined in ``module``."""
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: list[tuple[int, str, int]] = []  # (span, counter, value)
        self.meta: dict = {}
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.start)

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self._stack.append(i)
        self.end.append(0)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. one query or one pass."""
        i = self.open(name)
        try:
            yield i
        finally:
            self.close(i)

    def _wrap(self, fn, name: str):
        hook = HOOKS.get(name)
        memory_counter = MEMORY_SPANS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            rss0 = current_rss_kb() if memory_counter else 0
            i = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if memory_counter:
                tracer.counts.append((i, memory_counter, max(0, peak_rss_kb() - rss0)))
            if hook is not None:
                tag, counts = hook(args, kwargs, result)
                if tag:
                    tracer.name_id[i] = tracer._id(f"{name}[{tag}]")
                for counter, value in (counts or {}).items():
                    tracer.counts.append((i, counter, value))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the already imported ``tripath``."""
        import importlib

        modules = [importlib.import_module(f"tripath.{m}") for m in MODULES]
        loaded = [m for n, m in sorted(sys.modules.items()) if n == "tripath" or n.startswith("tripath.")]
        for module in modules:
            short = module.__name__.split(".", 1)[1]
            for name, fn in list(public_functions(module)):
                wrapper = self._wrap(fn, f"{short}.{name}")
                for holder in loaded:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._saved.append((holder, attr, fn))
                            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._saved):
            setattr(holder, attr, fn)
        self._saved.clear()

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        counts = self.counts
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.asarray(self.name_id, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int32),
            start=np.asarray(self.start, dtype=np.int64),
            end=np.asarray(self.end, dtype=np.int64),
            count_span=np.array([c[0] for c in counts], dtype=np.int64),
            count_name=np.array([c[1] for c in counts], dtype=str),
            count_value=np.array([c[2] for c in counts], dtype=np.int64),
            meta=np.array(json.dumps(self.meta)),
        )


class SpanSet:
    """Spans loaded back from a dump, with durations and self times."""

    def __init__(self, path) -> None:
        with np.load(path) as data:
            self.names = [str(n) for n in data["names"]]
            self.name_id = data["name_id"]
            self.parent = data["parent"]
            self.start = data["start"]
            self.end = data["end"]
            self.count_span = data["count_span"]
            self.count_name = data["count_name"]
            self.count_value = data["count_value"]
            self.meta = json.loads(str(data["meta"]))
        n = len(self.start)
        self.duration = (self.end - self.start).astype(np.float64)
        child = self.parent >= 0
        cover = np.bincount(self.parent[child], weights=self.duration[child], minlength=n)
        self.self_time = self.duration - cover[:n]
        self.has_children = np.bincount(self.parent[child], minlength=n)[:n] > 0

    def __len__(self) -> int:
        return len(self.start)

    def select(self, name: str, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Indices of spans called ``name`` within the index range [lo, hi)."""
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        idx = np.flatnonzero(self.name_id == self.names.index(name))
        return idx[(idx >= lo) & (idx < (len(self) if hi is None else hi))]

    def count(self, counter: str, lo: int = 0, hi: int | None = None) -> int:
        hi = len(self) if hi is None else hi
        keep = (self.count_name == counter) & (self.count_span >= lo) & (self.count_span < hi)
        return int(self.count_value[keep].sum())

    def module_self_ns(self, lo: int = 0, hi: int | None = None) -> dict[str, float]:
        """Self time summed per layer (the module part of each span name)."""
        hi = len(self) if hi is None else hi
        ids = self.name_id[lo:hi]
        per_name = np.bincount(ids, weights=self.self_time[lo:hi], minlength=len(self.names))
        out: dict[str, float] = {}
        for name, total in zip(self.names, per_name):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + float(total)
        return out
