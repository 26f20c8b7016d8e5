"""Span tracer that wraps gutzmerlab's public functions from outside the package.

`Tracer.installed()` replaces each target function (and each target method on
its class) by a wrapper that records a span: name, parent span, start, end,
an optional work count computed from argument or result shapes, and, for the
memory-tracked targets, the `tracemalloc` peak inside the span.  Leaving the
context puts every patched attribute back to the very same object.

Module-level functions are patched wherever a gutzmerlab module holds them
(``from .specfun import laguerre_all`` makes a second reference in
hermite_modes), so calls are caught whichever module makes them.  The tracer
reads only arguments and results, never private package state.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import os
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

LAYERS = ("specfun", "grids", "heisenberg_core", "hermite_modes", "spectral",
          "complexification", "heatlab", "euclid", "containers", "cli")


# ---------------------------------------------------------------------------
# work counts, from argument and result shapes only
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _result_size(args, kwargs, result):
    return int(np.size(result))


def _grid_points(args, kwargs, result):
    return int(np.size(_arg(args, kwargs, 3, "Z")))


def _field_points(args, kwargs, result):
    # args[0] is the ModalSlice instance
    return int(np.broadcast(_arg(args, kwargs, 1, "zc"), _arg(args, kwargs, 2, "zm")).size)


def _spectral_bytes(args, kwargs, result):
    arrays = list(result.projections) + list(result.slices) + [result.norms2]
    arrays += [np.asarray(ms.coef) for ms in result.modal]
    return int(sum(a.nbytes for a in arrays))


def _file_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _analyze_name(args, kwargs):
    return f"spectral.analyze.n{_arg(args, kwargs, 0, 'f').n}"


@dataclass(frozen=True)
class Target:
    """One patched callable: `attr` is "func" or "Class.method" in `module`."""

    module: str
    attr: str
    name: Optional[str] = None            # span name; default module.attr
    count: Optional[Callable] = None      # (args, kwargs, result) -> int
    memory: bool = False                  # record the tracemalloc peak
    repeat_key: bool = False              # track repeats of the argument tuple
    namer: Optional[Callable] = None      # (args, kwargs) -> span name

    @property
    def span_name(self) -> str:
        return self.name or f"{self.module}.{self.attr}"


TARGETS = (
    Target("specfun", "laguerre_all", count=_result_size),
    Target("specfun", "bessel_j_norm"),
    Target("specfun", "laguerre_phi"),
    Target("grids", "laguerre_tail_mass", repeat_key=True),
    Target("grids", "QuadratureSpec.pair_fits", name="grids.pair_fits"),
    Target("heisenberg_core", "HeisPoint.__init__", name="heisenberg_core.HeisPoint"),
    Target("heisenberg_core", "ComplexPoint.__init__", name="heisenberg_core.ComplexPoint"),
    Target("hermite_modes", "basis_matrix", count=_grid_points),
    Target("hermite_modes", "ModalSlice.field", count=_field_points),
    Target("hermite_modes", "ModalSliceND.field"),
    Target("hermite_modes", "e1d"),
    Target("spectral", "analyze", memory=True, namer=_analyze_name),
    Target("spectral", "partial_fourier_t"),
    Target("spectral", "invert_grid"),
    Target("spectral", "synth_bandlimited", memory=True),
    Target("complexification", "orbital_direct", memory=True),
    Target("complexification", "gutzmer_spectral"),
    Target("complexification", "apply_D"),
    Target("complexification", "detect_bandlimit"),
    Target("complexification", "fit_growth"),
    Target("heatlab", "heat_apply", count=_spectral_bytes, memory=True),
    Target("heatlab", "heat_image_norm"),
    Target("heatlab", "thm35_forward"),
    Target("heatlab", "thm35_converse_tail"),
    Target("heatlab", "gauss_bessel_check"),
    Target("heatlab", "lemma63_check"),
    Target("euclid", "flat_synth_bandlimited"),
    Target("euclid", "flat_gutzmer"),
    Target("euclid", "flat_pw_check"),
    Target("containers", "write_spd", count=_file_bytes),
    Target("containers", "read_spd", count=_file_bytes),
    Target("containers", "write_gfn", count=_file_bytes),
    Target("containers", "read_gfn", count=_file_bytes),
    Target("cli", "main"),
)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class Span:
    __slots__ = ("sid", "name", "parent", "start", "end", "count", "peak_mb",
                 "repeat", "mem_base", "mem_peak")

    def __init__(self, sid, name, parent, start, end=0.0, count=0, peak_mb=0.0, repeat=False):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.count = count
        self.peak_mb = peak_mb
        self.repeat = repeat
        self.mem_base = self.mem_peak = 0

    def dump(self) -> list:
        return [self.sid, self.name, self.parent, self.start, self.end, self.count,
                self.peak_mb, self.repeat]

    @classmethod
    def load(cls, row) -> "Span":
        return cls(*row)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """sid -> span duration minus the part of it that child spans cover."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: max(0.0, (s.end - s.start) - _covered(children.get(s.sid, ()), s.start, s.end))
            for s in spans}


EMPTY_TOTALS = {"calls": 0, "self_s": 0.0, "count": 0, "peak_mb": 0.0, "repeats": 0}


def totals_by_name(spans) -> dict:
    """name -> {calls, self_s, count, peak_mb, repeats} over one process's spans."""
    st = self_times(spans)
    out = {}
    for s in spans:
        a = out.setdefault(s.name, dict(EMPTY_TOTALS))
        a["calls"] += 1
        a["self_s"] += st[s.sid]
        a["count"] += s.count
        a["peak_mb"] = max(a["peak_mb"], s.peak_mb)
        a["repeats"] += int(s.repeat)
    return out


def merge_totals(into: dict, more: dict) -> dict:
    """Add one process's totals to another's (peaks take the maximum)."""
    for name, b in more.items():
        a = into.setdefault(name, dict(EMPTY_TOTALS))
        for k, v in b.items():
            a[k] = max(a[k], v) if k == "peak_mb" else a[k] + v
    return into


# ---------------------------------------------------------------------------
# the tracer
# ---------------------------------------------------------------------------

def package_modules() -> list:
    """Every layer module, imported, plus whatever else of the package is loaded."""
    for layer in LAYERS:
        importlib.import_module(f"gutzmerlab.{layer}")
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gutzmerlab" or name.startswith("gutzmerlab."))]


def attribute_snapshot(targets=TARGETS) -> dict:
    """(owner, name) -> object for every attribute the tracer could patch."""
    snap = {}
    for mod in package_modules():
        for name, value in vars(mod).items():
            snap[(mod.__name__, name)] = value
    for t in targets:
        *cls_path, _ = t.attr.split(".")
        if cls_path:
            owner = sys.modules[f"gutzmerlab.{t.module}"]
            for part in cls_path:
                owner = getattr(owner, part)
            for name, value in vars(owner).items():
                snap[(f"{owner.__module__}.{owner.__qualname__}", name)] = value
    return snap


def same_attributes(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


class Tracer:
    """Records spans of the `targets` while installed; `spans` keeps them all."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list = []
        self._patches: list = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list = []
        self._mem_open: list = []
        self._seen_keys: set = set()

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        for t in self.targets:
            owner = sys.modules[f"gutzmerlab.{t.module}"]
            *cls_path, attr = t.attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            if cls_path:
                orig = owner.__dict__[attr]
                self._patch(owner, attr, orig, self._wrap(t, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(t, orig)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, name, orig, wrapper)
        self._main_stack = self._stack()

    def uninstall(self) -> None:
        while self._patches:
            owner, name, orig = self._patches.pop()
            setattr(owner, name, orig)

    @contextlib.contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    def _patch(self, owner, name, orig, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, orig))

    # -- spans -------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _fold_peak(self) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        for s in self._mem_open:
            s.mem_peak = max(s.mem_peak, peak)

    def _open(self, name: str, memory: bool) -> Span:
        stack = self._stack()
        # a span opened on a worker thread belongs to whatever the main thread
        # is waiting in (the CLI suites map their cases over a thread pool)
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = Span(next(self._ids), name, parent.sid if parent else None, 0.0)
        if memory and tracemalloc.is_tracing():
            self._fold_peak()
            tracemalloc.reset_peak()
            span.mem_base = span.mem_peak = tracemalloc.get_traced_memory()[0]
            self._mem_open.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if self._mem_open and self._mem_open[-1] is span:
            self._fold_peak()
            self._mem_open.pop()
            span.peak_mb = (span.mem_peak - span.mem_base) / 1e6
            tracemalloc.reset_peak()
        self.spans.append(span)

    def _wrap(self, target: Target, orig):
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            name = target.namer(args, kwargs) if target.namer else target.span_name
            span = tracer._open(name, target.memory)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(span)
            if target.count is not None:
                span.count = target.count(args, kwargs, result)
            if target.repeat_key:
                key = tuple(float(a) for a in args) + tuple(sorted(kwargs.items()))
                span.repeat = key in tracer._seen_keys
                tracer._seen_keys.add(key)
            return result

        return wrapper

    def dump(self) -> list:
        return [s.dump() for s in self.spans]
