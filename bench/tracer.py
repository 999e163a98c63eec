"""Span tracing of the package's public functions, from outside the package.

``Tracer.patch`` replaces every public module-level function of each layer
module with a wrapper that records one span per call: name, start, end,
parent span and whether the call raised.  The wrapper is installed under
every name that refers to the function in any layer module, so calls made
through ``from .x import f`` bindings are traced too.  ``Tracer.unpatch``
restores the originals.  Spans live in flat in-memory arrays until
``Tracer.save`` writes them out.

Only calls on the main thread are recorded; calls from worker threads run
unwrapped and are counted in ``offthread_calls``, so spans always nest.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional

import numpy as np

#: The package modules, one layer each.
LAYERS = ("cli", "gfunction", "distributions", "empirical", "estimators",
          "ustar_engine", "tail_bounds", "risk_lab")
#: The layer of the benchmark's own spans.
BENCH = "bench"

_MC_FUNCTIONS = ("mc_risk", "mc_bias", "mc_tail", "dirichlet_mc_variance")
_PROFILE_BUILDERS = ("profile_from_samples", "profile_from_counts", "profile_from_phi")


def _getter(fn: Callable, name: str) -> Callable:
    """A fast reader of argument ``name`` from a call's (args, kwargs)."""
    params = inspect.signature(fn).parameters
    default, pos = params[name].default, list(params).index(name)

    def get(args, kwargs):
        if len(args) > pos:
            return args[pos]
        return kwargs.get(name, default)
    return get


class Tracer:
    """Records spans and per-layer counters for the traced passes."""

    def __init__(self, package: str, line_counts: Dict[str, int]):
        self.modules = {layer: importlib.import_module(f"{package}.{layer}")
                        for layer in LAYERS}
        self.line_counts = line_counts
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.error = array("b")
        self._stack: List[int] = []
        self._main = threading.get_ident()
        self.offthread_calls = 0
        self.counters: Counter = Counter()
        self._patched: List[tuple] = []

    # -- span recording ---------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.span_name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.error.append(0)
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int, failed: bool = False) -> float:
        t = time.perf_counter()
        self.end[idx] = t
        self.error[idx] = int(failed)
        self._stack.pop()
        return t - self.start[idx]

    def _wrap(self, fn: Callable, name: str,
              before: Optional[Callable] = None,
              after: Optional[Callable] = None) -> Callable:
        nid = self._name_id(name)
        names, parents, starts, ends, errors = (
            self.span_name, self.parent, self.start, self.end, self.error)
        stack, main, clock, ident = self._stack, self._main, time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if ident() != main:
                self.offthread_calls += 1
                return fn(*args, **kwargs)
            state = before() if before else None
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            errors.append(0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                ends[idx] = t1
                errors[idx] = 1
                stack.pop()
                if after:
                    after(args, kwargs, None, exc, t1 - t0, state)
                raise
            t1 = clock()
            ends[idx] = t1
            stack.pop()
            if after:
                after(args, kwargs, result, None, t1 - t0, state)
            return result

        return traced

    # -- per-layer counters -------------------------------------------------

    def _hooks(self, layer: str, name: str, fn: Callable):
        """(before, after) callbacks that keep the named per-layer counters."""
        c = self.counters
        if layer == "ustar_engine" and name == "u_star":
            cache_info = fn.cache_info

            def before():
                return cache_info().misses

            def after(args, kwargs, result, exc, dt, misses):
                if cache_info().misses > misses:
                    c["u_star.miss_s"] += dt
            return before, after
        if layer == "tail_bounds" and name == "poly_filtered_exponent":
            get_spec, get_eps = _getter(fn, "spec"), _getter(fn, "eps")

            def after(args, kwargs, result, exc, dt, state):
                if get_eps(args, kwargs) > 0.0 and get_spec(args, kwargs).R > 1:
                    c["chernoff_solves"] += 1
                    c["chernoff_s"] += dt
                if isinstance(exc, AssertionError) and "residual" in str(exc):
                    c["residual_failures"] += 1
            return None, after
        if layer == "risk_lab" and name in _MC_FUNCTIONS:
            get_trials = _getter(fn, "trials")
            get_ns = _getter(fn, "n_list") if name == "mc_risk" else None

            def after(args, kwargs, result, exc, dt, state):
                trials = get_trials(args, kwargs)
                if get_ns:
                    trials *= len(get_ns(args, kwargs))
                c["trials"] += trials
            return None, after
        if layer == "cli" and name == "read_tokens":
            get_path = _getter(fn, "path")

            def after(args, kwargs, result, exc, dt, state):
                c["read_tokens.lines"] += self.line_counts.get(get_path(args, kwargs), 0)
            return None, after
        if layer == "empirical" and name in _PROFILE_BUILDERS:
            def after(args, kwargs, result, exc, dt, state):
                if result is not None:
                    c["symbols"] += sum(result.phi.values())
            return None, after
        return None, None

    # -- patching -----------------------------------------------------------

    def _public_functions(self):
        for layer, mod in self.modules.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    yield layer, name, obj

    def patch(self) -> None:
        wrappers = {}
        for layer, name, fn in self._public_functions():
            before, after = self._hooks(layer, name, fn)
            wrappers[id(fn)] = self._wrap(fn, f"{layer}.{name}", before, after)
        for mod in self.modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)])

    def unpatch(self) -> None:
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.array(self.span_name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=float),
            "end": np.array(self.end, dtype=float),
            "error": np.array(self.error, dtype=np.int8),
        }

    def save(self, path: str, passes: List[List[int]]) -> None:
        """Write all spans, the name table and each traced pass's span range."""
        np.savez_compressed(path, names=np.array(self.names), passes=np.array(passes),
                            **self.arrays())


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def pass_summary(tracer: Tracer, lo: int, hi: int) -> dict:
    """Per-layer calls, self seconds and errors of the spans in [lo, hi).

    Span ``lo`` must be the pass's root span.  Returns also whether the
    spans nest and whether all self times add up to the root's duration.
    """
    a = tracer.arrays()
    name, parent = a["name"][lo:hi], a["parent"][lo:hi]
    start, end, error = a["start"][lo:hi], a["end"][lo:hi], a["error"][lo:hi]
    dur = end - start
    local_parent = parent - lo
    child = local_parent >= 0
    child_time = np.bincount(local_parent[child], weights=dur[child], minlength=hi - lo)
    self_time = dur - child_time
    nested = bool(
        np.all(dur >= 0.0)
        and local_parent[0] < 0 and np.all(child[1:])
        and np.all(start[child] >= start[local_parent[child]])
        and np.all(end[child] <= end[local_parent[child]])
    )
    all_layers = LAYERS + (BENCH,)
    layer_ids = np.array([all_layers.index(layer_of(n)) for n in tracer.names])
    lid = layer_ids[name]
    calls = np.bincount(lid, minlength=len(all_layers))
    selfs = np.bincount(lid, weights=self_time, minlength=len(all_layers))
    errors = np.bincount(lid, weights=error, minlength=len(all_layers))
    out = {layer: {"calls": int(calls[i]), "self_s": float(selfs[i]), "errors": int(errors[i])}
           for i, layer in enumerate(all_layers)}
    by_name = np.bincount(name, minlength=len(tracer.names))
    per_name = {n: int(k) for n, k in zip(tracer.names, by_name.tolist()) if k}
    out[BENCH]["calls"] -= 1  # the root span is not a call into a layer
    wall = float(dur[0])
    total_self = float(self_time.sum())
    return {
        "layers": out,
        "calls_by_name": per_name,
        "wall_s": wall,
        "self_sum_s": total_self,
        "consistent": nested and abs(total_self - wall) <= 1e-9 + 1e-9 * wall,
    }
