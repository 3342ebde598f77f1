"""Spans and counters recorded around polyharm's public functions, from outside.

A span is (id, parent id, iteration id, name, start, end); all spans of one
CLI invocation share its iteration id.  Spans and counters stay in memory
until the benchmark writes them out.  A layer's self time is its span's
duration minus the part of that interval its child spans cover.

``cli``, ``interpolation``, ``unisolvence`` and the ``polyharm`` namespace
bind these functions by name (``from .domains import sample``), so patching
only the defining module would miss their calls.  ``Tracer.install``
therefore replaces the original function at every polyharm module attribute
that holds it, and patches methods on their classes.
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
from collections import Counter, defaultdict

import numpy as np


def _pairs(args, result):
    n = len(args[0])
    return {"pairs": n * (n - 1) // 2}


def _cross_pairs(args, result):
    return {"pairs": len(args[0]) * len(args[1])}


def _accepted(args, result):
    # only rejection sampling proposes; its accepted points are the ones returned
    uniform = type(args[1]).__name__ == "Uniform"
    return {} if uniform else {"accepted": result.n}


def _proposed(args, result):
    return {"proposed": len(result)}


def _rows(args, result):
    return {"rows": result[0].n}


def _bytes_written(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _entries(args, result):
    return {"entries": int(np.size(args[2]))}  # args: (kernel, eps, r)


def _order_cubed(args, result):
    return {"order_cubed": len(args[0]) ** 3}


def _trials(args, result):
    return {"trials": len(result.records)}


# (defining module, class or None, attribute, span name, counter, records a span)
TARGETS = (
    ("domains", None, "pairwise_distance_matrix", "domains.pairwise_distance_matrix", _pairs, True),
    ("domains", None, "cross_distance_matrix", "domains.cross_distance_matrix", _cross_pairs, True),
    ("domains", None, "sample", "domains.sample", _accepted, True),
    ("domains", "TruncatedGaussian", "value", "domains.sample", _proposed, False),
    ("domains", None, "mix_seed", "domains.mix_seed", None, True),
    ("domains", None, "read_points_csv", "domains.read_points_csv", _rows, True),
    ("domains", None, "write_points_csv", "domains.write_points_csv", _bytes_written, True),
    ("kernels", "ThinPlateSpline", "value_scaled", "kernels.value_scaled", _entries, True),
    ("kernels", "RadialPower", "value_scaled", "kernels.value_scaled", _entries, True),
    ("interpolation", None, "assemble", "interpolation.assemble", None, True),
    ("interpolation", None, "solve_augmented", "interpolation.solve", None, True),
    ("interpolation", None, "solve_unaugmented", "interpolation.solve", None, True),
    ("interpolation", None, "evaluate", "interpolation.evaluate", None, True),
    ("_linalg", None, "diagnostics", "linalg.diagnostics", _order_cubed, True),
    ("_linalg", None, "lu_sign_logabs", "linalg.lu", None, True),
    ("_linalg", None, "lu_factorize", "linalg.lu", None, True),
    ("unisolvence", None, "monte_carlo", "unisolvence.monte_carlo", _trials, True),
    ("unisolvence", "BorderedSystem", "determinant", "unisolvence.BorderedSystem.determinant",
     None, True),
    ("unisolvence", "BorderedSystem", "grid", "unisolvence.BorderedSystem.grid", None, True),
)

MODULES = ("domains", "kernels", "interpolation", "_linalg", "unisolvence", "cli")


def polyharm_modules() -> list:
    """The package namespace and its six modules, imported."""
    return [importlib.import_module("polyharm")] + [
        importlib.import_module(f"polyharm.{name}") for name in MODULES
    ]


class Tracer:
    """In-memory span recorder; records only while ``iteration`` is set.

    Create it on the thread that calls the CLI: a span opened on another
    thread (the monte_carlo pool) takes that thread's innermost open span
    as its parent.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)
        self.iteration = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self._local.stack = self._main_stack
        self._restore = []
        self.originals = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: int) -> None:
        if self.iteration is None:
            return
        with self._lock:
            self.counts[self.iteration][key] += amount

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        # a worker thread's first span belongs to the span that started the pool
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        iteration = self.iteration
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, iteration, name, start, end))

    def _wrap(self, fn, name, counter, timed):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.iteration is None:
                return fn(*args, **kwargs)
            if timed:
                with self.span(name):
                    result = fn(*args, **kwargs)
            else:
                result = fn(*args, **kwargs)
            if counter is not None:
                for key, amount in counter(args, result).items():
                    self.count(f"{name}.{key}", amount)
            return result

        return traced

    def install(self) -> int:
        """Wrap every target at every import site; returns the number of sites."""
        modules = polyharm_modules()
        for module_name, owner, attr, name, counter, timed in TARGETS:
            defining = sys.modules[f"polyharm.{module_name}"]
            if owner is not None:
                cls = getattr(defining, owner)
                original = cls.__dict__[attr]
                self._replace(cls, attr, original, self._wrap(original, name, counter, timed))
                continue
            original = getattr(defining, attr)
            wrapper = self._wrap(original, name, counter, timed)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, original, wrapper)
        return len(self._restore)

    def _replace(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))
        self.originals.append(original)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()


def unwrapped_sites(originals) -> list:
    """polyharm module attributes and class methods still bound to an original."""
    ids = {id(fn) for fn in originals}
    found = []
    for module in polyharm_modules():
        for key, value in vars(module).items():
            if id(value) in ids:
                found.append(f"{module.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                found += [f"{module.__name__}.{key}.{attr}"
                          for attr, member in vars(value).items() if id(member) in ids]
    return found


def _covered(intervals, lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def iteration_layers(spans, counts) -> dict:
    """Per-layer self times, call counts and counters of one traced invocation."""
    names = {span[0]: span[3] for span in spans}
    children = defaultdict(list)
    for sid, parent, _, name, start, end in spans:
        children[parent].append((start, end))
    self_s, calls = Counter(), Counter()
    pool_wall = pool_busy = 0.0
    for sid, parent, _, name, start, end in spans:
        self_s[name] += (end - start) - _covered(children.get(sid, ()), start, end)
        # lu_sign_logabs factorizes through lu_factorize: count that as one LU
        if names.get(parent) != name:
            calls[name] += 1
        if name == "unisolvence.monte_carlo":
            pool_wall += end - start
        if names.get(parent) == "unisolvence.monte_carlo":
            pool_busy += end - start
    out = {f"{name}.self_s": value for name, value in self_s.items()}
    out.update({f"{name}.calls": value for name, value in calls.items()})
    out.update(counts)
    proposed = counts.get("domains.sample.proposed", 0)
    out["domains.sample.acceptance"] = counts.get("domains.sample.accepted", 0) / proposed if proposed else 0.0
    assembled = calls["interpolation.assemble"]
    out["linalg.lu_per_matrix"] = calls["linalg.lu"] / assembled if assembled else 0.0
    out["unisolvence.monte_carlo.parallelism"] = pool_busy / pool_wall if pool_wall else 0.0
    return out


def layers_by_iteration(tracer: Tracer) -> dict:
    """iteration id -> iteration_layers for every traced invocation."""
    grouped = defaultdict(list)
    for span in tracer.spans:
        grouped[span[2]].append(span)
    return {it: iteration_layers(group, tracer.counts[it]) for it, group in sorted(grouped.items())}
