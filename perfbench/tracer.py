"""Span tracer for the benchmark's traced run.

Each public function, and each public method or classmethod of a public
class, defined in one of puedet's layer modules is wrapped so that a call
records a span.  A span's self time is its duration minus the time its child
spans cover; the tracer sums self time and calls per layer.

Modules bind each other's functions with ``from .x import f``, so a function
is replaced at every place a caller looks it up (for example both
``puedet.tracking.predict`` and ``puedet.experiments.predict``), not only in
the module that defines it.  :meth:`Tracer.uninstall` puts every original
object back and reports any name it could not restore.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import Counter, defaultdict

LAYERS = ("config", "scenario", "tracking", "propagation", "detection", "experiments", "svgplot", "cli")

# The experiments module holds three kinds of work that later changes target
# separately: per-trial seeding, scoring, and the batched engine itself (the
# recursion, RNG draws and RSS ranging are inlined in the engine's private
# helpers, so they count as the self time of the public sweep functions).
_EXPERIMENTS_ROLES = {
    "trial_seed_sequence": "experiments.seed",
    "child_seed": "experiments.seed",
    "metrics": "experiments.score",
}


def _layer_of(module: str, qualname: str) -> str:
    if module == "experiments":
        return _EXPERIMENTS_ROLES.get(qualname, "experiments.engine")
    return module


def _chart_points(series, *args, **kwargs) -> int:
    """Points passed to ``svgplot.line_chart``."""
    return sum(len(xs) for _, xs, _ in series)


class Tracer:
    """Wraps puedet's public callables; install, run, read totals, uninstall."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()  # per layer
        self.fn_calls: Counter = Counter()  # per "module.qualname"
        self.counts: Counter = Counter()  # counters read from arguments
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.fn_calls.clear()
        self.counts.clear()
        self._stack.clear()

    def _wrap(self, fn, layer: str, key: str):
        stack, self_s, calls, fn_calls = self._stack, self.self_s, self.calls, self.fn_calls
        counts = self.counts
        is_chart = key == "svgplot.line_chart"
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if is_chart:
                counts["svgplot.points"] += _chart_points(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[layer] += dt - frame[0]
                calls[layer] += 1
                fn_calls[key] += 1
                if stack:
                    stack[-1][0] += dt

        return span

    def _patch(self, owner, name: str, new) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(f"puedet.{m}") for m in LAYERS}
        bindings = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "puedet" or name.startswith("puedet."))
        ]
        for short, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    key = f"{short}.{name}"
                    wrapper = self._wrap(obj, _layer_of(short, name), key)
                    for site in bindings:
                        for bound, value in list(vars(site).items()):
                            if value is obj:
                                self._patch(site, bound, wrapper)
                elif isinstance(obj, type):
                    self._install_methods(short, obj)

    def _install_methods(self, short: str, cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            key = f"{short}.{cls.__name__}.{attr}"
            layer = _layer_of(short, f"{cls.__name__}.{attr}")
            if isinstance(member, types.FunctionType):
                self._patch(cls, attr, self._wrap(member, layer, key))
            elif isinstance(member, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(member.__func__, layer, key)))

    @property
    def wrapped_names(self) -> int:
        return len(self._patches)

    def uninstall(self) -> list[str]:
        """Restore every patched name; return those still not the original."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        unrestored = [
            f"{getattr(owner, '__name__', owner)}.{name}"
            for owner, name, original in self._patches
            if vars(owner).get(name) is not original
        ]
        self._patches.clear()
        return unrestored
