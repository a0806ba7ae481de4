"""Call counters and span tracing around lpsurf's public functions.

Nothing here touches ``src/``: each function is replaced, at every module
binding it is reachable through (``lpsurf.lp_core.mutate`` and
``lpsurf.explorer.mutate`` alike), by a wrapper that counts its calls and,
when spans are on, times them.

Spans are aggregated as they close, keyed by (caller, callee), where the
caller is the innermost open wrapped span.  A span's self time is its
duration minus the time covered by the wrapped spans it opened.  Keeping the
aggregate instead of every span keeps the traced pass's memory flat: a
ladder pass closes over a hundred thousand spans.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from typing import Callable, Optional

LAYERS = ("cli", "explorer", "lp_core", "surface", "quiver", "poly")

# Methods traced besides each module's public functions.
METHODS = {"poly": ("RationalFunction.make",)}

ROOT_SPAN = "bench"


def _lpsurf_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "lpsurf" or name.startswith("lpsurf."))]


def public_functions(layer: str) -> dict[str, tuple[object, str, Callable]]:
    """Public functions of ``lpsurf.<layer>`` by traced name, e.g. ``poly.poly_gcd``.

    Each maps to ``(owner, attribute, function)``; the owner is the module,
    or the class for a method.
    """
    mod = importlib.import_module(f"lpsurf.{layer}")
    out = {}
    for attr in getattr(mod, "__all__", ()):
        fn = getattr(mod, attr)
        if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
            out[f"{layer}.{attr}"] = (mod, attr, fn)
    for qual in METHODS.get(layer, ()):
        cls_name, meth = qual.split(".")
        cls = getattr(mod, cls_name)
        out[f"{layer}.{qual}"] = (cls, meth, getattr(cls, meth))
    return out


class Tracer:
    """Counts calls of wrapped functions; with ``spans`` also their time."""

    def __init__(self, spans: bool):
        self.spans = spans
        self.calls: dict[str, int] = {}
        # (caller, callee) -> [calls, total seconds, self seconds]
        self.edges: dict[tuple[str, str], list] = {}
        # frames of open spans: [name, seconds covered by child spans]
        self._stack: list[list] = [[ROOT_SPAN, 0.0]]
        self.observed: dict[str, list] = {}

    def install(self, names: Optional[set[str]] = None,
                observe: Optional[dict[str, Callable]] = None) -> None:
        """Wrap every public function of every layer, or only ``names``.

        ``observe[name]`` is called with each result of that function.
        """
        observe = observe or {}
        modules = _lpsurf_modules()
        for layer in LAYERS:
            for name, (owner, attr, fn) in public_functions(layer).items():
                if names is not None and name not in names:
                    continue
                wrapper = self.wrap(name, fn, observe.get(name))
                if inspect.isclass(owner):
                    static = isinstance(inspect.getattr_static(owner, attr), staticmethod)
                    setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
                    continue
                for mod in modules:
                    for bound, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, bound, wrapper)

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        calls = self.calls
        calls.setdefault(name, 0)
        if observe is not None:
            self.observed[name] = []
        if not self.spans:
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        stack = self._stack
        edges = self.edges
        clock = time.perf_counter
        results = self.observed.get(name)

        def traced(*args, **kwargs):
            calls[name] += 1
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                key = (parent[0], name)
                rec = edges.get(key)
                if rec is None:
                    rec = edges[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if results is not None:
                results.append(observe(result))
            return result

        return traced

    def self_seconds(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for (_, callee), (_, _, self_s) in self.edges.items():
            out[callee] = out.get(callee, 0.0) + self_s
        return out

    def calls_from(self, callers: set[str], callee: str) -> int:
        return sum(rec[0] for (caller, name), rec in self.edges.items()
                   if name == callee and caller in callers)
