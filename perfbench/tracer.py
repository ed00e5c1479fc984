"""Per-layer tracing of tcgw from outside the program.

`Tracer.install` replaces every public function of the traced modules,
and every public method of the classes they define, with a wrapper that
counts calls and accumulates inclusive and self time. A function is
replaced under every name that refers to it in any loaded `tcgw` module,
so `from .ledger import append_block` call sites are traced too.
`uninstall` puts the originals back. No program file is changed.

A layer's self time is its calls' time minus the time of the traced
calls made inside them; the self times of all layers add up to the time
of the outermost traced call (`cli.main`).
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

MODULES = ("workload", "ledger", "canon", "worldstate", "private_chain",
           "gateway", "public_chain", "cli")

# Work units counted per call, from (args, result): the denominators of
# the per-unit metrics.
UNITS = {
    "ledger.verify_chain": lambda args, result: sum(len(b.transactions) for b in args[0].blocks),
    "ledger.save_ledger": lambda args, result: os.path.getsize(result),
    "ledger.load_ledger": lambda args, result: os.path.getsize(args[0]),
    "gateway.filter_out_of_scale": lambda args, result: len(args[0]),
    "gateway.summarize": lambda args, result: len(args[0]),
}
# Calls whose durations are kept one by one, for a median and a tail.
SAMPLED = ("gateway.rollover_epoch",)
# Calls whose time is also kept per calling layer.
BY_CALLER = ("ledger.append_block",)


def references(original) -> list[tuple[object, str]]:
    """(module, name) for every name in a loaded tcgw module bound to `original`."""
    return [(module, name) for key, module in list(sys.modules.items())
            if key == "tcgw" or key.startswith("tcgw.")
            for name, value in vars(module).items() if value is original]


class Stat:
    __slots__ = ("calls", "incl", "self_time", "units")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_time = 0.0
        self.units = 0


class Tracer:
    """Call counts and times per traced function, kept per named phase."""

    def __init__(self):
        self.phases: dict[str, dict[str, Stat]] = {}
        self.samples: dict[str, list[float]] = {key: [] for key in SAMPLED}
        self.current: dict[str, Stat] = {}
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def phase(self, name: str) -> None:
        """Attribute the following calls to phase `name`."""
        self.current = self.phases.setdefault(name, {})

    def stat(self, phase: str, key: str) -> Stat:
        return self.phases.get(phase, {}).get(key) or Stat()

    def _wrap(self, key: str, fn):
        tracer = self
        stack = self._stack
        perf = time.perf_counter
        units = UNITS.get(key)
        samples = self.samples.get(key)
        by_caller = key in BY_CALLER

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [key, 0.0]
            stack.append(frame)
            done = False
            start = perf()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                elapsed = perf() - start
                stack.pop()
                stats = tracer.current
                stat = stats.get(key)
                if stat is None:
                    stat = stats[key] = Stat()
                stat.calls += 1
                stat.incl += elapsed
                stat.self_time += elapsed - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    if by_caller:
                        edge_key = f"{key}<{parent[0]}"
                        edge = stats.get(edge_key)
                        if edge is None:
                            edge = stats[edge_key] = Stat()
                        edge.calls += 1
                        edge.incl += elapsed
                if done:
                    if samples is not None:
                        samples.append(elapsed)
                    if units is not None:
                        stat.units += units(args, result)

        return traced

    def _targets(self):
        """(key, owner, attribute, original) for every function to trace."""
        for short in MODULES:
            module = sys.modules[f"tcgw.{short}"]
            for name, value in vars(module).items():
                if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    yield f"{short}.{name}", module, name, value
                elif inspect.isclass(value) and not issubclass(value, BaseException):
                    for attr, raw in vars(value).items():
                        if attr.startswith("_"):
                            continue
                        if isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw):
                            yield f"{short}.{name}.{attr}", value, attr, raw

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for key, owner, attr, original in self._targets():
            if isinstance(original, (classmethod, staticmethod)):
                wrapper = type(original)(self._wrap(key, original.__func__))
                self._patches.append((owner, attr, original, wrapper))
                continue
            wrapper = self._wrap(key, original)
            if inspect.isclass(owner):
                self._patches.append((owner, attr, original, wrapper))
                continue
            for module, name in references(original):
                self._patches.append((module, name, original, wrapper))
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def module_self_time(self, phases, module: str) -> float:
        return sum(stat.self_time for phase in phases
                   for key, stat in self.phases.get(phase, {}).items()
                   if key.split(".", 1)[0] == module and "<" not in key)
