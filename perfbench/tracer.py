"""Span tracer that instruments a library from the outside.

Each public module-level function of the instrumented modules is rebound to a
wrapper that records one span per call: name, start, end, parent span and the
rise of the process's peak resident set across the call. The rebinding is
applied in the defining module and in every other instrumented module that
imported the function by name, so calls made through either binding are seen.
Spans stay in memory until the run writes them out at its end.
"""

from __future__ import annotations

import inspect
import resource
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1          # index into Tracer.spans, -1 for a root span
    rss_gain_kb: int = 0      # rise of ru_maxrss across the call
    note: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Records nested spans; ``before`` and ``after`` hold per-name observers.

    ``before[name](tracer, span, bound_args)`` runs when a call opens and may
    fill ``span.note``; ``after[name](tracer, span, bound_args, result)`` runs
    when it returns. An observer that raises is recorded in ``observer_errors``
    and never breaks the traced call.
    """

    def __init__(self, before=None, after=None):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.before = dict(before or {})
        self.after = dict(after or {})
        self.observer_errors: list[str] = []

    # ------------------------------------------------------------ recording
    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        # holds the peak at open until close turns it into the rise
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               rss_gain_kb=_maxrss_kb()))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int):
        span = self.spans[index]
        span.end = time.perf_counter()
        span.rss_gain_kb = _maxrss_kb() - span.rss_gain_kb
        popped = self.stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")

    def _observe(self, table, name, *args):
        observer = table.get(name)
        if observer is None:
            return
        try:
            observer(self, *args)
        except Exception as err:  # an observer bug must not fail the run
            self.observer_errors.append(f"{name}: {type(err).__name__}: {err}")

    def wrap(self, fn, name: str):
        signature = inspect.signature(fn)
        observed = name in self.before or name in self.after

        def traced(*args, **kwargs):
            index = self.open(name)
            bound = None
            if observed:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                except TypeError:
                    bound = {}
                self._observe(self.before, name, self.spans[index], bound)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if observed:
                self._observe(self.after, name, self.spans[index], bound, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced


def span_rows(spans) -> list:
    """Spans as JSON rows: [name, start, end, parent, rss_gain_kb]."""
    return [[s.name, s.start, s.end, s.parent, s.rss_gain_kb] for s in spans]


def public_functions(module) -> dict:
    """Module-level functions defined in ``module`` whose names are public."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__}


def instrument(tracer: Tracer, modules) -> dict:
    """Rebind every public function of ``modules`` to a traced wrapper.

    Span names are ``<module short name>.<function>``. Returns an undo map
    ``{(module, attribute): original}`` for ``restore``.
    """
    originals = {}
    for module in modules:
        short = module.__name__.rsplit(".", 1)[-1]
        for name, fn in public_functions(module).items():
            wrapper = tracer.wrap(fn, f"{short}.{name}")
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        originals[(holder, attr)] = fn
                        setattr(holder, attr, wrapper)
    return originals


def restore(originals: dict):
    for (holder, attr), fn in originals.items():
        setattr(holder, attr, fn)


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it covered by child spans.

    Child intervals are clipped to the parent and merged first, so children
    that overlap each other (as spans from several threads could) are not
    subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out


def layer_stats(spans) -> dict:
    """{name: {"self_s", "total_s", "calls", "rss_gain_mb"}} over ``spans``.

    ``total_s`` counts a span only when no ancestor has the same name, so a
    recursive call is not counted twice. ``rss_gain_mb`` is the largest rise
    of the peak resident set across one call of that name.
    """
    selfs = self_times(spans)
    stats: dict[str, dict] = {}
    for i, s in enumerate(spans):
        entry = stats.setdefault(s.name, {"self_s": 0.0, "total_s": 0.0,
                                          "calls": 0, "rss_gain_mb": 0.0})
        entry["calls"] += 1
        entry["self_s"] += selfs[i]
        entry["rss_gain_mb"] = max(entry["rss_gain_mb"], s.rss_gain_kb / 1024.0)
        ancestor = s.parent
        while ancestor >= 0 and spans[ancestor].name != s.name:
            ancestor = spans[ancestor].parent
        if ancestor < 0:
            entry["total_s"] += s.duration
    return stats


def covered_time(spans, names, within: int) -> float:
    """Seconds of span ``within`` covered by outermost spans named in ``names``."""
    total = 0.0
    for i, s in enumerate(spans):
        if s.name not in names:
            continue
        ancestor, inside, nested = s.parent, False, False
        while ancestor >= 0:
            if ancestor == within:
                inside = True
                break
            if spans[ancestor].name in names:
                nested = True
            ancestor = spans[ancestor].parent
        if inside and not nested:
            total += s.duration
    return total
