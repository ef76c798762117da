"""Counters, gauges and histograms with mergeable snapshots.

The registry is process-local and always functional — recording a counter
is a dict lookup and an integer add, cheap enough to leave unguarded at
shard/campaign granularity.  Nothing records inside the simulation
kernels' cycle loops: the end-to-end benchmark's traced run times whole
layer entry points from outside instead.

Cross-process aggregation: a worker calls :meth:`MetricsRegistry.reset`
before its shard, :meth:`MetricsRegistry.snapshot` after, and ships the
snapshot home with the shard arrays; the supervisor calls
:meth:`MetricsRegistry.merge` — counters add, gauges last-write-wins,
histograms combine their (count, total, min, max) moments.
"""

from __future__ import annotations

import re
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metrics",
    "render_prometheus",
]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A last-written value (e.g. ``runs_per_second``)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Streaming moments of an observed quantity: count/total/min/max.

    Fixed memory per histogram — safe for per-(level, opcode) kernel
    timings where a reservoir would balloon.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": round(self.total, 9),
            "min": round(self.min, 9) if self.count else None,
            "max": round(self.max, 9) if self.count else None,
        }

    def merge(self, doc: dict) -> None:
        if not doc.get("count"):
            return
        self.count += int(doc["count"])
        self.total += float(doc["total"])
        self.min = min(self.min, float(doc["min"]))
        self.max = max(self.max, float(doc["max"]))


class MetricsRegistry:
    """Named metrics for one process (see module docstring)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -------------------------------------------------------------- access

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            with self._lock:
                c = self._counters.setdefault(name, Counter())
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            with self._lock:
                g = self._gauges.setdefault(name, Gauge())
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            with self._lock:
                h = self._histograms.setdefault(name, Histogram())
        return h

    # convenience one-liners for call sites
    def inc(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def set(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # --------------------------------------------------- snapshot/merge

    def snapshot(self) -> dict:
        """A JSON-safe copy of everything recorded so far."""
        with self._lock:
            return {
                "counters": {k: c.value for k, c in sorted(self._counters.items())},
                "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
                "histograms": {
                    k: h.to_dict() for k, h in sorted(self._histograms.items())
                },
            }

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's snapshot into this one."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, doc in snapshot.get("histograms", {}).items():
            self.histogram(name).merge(doc)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


_PROM_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    name = _PROM_BAD.sub("_", name)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _prom_value(value) -> str:
    if value is None:
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value)) if isinstance(value, float) else str(value)


def render_prometheus(snapshot: dict) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` as Prometheus text.

    Exposition format version 0.0.4: counters get a ``_total`` suffix,
    histograms expose their streaming moments as ``_count`` / ``_sum`` /
    ``_min`` / ``_max`` (fixed-memory histograms carry no buckets, so
    the moments are exported as a summary-style family).
    """
    lines: list[str] = []
    for name, value in snapshot.get("counters", {}).items():
        prom = _prom_name(name)
        if not prom.endswith("_total"):
            prom += "_total"
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_prom_value(value)}")
    for name, value in snapshot.get("gauges", {}).items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_value(value)}")
    for name, doc in snapshot.get("histograms", {}).items():
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} summary")
        lines.append(f"{prom}_count {_prom_value(doc.get('count', 0))}")
        lines.append(f"{prom}_sum {_prom_value(doc.get('total', 0.0))}")
        lines.append(f"{prom}_min {_prom_value(doc.get('min'))}")
        lines.append(f"{prom}_max {_prom_value(doc.get('max'))}")
    return "\n".join(lines) + "\n" if lines else "\n"


#: the process-wide registry
metrics = MetricsRegistry()
