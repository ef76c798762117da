"""Live progress for sharded sweeps: throughput, ETA, one status line.

The tracker counts *units* (campaign runs, certify locations) as shards
complete.  Each update is mirrored three ways:

- a ``progress`` trace event (when the tracer is enabled) carrying
  ``done``/``total``/``rate``/``eta_s`` — this is what the acceptance
  trace and ``repro trace analyze`` consume;
- the module-level *live board*: when the tracker's thread carries a
  bound ``request_id`` (:meth:`Tracer.bind`), the latest snapshot is
  published under that id so the service's ``GET /status`` can report
  shard-level progress and ETA for in-flight requests — independent of
  whether tracing is enabled;
- a status line on the attached stream.  Two render modes: *live*
  (carriage-return repaints, throttled to one per ``min_interval``
  seconds) on interactive TTYs, and *plain* (a single summary line at
  :meth:`ProgressTracker.finish`) everywhere else, so CI logs are never
  flooded with ``\\r`` frames.  ``REPRO_PROGRESS=0`` silences rendering
  entirely; any other value forces it on (still plain off-TTY); the
  ``NO_COLOR`` convention (https://no-color.org) downgrades a TTY to
  plain mode.
"""

from __future__ import annotations

import os
import sys
import threading
import time

from repro.telemetry.trace import trace

__all__ = [
    "ProgressTracker",
    "clear_live",
    "eta_seconds",
    "live_progress",
    "publish_live",
]


def eta_seconds(done: float, total: float, elapsed: float) -> float | None:
    """Remaining seconds at the observed average rate (None when unknowable)."""
    if done <= 0 or total <= 0 or elapsed < 0 or done >= total:
        return 0.0 if 0 < total <= done else None
    return elapsed * (total - done) / done


def _render_mode(stream) -> tuple[bool, bool]:
    """Resolve ``(render, live)`` from env + stream.

    ``render`` is whether any status output happens at all; ``live`` is
    whether it repaints in place with carriage returns.  Live requires a
    real TTY *and* no ``NO_COLOR`` — ``REPRO_PROGRESS=1`` can force
    rendering on, but never forces CR repaints onto a pipe.
    """
    isatty = getattr(stream, "isatty", None)
    tty = bool(isatty and isatty())
    live_ok = tty and not os.environ.get("NO_COLOR")
    env = os.environ.get("REPRO_PROGRESS", "")
    if env == "0":
        return False, False
    if env:
        return True, live_ok
    return tty, live_ok


# --------------------------------------------------------------- live board

_live_lock = threading.Lock()
_live: dict[str, dict] = {}


def publish_live(request_id: str, snap: dict) -> None:
    """Publish the latest progress snapshot for a request id."""
    with _live_lock:
        _live[request_id] = snap


def live_progress(request_id: str | None = None):
    """Current snapshot for one request id, or a copy of the whole board."""
    with _live_lock:
        if request_id is not None:
            return _live.get(request_id)
        return dict(_live)


def clear_live(request_id: str) -> None:
    """Drop a finished request from the board."""
    with _live_lock:
        _live.pop(request_id, None)


class ProgressTracker:
    """Accumulates completed units and renders/emits progress updates."""

    def __init__(
        self,
        total_units: int,
        *,
        label: str = "progress",
        total_items: int | None = None,
        unit: str = "runs",
        stream=None,
        enabled: bool | None = None,
        min_interval: float = 0.2,
    ) -> None:
        self.total_units = int(total_units)
        self.total_items = total_items
        self.label = label
        self.unit = unit
        self.stream = stream if stream is not None else sys.stderr
        if enabled is None:
            self.render, self.live = _render_mode(self.stream)
        else:
            # explicit override: legacy behaviour, both modes follow it
            self.render = self.live = bool(enabled)
        self.min_interval = min_interval
        self.done_units = 0
        self.done_items = 0
        self._t0 = time.perf_counter()
        self._last_paint = 0.0
        self._painted = False
        self._last_snap: dict | None = None
        self._live_key = trace.context().get("request_id")

    # ------------------------------------------------------------- updates

    def advance(self, units: int, *, items: int = 1, **attrs) -> dict:
        """Record ``units`` more finished work; emit event + status line.

        Returns the progress snapshot (done/total/rate/eta_s) so callers
        can reuse the math (e.g. for their own log lines).
        """
        self.done_units += int(units)
        self.done_items += items
        elapsed = time.perf_counter() - self._t0
        rate = self.done_units / elapsed if elapsed > 0 else 0.0
        eta = eta_seconds(self.done_units, self.total_units, elapsed)
        snap = {
            "label": self.label,
            "done": self.done_units,
            "total": self.total_units,
            "items_done": self.done_items,
            "items_total": self.total_items,
            "elapsed_s": round(elapsed, 3),
            "rate": round(rate, 3),
            "eta_s": round(eta, 3) if eta is not None else None,
        }
        self._last_snap = snap
        trace.event("progress", **snap, **attrs)
        if self._live_key is not None:
            publish_live(self._live_key, snap)
        if self.render and self.live:
            now = time.perf_counter()
            final = self.done_units >= self.total_units
            if final or now - self._last_paint >= self.min_interval:
                self._last_paint = now
                self._paint(snap)
        return snap

    def _format(self, snap: dict) -> str:
        pct = (
            100.0 * snap["done"] / snap["total"] if snap["total"] else 100.0
        )
        items = (
            f" ({snap['items_done']}/{snap['items_total']} shards)"
            if snap["items_total"] is not None
            else ""
        )
        eta = f" eta {snap['eta_s']:.0f}s" if snap["eta_s"] else ""
        return (
            f"{self.label}: {snap['done']}/{snap['total']} {self.unit}"
            f" {pct:5.1f}%{items} {snap['rate']:,.0f} {self.unit}/s{eta}"
        )

    def _paint(self, snap: dict) -> None:
        self.stream.write(("\r" + self._format(snap)).ljust(79)[:120])
        self.stream.flush()
        self._painted = True

    def finish(self) -> None:
        """Terminate the status line; plain mode emits its one summary here."""
        if self._live_key is not None:
            clear_live(self._live_key)
        if self._painted:
            self.stream.write("\n")
            self.stream.flush()
            self._painted = False
        elif self.render and not self.live and self._last_snap is not None:
            self.stream.write(self._format(self._last_snap) + "\n")
            self.stream.flush()
