"""``repro top`` — a TTY dashboard over the daemon's ``GET /status``.

Pure rendering (:func:`render_status`) split from the polling loop
(:func:`run_top`) so tests drive the former on synthetic status docs and
the latter against an in-process daemon with ``iterations=1``.  On an
interactive TTY the loop repaints in place (ANSI home+clear, suppressed
by ``NO_COLOR``); everywhere else each poll appends a plain frame.
"""

from __future__ import annotations

import os
import sys
import time

__all__ = ["render_status", "run_top"]

_BAR_WIDTH = 24


def _bar(pct: float | None) -> str:
    if pct is None:
        return "·" * _BAR_WIDTH
    filled = int(_BAR_WIDTH * min(100.0, max(0.0, pct)) / 100.0)
    return "#" * filled + "-" * (_BAR_WIDTH - filled)


def _fmt_eta(eta_s) -> str:
    if eta_s is None:
        return "  --"
    eta_s = float(eta_s)
    if eta_s >= 3600:
        return f"{eta_s / 3600:.1f}h"
    if eta_s >= 60:
        return f"{eta_s / 60:.1f}m"
    return f"{eta_s:.0f}s"


def render_status(doc: dict) -> str:
    """One dashboard frame from a ``/status`` document."""
    lines: list[str] = []
    counters = doc.get("counters", {})
    store = doc.get("store", {})
    lines.append(
        f"repro service [{doc.get('status', '?')}] — "
        f"queue {doc.get('queue_depth', 0)}, "
        f"in-flight {doc.get('in_flight', 0)}, "
        f"store {store.get('entries', 0)} cert(s), "
        f"{store.get('pending_work', 0)} resumable"
    )
    lines.append(
        f"requests {counters.get('requests', 0)} | dedupe "
        f"store={counters.get('dedupe_hits_store', 0)} "
        f"inflight={counters.get('dedupe_hits_inflight', 0)} | "
        f"shed {counters.get('shed', 0)} | campaigns "
        f"ok={counters.get('campaigns_completed', 0)} "
        f"degraded={counters.get('campaigns_degraded', 0)} "
        f"failed={counters.get('campaigns_failed', 0)}"
    )

    requests = doc.get("requests", [])
    lines.append("")
    if requests:
        lines.append(
            f"  {'request':<12} {'state':<8} {'scheme':<12} "
            f"{'progress':<{_BAR_WIDTH + 2}} {'pct':>6} {'eta':>6} {'rate':>10}"
        )
        for item in requests:
            progress = item.get("progress") or {}
            pct = progress.get("pct")
            rate = progress.get("rate")
            lines.append(
                f"  {item.get('request_id', '?'):<12} "
                f"{item.get('state', '?'):<8} "
                f"{str(item.get('scheme', '?')):<12} "
                f"[{_bar(pct)}] "
                f"{(f'{pct:5.1f}%' if pct is not None else '    --'):>6} "
                f"{_fmt_eta(progress.get('eta_s')):>6} "
                f"{(f'{rate:,.0f}/s' if rate else '--'):>10}"
            )
    else:
        lines.append("  (no requests in flight)")

    recent = doc.get("recent", [])
    if recent:
        lines.append("")
        lines.append("recent:")
        for item in recent[:5]:
            took = ""
            if item.get("finished_t") and item.get("started_t"):
                took = f" in {item['finished_t'] - item['started_t']:.1f}s"
            lines.append(
                f"  {item.get('request_id', '?'):<12} "
                f"{item.get('state', '?'):<8} "
                f"{str(item.get('scheme', '?')):<12}{took}"
            )
    return "\n".join(lines)


def run_top(
    client,
    *,
    interval: float = 1.0,
    iterations: int | None = None,
    stream=None,
    clear: bool | None = None,
) -> int:
    """Poll ``client.status()`` and repaint until interrupted.

    ``iterations`` bounds the loop for ``--once``/tests; ``clear=None``
    auto-detects (TTY and not ``NO_COLOR``).
    """
    stream = stream if stream is not None else sys.stdout
    if clear is None:
        isatty = getattr(stream, "isatty", None)
        clear = bool(isatty and isatty()) and not os.environ.get("NO_COLOR")
    count = 0
    try:
        while iterations is None or count < iterations:
            doc = client.status()
            frame = render_status(doc)
            if clear:
                stream.write("\x1b[H\x1b[2J" + frame + "\n")
            else:
                stream.write(frame + "\n")
            stream.flush()
            count += 1
            if iterations is not None and count >= iterations:
                break
            time.sleep(interval)
    except KeyboardInterrupt:
        pass
    return 0
