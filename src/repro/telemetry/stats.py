"""Offline trace summarisation — ``repro stats`` and ``repro trace analyze``.

Reads a JSONL trace recorded via ``--trace FILE``, aggregates it, and
renders a terminal digest: the run manifest, top spans by cumulative wall
time, shard retry/failure counts, and end-of-sweep throughput/ETA from
the recorded ``progress`` events.  :func:`analyze_request` goes deeper
for one request id: it reconstructs the request's span tree (workers'
spans nest under the supervisor's via ``Tracer.adopt``), walks the
critical path, and breaks wall time down per phase (span name) and per
shard.  Pure functions over parsed records so the test suite can drive
them on synthetic traces.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "analyze_request",
    "load_trace",
    "render_analysis",
    "render_stats",
    "request_ids",
    "summarize",
]


class TraceError(ValueError):
    """The trace file is missing or not parseable JSONL."""


def load_trace(path) -> list[dict]:
    """Parse a JSONL trace; raises :class:`TraceError` on garbage."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from exc
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(f"{path}:{lineno}: not JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise TraceError(f"{path}:{lineno}: record is not an object")
        records.append(record)
    return records


def summarize(records: list[dict]) -> dict:
    """Aggregate a trace into a JSON-safe summary document."""
    spans: dict[str, dict] = {}
    events: dict[str, int] = {}
    progress_last: dict[str, dict] = {}
    manifest: dict = {}
    metrics_snapshot: dict = {}
    retries = 0
    quarantined = 0
    pids: set[int] = set()

    for record in records:
        rtype = record.get("type")
        if "pid" in record:
            pids.add(record["pid"])
        if rtype == "manifest":
            manifest = {k: v for k, v in record.items() if k != "type"}
        elif rtype == "metrics":
            metrics_snapshot = record.get("metrics", {})
        elif rtype == "span":
            agg = spans.setdefault(
                record.get("name", "?"),
                {"count": 0, "total_s": 0.0, "max_s": 0.0, "errors": 0},
            )
            dur = float(record.get("dur_s", 0.0))
            agg["count"] += 1
            agg["total_s"] += dur
            agg["max_s"] = max(agg["max_s"], dur)
            if "error" in record:
                agg["errors"] += 1
        elif rtype == "event":
            name = record.get("name", "?")
            events[name] = events.get(name, 0) + 1
            attrs = record.get("attrs", {})
            if name == "progress":
                progress_last[attrs.get("label", "progress")] = attrs
            elif name == "shard.retry":
                retries += 1
            elif name == "shard.quarantined":
                quarantined += 1

    counters = metrics_snapshot.get("counters", {})
    retries = max(retries, int(counters.get("executor.shards_retried", 0)))
    quarantined = max(
        quarantined, int(counters.get("executor.shards_quarantined", 0))
    )
    for agg in spans.values():
        agg["total_s"] = round(agg["total_s"], 6)
        agg["max_s"] = round(agg["max_s"], 6)
        agg["mean_s"] = round(agg["total_s"] / agg["count"], 6)
    return {
        "records": len(records),
        "pids": sorted(pids),
        "manifest": manifest,
        "spans": dict(
            sorted(spans.items(), key=lambda kv: -kv[1]["total_s"])
        ),
        "events": dict(sorted(events.items())),
        "retries": retries,
        "failed_shards": quarantined,
        "progress": progress_last,
        "metrics": metrics_snapshot,
    }


def request_ids(records: list[dict]) -> dict[str, dict]:
    """Index a trace by top-level ``request_id``: counts + first activity."""
    out: dict[str, dict] = {}
    for record in records:
        rid = record.get("request_id")
        if rid is None:
            continue
        info = out.setdefault(
            rid, {"spans": 0, "events": 0, "first_t": None, "names": set()}
        )
        rtype = record.get("type")
        if rtype == "span":
            info["spans"] += 1
            info["names"].add(record.get("name", "?"))
        elif rtype == "event":
            info["events"] += 1
        t = record.get("t")
        if t is not None and (info["first_t"] is None or t < info["first_t"]):
            info["first_t"] = t
    for info in out.values():
        info["names"] = sorted(info["names"])
    return out


def analyze_request(records: list[dict], request_id: str) -> dict:
    """Deep-dive one request: span tree, critical path, phase/shard tables.

    Raises :class:`TraceError` when the id matches no spans, so callers
    can list what *is* in the trace instead of printing an empty report.
    """
    spans = [
        r
        for r in records
        if r.get("type") == "span" and r.get("request_id") == request_id
    ]
    if not spans:
        raise TraceError(f"no spans carry request_id={request_id!r}")
    events = [
        r
        for r in records
        if r.get("type") == "event" and r.get("request_id") == request_id
    ]

    by_id = {s["span_id"]: s for s in spans if s.get("span_id")}
    children: dict[str | None, list[dict]] = {}
    roots: list[dict] = []
    for span in spans:
        parent = span.get("parent_id")
        if parent in by_id:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)
    for kids in children.values():
        kids.sort(key=lambda s: s.get("t", 0.0))
    roots.sort(key=lambda s: s.get("t", 0.0))

    # critical path: from the longest root, repeatedly descend into the
    # longest child — the chain a latency fix has to shorten
    critical: list[dict] = []
    if roots:
        node = max(roots, key=lambda s: s.get("dur_s", 0.0))
        while node is not None:
            critical.append(node)
            kids = children.get(node.get("span_id"), [])
            node = max(kids, key=lambda s: s.get("dur_s", 0.0)) if kids else None

    phases: dict[str, dict] = {}
    for span in spans:
        agg = phases.setdefault(
            span.get("name", "?"), {"count": 0, "total_s": 0.0, "max_s": 0.0}
        )
        dur = float(span.get("dur_s", 0.0))
        agg["count"] += 1
        agg["total_s"] += dur
        agg["max_s"] = max(agg["max_s"], dur)
    for agg in phases.values():
        agg["total_s"] = round(agg["total_s"], 6)
        agg["max_s"] = round(agg["max_s"], 6)
        agg["mean_s"] = round(agg["total_s"] / agg["count"], 6)

    shards = sorted(
        (
            {
                "shard": span.get("attrs", {}).get("shard"),
                "lo": span.get("attrs", {}).get("lo"),
                "hi": span.get("attrs", {}).get("hi"),
                "attempt": span.get("attrs", {}).get("attempt"),
                "dur_s": round(float(span.get("dur_s", 0.0)), 6),
                "pid": span.get("pid"),
            }
            for span in spans
            if span.get("name") == "executor.shard"
        ),
        key=lambda row: -row["dur_s"],
    )

    event_counts: dict[str, int] = {}
    last_progress: dict | None = None
    for event in events:
        name = event.get("name", "?")
        event_counts[name] = event_counts.get(name, 0) + 1
        if name == "progress":
            last_progress = event.get("attrs", {})

    return {
        "request_id": request_id,
        "spans": len(spans),
        "pids": sorted({s.get("pid") for s in spans if s.get("pid") is not None}),
        "roots": roots,
        "children": children,
        "critical_path": [
            {"name": s.get("name"), "dur_s": round(float(s.get("dur_s", 0.0)), 6)}
            for s in critical
        ],
        "phases": dict(sorted(phases.items(), key=lambda kv: -kv[1]["total_s"])),
        "shards": shards,
        "events": dict(sorted(event_counts.items())),
        "progress": last_progress,
    }


def render_analysis(analysis: dict, *, max_shards: int = 10) -> str:
    """Human-readable report of :func:`analyze_request`'s output."""
    lines: list[str] = []
    lines.append(
        f"request {analysis['request_id']}: {analysis['spans']} spans "
        f"across {len(analysis['pids'])} process(es)"
    )

    lines.append("")
    lines.append("span tree:")
    children = analysis["children"]

    def walk(span: dict, depth: int) -> None:
        attrs = span.get("attrs", {})
        shard = f" shard={attrs['shard']}" if "shard" in attrs else ""
        err = f"  ERROR {span['error']}" if span.get("error") else ""
        lines.append(
            f"  {'  ' * depth}{span.get('name', '?'):<{max(1, 30 - 2 * depth)}} "
            f"{float(span.get('dur_s', 0.0)):>9.3f}s{shard}{err}"
        )
        for kid in children.get(span.get("span_id"), []):
            walk(kid, depth + 1)

    for root in analysis["roots"]:
        walk(root, 0)

    if analysis["critical_path"]:
        path = " -> ".join(
            f"{step['name']} ({step['dur_s']:.3f}s)"
            for step in analysis["critical_path"]
        )
        lines.append("")
        lines.append(f"critical path: {path}")

    lines.append("")
    lines.append("per-phase wall time:")
    lines.append(
        f"  {'phase':<28} {'count':>6} {'total s':>10} {'mean s':>10} {'max s':>10}"
    )
    for name, agg in analysis["phases"].items():
        lines.append(
            f"  {name:<28} {agg['count']:>6} {agg['total_s']:>10.3f} "
            f"{agg['mean_s']:>10.4f} {agg['max_s']:>10.3f}"
        )

    if analysis["shards"]:
        lines.append("")
        lines.append(f"slowest shards (of {len(analysis['shards'])}):")
        lines.append(
            f"  {'shard':>5} {'range':>15} {'attempt':>7} {'dur s':>10} {'pid':>8}"
        )
        for row in analysis["shards"][:max_shards]:
            rng = f"[{row['lo']},{row['hi']})"
            lines.append(
                f"  {row['shard'] if row['shard'] is not None else '?':>5} "
                f"{rng:>15} {row['attempt'] if row['attempt'] is not None else '?':>7} "
                f"{row['dur_s']:>10.3f} {row['pid'] if row['pid'] is not None else '?':>8}"
            )

    if analysis["events"]:
        lines.append("")
        lines.append(
            "events: "
            + ", ".join(f"{k}={v}" for k, v in analysis["events"].items())
        )
    snap = analysis.get("progress")
    if snap:
        lines.append(
            f"final progress: {snap.get('done')}/{snap.get('total')} units"
            + (f" at {snap['rate']:,.0f}/s" if snap.get("rate") else "")
        )
    return "\n".join(lines)


def render_stats(summary: dict, *, top: int = 15) -> str:
    """Human-readable digest of :func:`summarize`'s output."""
    lines: list[str] = []
    manifest = summary["manifest"]
    if manifest:
        head = [
            f"{k}={manifest[k]}"
            for k in ("command", "backend", "jobs", "seed", "git_rev")
            if manifest.get(k) is not None
        ]
        lines.append("manifest: " + (" ".join(head) if head else "(no workload fields)"))
        lines.append(
            f"  python {manifest.get('python', '?')}, numpy "
            f"{manifest.get('numpy', '?')}, {manifest.get('timestamp', '?')}"
        )
    lines.append(
        f"records: {summary['records']} across "
        f"{len(summary['pids'])} process(es)"
    )

    if summary["spans"]:
        lines.append("")
        lines.append("top spans by cumulative wall time:")
        lines.append(
            f"  {'span':<28} {'count':>6} {'total s':>10} {'mean s':>10} {'max s':>10}"
        )
        for name, agg in list(summary["spans"].items())[:top]:
            lines.append(
                f"  {name:<28} {agg['count']:>6} {agg['total_s']:>10.3f} "
                f"{agg['mean_s']:>10.4f} {agg['max_s']:>10.3f}"
                + (f"  ({agg['errors']} errored)" if agg["errors"] else "")
            )

    lines.append("")
    lines.append(
        f"shards: {summary['retries']} retried, "
        f"{summary['failed_shards']} failed permanently"
    )
    for label, snap in summary["progress"].items():
        done, total = snap.get("done"), snap.get("total")
        rate = snap.get("rate")
        lines.append(
            f"throughput [{label}]: {done}/{total} units"
            + (f" at {rate:,.0f}/s" if rate else "")
            + (
                f", eta {snap['eta_s']:.0f}s"
                if snap.get("eta_s")
                else " (complete)"
            )
        )
    counters = summary["metrics"].get("counters", {})
    if counters:
        lines.append("")
        lines.append("counters:")
        for name, value in counters.items():
            lines.append(f"  {name} = {value}")
    gauges = summary["metrics"].get("gauges", {})
    for name, value in gauges.items():
        lines.append(f"  {name} = {value:,.2f}")
    return "\n".join(lines)
