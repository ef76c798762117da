"""Offline trace report — ``repro trace analyze``.

Reads a JSONL trace recorded via ``--trace FILE`` (or by the end-to-end
benchmark), selects one request's records or the whole trace, aggregates
them once (:func:`summarize`) and renders one report (:func:`render`):
the run manifest, the span-name table, shard retries and failures,
event counts, final progress per label, counters and gauges, the
critical path and the slowest shards — plus, for a selected request, its
span tree (workers' spans nest under the supervisor's via
``Tracer.adopt``).  Pure functions over parsed records so the test suite
can drive them on synthetic traces.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

__all__ = ["TraceError", "load_trace", "render", "summarize"]


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


def _dur(span: dict) -> float:
    return float(span.get("dur_s", 0.0))


def summarize(records: list[dict], request_id: str | None = None) -> dict:
    """Aggregate a trace, or one request's records, into a JSON-safe summary.

    Without ``request_id`` the summary covers the trace's only request id
    when it holds exactly one (a CLI run stamps ``cli-<pid>-<command>``),
    else the whole trace.  The manifest and the final metrics snapshot
    describe the run and are kept either way.  An id that no record
    carries raises :class:`TraceError` naming the ids the trace holds.
    """
    ids = sorted(
        {r["request_id"] for r in records if r.get("request_id") is not None},
        key=str,
    )
    if request_id is None and len(ids) == 1:
        request_id = ids[0]
    if request_id is not None:
        if request_id not in ids:
            known = ", ".join(map(str, ids)) or "none"
            raise TraceError(
                f"no records carry request_id={request_id!r} "
                f"(request ids in this trace: {known})"
            )
        records = [
            r for r in records
            if r.get("request_id") == request_id
            or r.get("type") in ("manifest", "metrics")
        ]

    names: dict[str, dict] = {}
    spans: list[dict] = []
    events: dict[str, int] = {}
    progress: dict[str, dict] = {}
    manifest: dict = {}
    snapshot: dict = {}
    retries = quarantined = 0
    pids: set[int] = set()
    for record in records:
        rtype = record.get("type")
        if "pid" in record:
            pids.add(record["pid"])
        if rtype == "manifest":
            manifest = {k: v for k, v in record.items() if k != "type"}
        elif rtype == "metrics":
            snapshot = record.get("metrics", {})
        elif rtype == "span":
            spans.append(record)
            agg = names.setdefault(
                record.get("name", "?"),
                {"count": 0, "total_s": 0.0, "max_s": 0.0, "errors": 0},
            )
            agg["count"] += 1
            agg["total_s"] += _dur(record)
            agg["max_s"] = max(agg["max_s"], _dur(record))
            if "error" in record:
                agg["errors"] += 1
        elif rtype == "event":
            name = record.get("name", "?")
            events[name] = events.get(name, 0) + 1
            attrs = record.get("attrs", {})
            if name == "progress":
                progress[attrs.get("label", "progress")] = attrs
            elif name == "shard.retry":
                retries += 1
            elif name == "shard.quarantined":
                quarantined += 1

    # The final counters are the process's: they speak for a request only
    # when it is the trace's one request.
    if request_id is None or len(ids) == 1:
        counters = snapshot.get("counters", {})
        retries = max(retries, int(counters.get("executor.shards_retried", 0)))
        quarantined = max(
            quarantined, int(counters.get("executor.shards_quarantined", 0))
        )
    for agg in names.values():
        agg["total_s"] = round(agg["total_s"], 6)
        agg["max_s"] = round(agg["max_s"], 6)
        agg["mean_s"] = round(agg["total_s"] / agg["count"], 6)

    by_id = {s["span_id"]: s for s in spans if s.get("span_id")}
    children: dict[str, list[dict]] = {}
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
    node = max(roots, key=_dur) if roots else None
    while node is not None:
        critical.append({"name": node.get("name"), "dur_s": round(_dur(node), 6)})
        kids = children.get(node.get("span_id"), [])
        node = max(kids, key=_dur) if kids else None

    shards = sorted(
        (
            {
                "shard": span.get("attrs", {}).get("shard"),
                "lo": span.get("attrs", {}).get("lo"),
                "hi": span.get("attrs", {}).get("hi"),
                "attempt": span.get("attrs", {}).get("attempt"),
                "dur_s": round(_dur(span), 6),
                "pid": span.get("pid"),
            }
            for span in spans
            if span.get("name") == "executor.shard"
        ),
        key=lambda row: -row["dur_s"],
    )

    return {
        "request_id": request_id,
        "request_ids": ids,
        "records": len(records),
        "pids": sorted(pids),
        "manifest": manifest,
        "spans": dict(sorted(names.items(), key=lambda kv: -kv[1]["total_s"])),
        "events": dict(sorted(events.items())),
        "retries": retries,
        "failed_shards": quarantined,
        "progress": progress,
        "metrics": snapshot,
        "critical_path": critical,
        "shards": shards,
        # the tree of a whole trace (thousands of spans) is not a report
        "tree": (
            {"roots": roots, "children": children}
            if request_id is not None
            else None
        ),
    }


def render(summary: dict, *, top: int = 15, max_shards: int = 10) -> str:
    """Human-readable report of :func:`summarize`'s output."""
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
    else:
        lines.append("manifest: (none in trace)")
    rid = summary["request_id"]
    scope = f"request {rid}" if rid is not None else "trace"
    lines.append(
        f"{scope}: {summary['records']} records, "
        f"{sum(a['count'] for a in summary['spans'].values())} spans "
        f"across {len(summary['pids'])} process(es)"
    )
    if rid is None and summary["request_ids"]:
        lines.append(textwrap.fill(
            ", ".join(map(str, summary["request_ids"])),
            width=100,
            initial_indent=f"request ids ({len(summary['request_ids'])}): ",
            subsequent_indent="  ",
        ))

    tree = summary["tree"]
    if tree and tree["roots"]:
        lines.append("")
        lines.append("span tree:")

        def walk(span: dict, depth: int) -> None:
            attrs = span.get("attrs", {})
            shard = f" shard={attrs['shard']}" if "shard" in attrs else ""
            err = f"  ERROR {span['error']}" if span.get("error") else ""
            lines.append(
                f"  {'  ' * depth}{span.get('name', '?'):<{max(1, 30 - 2 * depth)}} "
                f"{_dur(span):>9.3f}s{shard}{err}"
            )
            for kid in tree["children"].get(span.get("span_id"), []):
                walk(kid, depth + 1)

        for root in tree["roots"]:
            walk(root, 0)

    if summary["critical_path"]:
        lines.append("")
        lines.append("critical path: " + " -> ".join(
            f"{step['name']} ({step['dur_s']:.3f}s)"
            for step in summary["critical_path"]
        ))

    if summary["spans"]:
        lines.append("")
        lines.append("top spans by cumulative wall time:")
        lines.append(
            f"  {'span':<28} {'count':>6} {'total s':>10} {'mean s':>10} "
            f"{'max s':>10} {'errored':>7}"
        )
        for name, agg in list(summary["spans"].items())[:top]:
            lines.append(
                f"  {name:<28} {agg['count']:>6} {agg['total_s']:>10.3f} "
                f"{agg['mean_s']:>10.4f} {agg['max_s']:>10.3f} {agg['errors']:>7}"
            )

    if summary["shards"]:
        lines.append("")
        lines.append(f"slowest shards (of {len(summary['shards'])}):")
        lines.append(
            f"  {'shard':>5} {'range':>15} {'attempt':>7} {'dur s':>10} {'pid':>8}"
        )
        for row in summary["shards"][:max_shards]:
            rng = f"[{row['lo']},{row['hi']})"
            lines.append(
                f"  {row['shard'] if row['shard'] is not None else '?':>5} "
                f"{rng:>15} {row['attempt'] if row['attempt'] is not None else '?':>7} "
                f"{row['dur_s']:>10.3f} {row['pid'] if row['pid'] is not None else '?':>8}"
            )

    lines.append("")
    lines.append(
        f"shards: {summary['retries']} retried, "
        f"{summary['failed_shards']} failed permanently"
    )
    if summary["events"]:
        lines.append(
            "events: " + ", ".join(f"{k}={v}" for k, v in summary["events"].items())
        )
    for label, snap in summary["progress"].items():
        rate = snap.get("rate")
        lines.append(
            f"throughput [{label}]: {snap.get('done')}/{snap.get('total')} units"
            + (f" at {rate:,.0f}/s" if rate else "")
            + (f", eta {snap['eta_s']:.0f}s" if snap.get("eta_s") else " (complete)")
        )
    counters = summary["metrics"].get("counters", {})
    gauges = summary["metrics"].get("gauges", {})
    if counters or gauges:
        lines.append("")
        lines.append("counters:")
        for name, value in counters.items():
            lines.append(f"  {name} = {value}")
        for name, value in gauges.items():
            lines.append(f"  {name} = {value:,.2f}")
    return "\n".join(lines)
