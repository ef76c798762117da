"""The telemetry subsystem: tracing, metrics, progress, stats.

Covers the contracts the rest of the repo leans on: span nesting and
JSONL round-trips, cross-process metrics aggregation through the sharded
executor, progress/ETA math, the zero-overhead disabled path (structural:
the shared no-op span, no sink writes), and the ``repro stats``
subcommand on a recorded trace.
"""

from __future__ import annotations

import io
import json
import os

import pytest

from repro.cli import main
from repro.faults import RNG_BLOCK, ExecutorConfig, FaultSpec, FaultType, run_campaign
from repro.faults.models import sbox_input_net
from repro.telemetry import (
    MetricsRegistry,
    ProgressTracker,
    eta_seconds,
    live_progress,
    metrics,
    render_prometheus,
    run_manifest,
    trace,
)
from repro.telemetry.manifest import MANIFEST_SCHEMA_VERSION, cpu_model
from repro.telemetry.stats import TraceError, load_trace, render, summarize
from repro.telemetry.trace import NULL_SPAN
from tests.conftest import TEST_KEY80


@pytest.fixture(autouse=True)
def _tracer_hygiene():
    """Every test starts and ends with a disabled, empty tracer."""
    trace.close()
    yield
    trace.close()


# ------------------------------------------------------------------ tracing


class TestTracing:
    def test_disabled_tracer_hands_out_the_shared_null_span(self):
        assert not trace.enabled
        assert trace.span("x") is NULL_SPAN
        assert trace.span("y", attr=1) is NULL_SPAN
        with trace.span("z") as s:
            assert s is NULL_SPAN
            s.set(more=2)  # chainable no-op
        trace.event("nothing", happens=True)  # must not raise

    def test_span_nesting_links_parent_ids(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace.configure(path)
        with trace.span("outer", layer=1):
            with trace.span("inner", layer=2):
                pass
            with trace.span("inner", layer=2):
                pass
        trace.close()

        records = load_trace(path)
        spans = [r for r in records if r["type"] == "span"]
        # children close before the parent, so outer is written last
        assert [s["name"] for s in spans] == ["inner", "inner", "outer"]
        outer = spans[-1]
        assert outer["parent_id"] is None
        for inner in spans[:2]:
            assert inner["parent_id"] == outer["span_id"]
        assert len({s["span_id"] for s in spans}) == 3

    def test_span_records_duration_and_error(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace.configure(path)
        with pytest.raises(ValueError):
            with trace.span("doomed", n=3):
                raise ValueError("boom")
        trace.close()
        (span,) = [r for r in load_trace(path) if r["type"] == "span"]
        assert span["dur_s"] >= 0.0
        assert span["error"] == "ValueError"
        assert span["attrs"] == {"n": 3}

    def test_manifest_is_first_record_and_round_trips(self, tmp_path):
        path = tmp_path / "t.jsonl"
        manifest = run_manifest(kind="test", command="certify")
        trace.configure(path, manifest=manifest)
        trace.event("tick", i=1)
        trace.close(final_metrics={"counters": {"c": 2}})

        records = load_trace(path)
        assert records[0]["type"] == "manifest"
        assert records[0]["schema"] == MANIFEST_SCHEMA_VERSION
        assert records[0]["command"] == "certify"
        assert records[0]["python"]  # environment fields present
        assert records[-1] == {"type": "metrics", "metrics": {"counters": {"c": 2}}}

    def test_capture_buffers_and_ingest_replays(self, tmp_path):
        with trace.capture() as records:
            with trace.span("worker.unit", shard=4):
                trace.event("inside", ok=True)
        assert not trace.enabled  # capture restored the disabled state
        assert [r["type"] for r in records] == ["event", "span"]

        path = tmp_path / "t.jsonl"
        trace.configure(path)
        trace.ingest(records)
        trace.close()
        assert [r["type"] for r in load_trace(path)] == ["event", "span"]

    def test_unserialisable_attrs_are_coerced_not_fatal(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace.configure(path)
        with trace.span("odd", obj=object(), arr=(1, 2), nested={"k": object()}):
            pass
        trace.close()
        (span,) = load_trace(path)
        assert isinstance(span["attrs"]["obj"], str)
        assert span["attrs"]["arr"] == [1, 2]
        assert isinstance(span["attrs"]["nested"]["k"], str)

    def test_load_trace_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "span"}\nnot json\n')
        with pytest.raises(TraceError):
            load_trace(path)
        with pytest.raises(TraceError):
            load_trace(tmp_path / "missing.jsonl")


# -------------------------------------------------------- request correlation


class TestRequestContext:
    def test_bind_works_while_disabled_and_restores(self):
        assert not trace.enabled
        assert trace.context() == {}
        with trace.bind(request_id="req-1", tenant="a"):
            assert trace.context() == {"request_id": "req-1", "tenant": "a"}
            with trace.bind(request_id="req-2"):
                assert trace.context()["request_id"] == "req-2"
            assert trace.context()["request_id"] == "req-1"
        assert trace.context() == {}

    def test_bind_filters_none_values(self):
        with trace.bind(request_id=None):
            assert trace.context() == {}

    def test_bound_context_stamps_all_record_types(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace.configure(path)
        with trace.bind(request_id="req-7"):
            with trace.span("work"):
                trace.event("tick")
        trace.close()
        records = load_trace(path)
        stamped = [r for r in records if r["type"] in ("span", "event")]
        assert stamped and all(r["request_id"] == "req-7" for r in stamped)

    def test_explicit_attr_wins_over_thread_binding(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace.configure(path)
        with trace.bind(request_id="ambient"):
            with trace.span("campaign", request_id="req-42"):
                pass
        trace.close()
        (span,) = load_trace(path)
        assert span["request_id"] == "req-42"

    def test_capture_inside_bind_ships_stamped_records(self, tmp_path):
        """The worker-process pattern: bind ctx, capture, ingest at home."""
        with trace.bind(request_id="req-9"):
            with trace.capture() as records:
                with trace.span("executor.shard", shard=0):
                    pass
        path = tmp_path / "t.jsonl"
        trace.configure(path)
        trace.ingest(records)
        trace.close()
        (span,) = load_trace(path)
        assert span["request_id"] == "req-9"

    def test_adopt_parents_spans_across_threads(self, tmp_path):
        import threading

        path = tmp_path / "t.jsonl"
        trace.configure(path)
        with trace.span("service.campaign") as outer:
            parent_id = outer.span_id

            def worker():
                with trace.adopt(parent_id):
                    with trace.span("executor.run_sharded"):
                        pass

            t = threading.Thread(target=worker)
            t.start()
            t.join()
        trace.close()
        spans = {r["name"]: r for r in load_trace(path)}
        assert spans["executor.run_sharded"]["parent_id"] == parent_id
        assert spans["service.campaign"]["parent_id"] is None

    def test_adopt_none_is_noop(self):
        with trace.adopt(None):
            pass  # disabled tracer path: must not raise


# ------------------------------------------------------------------ metrics


class TestMetrics:
    def test_counters_gauges_histograms_snapshot(self):
        reg = MetricsRegistry()
        reg.inc("shards", 2)
        reg.inc("shards")
        reg.set("rate", 12.5)
        reg.observe("dt", 0.25)
        reg.observe("dt", 0.75)
        snap = reg.snapshot()
        assert snap["counters"]["shards"] == 3
        assert snap["gauges"]["rate"] == 12.5
        hist = snap["histograms"]["dt"]
        assert hist["count"] == 2
        assert hist["total"] == pytest.approx(1.0)
        assert hist["min"] == 0.25 and hist["max"] == 0.75

    def test_merge_folds_worker_snapshots(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.inc("shards", 1)
        parent.observe("dt", 0.5)
        worker.inc("shards", 4)
        worker.set("rate", 99.0)
        worker.observe("dt", 0.1)
        worker.observe("dt", 0.9)
        parent.merge(worker.snapshot())
        snap = parent.snapshot()
        assert snap["counters"]["shards"] == 5
        assert snap["gauges"]["rate"] == 99.0
        assert snap["histograms"]["dt"] == {
            "count": 3,
            "total": pytest.approx(1.5),
            "min": 0.1,
            "max": 0.9,
        }
        assert parent.histogram("dt").mean == pytest.approx(0.5)

    def test_merge_empty_snapshot_is_identity(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.merge({})
        reg.merge({"histograms": {"h": {"count": 0}}})
        assert reg.snapshot()["counters"] == {"c": 1}
        assert reg.snapshot()["histograms"]["h"]["count"] == 0

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.set("b", 1)
        reg.observe("c", 1)
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_render_prometheus_exposition(self):
        reg = MetricsRegistry()
        reg.inc("service.requests", 5)
        reg.set("executor.runs_per_second", 123.5)
        reg.observe("shard.dur_s", 0.25)
        reg.observe("shard.dur_s", 0.75)
        text = render_prometheus(reg.snapshot())
        assert text.endswith("\n")
        assert "# TYPE service_requests_total counter" in text
        assert "service_requests_total 5" in text
        assert "# TYPE executor_runs_per_second gauge" in text
        assert "executor_runs_per_second 123.5" in text
        assert "shard_dur_s_count 2" in text
        assert "shard_dur_s_sum 1.0" in text
        assert "shard_dur_s_min 0.25" in text
        assert "shard_dur_s_max 0.75" in text
        # every sample line uses a sanitized name
        for line in text.splitlines():
            name = line.split(" ")[2 if line.startswith("#") else 0]
            assert all(c.isalnum() or c in "_:" for c in name), line

    def test_render_prometheus_empty_snapshot(self):
        assert render_prometheus({}) == "\n"


# ------------------------------------------------- cross-process aggregation


@pytest.mark.slow
def test_pool_campaign_aggregates_worker_telemetry(
    naive_design, present_spec, tmp_path
):
    """A jobs=2 campaign must yield one coherent trace: shard spans from
    worker pids, progress events, and merged executor counters."""
    net = sbox_input_net(naive_design.cores[0], 7, 1)
    fault = FaultSpec.at(net, FaultType.STUCK_AT_0, present_spec.rounds - 2)
    path = tmp_path / "campaign.jsonl"
    metrics.reset()
    trace.configure(path, manifest=run_manifest(kind="test"))
    try:
        run_campaign(
            naive_design, [fault], n_runs=2 * RNG_BLOCK, key=TEST_KEY80,
            seed=7, executor=ExecutorConfig(jobs=2, shard_runs=RNG_BLOCK),
        )
    finally:
        trace.close(final_metrics=metrics.snapshot())

    records = load_trace(path)
    shard_spans = [
        r for r in records if r["type"] == "span" and r["name"] == "executor.shard"
    ]
    assert len(shard_spans) == 2
    assert all(s["pid"] != os.getpid() for s in shard_spans), (
        "shard spans must come from the worker processes"
    )
    progress = [
        r for r in records if r["type"] == "event" and r["name"] == "progress"
    ]
    assert progress, "progress events must flow into the trace"
    last = progress[-1]["attrs"]
    assert last["done"] == last["total"] == 2 * RNG_BLOCK
    assert last["eta_s"] == 0.0

    (final,) = [r for r in records if r["type"] == "metrics"]
    counters = final["metrics"]["counters"]
    assert counters["executor.shards_completed"] == 2
    assert final["metrics"]["gauges"]["executor.runs_per_second"] > 0

    summary = summarize(records)
    # The parent plus at least one worker: the pool may hand both shards
    # to the same worker, so a third pid is a matter of timing.
    assert len(summary["pids"]) >= 2
    assert summary["spans"]["executor.shard"]["count"] == 2
    assert summary["retries"] == 0 and summary["failed_shards"] == 0


# ----------------------------------------------------------------- progress


class TestProgress:
    def test_eta_math(self):
        assert eta_seconds(0, 100, 5.0) is None  # nothing done: unknowable
        assert eta_seconds(25, 100, 30.0) == pytest.approx(90.0)
        assert eta_seconds(100, 100, 30.0) == 0.0
        assert eta_seconds(150, 100, 30.0) == 0.0  # overshoot clamps
        assert eta_seconds(10, 0, 5.0) is None  # no known total

    def test_advance_snapshots_and_item_counting(self):
        tracker = ProgressTracker(
            100, label="sweep", total_items=4, enabled=False
        )
        snap = tracker.advance(25, shard=0)
        assert snap["done"] == 25 and snap["total"] == 100
        assert snap["items_done"] == 1 and snap["items_total"] == 4
        assert snap["rate"] >= 0
        snap = tracker.advance(75, items=3)
        assert snap["done"] == 100 and snap["items_done"] == 4
        assert snap["eta_s"] == 0.0

    def test_render_writes_single_line_with_cr(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROGRESS", raising=False)
        stream = io.StringIO()
        tracker = ProgressTracker(
            10, label="job", unit="units", stream=stream, enabled=True,
            min_interval=0.0,
        )
        tracker.advance(5)
        out = stream.getvalue()
        assert out.startswith("\r") and "\n" not in out
        assert "job: 5/10 units" in out
        tracker.advance(5)
        tracker.finish()
        assert stream.getvalue().endswith("\n")

    def test_env_var_gates_rendering(self, monkeypatch):
        stream = io.StringIO()  # not a TTY
        monkeypatch.setenv("REPRO_PROGRESS", "0")
        assert ProgressTracker(1, stream=stream).render is False
        monkeypatch.setenv("REPRO_PROGRESS", "1")
        assert ProgressTracker(1, stream=stream).render is True
        monkeypatch.delenv("REPRO_PROGRESS")
        assert ProgressTracker(1, stream=stream).render is False  # no TTY

    def test_disabled_tracker_never_touches_the_stream(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROGRESS", "0")
        stream = io.StringIO()
        tracker = ProgressTracker(10, stream=stream)
        tracker.advance(10)
        tracker.finish()
        assert stream.getvalue() == ""

    def test_forced_rendering_off_tty_is_plain_single_shot(self, monkeypatch):
        """REPRO_PROGRESS=1 into a pipe must not flood CI logs with \\r."""
        monkeypatch.setenv("REPRO_PROGRESS", "1")
        monkeypatch.delenv("NO_COLOR", raising=False)
        stream = io.StringIO()  # not a TTY
        tracker = ProgressTracker(10, label="job", stream=stream, min_interval=0.0)
        assert tracker.render is True and tracker.live is False
        tracker.advance(5)
        tracker.advance(5)
        assert stream.getvalue() == ""  # nothing until finish
        tracker.finish()
        out = stream.getvalue()
        assert "\r" not in out
        assert out.count("\n") == 1
        assert "job: 10/10" in out

    def test_no_color_downgrades_a_tty_to_plain(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROGRESS", raising=False)
        monkeypatch.setenv("NO_COLOR", "1")

        class FakeTty(io.StringIO):
            def isatty(self):
                return True

        stream = FakeTty()
        tracker = ProgressTracker(4, label="job", stream=stream, min_interval=0.0)
        assert tracker.render is True and tracker.live is False
        tracker.advance(4)
        tracker.finish()
        out = stream.getvalue()
        assert "\r" not in out and "job: 4/4" in out

    def test_live_board_publishes_under_bound_request_id(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROGRESS", "0")
        with trace.bind(request_id="req-55"):
            tracker = ProgressTracker(100, label="certify", total_items=4)
            tracker.advance(25)
        snap = live_progress("req-55")
        assert snap and snap["done"] == 25 and snap["total"] == 100
        assert "req-55" in live_progress()
        tracker.finish()
        assert live_progress("req-55") is None  # cleared on finish

    def test_no_board_entry_without_request_context(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROGRESS", "0")
        before = set(live_progress())
        ProgressTracker(10).advance(5)
        assert set(live_progress()) == before


# ----------------------------------------------------------------- manifest


def test_run_manifest_fields():
    doc = run_manifest(backend="levelized", jobs=4, seed=11)
    assert doc["schema"] == MANIFEST_SCHEMA_VERSION
    assert doc["backend"] == "levelized" and doc["jobs"] == 4 and doc["seed"] == 11
    for field in ("timestamp", "python", "numpy", "platform", "pid"):
        assert doc[field], field
    assert json.loads(json.dumps(doc)) == doc  # JSON-safe


def test_run_manifest_identifies_the_host():
    """Bench-history series are keyed per machine: hostname + CPU model."""
    doc = run_manifest()
    assert "hostname" in doc and "cpu" in doc
    assert doc["hostname"]  # platform.node() is non-empty on real systems
    model = cpu_model()
    assert doc["cpu"] == model
    if model is not None:
        assert isinstance(model, str) and model.strip() == model
    assert json.loads(json.dumps(doc)) == doc  # round-trips through JSON


# ------------------------------------------------------- repro trace analyze


@pytest.fixture
def recorded_trace(tmp_path):
    """A small but representative trace, recorded through the real tracer
    with no request id bound (as the end-to-end benchmark writes them)."""
    path = tmp_path / "run.jsonl"
    trace.configure(
        path, manifest=run_manifest(command="certify", backend="levelized", jobs=2)
    )
    with trace.span("executor.run_sharded", shards=2):
        for shard in range(2):
            with trace.span("executor.shard", shard=shard):
                pass
        trace.event(
            "shard.retry", shard=1, attempt=1, error="OSError: transient"
        )
        trace.event(
            "progress",
            label="certify", done=128, total=128, rate=512.0, eta_s=0.0,
        )
    trace.close(
        final_metrics={
            "counters": {"executor.shards_retried": 1},
            "gauges": {"executor.runs_per_second": 512.0},
            "histograms": {},
        }
    )
    return path


class TestStats:
    def test_summarize_aggregates_spans_and_retries(self, recorded_trace):
        summary = summarize(load_trace(recorded_trace))
        assert summary["request_id"] is None and summary["request_ids"] == []
        assert summary["manifest"]["command"] == "certify"
        assert summary["spans"]["executor.shard"]["count"] == 2
        assert summary["spans"]["executor.run_sharded"]["count"] == 1
        # the sweep wraps the shards, so it dominates cumulative time
        assert next(iter(summary["spans"])) == "executor.run_sharded"
        assert summary["retries"] == 1
        assert summary["failed_shards"] == 0
        assert summary["progress"]["certify"]["done"] == 128
        assert [step["name"] for step in summary["critical_path"]][0] == (
            "executor.run_sharded"
        )
        assert summary["tree"] is None  # a whole trace is not drawn as a tree

    def test_quarantined_shards_count_as_failed(self):
        # the supervisor's quarantine event, as ``_quarantine`` emits it
        event = {
            "type": "event", "name": "shard.quarantined",
            "attrs": {"shard": 3, "attempts": 3, "error_kind": "crash"},
        }
        summary = summarize([event, dict(event, attrs={"shard": 5})])
        assert summary["failed_shards"] == 2
        assert "2 failed permanently" in render(summary)
        # a trace that kept only the final metrics falls back to the counter
        metrics = {
            "type": "metrics",
            "metrics": {"counters": {"executor.shards_quarantined": 4}},
        }
        assert summarize([metrics])["failed_shards"] == 4

    def test_render_stats_digest(self, recorded_trace):
        text = render(summarize(load_trace(recorded_trace)))
        assert "command=certify" in text and "backend=levelized" in text
        assert "trace: " in text and "3 spans across 1 process(es)" in text
        assert "executor.run_sharded" in text
        assert "1 retried" in text
        assert "128/128 units" in text
        assert "executor.shards_retried = 1" in text
        assert "slowest shards (of 2):" in text
        assert "span tree:" not in text

    def test_cli_stats_subcommand(self, recorded_trace, capsys):
        # ``repro stats`` folded into ``repro trace analyze``
        with pytest.raises(SystemExit) as exc:
            main(["stats", str(recorded_trace)])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["trace", "analyze", str(recorded_trace), "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "top spans by cumulative wall time" in out
        assert "executor.run_sharded" in out
        # --top 1: the shard row is only in the slowest-shard table
        assert "  executor.shard " not in out

    def test_cli_analyze_garbage_file_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "garbage.jsonl"
        path.write_text('{"type": "span"}\nnot json\n')
        assert main(["trace", "analyze", str(path)]) == 1
        assert "garbage.jsonl:2: not JSON" in capsys.readouterr().err

    def test_cli_trace_flag_records_a_parseable_trace(self, tmp_path, capsys):
        path = tmp_path / "cli.jsonl"
        assert main(["table2", "--trace", str(path)]) == 0
        records = load_trace(path)
        assert records[0]["type"] == "manifest"
        assert records[0]["command"] == "table2"
        assert records[-1]["type"] == "metrics"
        assert not trace.enabled  # main() closed the tracer

    def test_cli_runs_are_stamped_with_a_synthetic_request_id(self, tmp_path, capsys):
        path = tmp_path / "cli.jsonl"
        assert main(["fig4", "--runs", "128", "--trace", str(path)]) == 0
        records = load_trace(path)
        spans = [r for r in records if r["type"] == "span"]
        assert spans
        rid = spans[0]["request_id"]
        assert rid.startswith("cli-") and rid.endswith("-fig4")
        assert all(s["request_id"] == rid for s in spans)
        # ...which makes any CLI trace report its run's span tree
        capsys.readouterr()
        assert main(["trace", "analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"request {rid}" in out and "span tree:" in out


@pytest.fixture
def correlated_trace(tmp_path):
    """Two interleaved requests recorded through the real tracer, with the
    daemon's cross-thread adopt pattern for the first."""
    import threading

    path = tmp_path / "svc.jsonl"
    trace.configure(path, manifest=run_manifest(kind="test"))
    with trace.span("service.campaign", request_id="req-000001") as campaign:
        parent = campaign.span_id

        def campaign_thread():
            with trace.bind(request_id="req-000001"), trace.adopt(parent):
                with trace.span("executor.run_sharded"):
                    for shard in range(3):
                        with trace.span(
                            "executor.shard",
                            shard=shard, lo=shard * 8, hi=shard * 8 + 8, attempt=1,
                        ):
                            pass
                trace.event(
                    "progress", label="certify", done=24, total=24, rate=80.0
                )

        t = threading.Thread(target=campaign_thread)
        t.start()
        t.join()
    with trace.bind(request_id="req-000002"):
        with trace.span("service.campaign"):
            pass
    trace.close()
    return path


class TestTraceAnalyze:
    def test_request_ids_indexes_the_trace(self, correlated_trace):
        records = load_trace(correlated_trace)
        summary = summarize(records)
        assert summary["request_ids"] == ["req-000001", "req-000002"]
        assert summary["request_id"] is None  # two ids: the whole trace
        assert summary["spans"]["service.campaign"]["count"] == 2
        one = summarize(records, request_id="req-000001")
        assert one["request_ids"] == ["req-000001", "req-000002"]
        assert sum(agg["count"] for agg in one["spans"].values()) == 5
        assert "executor.shard" in one["spans"]

    def test_analyze_reconstructs_one_tree_with_critical_path(
        self, correlated_trace
    ):
        summary = summarize(load_trace(correlated_trace), "req-000001")
        assert summary["request_id"] == "req-000001"
        # one root despite the thread hop: adopt() kept the tree connected
        assert [r["name"] for r in summary["tree"]["roots"]] == ["service.campaign"]
        path_names = [step["name"] for step in summary["critical_path"]]
        assert path_names[:3] == [
            "service.campaign", "executor.run_sharded", "executor.shard",
        ]
        assert summary["spans"]["executor.shard"]["count"] == 3
        durations = [row["dur_s"] for row in summary["shards"]]
        assert durations == sorted(durations, reverse=True)  # slowest first
        assert {row["shard"] for row in summary["shards"]} == {0, 1, 2}
        assert summary["progress"]["certify"]["done"] == 24

    def test_analyze_isolates_requests(self, correlated_trace):
        summary = summarize(load_trace(correlated_trace), "req-000002")
        assert sum(agg["count"] for agg in summary["spans"].values()) == 1
        assert summary["shards"] == []
        assert summary["progress"] == {}

    def test_analyze_unknown_request_raises(self, correlated_trace, capsys):
        with pytest.raises(TraceError, match="req-000001, req-000002"):
            summarize(load_trace(correlated_trace), "req-999999")
        assert main(
            ["trace", "analyze", str(correlated_trace), "--request", "req-999999"]
        ) == 1
        err = capsys.readouterr().err
        assert "req-999999" in err and "req-000001, req-000002" in err

    def test_render_analysis_report(self, correlated_trace):
        text = render(summarize(load_trace(correlated_trace), "req-000001"))
        assert "request req-000001: " in text and " 5 spans " in text
        assert "span tree:" in text
        assert "critical path: service.campaign" in text
        assert "slowest shards (of 3):" in text
        assert "top spans by cumulative wall time:" in text
        assert "throughput [certify]: 24/24 units" in text

    def test_cli_analyze_reports_a_multi_request_trace_whole(
        self, correlated_trace, capsys
    ):
        assert main(["trace", "analyze", str(correlated_trace)]) == 0
        out = capsys.readouterr().out
        assert "request ids (2): req-000001, req-000002" in out
        assert "trace: " in out and "top spans by cumulative wall time" in out
        assert "critical path: service.campaign" in out
        assert "span tree:" not in out

    def test_cli_analyze_reports_a_trace_without_request_ids(
        self, recorded_trace, capsys
    ):
        assert main(["trace", "analyze", str(recorded_trace)]) == 0
        out = capsys.readouterr().out
        assert "backend=levelized" in out and "request ids" not in out
        assert "executor.shard" in out

    def test_cli_analyze_by_request_id(self, correlated_trace, capsys):
        assert main(
            ["trace", "analyze", str(correlated_trace), "--request", "req-000001"]
        ) == 0
        out = capsys.readouterr().out
        assert "critical path" in out and "executor.shard" in out
        assert "span tree:" in out

    def test_cli_analyze_autoselects_a_single_request(self, tmp_path, capsys):
        path = tmp_path / "one.jsonl"
        trace.configure(path)
        with trace.bind(request_id="req-000009"):
            with trace.span("service.campaign"):
                pass
        trace.close()
        assert main(["trace", "analyze", str(path)]) == 0
        assert "request req-000009" in capsys.readouterr().out

    def test_cli_analyze_missing_file(self, tmp_path, capsys):
        assert main(["trace", "analyze", str(tmp_path / "no.jsonl")]) == 1
        assert "cannot read trace" in capsys.readouterr().err
