"""The always-on certification daemon (``repro serve``).

A stdlib-``asyncio`` service that multiplexes concurrent certification
campaigns over the existing sharded executor.  One process, three moving
parts:

- an **HTTP/JSON listener** (hand-rolled over ``asyncio.start_server`` —
  no framework dependency) exposing ``POST /certify``, ``GET
  /certificate/<key>``, ``GET /healthz``, ``GET /status`` and ``GET
  /metrics`` (JSON by default, Prometheus text exposition when the
  client sends ``Accept: text/plain``);
- a pool of **campaign workers** (asyncio tasks) that pull admitted
  requests off a queue and run :func:`repro.certify.certify_design` in a
  thread, checkpointed under the store's ``work/<key>`` directory so any
  interruption — including ``kill -9`` of the whole daemon — resumes
  deterministically;
- the :class:`~repro.service.store.ResultStore` front-ending it all with
  content-addressed dedupe.

Robustness contract (the headline of this subsystem):

**Dedupe** — a request whose :func:`~repro.service.protocol.request_key`
matches a stored certificate is served from disk (``cached: "store"``);
one matching a campaign already running awaits that campaign's future
(``cached: "inflight"``) — N identical concurrent requests cost exactly
one simulation, asserted by the ``dedupe_hits`` counters.

**Admission control** — at most ``max_queue`` campaigns may be admitted
(queued + running).  Beyond that, requests are *shed* with a structured
``429`` carrying ``Retry-After`` — predictable latency for admitted work
beats unbounded queueing.  Dedupe hits bypass admission entirely (they
cost no simulation).

**Deadlines degrade, never drop** — a per-request ``deadline_s`` maps
onto the executor's ``wall_budget``: when it expires the campaign stops
scheduling shards and emits a *valid degraded* certificate with explicit
uncovered-space accounting, and its checkpoints stay resumable.

**Failures stay where they happened** — every campaign runs on the
daemon's one kernel (``REPRO_SIM_BACKEND``, validated at start-up), and
a failed one is never retried elsewhere.  The kernels are bit-exact, so
a kernel bug is deterministic: rerouting would hide it and would swap
the simulator behind a certificate's evidence, which its run manifest
names.  A failed campaign answers ``500`` with its
:class:`~repro.resilience.errors.ErrorKind` and is tallied in
``campaigns_failed`` and per kind under ``failures_by_kind``.

**Graceful drain** — SIGTERM/SIGINT stops admission (``503 draining``),
lets in-flight campaigns finish (or checkpoint, bounded by
``drain_timeout_s``) and exits 0.  Every finished certificate is already
on disk by then: the store is its certificate files.

Chaos sites ``service.request`` / ``service.store`` / ``service.drain``
instrument the request path, the store writes and the drain sequence, so
the seeded replay methodology of ``tests/test_chaos.py`` extends to the
daemon end to end.

**Request correlation** — every ``POST /certify`` is assigned a
``request_id`` (``req-NNNNNN``), returned in the response and threaded
through the campaign thread (:meth:`Tracer.bind`), the executor and pool
workers, so every span and event of the campaign carries the id and
``repro trace analyze --request`` reconstructs the request end to end.
The campaign's :class:`~repro.telemetry.progress.ProgressTracker`
publishes under the same id to the live board, which ``GET /status``
merges with the request registry: per-request state, shard progress %,
ETA, plus queue depth, failure tallies and store/dedupe counters.  A
request carrying ``"wait": false`` is acknowledged immediately with
``202 Accepted`` (poll ``/status`` then ``/certificate/<key>``).
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.resilience.chaos import ChaosSpec, chaos
from repro.resilience.errors import classify_error
from repro.service.protocol import CertifyRequest, request_key
from repro.service.store import ResultStore
from repro.telemetry import (
    clear_live,
    live_progress,
    metrics,
    render_prometheus,
    trace,
)

__all__ = ["CertificationService", "ServiceConfig"]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the certification daemon; a bad value raises
    :class:`ValueError` naming its field, with the shard executor's checks,
    so every campaign accepts the ``jobs`` and deadline the daemon did."""

    #: store root; certificates and campaign checkpoints live here
    store_dir: object = "repro-store"
    host: str = "127.0.0.1"
    #: 0 = pick an ephemeral port (recorded on ``service.port`` once bound)
    port: int = 0
    #: concurrent campaigns (asyncio workers, each running one campaign
    #: in a thread over the sharded executor)
    concurrency: int = 2
    #: admission bound: campaigns admitted (queued + running) before
    #: load-shedding kicks in; dedupe hits do not count against it
    max_queue: int = 8
    #: executor worker processes *per campaign*
    jobs: int = 1
    #: deadline applied to requests that do not carry their own
    default_deadline_s: float | None = None
    #: how long a drain waits for in-flight campaigns before giving up
    #: (their checkpoints make the abandonment lossless)
    drain_timeout_s: float = 600.0
    #: Retry-After hint (seconds) on shed responses, scaled by queue depth
    retry_after_s: float = 2.0

    def __post_init__(self) -> None:
        from repro.faults.executor import require_int, require_seconds

        for name in ("jobs", "concurrency", "max_queue"):
            require_int(name, getattr(self, name), minimum=1)
        require_seconds(
            "default_deadline_s", self.default_deadline_s, optional=True, zero=True
        )
        require_seconds("drain_timeout_s", self.drain_timeout_s, zero=True)
        require_seconds("retry_after_s", self.retry_after_s)
        require_int("port", self.port, minimum=0)
        if self.port > 65535:
            raise ValueError(f"port must be at most 65535, got {self.port!r}")


class CertificationService:
    """See module docstring.  ``certify`` is injectable for tests."""

    def __init__(
        self, config: ServiceConfig, *, certify=None
    ) -> None:
        from repro.certify import certify_design
        from repro.netlist.simulator import resolve_backend

        # Eager environment validation: a typo'd REPRO_CHAOS schedule or
        # REPRO_SIM_BACKEND override must refuse to start the daemon, not
        # silently never fire / blow up mid-campaign in a worker.
        ChaosSpec.from_env()
        resolve_backend(None)
        chaos.configure_from_env()

        self.config = config
        self.store = ResultStore(config.store_dir)
        self._certify = certify or certify_design
        self._designs: dict = {}
        self._design_lock = threading.Lock()
        self._store_lock = threading.Lock()
        self.counters = {
            "requests": 0,
            "bad_requests": 0,
            "dedupe_hits_store": 0,
            "dedupe_hits_inflight": 0,
            "shed": 0,
            "campaigns_started": 0,
            "campaigns_completed": 0,
            "campaigns_degraded": 0,
            "campaigns_failed": 0,
            "drains": 0,
        }
        #: failed campaigns per ErrorKind
        self.failures_by_kind: dict[str, int] = {}
        self.port: int | None = None
        self.ready = threading.Event()
        self._draining = False
        self._req_index = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._queue: asyncio.Queue | None = None
        self._inflight: dict[str, asyncio.Future] = {}
        self._stop: asyncio.Event | None = None
        #: request_id -> live registry entry (queued/running campaigns)
        self._requests: dict[str, dict] = {}
        #: most recently finished requests, newest first (for /status)
        self._recent: deque = deque(maxlen=16)

    # ------------------------------------------------------------- plumbing

    def _count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n
        metrics.inc(f"service.{name}", n)

    def _key_and_design(self, norm: CertifyRequest):
        with self._design_lock:
            design = norm.design(self._designs)
        return request_key(norm, design), design

    def _count_failure(self, kind: str) -> None:
        self._count("campaigns_failed")
        self.failures_by_kind[kind] = self.failures_by_kind.get(kind, 0) + 1

    # ------------------------------------------------------------- campaign

    def _run_campaign(
        self, norm: CertifyRequest, design, key: str, rid: str,
        parent_span: str | None,
    ):
        deadline = norm.deadline_s
        if deadline is None:
            deadline = self.config.default_deadline_s
        config = norm.config(
            jobs=self.config.jobs,
            checkpoint_dir=str(self.store.work_dir(key)),
            resume=True,
            wall_budget=deadline,
        )
        # The campaign thread binds the request id so every span/event it
        # (and its pool workers) writes is stamped, publishes live
        # progress under it, and adopts the loop thread's
        # ``service.campaign`` span so the trace stays one tree.
        with trace.bind(request_id=rid), trace.adopt(parent_span):
            certificate = self._certify(
                design, key=int(norm.key, 0), config=config
            )
        if not certificate.degraded:
            with self._store_lock:
                self.store.put(key, certificate)
        return certificate

    async def _worker(self) -> None:
        while True:
            key, norm, design, future, rid = await self._queue.get()
            try:
                if not future.done():
                    await self._execute(key, norm, design, future, rid)
            finally:
                self._inflight.pop(key, None)
                self._queue.task_done()

    async def _execute(self, key, norm, design, future, rid) -> None:
        self._count("campaigns_started")
        entry = self._requests.get(rid)
        if entry is not None:
            entry["state"] = "running"
            entry["started_t"] = round(time.time(), 3)
        with trace.span(
            "service.campaign", key=key[:16], scheme=norm.scheme,
            request_id=rid,
        ) as campaign_span:
            parent_span = getattr(campaign_span, "span_id", None)
            try:
                certificate = await asyncio.to_thread(
                    self._run_campaign, norm, design, key, rid, parent_span,
                )
            except Exception as exc:
                kind = str(classify_error(exc))
                self._count_failure(kind)
                log.error(
                    "campaign %s failed on %s [%s]: %s",
                    key[:16], design.spec.name, kind, exc,
                )
                if not future.done():
                    future.set_exception(exc)
                return
        coverage = certificate.coverage
        infra_dead = (
            coverage.get("locations_covered") == 0
            and coverage.get("failed_shards")
            and coverage.get("locations_planned", 0) > 0
        )
        if infra_dead:
            # Every shard was quarantined: count the campaign under the
            # first shard's typed error, not as completed.
            self._count_failure(
                coverage["failed_shards"][0].get("error_kind", "transient")
            )
        else:
            self._count("campaigns_completed")
            if certificate.degraded:
                self._count("campaigns_degraded")
        if not future.done():
            future.set_result(certificate)

    # -------------------------------------------------------------- request

    async def handle_request(self, doc: dict, *, wait: bool = True) -> tuple[int, dict]:
        """Process one ``POST /certify`` body; returns (http_status, doc).

        ``wait=False`` acknowledges an admitted campaign with ``202``
        immediately (``request_id`` + ``key`` for /status + /certificate
        polling) instead of holding the connection open.
        """
        self._req_index += 1
        rid = f"req-{self._req_index:06d}"
        self._count("requests")
        chaos.at("service.request", index=self._req_index)
        try:
            request = CertifyRequest.from_dict(doc).normalized()
        except (ValueError, TypeError) as exc:
            self._count("bad_requests")
            return 400, {"status": "bad_request", "error": str(exc), "request_id": rid}
        if self._draining:
            return 503, {
                "status": "draining",
                "retry_after_s": self.config.retry_after_s,
                "request_id": rid,
            }
        try:
            key, design = await asyncio.to_thread(self._key_and_design, request)
        except (ValueError, TypeError) as exc:
            # the rounds, variant or cycles this cipher cannot build
            self._count("bad_requests")
            return 400, {"status": "bad_request", "error": str(exc), "request_id": rid}

        with self._store_lock:
            stored = self.store.get(key)
        if stored is not None:
            self._count("dedupe_hits_store")
            doc = self._done(key, stored, cached="store")
            doc["request_id"] = rid
            return 200, doc

        future = self._inflight.get(key)
        if future is not None:
            self._count("dedupe_hits_inflight")
            if not wait:
                return 202, {
                    "status": "accepted",
                    "request_id": rid,
                    "key": key,
                    "cached": "inflight",
                }
            status, doc = await self._await_result(key, future, cached="inflight")
            doc["request_id"] = rid
            return status, doc

        admitted = self._queue.qsize() + sum(
            1 for f in self._inflight.values() if not f.done()
        )
        if admitted >= self.config.max_queue:
            self._count("shed")
            retry = self.config.retry_after_s * admitted
            trace.event("service.shed", queue_depth=admitted, request_id=rid)
            return 429, {
                "status": "shed",
                "queue_depth": admitted,
                "retry_after_s": retry,
                "request_id": rid,
            }

        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        self._requests[rid] = {
            "request_id": rid,
            "key": key,
            "state": "queued",
            "scheme": request.scheme,
            "cipher": request.cipher,
            "queued_t": round(time.time(), 3),
        }
        trace.event(
            "request.accepted", request_id=rid, key=key[:16],
            scheme=request.scheme, cipher=request.cipher, wait=wait,
        )
        # The callback both maintains the registry and retrieves the
        # future's exception, so fire-and-forget (wait=False) campaign
        # failures never log "exception was never retrieved".
        future.add_done_callback(
            lambda f, rid=rid, key=key: self._finish_request(rid, key, f)
        )
        await self._queue.put((key, request, design, future, rid))
        if not wait:
            return 202, {"status": "accepted", "request_id": rid, "key": key}
        status, doc = await self._await_result(key, future, cached=None)
        doc["request_id"] = rid
        return status, doc

    def _finish_request(self, rid: str, key: str, future) -> None:
        """Move a finished request from the live registry to /status recents."""
        clear_live(rid)
        entry = self._requests.pop(rid, None)
        if entry is None:
            return
        entry["finished_t"] = round(time.time(), 3)
        if future.cancelled():
            entry["state"] = "cancelled"
        elif future.exception() is not None:
            exc = future.exception()
            entry["state"] = "failed"
            entry["error"] = f"{type(exc).__name__}: {exc}"
        else:
            certificate = future.result()
            entry["state"] = "degraded" if certificate.degraded else "done"
            entry["passed"] = certificate.passed
        trace.event(
            "request.done", request_id=rid, key=key[:16], state=entry["state"]
        )
        self._recent.appendleft(entry)

    async def _await_result(self, key, future, *, cached) -> tuple[int, dict]:
        try:
            certificate = await asyncio.shield(future)
        except Exception as exc:
            return 500, {
                "status": "error",
                "error": f"{type(exc).__name__}: {exc}",
                "error_kind": str(classify_error(exc)),
            }
        return 200, self._done(key, certificate, cached=cached)

    def _done(self, key, certificate, *, cached) -> dict:
        return {
            "status": "done",
            "key": key,
            "cached": cached,
            "passed": certificate.passed,
            "degraded": certificate.degraded,
            "certificate": certificate.to_dict(),
        }

    # ----------------------------------------------------------------- http

    async def _handle_conn(self, reader, writer) -> None:
        try:
            status, doc, extra = await self._handle_http(reader)
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                ConnectionError, asyncio.TimeoutError):
            writer.close()
            return
        except Exception as exc:  # a handler bug must not kill the daemon
            log.exception("request handler crashed")
            status, doc, extra = 500, {
                "status": "error", "error": f"{type(exc).__name__}: {exc}",
            }, {}
        if isinstance(doc, str):
            # pre-rendered text body (Prometheus exposition)
            body = doc.encode()
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = (json.dumps(doc, sort_keys=True) + "\n").encode()
            content_type = "application/json"
        reason = {200: "OK", 202: "Accepted", 400: "Bad Request",
                  404: "Not Found", 429: "Too Many Requests",
                  500: "Internal Server Error", 503: "Service Unavailable"}
        headers = [
            f"HTTP/1.1 {status} {reason.get(status, 'OK')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        if isinstance(doc, dict) and "retry_after_s" in doc:
            headers.append(f"Retry-After: {max(1, round(doc['retry_after_s']))}")
        for name, value in (extra or {}).items():
            headers.append(f"{name}: {value}")
        try:
            writer.write("\r\n".join(headers).encode() + b"\r\n\r\n" + body)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    async def _handle_http(self, reader) -> tuple[int, dict, dict]:
        head = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), timeout=30.0
        )
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, path, _ = lines[0].split(" ", 2)
        except ValueError:
            return 400, {"status": "bad_request", "error": "malformed request line"}, {}
        headers = {}
        for line in lines[1:]:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        body = b""
        raw_length = headers.get("content-length") or "0"
        # RFC 9110: 1*DIGIT; anything else (a sign, "abc") is the client's fault
        digits = raw_length.isascii() and raw_length.isdigit()
        length = int(raw_length) if digits else -1
        if length < 0:
            return 400, {
                "status": "bad_request",
                "error": f"bad Content-Length: {raw_length!r}",
            }, {}
        if length:
            body = await asyncio.wait_for(
                reader.readexactly(length), timeout=60.0
            )

        if method == "GET" and path == "/healthz":
            return 200, self.health(), {}
        if method == "GET" and path == "/metrics":
            accept = headers.get("accept", "")
            if "text/plain" in accept or "openmetrics" in accept:
                return 200, render_prometheus(metrics.snapshot()), {}
            return 200, {"metrics": metrics.snapshot()}, {}
        if method == "GET" and path == "/status":
            return 200, self.status(), {}
        if method == "GET" and path.startswith("/certificate/"):
            key = path[len("/certificate/"):]
            with self._store_lock:
                certificate = self.store.get(key)
            if certificate is None:
                return 404, {"status": "not_found", "key": key}, {}
            return 200, self._done(key, certificate, cached="store"), {}
        if method == "POST" and path == "/certify":
            try:
                doc = json.loads(body.decode() or "{}")
            except ValueError as exc:
                return 400, {"status": "bad_request", "error": f"bad JSON: {exc}"}, {}
            # "wait" is transport-level (hold the connection or not), not
            # part of the request identity — peel it off before parsing.
            wait = True
            if isinstance(doc, dict):
                wait = bool(doc.pop("wait", True))
            status, response = await self.handle_request(doc, wait=wait)
            return status, response, {}
        return 404, {"status": "not_found", "path": path}, {}

    def health(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "in_flight": sum(
                1 for f in self._inflight.values() if not f.done()
            ),
            "counters": dict(self.counters),
            "failures_by_kind": dict(self.failures_by_kind),
            "store": {
                "entries": len(self.store.keys()),
                "pending_work": self.store.pending_work(),
            },
        }

    def status(self) -> dict:
        """Live introspection: health + per-request registry and progress.

        Each in-flight request is joined against the telemetry live
        board, so a running campaign reports shard-level progress %,
        throughput and ETA in real time.
        """
        board = live_progress()
        requests = []
        for entry in list(self._requests.values()):
            item = dict(entry)
            snap = board.get(item["request_id"])
            if snap:
                total = snap.get("total") or 0
                done = snap.get("done", 0)
                item["progress"] = {
                    "label": snap.get("label"),
                    "done": done,
                    "total": total,
                    "pct": round(100.0 * done / total, 1) if total else None,
                    "shards_done": snap.get("items_done"),
                    "shards_total": snap.get("items_total"),
                    "rate": snap.get("rate"),
                    "eta_s": snap.get("eta_s"),
                    "elapsed_s": snap.get("elapsed_s"),
                }
            requests.append(item)
        requests.sort(key=lambda item: item["request_id"])
        doc = self.health()
        doc["requests"] = requests
        doc["recent"] = [dict(entry) for entry in self._recent]
        return doc

    # ---------------------------------------------------------------- drain

    def begin_drain(self) -> None:
        """Stop admitting new campaigns (idempotent, thread-safe to call)."""
        if not self._draining:
            self._draining = True
            self._count("drains")
            trace.event("service.drain_begin")
            log.info("drain: admission stopped; finishing in-flight campaigns")

    async def _drain_and_stop(self) -> None:
        self.begin_drain()
        try:
            chaos.at("service.drain")
        except Exception as exc:
            # Chaos (or any hook failure) in the drain path must never
            # leave the daemon undead: log it and keep draining.
            log.warning("drain hook raised (%s); draining anyway", exc)
            trace.event("service.drain_hook_failed", error=str(exc))
        pending = [f for f in self._inflight.values() if not f.done()]
        if pending:
            done, not_done = await asyncio.wait(
                pending, timeout=self.config.drain_timeout_s
            )
            if not_done:
                # Abandoning is lossless: every campaign checkpoints under
                # work/<key> and the next identical request resumes it.
                log.warning(
                    "drain: %d campaign(s) still running after %.1fs; "
                    "their checkpoints remain resumable",
                    len(not_done), self.config.drain_timeout_s,
                )
                trace.event("service.drain_timeout", abandoned=len(not_done))
        trace.event("service.drain_complete")
        log.info("drain complete")
        self._stop.set()

    def request_shutdown(self) -> None:
        """Thread-safe graceful-drain trigger (what SIGTERM is wired to)."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(
                lambda: asyncio.ensure_future(self._drain_and_stop())
            )

    # ------------------------------------------------------------------ run

    async def run(self) -> None:
        """Serve until a drain completes (SIGTERM or request_shutdown)."""
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._stop = asyncio.Event()
        workers = [
            asyncio.ensure_future(self._worker())
            for _ in range(self.config.concurrency)
        ]
        server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port
        )
        self.port = server.sockets[0].getsockname()[1]
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(
                    signum,
                    lambda: asyncio.ensure_future(self._drain_and_stop()),
                )
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # not the main thread, or platform without signals
        log.info(
            "certification service listening on http://%s:%d (store: %s)",
            self.config.host, self.port, self.store.root,
        )
        trace.event(
            "service.listening", host=self.config.host, port=self.port
        )
        self.ready.set()
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            for worker in workers:
                worker.cancel()
            await asyncio.gather(*workers, return_exceptions=True)
            self.ready.clear()

    def serve(self) -> int:
        """Blocking entry point; returns 0 after a graceful drain."""
        asyncio.run(self.run())
        return 0
