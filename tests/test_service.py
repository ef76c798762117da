"""The certification daemon: dedupe, backpressure, failures, drain, chaos.

Robustness is the headline contract of :mod:`repro.service` (ISSUE 8):
these tests hold the daemon to the same standard ``tests/test_chaos.py``
holds the executor — identical concurrent requests cost one simulation,
crash debris resumes to bit-identical certificates, overload sheds with a
structured retry, deadlines degrade instead of dropping, a failing
campaign is reported as failed every time (never rerouted), and
SIGTERM-style drains always terminate with every finished certificate
on disk.

Real campaigns use a tiny reduced-round PRESENT sweep (~0.3 s); the
scheduling-logic tests (admission, dedupe, failures, drain) inject a stub
``certify`` so they are fast and fully deterministic.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.certify import Certificate, CertifyConfig, certify_design
from repro.netlist.simulator import resolve_backend
from repro.resilience import CHAOS_ENV, ChaosFault, ChaosSpec, chaos
from repro.resilience.chaos import _fires
from repro.service import (
    CertificationService,
    CertifyRequest,
    ResultStore,
    ServiceClient,
    ServiceConfig,
    build_design,
    circuit_digest,
    request_key,
)
from repro.telemetry import metrics

KEYHEX = "0x0123456789abcdef0123"

#: the tiny request every end-to-end test reuses (~0.3 s per campaign)
TINY = {
    "scheme": "three-in-one",
    "rounds": 2,
    "budget": 64,
    "runs_per_location": 8,
    "models": ["coupled"],
    "seed": 4,
    "key": KEYHEX,
}


@pytest.fixture(autouse=True)
def _pristine_chaos(monkeypatch):
    monkeypatch.delenv(CHAOS_ENV, raising=False)
    chaos.disable()
    yield
    chaos.disable()


@pytest.fixture(scope="module")
def tiny_design():
    return build_design("three-in-one", variant="prime", rounds=2)


@pytest.fixture(scope="module")
def direct_cert(tiny_design):
    """Ground truth: what certify_design says about TINY, daemon-free."""
    return certify_design(
        tiny_design,
        key=int(KEYHEX, 0),
        config=CertifyConfig(
            budget=64, runs_per_location=8, models=("coupled",), seed=4
        ),
    )


@contextlib.contextmanager
def running(store_dir, *, certify=None, **cfg):
    """A live daemon on an ephemeral port, drained on exit."""
    cfg.setdefault("concurrency", 2)
    service = CertificationService(
        ServiceConfig(store_dir=store_dir, port=0, **cfg), certify=certify
    )
    thread = threading.Thread(target=service.serve, daemon=True)
    thread.start()
    assert service.ready.wait(10), "daemon failed to start"
    try:
        yield service, ServiceClient(f"http://127.0.0.1:{service.port}")
    finally:
        service.request_shutdown()
        thread.join(30)
        assert not thread.is_alive(), "daemon failed to drain"


def _wait(predicate, timeout=15.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# ----------------------------------------------------------- content address


class TestRequestKey:
    def test_defaults_normalise_to_the_same_key(self, tiny_design):
        from repro.certify import DEFAULT_MODELS

        spelled_out = CertifyRequest.from_dict(
            {
                **TINY,
                "models": None,
                "key": str(int(KEYHEX, 0)),
            }
        )
        defaulted = CertifyRequest.from_dict({**TINY, "models": None})
        assert request_key(spelled_out, tiny_design) == request_key(
            defaulted, tiny_design
        )
        assert defaulted.normalized().models == DEFAULT_MODELS

    def test_every_identity_field_rekeys(self, tiny_design):
        base = CertifyRequest.from_dict(TINY)
        k0 = request_key(base, tiny_design)
        for change in (
            {"seed": 5},
            {"budget": 128},
            {"runs_per_location": 16},
            {"models": ["single"]},
            {"key": "0x1"},
        ):
            other = CertifyRequest.from_dict({**TINY, **change})
            assert request_key(other, tiny_design) != k0, change
        # the variant is read from the design, which three-in-one builds per variant
        per_round = CertifyRequest.from_dict({**TINY, "variant": "per_round"})
        assert request_key(per_round) != k0

    def test_deadline_is_not_identity(self, tiny_design):
        base = CertifyRequest.from_dict(TINY)
        dead = CertifyRequest.from_dict({**TINY, "deadline_s": 0.5})
        assert request_key(base, tiny_design) == request_key(dead, tiny_design)

    def test_netlist_hash_rekeys_on_structure(self):
        r2 = CertifyRequest.from_dict(TINY)
        r3 = CertifyRequest.from_dict({**TINY, "rounds": 3})
        assert request_key(r2) != request_key(r3)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="unknown request field"):
            CertifyRequest.from_dict({**TINY, "bananas": 1})
        with pytest.raises(ValueError, match="unknown scheme"):
            CertifyRequest.from_dict({**TINY, "scheme": "rot13"})
        with pytest.raises(ValueError):
            CertifyRequest.from_dict({**TINY, "key": "not-a-number"})
        # the kernel is the daemon's, not the request's
        with pytest.raises(ValueError, match="unknown request field.*backend"):
            CertifyRequest.from_dict({**TINY, "backend": "compiled"})

    @pytest.mark.parametrize("change", [{"runs_per_location": 0}, {"budget": "abc"}])
    def test_rejects_a_bad_sweep_size(self, change):
        name = next(iter(change))
        with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
            CertifyRequest.from_dict({**TINY, **change})

    def test_kernel_is_not_identity(self, tiny_design, monkeypatch):
        k0 = request_key(CertifyRequest.from_dict(TINY), tiny_design)
        monkeypatch.setenv("REPRO_SIM_BACKEND", "compiled")
        assert request_key(CertifyRequest.from_dict(TINY), tiny_design) == k0

    def test_three_in_one_key_is_pinned(self, tiny_design):
        # stored certificates are addressed by this key: it must not drift
        assert request_key(CertifyRequest.from_dict(TINY), tiny_design) == (
            "2183b7a062c31c2391db66f13f3fad8769a789c7d805690112f1e1004def561f"
        )

    @pytest.mark.parametrize("scheme", ["naive", "acisp20", "triplication"])
    def test_a_variant_the_scheme_ignores_does_not_rekey(self, scheme):
        keys = {
            request_key(CertifyRequest.from_dict(
                {**TINY, "scheme": scheme, "variant": variant}
            ))
            for variant in ("prime", "per_round", "per_sbox")
        }
        assert len(keys) == 1

    def test_design_cache_holds_one_design_per_netlist(self):
        cache: dict = {}
        naive = [
            CertifyRequest.from_dict({**TINY, "scheme": "naive", "variant": v})
            for v in ("prime", "per_round", "per_sbox")
        ]
        designs = {id(request.design(cache)) for request in naive}
        assert len(designs) == 1 and len(cache) == 1
        # three-in-one builds one netlist per λ-variant, so each is cached
        for variant in ("prime", "per_round"):
            CertifyRequest.from_dict({**TINY, "variant": variant}).design(cache)
        assert len(cache) == 3

    @pytest.mark.parametrize("scheme", ["three-in-one", "naive", "acisp20", "triplication"])
    def test_unknown_variant_refused_for_every_scheme(self, scheme):
        with pytest.raises(ValueError, match="unknown variant 'bogus'"):
            CertifyRequest.from_dict({**TINY, "scheme": scheme, "variant": "bogus"})

    def test_wire_document_round_trips(self):
        request = CertifyRequest.from_dict({**TINY, "cycles": [0, 1], "deadline_s": 2.5})
        doc = json.loads(json.dumps(request.to_dict()))
        assert CertifyRequest.from_dict(doc) == request


# -------------------------------------------------------------------- store


#: a well-formed request key (64 lowercase hex characters)
KEY64 = "a" * 64

#: keys the store must refuse without touching a file
MALFORMED_KEYS = ["../victim", "a/b", "a" * 63, "a" * 65, "A" * 64]


def _corrupt_count() -> int:
    return metrics.snapshot()["counters"].get("service.store.certs_corrupt", 0)


class TestResultStore:
    def test_put_get_roundtrip_bit_identical(self, tmp_path, direct_cert):
        store = ResultStore(tmp_path)
        store.put(KEY64, direct_cert)
        loaded = store.get(KEY64)
        assert loaded.render(include_timing=False) == direct_cert.render(
            include_timing=False
        )

    def test_refuses_to_cache_degraded(self, tmp_path, tiny_design):
        degraded = certify_design(
            tiny_design,
            key=int(KEYHEX, 0),
            config=CertifyConfig(
                budget=64, runs_per_location=8, models=("coupled",),
                seed=4, wall_budget=0.0,
            ),
        )
        assert degraded.degraded
        with pytest.raises(ValueError, match="degraded"):
            ResultStore(tmp_path).put(KEY64, degraded)

    def test_put_writes_one_certificate_file(self, tmp_path, direct_cert):
        store = ResultStore(tmp_path)
        store.put(KEY64, direct_cert)
        store.put("b" * 64, direct_cert)
        files = sorted(
            str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")
            if p.is_file()
        )
        assert files == [f"certs/{KEY64}.json", f"certs/{'b' * 64}.json"]
        assert store.keys() == [KEY64, "b" * 64]

    def test_absent_key_is_a_plain_miss(self, tmp_path):
        before = _corrupt_count()
        assert ResultStore(tmp_path).get(KEY64) is None
        assert _corrupt_count() == before

    def test_corrupt_certificate_evicted_not_served(self, tmp_path, direct_cert):
        store = ResultStore(tmp_path)
        store.put(KEY64, direct_cert)
        path = store.cert_path(KEY64)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x40
        path.write_bytes(bytes(data))
        assert store.get(KEY64) is None  # never serve unverifiable bits
        assert KEY64 not in store.keys()
        assert not path.exists()

    def test_certificate_without_integrity_block_evicted(
        self, tmp_path, direct_cert
    ):
        store = ResultStore(tmp_path)
        store.put(KEY64, direct_cert)
        path = store.cert_path(KEY64)
        doc = json.loads(path.read_text())
        del doc["integrity"]
        doc["verdicts"]["dfa_detection"]["status"] = "TAMPERED"
        path.write_text(json.dumps(doc))
        assert store.get(KEY64) is None
        assert not path.exists()

    @pytest.mark.parametrize("valid", [True, False], ids=["valid", "corrupt"])
    @pytest.mark.parametrize("key", MALFORMED_KEYS)
    def test_malformed_key_touches_no_file(self, tmp_path, direct_cert, key, valid):
        """A key that is not 64 lowercase hex characters is a miss: a
        certificate at the path it would name is neither served (read) nor
        evicted (deleted), and put refuses it before writing."""
        store = ResultStore(tmp_path / "store")
        path = store.cert_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        if valid:
            direct_cert.save(path)
        else:
            path.write_text('{"decoy": true}')
        before = path.read_bytes()
        corrupt = _corrupt_count()
        assert store.get(key) is None
        assert path.read_bytes() == before
        assert _corrupt_count() == corrupt
        with pytest.raises(ValueError, match="not a request key"):
            store.put(key, direct_cert)
        assert path.read_bytes() == before

    def test_index_file_from_an_older_store_is_ignored(
        self, tmp_path, direct_cert
    ):
        store = ResultStore(tmp_path)
        store.put(KEY64, direct_cert)
        (tmp_path / "index.json").write_text('{"version": 1, "entr')
        assert ResultStore(tmp_path).get(KEY64) is not None


def _raw_http(port: int, request: bytes) -> tuple[bytes, dict]:
    """Send ``request`` verbatim; return the status line and JSON body."""
    with socket.create_connection(("127.0.0.1", port), 10) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return head.split(b"\r\n", 1)[0], json.loads(body)


def _never_certify(design, *, key, config):
    raise AssertionError("this request must not start a campaign")


class TestStoreOverHttp:
    def test_files_only_store_serves_a_bit_identical_hit(
        self, tmp_path, tiny_design, direct_cert
    ):
        """A store holding nothing but ``certs/<key>.json``, copied from
        another store, answers from disk without a campaign."""
        key = request_key(CertifyRequest.from_dict(TINY), tiny_design)
        origin = ResultStore(tmp_path / "origin")
        origin.put(key, direct_cert)
        copied = tmp_path / "copy" / "certs" / f"{key}.json"
        copied.parent.mkdir(parents=True)
        shutil.copyfile(origin.cert_path(key), copied)
        assert [p for p in (tmp_path / "copy").rglob("*") if p.is_file()] == [
            copied
        ]
        with running(tmp_path / "copy", certify=_never_certify) as (
            service, client,
        ):
            status, doc = client.submit(TINY)
            health = client.health()
        assert status == 200 and doc["cached"] == "store"
        assert health["counters"]["campaigns_started"] == 0
        assert health["store"]["entries"] == 1
        served = Certificate.from_dict(doc["certificate"])
        assert served.render() == direct_cert.render()
        assert copied.read_bytes() == origin.cert_path(key).read_bytes()

    @pytest.mark.parametrize("path", ["../victim", "../../victim"])
    def test_path_shaped_key_is_a_404_that_touches_no_file(self, tmp_path, path):
        store_dir = tmp_path / "store"
        decoys = [store_dir / "victim.json", tmp_path / "victim.json"]
        with running(store_dir) as (service, client):
            for decoy in decoys:
                decoy.write_text('{"decoy": true}')
            status, doc = _raw_http(
                service.port,
                f"GET /certificate/{path} HTTP/1.1\r\nHost: x\r\n\r\n".encode(),
            )
        assert status.startswith(b"HTTP/1.1 404 ")
        assert doc == {"status": "not_found", "key": path}
        for decoy in decoys:
            assert decoy.read_text() == '{"decoy": true}'


#: request fields refused as the request is parsed
BAD_FIELDS = [
    {"cipher": 5},
    {"seed": "abc"},
    {"seed": -1},
    {"rounds": "x"},
    {"rounds": 2.5},
    {"rounds": 0},
    {"deadline_s": "soon"},
    {"deadline_s": -1},
    {"key": 5},
    {"key": "notanumber"},
    {"variant": "bogus"},
    {"models": "single"},
    {"models": ["bogus"]},
    {"models": []},
    {"cycles": []},
    {"cycles": ["1"]},
]

#: request fields refused once the design is built: the cipher checks its
#: rounds and λ-variants, and the cycles must lie within those rounds
BAD_FOR_DESIGN = [{"rounds": 99}, {"variant": "per_sbox", "cipher": "aes128"}, {"cycles": [9]}]


class TestBadRequests:
    @pytest.mark.parametrize("change", BAD_FIELDS, ids=str)
    def test_bad_field_refused_at_parse(self, change):
        with pytest.raises(ValueError, match=next(iter(change))):
            CertifyRequest.from_dict({**TINY, **change})

    def test_bad_fields_are_400s_that_start_no_campaign(self, tmp_path):
        bad = BAD_FIELDS + BAD_FOR_DESIGN
        with running(tmp_path / "store", certify=_never_certify) as (
            service, client,
        ):
            for change in bad:
                status, doc = client.submit({**TINY, **change})
                assert status == 400, (change, status, doc)
                assert doc["status"] == "bad_request", change
            counters = client.health()["counters"]
        assert counters["bad_requests"] == len(bad)
        assert counters["campaigns_started"] == 0
        assert counters["campaigns_failed"] == 0


# --------------------------------------------------- end to end (real sweeps)


class TestDaemonEndToEnd:
    def test_submit_matches_direct_certify_and_verifies(
        self, tmp_path, direct_cert, capsys
    ):
        from repro.cli import main

        with running(tmp_path / "store") as (service, client):
            status, doc = client.submit(TINY)
        assert status == 200 and doc["status"] == "done"
        assert doc["cached"] is None and "backend" not in doc
        served = Certificate.from_dict(doc["certificate"])
        assert served.timing["manifest"]["backend"] == resolve_backend(None)
        assert served.render(include_timing=False) == direct_cert.render(
            include_timing=False
        )
        # the served document round-trips through `repro verify`
        path = tmp_path / "served.json"
        served.save(path)
        assert main(["verify", str(path)]) == 0
        capsys.readouterr()

    def test_store_dedupe_across_restarts(self, tmp_path):
        store_dir = tmp_path / "store"
        with running(store_dir) as (service, client):
            status, first = client.submit(TINY)
            assert status == 200
            status, second = client.submit(TINY)
            assert status == 200 and second["cached"] == "store"
            assert service.counters["campaigns_started"] == 1
            assert service.counters["dedupe_hits_store"] == 1
            fetched = client.certificate(first["key"])
            assert fetched is not None and fetched["cached"] == "store"
            assert client.certificate("0" * 64) is None
        # a brand-new daemon on the same store serves from disk immediately
        with running(store_dir) as (service, client):
            status, again = client.submit(TINY)
            assert status == 200 and again["cached"] == "store"
            assert service.counters["campaigns_started"] == 0
            c1 = {k: v for k, v in first["certificate"].items() if k != "timing"}
            c2 = {k: v for k, v in again["certificate"].items() if k != "timing"}
            assert c1 == c2

    def test_deadline_degrades_then_resumes_to_full(
        self, tmp_path, direct_cert, capsys
    ):
        """A deadline-truncated request yields a *valid degraded*
        certificate (verify exit 0 + explicit uncovered accounting), leaves
        resumable checkpoints, and is NOT cached; the next identical
        request finishes the sweep and enters the cache."""
        from repro.cli import main

        with running(tmp_path / "store") as (service, client):
            status, doc = client.submit({**TINY, "deadline_s": 0.0})
            assert status == 200 and doc["status"] == "done"
            assert doc["degraded"] and doc["cached"] is None
            degraded = Certificate.from_dict(doc["certificate"])
            cov = degraded.coverage
            assert cov["budget_exhausted"]
            assert cov["locations_uncovered"] == cov["locations_planned"] > 0
            assert sum(cov["uncovered_per_stratum"].values()) == (
                cov["locations_uncovered"]
            )
            path = tmp_path / "degraded.json"
            degraded.save(path)
            # valid, but it covered no location: its sweep verdicts are
            # skipped, so it cannot pass
            assert main(["verify", str(path)]) == 1
            assert "DEGRADED" in capsys.readouterr().err
            # accounting survives the disk round-trip
            reloaded = Certificate.load(path)
            assert reloaded.coverage == cov
            assert service.counters["campaigns_degraded"] == 1
            assert service.store.pending_work()  # checkpoints left behind

            # same request, no deadline: resumes the debris, completes,
            # and only now enters the store
            status, full = client.submit(TINY)
            assert status == 200 and not full["degraded"]
            cert = Certificate.from_dict(full["certificate"])
            assert cert.render(include_timing=False) == direct_cert.render(
                include_timing=False
            )
            assert not service.store.pending_work()
            status, cached = client.submit(TINY)
            assert cached["cached"] == "store"


class TestDaemonKill9:
    def _free_port(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            return sock.getsockname()[1]

    def _spawn(self, store, port):
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            "src" + os.pathsep + env.get("PYTHONPATH", "")
        ).rstrip(os.pathsep)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--store", str(store), "--port", str(port),
                "--concurrency", "1",
            ],
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=120.0)

        def _up():
            try:
                client.health()
                return True
            except Exception:
                return False

        assert _wait(_up, timeout=30), "daemon subprocess never came up"
        return proc, client

    def test_kill9_mid_campaign_restart_serves_bit_identical(self, tmp_path):
        """The acceptance chaos test: `kill -9` the daemon mid-campaign;
        a restart on the same store must serve the same request to a
        bit-identical certificate (resumed from the recovered store)."""
        request = {**TINY, "budget": 1024, "runs_per_location": 16}
        store = tmp_path / "store"
        port = self._free_port()
        proc, client = self._spawn(store, port)
        try:
            submitter = threading.Thread(
                target=self._swallow, args=(client, request)
            )
            submitter.start()
            assert _wait(
                lambda: client.health()["counters"]["campaigns_started"] >= 1,
                timeout=30,
            )
            time.sleep(0.4)  # let it get some work done
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(10)
        submitter.join(10)

        # restart over the debris: the pending work is resumed
        proc, client = self._spawn(store, port)
        try:
            status, doc = client.submit(request)
            assert status == 200 and doc["status"] == "done"
            assert not doc["degraded"]
            served = Certificate.from_dict(doc["certificate"])
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(60) == 0  # graceful drain exits 0

        reference = certify_design(
            build_design("three-in-one", variant="prime", rounds=2),
            key=int(KEYHEX, 0),
            config=CertifyConfig(
                budget=1024, runs_per_location=16, models=("coupled",), seed=4
            ),
        )
        assert served.render(include_timing=False) == reference.render(
            include_timing=False
        )

    @staticmethod
    def _swallow(client, request):
        with contextlib.suppress(Exception):
            client.submit(request)


# ----------------------------------------- scheduling logic (stubbed certify)


def _blocking_certify(release, certificate):
    """A certify stand-in that parks until the test says go."""

    def _certify(design, *, key, config):
        assert release.wait(30), "test never released the campaign"
        return certificate

    return _certify


class TestInflightDedupe:
    def test_identical_concurrent_requests_run_one_campaign(
        self, tmp_path, direct_cert
    ):
        release = threading.Event()
        with running(
            tmp_path / "store",
            certify=_blocking_certify(release, direct_cert),
            concurrency=2,
        ) as (service, client):
            results = {}

            def submit(tag):
                results[tag] = client.submit(TINY)

            first = threading.Thread(target=submit, args=("first",))
            first.start()
            assert _wait(lambda: service.counters["campaigns_started"] == 1)
            second = threading.Thread(target=submit, args=("second",))
            second.start()
            assert _wait(
                lambda: service.counters["dedupe_hits_inflight"] == 1
            )
            release.set()
            first.join(15)
            second.join(15)

            # exactly ONE executor campaign for the identical pair
            assert service.counters["campaigns_started"] == 1
            assert service.counters["dedupe_hits_inflight"] == 1
            statuses = {tag: r[0] for tag, r in results.items()}
            assert statuses == {"first": 200, "second": 200}
            assert results["second"][1]["cached"] == "inflight"
            c1 = results["first"][1]["certificate"]
            c2 = results["second"][1]["certificate"]
            assert {k: v for k, v in c1.items() if k != "timing"} == {
                k: v for k, v in c2.items() if k != "timing"
            }


class TestAdmissionControl:
    def test_overload_sheds_with_retry_after_while_admitted_completes(
        self, tmp_path, direct_cert
    ):
        release = threading.Event()
        with running(
            tmp_path / "store",
            certify=_blocking_certify(release, direct_cert),
            concurrency=1,
            max_queue=1,
        ) as (service, client):
            admitted = {}
            thread = threading.Thread(
                target=lambda: admitted.update(
                    zip(("status", "doc"), client.submit(TINY))
                )
            )
            thread.start()
            assert _wait(lambda: service.health()["in_flight"] == 1)

            # a *distinct* request beyond the bound is shed, structurally
            status, doc, headers = client._request(
                "POST", "/certify", body={**TINY, "seed": 999}
            )
            assert status == 429
            assert doc["status"] == "shed"
            assert doc["retry_after_s"] > 0
            assert "Retry-After" in headers
            assert service.counters["shed"] == 1

            # ...but an identical request is a dedupe hit, not a shed
            # (it costs no simulation, so admission does not apply) — and
            # the admitted campaign still completes fine under overload.
            release.set()
            thread.join(15)
            assert admitted["status"] == 200
            assert admitted["doc"]["status"] == "done"


class TestCampaignFailures:
    def test_failing_backend_fails_every_time_without_reroute(
        self, tmp_path, direct_cert
    ):
        calls = []

        def kernel_breaks(design, *, key, config):
            calls.append(config.seed)
            raise RuntimeError("codegen exploded")

        with running(tmp_path / "store", certify=kernel_breaks) as (
            service,
            client,
        ):
            for attempt in range(1, 4):
                status, doc = client.submit(TINY)
                assert status == 500
                assert doc["status"] == "error"
                assert doc["error_kind"] == "transient"
                assert calls == [TINY["seed"]] * attempt  # one run, no reroute
                status_doc = client.status()
                assert status_doc["counters"]["campaigns_failed"] == attempt
                assert status_doc["failures_by_kind"] == {"transient": attempt}
            assert status_doc["counters"]["campaigns_completed"] == 0

    def test_all_shards_quarantined_counts_as_failed_only(
        self, tmp_path, direct_cert
    ):
        coverage = {
            **direct_cert.coverage,
            "locations_covered": 0,
            "degraded": True,
            "failed_shards": [{"index": 0, "error_kind": "crash"}],
        }
        dead = dataclasses.replace(direct_cert, coverage=coverage, locations=[])

        with running(
            tmp_path / "store",
            certify=lambda design, *, key, config: dead,
        ) as (service, client):
            status, doc = client.submit(TINY)
            assert status == 200 and doc["degraded"]
        assert service.counters["campaigns_failed"] == 1
        assert service.counters["campaigns_completed"] == 0
        assert service.failures_by_kind == {"crash": 1}


class TestDrain:
    def test_drain_stops_admission_finishes_inflight_keeps_certificate(
        self, tmp_path, direct_cert
    ):
        release = threading.Event()
        store_dir = tmp_path / "store"
        with running(
            store_dir,
            certify=_blocking_certify(release, direct_cert),
            concurrency=1,
        ) as (service, client):
            inflight = {}
            thread = threading.Thread(
                target=lambda: inflight.update(
                    zip(("status", "doc"), client.submit(TINY))
                )
            )
            thread.start()
            assert _wait(lambda: service.health()["in_flight"] == 1)

            service.begin_drain()
            status, doc = client.submit({**TINY, "seed": 999})
            assert status == 503 and doc["status"] == "draining"
            assert client.health()["status"] == "draining"

            release.set()
            thread.join(15)
            assert inflight["status"] == 200  # in-flight work finished
        # the context manager completed request_shutdown: daemon exited
        # and the certificate it stored is immediately servable
        recovered = ResultStore(store_dir)
        assert len(recovered.keys()) == 1
        assert recovered.get(recovered.keys()[0]) is not None


# ------------------------------------------- observability surface (ISSUE 10)


class TestHttpSurface:
    def test_healthz_reports_counters_queue_and_store(self, tmp_path, direct_cert):
        with running(
            tmp_path / "store",
            certify=lambda design, *, key, config: direct_cert,
        ) as (service, client):
            client.submit(TINY)
            health = client.health()
        assert health["status"] == "ok"
        assert health["counters"]["requests"] == 1
        assert health["counters"]["campaigns_started"] == 1
        assert health["store"]["entries"] == 1
        assert "queue_depth" in health
        assert health["failures_by_kind"] == {}

    def test_metrics_negotiates_json_and_prometheus(self, tmp_path, direct_cert):
        with running(
            tmp_path / "store",
            certify=lambda design, *, key, config: direct_cert,
        ) as (service, client):
            client.submit(TINY)
            snapshot = client.metrics()
            text = client.metrics_text()
        # default is the JSON snapshot...
        assert snapshot["counters"]["service.requests"] >= 1
        # ...and `Accept: text/plain` switches to Prometheus exposition
        assert "# TYPE service_requests_total counter" in text
        assert re.search(r"^service_requests_total \d+", text, re.M)
        assert text.endswith("\n")

    def test_unknown_paths_are_structured_404s(self, tmp_path):
        with running(tmp_path / "store") as (service, client):
            status, doc, _ = client._request("GET", "/nope")
            assert status == 404 and doc["status"] == "not_found"
            assert doc["path"] == "/nope"
            status, doc, _ = client._request("GET", "/certificate/deadbeef")
            assert status == 404 and doc["status"] == "not_found"
            assert doc["key"] == "deadbeef"

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_bad_content_length_is_a_400_not_a_crash(self, tmp_path, caplog, length):
        with running(tmp_path / "store") as (service, client):
            status, doc = _raw_http(
                service.port,
                f"POST /certify HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {length}\r\n\r\n{{}}".encode(),
            )
        assert status.startswith(b"HTTP/1.1 400 ")
        assert doc["status"] == "bad_request"
        assert length in doc["error"]
        assert "request handler crashed" not in caplog.text

    def test_every_response_carries_the_server_assigned_request_id(
        self, tmp_path, direct_cert
    ):
        with running(
            tmp_path / "store",
            certify=lambda design, *, key, config: direct_cert,
        ) as (service, client):
            status, first = client.submit(TINY)
            assert status == 200 and first["request_id"] == "req-000001"
            status, second = client.submit(TINY)  # store dedupe hit
            assert status == 200 and second["request_id"] == "req-000002"
            status, bad = client.submit({**TINY, "scheme": "rot13"})
            assert status == 400 and bad["request_id"] == "req-000003"

    @pytest.mark.parametrize(
        "change, error",
        [
            ({"backend": "compiled"}, "unknown request field"),
            ({"runs_per_location": 0}, "runs_per_location must be a positive"),
            ({"budget": "abc"}, "budget must be a positive"),
        ],
    )
    def test_bad_request_fields_are_400s(self, tmp_path, change, error):
        def never(design, *, key, config):
            raise AssertionError("a bad request must not start a campaign")

        with running(tmp_path / "store", certify=never) as (service, client):
            status, doc = client.submit({**TINY, **change})
        assert status == 400 and doc["status"] == "bad_request"
        assert error in doc["error"]
        assert service.counters["campaigns_started"] == 0

    def test_status_tracks_a_request_through_its_lifecycle(
        self, tmp_path, direct_cert
    ):
        release = threading.Event()
        with running(
            tmp_path / "store",
            certify=_blocking_certify(release, direct_cert),
            concurrency=1,
        ) as (service, client):
            thread = threading.Thread(
                target=self._swallow, args=(client, TINY)
            )
            thread.start()
            assert _wait(lambda: client.health()["in_flight"] == 1)

            st = client.status()
            (item,) = st["requests"]
            assert item["request_id"] == "req-000001"
            assert item["state"] == "running"
            assert item["key"] and item["scheme"] == "three-in-one"
            assert "backend" not in item
            assert st["recent"] == []

            release.set()
            thread.join(15)
            assert _wait(lambda: not client.status()["requests"])
            st = client.status()
            (done,) = st["recent"]
            assert done["request_id"] == "req-000001"
            assert done["state"] == "done"
            assert done["finished_t"] >= done["queued_t"]

    @staticmethod
    def _swallow(client, request):
        with contextlib.suppress(Exception):
            client.submit(request)


class TestNoWaitSubmit:
    def test_no_wait_shows_live_shard_progress_then_a_certificate(
        self, tmp_path
    ):
        """The acceptance criterion: `submit --no-wait` is acknowledged
        with 202 + request id; while the campaign runs, GET /status shows
        that request with nonzero shard-level progress and an ETA; the
        certificate is then fetchable by key."""
        request = {**TINY, "budget": 4096, "runs_per_location": 8}
        with running(tmp_path / "store", concurrency=1) as (service, client):
            status, doc = client.submit(request, wait=False)
            assert status == 202 and doc["status"] == "accepted"
            rid, key = doc["request_id"], doc["key"]
            assert rid.startswith("req-") and len(key) == 64

            seen = {}

            def midflight():
                for item in client.status()["requests"]:
                    progress = item.get("progress")
                    if (
                        item["request_id"] == rid
                        and progress
                        and 0 < progress["done"] < progress["total"]
                        and progress["eta_s"] is not None
                    ):
                        seen.update(item)
                        return True
                return False

            assert _wait(midflight, timeout=30), "no mid-flight progress seen"
            assert seen["state"] == "running"
            assert 0 < seen["progress"]["pct"] < 100
            assert seen["progress"]["shards_total"] > 1

            assert _wait(
                lambda: client.certificate(key) is not None, timeout=60
            )
            st = client.status()
            assert st["requests"] == []  # registry drained to recents
            assert st["recent"][0]["request_id"] == rid
            assert st["recent"][0]["state"] == "done"
            served = client.certificate(key)
            assert served["cached"] == "store" and not served["degraded"]


# ------------------------------------------------------------- chaos at the
# service sites (the test_chaos.py methodology, extended to the daemon)


class TestServiceChaos:
    def test_new_sites_parse_in_the_mini_language(self):
        spec = ChaosSpec.parse(
            "seed=3;service.request:raise:0.5;service.store:bitrot;"
            "service.drain:delay"
        )
        assert [f.site for f in spec.faults] == [
            "service.request", "service.store", "service.drain",
        ]

    def test_request_chaos_fails_one_request_retry_succeeds(
        self, tmp_path, direct_cert
    ):
        """A transient injected failure on the request path surfaces as a
        structured 500; the client's retry (request index 2) is healthy."""
        fault = ChaosFault("service.request", "raise", 0.5, 0)
        seed = next(
            s for s in range(100)
            if _fires(ChaosSpec(seed=s), fault, 1, 1)
            and not _fires(ChaosSpec(seed=s), fault, 2, 1)
        )
        chaos.configure(ChaosSpec(seed=seed, faults=(fault,)))
        with running(
            tmp_path / "store", certify=lambda design, *, key, config: direct_cert
        ) as (service, client):
            status, doc = client.submit(TINY)
            assert status == 500
            assert "chaos" in doc["error"].lower() or "injected" in doc["error"]
            status, doc = client.submit(TINY)  # the healthy retry path
            assert status == 200 and doc["status"] == "done"

    def test_store_chaos_never_serves_corrupt_certificates(self, tmp_path):
        """Persistent bitrot on every store write: the cache is defeated
        (every hit fails verification and recomputes) but every response
        is still a correct, bit-identical certificate."""
        chaos.configure(
            ChaosSpec(
                seed=1,
                faults=(ChaosFault("service.store", "bitrot", 1.0, 0),),
            )
        )
        with running(tmp_path / "store") as (service, client):
            status1, doc1 = client.submit(TINY)
            status2, doc2 = client.submit(TINY)
            assert status1 == status2 == 200
            assert doc2["cached"] is None  # stored copy failed its checksum
            assert service.counters["campaigns_started"] == 2
            c1 = {k: v for k, v in doc1["certificate"].items() if k != "timing"}
            c2 = {k: v for k, v in doc2["certificate"].items() if k != "timing"}
            assert c1 == c2

    def test_drain_chaos_cannot_prevent_shutdown(self, tmp_path, direct_cert):
        chaos.configure(
            ChaosSpec(
                seed=1, faults=(ChaosFault("service.drain", "raise", 1.0, 0),)
            )
        )
        store_dir = tmp_path / "store"
        with running(
            store_dir, certify=lambda design, *, key, config: direct_cert
        ) as (service, client):
            status, _ = client.submit(TINY)
            assert status == 200
        # the context manager drained despite the injected drain fault,
        # and the certificate stored before it is still there
        assert len(ResultStore(store_dir).keys()) == 1


# -------------------------------------------------- eager env validation


class TestEagerEnvValidation:
    def test_daemon_refuses_bad_chaos_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "service.request:explode")
        with pytest.raises(ValueError, match="REPRO_CHAOS"):
            CertificationService(ServiceConfig(store_dir=tmp_path))

    def test_daemon_refuses_bad_backend_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "turbo")
        with pytest.raises(ValueError, match="REPRO_SIM_BACKEND"):
            CertificationService(ServiceConfig(store_dir=tmp_path))


class TestServiceConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("jobs", 0),
            ("jobs", True),
            ("concurrency", 0),
            ("concurrency", 1.5),
            ("max_queue", 0),
            ("default_deadline_s", -1),
            ("default_deadline_s", float("nan")),
            ("drain_timeout_s", -0.5),
            ("drain_timeout_s", None),
            ("retry_after_s", 0),
            ("port", -1),
            ("port", 65536),
            ("port", "8642"),
        ],
    )
    def test_rejects_a_bad_value_naming_its_field(self, tmp_path, field, value):
        with pytest.raises(ValueError, match=field):
            ServiceConfig(store_dir=tmp_path, **{field: value})

    def test_edge_values_are_legal(self, tmp_path):
        ServiceConfig(
            store_dir=tmp_path, port=65535, default_deadline_s=0,
            drain_timeout_s=0, max_queue=1, concurrency=1,
        )


class TestOneMapping:
    """``repro certify`` and ``POST /certify`` map one request to one
    certifier config; only the run knobs differ."""

    FLAGS = {
        "scheme": "naive", "rounds": 2, "budget": 64, "runs_per_location": 8,
        "models": ["coupled", "single"], "cycles": [0, 1], "seed": 5,
        "key": "0x1234",
    }

    def test_cli_and_daemon_hand_certify_the_same_config(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.certify
        from repro.cli import main

        seen = []

        class Captured(Exception):
            pass

        def capture(design, *, key, config):
            seen.append((circuit_digest(design.circuit), key, config))
            raise Captured

        argv = ["certify", "--jobs", "1"]
        for name, value in self.FLAGS.items():
            flag = "--" + name.replace("_", "-")
            argv += [flag, ",".join(map(str, value)) if isinstance(value, list) else str(value)]
        monkeypatch.setattr(repro.certify, "certify_design", capture)
        with pytest.raises(Captured):
            main(argv)
        with running(tmp_path / "store", certify=capture) as (service, client):
            status, _ = client.submit(self.FLAGS)
        assert status == 500  # the stub raised
        (cli_digest, cli_key, cli_config), (d_digest, d_key, d_config) = seen
        assert (cli_digest, cli_key) == (d_digest, d_key)
        assert d_config.checkpoint_dir and d_config.resume
        knobs = dict(jobs=1, checkpoint_dir=None, resume=False, wall_budget=None)
        assert dataclasses.replace(cli_config, **knobs) == dataclasses.replace(
            d_config, **knobs
        )
        assert cli_config.models == ("coupled", "single")
        assert cli_config.cycles == (0, 1) and cli_config.seed == 5
