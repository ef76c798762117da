"""The resilient campaign executor: sharding, checkpoints, supervision.

The load-bearing property is the determinism contract: a sharded,
parallel, interrupted-and-resumed campaign must produce *bit-identical*
arrays to a single-shot in-process run with the same seed.  The rest is
robustness plumbing: retry-with-backoff, per-shard timeouts, partial
results, and checkpoint corruption handling.
"""

from __future__ import annotations

import json
import logging
import time

import numpy as np
import pytest

from repro.faults import (
    RNG_BLOCK,
    CheckpointError,
    ExecutorConfig,
    FaultSpec,
    FaultType,
    run_campaign,
    run_campaign_sharded,
)
from repro.faults.checkpoint import CheckpointStore, shard_digest
from repro.faults.models import sbox_input_net
from repro.resilience.persist import sha256_bytes
from tests.conftest import TEST_KEY80

N_RUNS = 2 * RNG_BLOCK + RNG_BLOCK // 2  # 2.5 shards at shard_runs=RNG_BLOCK
SEED = 21


def _fault(design, present_spec):
    net = sbox_input_net(design.cores[0], 7, 1)
    return FaultSpec.at(net, FaultType.STUCK_AT_0, present_spec.rounds - 2)


@pytest.fixture(scope="module")
def single_shot(naive_design, present_spec):
    fault = _fault(naive_design, present_spec)
    return run_campaign(
        naive_design, [fault], n_runs=N_RUNS, key=TEST_KEY80, seed=SEED
    )


def _assert_identical(a, b):
    assert (a.plaintext_bits == b.plaintext_bits).all()
    assert (a.released_bits == b.released_bits).all()
    assert (a.expected_bits == b.expected_bits).all()
    assert (a.fault_flags == b.fault_flags).all()
    assert (a.outcomes == b.outcomes).all()


# ---------------------------------------------------------- fail-injection
# Hooks must be module-level (picklable) to also work under a process pool.


def fail_from_shard_one(index: int, attempt: int) -> None:
    if index >= 1:
        raise RuntimeError("injected shard crash")


class FlakyFirstAttempt:
    """Raises on every shard's first attempt, succeeds on the retry."""

    def __call__(self, index: int, attempt: int) -> None:
        if attempt == 1:
            raise OSError("injected transient failure")


def always_fail_shard_zero(index: int, attempt: int) -> None:
    if index == 0:
        raise ValueError("injected persistent failure")


def sleep_in_shard_zero(index: int, attempt: int) -> None:
    if index == 0:
        time.sleep(5)


class TestDeterminism:
    def test_chunk_size_invariance(self, naive_design, present_spec, single_shot):
        fault = _fault(naive_design, present_spec)
        small = run_campaign(
            naive_design, [fault], n_runs=N_RUNS, key=TEST_KEY80, seed=SEED,
            chunk=RNG_BLOCK,
        )
        _assert_identical(small, single_shot)

    def test_sharded_equals_single_shot(
        self, naive_design, present_spec, single_shot, tmp_path
    ):
        fault = _fault(naive_design, present_spec)
        sharded = run_campaign(
            naive_design, [fault], n_runs=N_RUNS, key=TEST_KEY80, seed=SEED,
            shard_runs=RNG_BLOCK, checkpoint_dir=tmp_path / "ck",
        )
        _assert_identical(sharded, single_shot)
        assert not sharded.partial
        assert sharded.extra["n_shards"] == 3

    def test_parallel_equals_single_shot(
        self, naive_design, present_spec, single_shot
    ):
        fault = _fault(naive_design, present_spec)
        parallel = run_campaign(
            naive_design, [fault], n_runs=N_RUNS, key=TEST_KEY80, seed=SEED,
            jobs=2, shard_runs=RNG_BLOCK,
        )
        _assert_identical(parallel, single_shot)

    def test_interrupt_resume_is_bit_identical(
        self, naive_design, present_spec, single_shot, tmp_path
    ):
        """Kill after k shards, resume, compare against the uninterrupted run."""
        fault = _fault(naive_design, present_spec)
        ck = tmp_path / "ck"
        partial = run_campaign_sharded(
            naive_design, [fault], n_runs=N_RUNS, key=TEST_KEY80, seed=SEED,
            config=ExecutorConfig(
                shard_runs=RNG_BLOCK, checkpoint_dir=ck, retries=0, backoff=0.0
            ),
            shard_hook=fail_from_shard_one,
        )
        assert partial.partial and partial.n_runs == RNG_BLOCK

        store = CheckpointStore(ck)
        store.load()
        digests_before = {
            i: r.digest for i, r in store.shards.items() if r.status == "done"
        }
        assert list(digests_before) == [0]

        resumed = run_campaign(
            naive_design, [fault], n_runs=N_RUNS, key=TEST_KEY80, seed=SEED,
            shard_runs=RNG_BLOCK, checkpoint_dir=ck, resume=True,
        )
        _assert_identical(resumed, single_shot)
        assert not resumed.partial

        # the resumed ledger is complete and the surviving shard's digest
        # is untouched (it was loaded from disk, not recomputed)
        store = CheckpointStore(ck)
        store.load()
        assert all(r.status == "done" for r in store.shards.values())
        assert store.shards[0].digest == digests_before[0]

    def test_resume_skips_completed_shards(
        self, naive_design, present_spec, single_shot, tmp_path
    ):
        """A second resume with a poisoned hook never re-executes anything."""
        fault = _fault(naive_design, present_spec)
        ck = tmp_path / "ck"
        run_campaign(
            naive_design, [fault], n_runs=N_RUNS, key=TEST_KEY80, seed=SEED,
            shard_runs=RNG_BLOCK, checkpoint_dir=ck,
        )

        def explode(index, attempt):  # would fail any recomputed shard
            raise AssertionError("shard was re-executed on resume")

        resumed = run_campaign_sharded(
            naive_design, [fault], n_runs=N_RUNS, key=TEST_KEY80, seed=SEED,
            config=ExecutorConfig(
                shard_runs=RNG_BLOCK, checkpoint_dir=ck, resume=True
            ),
            shard_hook=explode,
        )
        _assert_identical(resumed, single_shot)


class TestSupervision:
    def test_retry_with_backoff_recovers_transient_failures(
        self, naive_design, present_spec, single_shot
    ):
        fault = _fault(naive_design, present_spec)
        result = run_campaign_sharded(
            naive_design, [fault], n_runs=N_RUNS, key=TEST_KEY80, seed=SEED,
            config=ExecutorConfig(shard_runs=RNG_BLOCK, retries=1, backoff=0.0),
            shard_hook=FlakyFirstAttempt(),
        )
        assert not result.partial
        _assert_identical(result, single_shot)

    def test_exhausted_retries_degrade_to_partial_result(
        self, naive_design, present_spec, single_shot, tmp_path, caplog
    ):
        fault = _fault(naive_design, present_spec)
        ck = tmp_path / "ck"
        with caplog.at_level(logging.WARNING, logger="repro.faults.executor"):
            result = run_campaign_sharded(
                naive_design, [fault], n_runs=N_RUNS, key=TEST_KEY80, seed=SEED,
                config=ExecutorConfig(
                    shard_runs=RNG_BLOCK, checkpoint_dir=ck, retries=1, backoff=0.0
                ),
                shard_hook=always_fail_shard_zero,
            )
        # partial completion is reported as a structured log event
        assert "completed partially" in caplog.text
        # the permanent failure is logged with its captured traceback
        assert "injected persistent failure" in caplog.text
        assert "Traceback" in caplog.text
        # shard 0 quarantined, the surviving shards are runs [1024, 2560)
        assert result.partial
        assert result.n_runs == N_RUNS - RNG_BLOCK
        [failure] = result.extra["failed_shards"]
        assert failure["index"] == 0
        assert failure["attempts"] == 2  # first attempt + one retry
        assert failure["error_kind"] == "permanent"
        assert "injected persistent failure" in failure["error"]
        assert "injected persistent failure" in failure["traceback"]
        assert (result.released_bits == single_shot.released_bits[RNG_BLOCK:]).all()

        store = CheckpointStore(ck)
        store.load()
        assert store.shards[0].status == "quarantined"
        assert store.shards[0].attempts == 2
        assert store.shards[0].error_kind == "permanent"

    def test_shard_timeout_enforced(self, naive_design, present_spec):
        fault = _fault(naive_design, present_spec)
        result = run_campaign_sharded(
            naive_design, [fault], n_runs=N_RUNS, key=TEST_KEY80, seed=SEED,
            config=ExecutorConfig(
                shard_runs=RNG_BLOCK, timeout=0.3, retries=0, backoff=0.0
            ),
            shard_hook=sleep_in_shard_zero,
        )
        assert result.partial
        assert "ShardTimeout" in result.extra["failed_shards"][0]["error"]


class TestCheckpointIntegrity:
    def _checkpointed(self, naive_design, present_spec, ck):
        fault = _fault(naive_design, present_spec)
        return run_campaign(
            naive_design, [fault], n_runs=N_RUNS, key=TEST_KEY80, seed=SEED,
            shard_runs=RNG_BLOCK, checkpoint_dir=ck,
        )

    def test_corrupt_manifest_recovers_with_fresh_ledger(
        self, naive_design, present_spec, single_shot, tmp_path, caplog
    ):
        """An unparseable manifest is recovered from, not crashed on.

        The ledger carries no results of its own, so the executor starts a
        fresh one and recomputes — the campaign still completes and is
        bit-identical to the uninterrupted run.
        """
        ck = tmp_path / "ck"
        self._checkpointed(naive_design, present_spec, ck)
        (ck / "manifest.json").write_text("{ this is not json")
        fault = _fault(naive_design, present_spec)
        with caplog.at_level(logging.WARNING, logger="repro.faults.executor"):
            resumed = run_campaign(
                naive_design, [fault], n_runs=N_RUNS, key=TEST_KEY80, seed=SEED,
                shard_runs=RNG_BLOCK, checkpoint_dir=ck, resume=True,
            )
        assert "fresh ledger" in caplog.text
        _assert_identical(resumed, single_shot)
        store = CheckpointStore(ck)
        store.load()  # the recovered ledger parses and verifies again
        assert all(r.status == "done" for r in store.shards.values())

    def test_direct_load_of_corrupt_manifest_raises(
        self, naive_design, present_spec, tmp_path
    ):
        from repro.faults.checkpoint import CheckpointCorrupt

        ck = tmp_path / "ck"
        self._checkpointed(naive_design, present_spec, ck)
        (ck / "manifest.json").write_text("{ this is not json")
        store = CheckpointStore(ck)
        with pytest.raises(CheckpointCorrupt, match="corrupt"):
            store.load()
        # CheckpointCorrupt is a CheckpointError: old callers still catch it
        assert issubclass(CheckpointCorrupt, CheckpointError)

    def test_manifest_checksum_detects_bitrot(
        self, naive_design, present_spec, tmp_path
    ):
        from repro.faults.checkpoint import CheckpointCorrupt

        ck = tmp_path / "ck"
        self._checkpointed(naive_design, present_spec, ck)
        # valid JSON, silently edited: the whole-manifest checksum catches
        # what a parse cannot
        raw = (ck / "manifest.json").read_text().replace(str(SEED), "99", 1)
        (ck / "manifest.json").write_text(raw)
        store = CheckpointStore(ck)
        with pytest.raises(CheckpointCorrupt, match="checksum"):
            store.load()

    def test_foreign_campaign_rejected(self, naive_design, present_spec, tmp_path):
        ck = tmp_path / "ck"
        self._checkpointed(naive_design, present_spec, ck)
        fault = _fault(naive_design, present_spec)
        with pytest.raises(CheckpointError, match="different"):
            run_campaign(
                naive_design, [fault], n_runs=N_RUNS, key=TEST_KEY80,
                seed=SEED + 1,  # different campaign identity
                shard_runs=RNG_BLOCK, checkpoint_dir=ck, resume=True,
            )

    def test_corrupt_shard_archive_recomputed(
        self, naive_design, present_spec, single_shot, tmp_path
    ):
        ck = tmp_path / "ck"
        self._checkpointed(naive_design, present_spec, ck)
        (ck / "shard_00001.npz").write_bytes(b"garbage, not a zip archive")
        fault = _fault(naive_design, present_spec)
        resumed = run_campaign(
            naive_design, [fault], n_runs=N_RUNS, key=TEST_KEY80, seed=SEED,
            shard_runs=RNG_BLOCK, checkpoint_dir=ck, resume=True,
        )
        _assert_identical(resumed, single_shot)

    def test_tampered_shard_fails_digest_and_recomputes(
        self, naive_design, present_spec, single_shot, tmp_path
    ):
        ck = tmp_path / "ck"
        self._checkpointed(naive_design, present_spec, ck)
        store = CheckpointStore(ck)
        store.load()
        arrays = store.read_shard(1)
        assert arrays is not None
        arrays["released"] = arrays["released"].copy()
        arrays["released"][0, 0] ^= 1
        np.savez_compressed(store.shard_path(1), **arrays)
        assert store.read_shard(1) is None  # digest mismatch detected

        fault = _fault(naive_design, present_spec)
        resumed = run_campaign(
            naive_design, [fault], n_runs=N_RUNS, key=TEST_KEY80, seed=SEED,
            shard_runs=RNG_BLOCK, checkpoint_dir=ck, resume=True,
        )
        _assert_identical(resumed, single_shot)

    def test_manifest_records_digests(self, naive_design, present_spec, tmp_path):
        ck = tmp_path / "ck"
        self._checkpointed(naive_design, present_spec, ck)
        raw = json.loads((ck / "manifest.json").read_text())
        assert raw["version"] == 2
        assert raw["campaign"]["seed"] == SEED
        assert raw["campaign"]["n_runs"] == N_RUNS
        assert len(raw["shards"]) == 3
        store = CheckpointStore(ck)
        store.load()
        for index, record in store.shards.items():
            arrays = store.read_shard(index)
            assert shard_digest(arrays) == record.digest

    def test_manifest_from_older_semantics_is_refused_on_resume(
        self, naive_design, present_spec, tmp_path
    ):
        """Version 1 shards were simulated with source-net faults that
        outlived their cycle; resuming must refuse them, not merge them."""
        ck = tmp_path / "ck"
        self._checkpointed(naive_design, present_spec, ck)
        path = ck / "manifest.json"
        raw = json.loads(path.read_text())
        raw.pop("checksum")
        raw["version"] = 1
        raw["checksum"] = sha256_bytes(json.dumps(raw, sort_keys=True).encode())
        path.write_text(json.dumps(raw))
        fault = _fault(naive_design, present_spec)
        with pytest.raises(CheckpointError, match="manifest version 1"):
            run_campaign(
                naive_design, [fault], n_runs=N_RUNS, key=TEST_KEY80, seed=SEED,
                shard_runs=RNG_BLOCK, checkpoint_dir=ck, resume=True,
            )


class TestDeadlineFallback:
    """Timeouts degrade gracefully where SIGALRM cannot be armed."""

    def test_non_main_thread_degrades_with_one_log_event(self, caplog):
        import threading

        from repro.faults import executor as ex

        results: list = []

        def body():
            with ex._deadline(0.01):
                results.append("ran")
            with ex._deadline(0.01):
                results.append("ran again")

        saved = ex._timeout_warned
        ex._timeout_warned = False
        try:
            with caplog.at_level(
                logging.WARNING, logger="repro.faults.executor"
            ):
                thread = threading.Thread(target=body)
                thread.start()
                thread.join()
        finally:
            ex._timeout_warned = saved
        assert results == ["ran", "ran again"]
        messages = [
            r.getMessage()
            for r in caplog.records
            if "SIGALRM" in r.getMessage()
        ]
        assert len(messages) == 1  # logged once, not per shard
        assert "without a wall-clock guard" in messages[0]

    def test_no_timeout_means_no_guard(self):
        from repro.faults import executor as ex

        for seconds in (None, 0, -1):
            with ex._deadline(seconds):
                pass


class TestGenericRunSharded:
    """run_sharded carries arbitrary tasks/keys (the certifier rides this)."""

    def test_custom_keys_and_merge(self, tmp_path):
        from repro.faults.executor import run_sharded

        def task(lo, hi):
            idx = np.arange(lo, hi, dtype=np.int64)
            return {"index": idx, "square": idx * idx}

        ranges = [(0, 3), (3, 7), (7, 10)]
        run = run_sharded(
            task,
            ranges,
            config=ExecutorConfig(checkpoint_dir=tmp_path / "ck"),
            identity={"kind": "squares"},
            keys=("index", "square"),
        )
        assert run.complete and not run.stopped_early
        merged = run.merged(("index", "square"))
        assert merged["index"].tolist() == list(range(10))
        assert merged["square"].tolist() == [i * i for i in range(10)]

        # a resume with the same identity replays from checkpoints
        resumed = run_sharded(
            task,
            ranges,
            config=ExecutorConfig(checkpoint_dir=tmp_path / "ck", resume=True),
            identity={"kind": "squares"},
            keys=("index", "square"),
        )
        again = resumed.merged(("index", "square"))
        assert (again["square"] == merged["square"]).all()

    def test_on_shard_done_stops_scheduling(self):
        from repro.faults.executor import run_sharded

        def task(lo, hi):
            return {"x": np.arange(lo, hi, dtype=np.int64)}

        seen: list[int] = []

        def stop_at_first(index, arrays):
            seen.append(index)
            return True

        run = run_sharded(
            task,
            [(0, 2), (2, 4), (4, 6)],
            keys=("x",),
            on_shard_done=stop_at_first,
        )
        assert run.stopped_early
        assert len(seen) == 1
        assert len(run.results) == 1

    def test_mismatched_keys_rejected_on_resume(self, tmp_path):
        from repro.faults.executor import run_sharded

        def task(lo, hi):
            return {"x": np.arange(lo, hi, dtype=np.int64)}

        run_sharded(
            task,
            [(0, 2)],
            config=ExecutorConfig(checkpoint_dir=tmp_path / "ck"),
            identity={"kind": "k"},
            keys=("x",),
        )
        with pytest.raises(CheckpointError, match="keys"):
            run_sharded(
                lambda lo, hi: {"y": np.arange(lo, hi, dtype=np.int64)},
                [(0, 2)],
                config=ExecutorConfig(
                    checkpoint_dir=tmp_path / "ck", resume=True
                ),
                identity={"kind": "k"},
                keys=("y",),
            )


class TestPrewarm:
    """Backend codegen is compiled in the worker initializer (outside any
    shard timeout window), not lazily inside the first shard."""

    def test_prewarm_backend_populates_codegen_caches(self, naive_design):
        from repro.faults.executor import prewarm_backend
        from repro.netlist.compiled import _PROGRAM_CACHE, compile_program
        from repro.netlist.levelized import _SCHEDULE_CACHE, compile_schedule

        circuit = naive_design.circuit
        _PROGRAM_CACHE.pop(circuit, None)
        _SCHEDULE_CACHE.pop(circuit, None)

        prewarm_backend(naive_design, "compiled")
        assert circuit in _PROGRAM_CACHE
        cached = compile_program(circuit)
        assert compile_program(circuit) is cached  # hit, no recompile

        prewarm_backend(naive_design, "levelized")
        assert circuit in _SCHEDULE_CACHE
        assert compile_schedule(circuit) is compile_schedule(circuit)

        prewarm_backend(naive_design, "reference")  # nothing to pre-warm: a no-op

    def test_prewarm_failure_is_nonfatal(self, caplog):
        from repro.faults.executor import _run_prewarm

        def broken():
            raise RuntimeError("codegen exploded")

        with caplog.at_level(logging.WARNING, logger="repro.faults.executor"):
            _run_prewarm(broken)  # must not raise
        assert "pre-warm" in caplog.text

    def test_sharded_campaign_defaults_prewarm(self, naive_design, present_spec, monkeypatch):
        """run_campaign_sharded wires a backend pre-warm into the executor
        config by default, and the serial path actually runs it."""
        import repro.faults.executor as executor_mod

        calls = []
        real = executor_mod.prewarm_backend
        monkeypatch.setattr(
            executor_mod, "prewarm_backend",
            lambda d, b: calls.append(b) or real(d, b),
        )
        run_campaign_sharded(
            naive_design, [_fault(naive_design, present_spec)],
            n_runs=RNG_BLOCK // 2, key=TEST_KEY80, seed=SEED,
            backend="levelized",
            config=ExecutorConfig(shard_runs=RNG_BLOCK),
        )
        assert calls == ["levelized"]
