"""The resilient campaign executor: sharding, checkpoints, supervision.

The load-bearing property is the determinism contract: a sharded,
parallel, interrupted-and-resumed campaign must produce *bit-identical*
arrays to a single-shot in-process run with the same seed.  The rest is
robustness plumbing: retry-with-backoff, per-shard timeouts, partial
results, and checkpoint corruption handling.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import time
from pathlib import Path

import numpy as np
import pytest

from repro.faults import (
    RNG_BLOCK,
    CheckpointError,
    ExecutorConfig,
    FaultSpec,
    FaultType,
    run_campaign,
)
from repro.faults.campaign import SHARD_KEYS, campaign_identity, run_range
from repro.faults.checkpoint import SHARD_META, CheckpointStore, shard_digest
from repro.faults.classification import classify
from repro.faults.models import sbox_input_net
from repro.resilience.persist import sha256_bytes
from tests.conftest import TEST_KEY80

N_RUNS = 2 * RNG_BLOCK + RNG_BLOCK // 2  # 2.5 shards at shard_runs=RNG_BLOCK
SEED = 21
RANGES = [(0, RNG_BLOCK), (RNG_BLOCK, 2 * RNG_BLOCK), (2 * RNG_BLOCK, N_RUNS)]


def _store(ck):
    """The campaign store of a checkpoint at ``shard_runs=RNG_BLOCK``."""
    return CheckpointStore(ck, keys=SHARD_KEYS, ranges=RANGES)


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


class RecordShards:
    """Records every ``(shard, attempt)`` the serial supervisor runs."""

    def __init__(self) -> None:
        self.calls: list[tuple[int, int]] = []

    def __call__(self, index: int, attempt: int) -> None:
        self.calls.append((index, attempt))


class FailShardZeroAndRecord(RecordShards):
    def __call__(self, index: int, attempt: int) -> None:
        super().__call__(index, attempt)
        always_fail_shard_zero(index, attempt)


class TestDeterminism:
    def test_chunk_size_invariance(self, naive_design, present_spec, single_shot):
        fault = _fault(naive_design, present_spec)
        pt, rel, exp, flags = run_range(
            naive_design, [fault], key=TEST_KEY80, seed=SEED, lo=0, hi=N_RUNS,
            chunk=RNG_BLOCK,
        )
        small = dataclasses.replace(
            single_shot,
            plaintext=pt,
            released=rel,
            expected=exp,
            fault_flags=flags,
            outcomes=classify(
                rel, flags, exp,
                flag_observable=naive_design.flag_observable,
                infective=naive_design.infective,
            ),
        )
        _assert_identical(small, single_shot)

    def test_sharded_equals_single_shot(
        self, naive_design, present_spec, single_shot, tmp_path
    ):
        fault = _fault(naive_design, present_spec)
        sharded = run_campaign(
            naive_design, [fault], n_runs=N_RUNS, key=TEST_KEY80, seed=SEED,
            executor=ExecutorConfig(
                shard_runs=RNG_BLOCK, checkpoint_dir=tmp_path / "ck"
            ),
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
            executor=ExecutorConfig(jobs=2, shard_runs=RNG_BLOCK),
        )
        _assert_identical(parallel, single_shot)

    def test_interrupt_resume_is_bit_identical(
        self, naive_design, present_spec, single_shot, tmp_path
    ):
        """Kill after k shards, resume, compare against the uninterrupted run."""
        fault = _fault(naive_design, present_spec)
        ck = tmp_path / "ck"
        partial = run_campaign(
            naive_design, [fault], n_runs=N_RUNS, key=TEST_KEY80, seed=SEED,
            executor=ExecutorConfig(
                shard_runs=RNG_BLOCK, checkpoint_dir=ck, retries=0, backoff=0.0
            ),
            shard_hook=fail_from_shard_one,
        )
        assert partial.partial and partial.n_runs == RNG_BLOCK

        store = _store(ck)
        store.load()
        assert [store.read_shard(i) is not None for i in range(3)] == [
            True, False, False,
        ]
        shard0 = store.shard_path(0).stat()

        resumed = run_campaign(
            naive_design, [fault], n_runs=N_RUNS, key=TEST_KEY80, seed=SEED,
            executor=ExecutorConfig(
                shard_runs=RNG_BLOCK, checkpoint_dir=ck, resume=True
            ),
        )
        _assert_identical(resumed, single_shot)
        assert not resumed.partial

        # every shard now validates, and the surviving shard's archive is
        # the same file (it was loaded from disk, not recomputed)
        assert all(store.read_shard(i) is not None for i in range(3))
        after = store.shard_path(0).stat()
        assert (after.st_ino, after.st_mtime_ns) == (
            shard0.st_ino, shard0.st_mtime_ns,
        )

    def test_resume_skips_completed_shards(
        self, naive_design, present_spec, single_shot, tmp_path
    ):
        """A second resume with a poisoned hook never re-executes anything."""
        fault = _fault(naive_design, present_spec)
        ck = tmp_path / "ck"
        run_campaign(
            naive_design, [fault], n_runs=N_RUNS, key=TEST_KEY80, seed=SEED,
            executor=ExecutorConfig(shard_runs=RNG_BLOCK, checkpoint_dir=ck),
        )

        def explode(index, attempt):  # would fail any recomputed shard
            raise AssertionError("shard was re-executed on resume")

        resumed = run_campaign(
            naive_design, [fault], n_runs=N_RUNS, key=TEST_KEY80, seed=SEED,
            executor=ExecutorConfig(
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
        result = run_campaign(
            naive_design, [fault], n_runs=N_RUNS, key=TEST_KEY80, seed=SEED,
            executor=ExecutorConfig(shard_runs=RNG_BLOCK, retries=1, backoff=0.0),
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
            result = run_campaign(
                naive_design, [fault], n_runs=N_RUNS, key=TEST_KEY80, seed=SEED,
                executor=ExecutorConfig(
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

        store = _store(ck)
        store.load()
        record = store.quarantined(0)
        assert record["attempts"] == 2
        assert record["error_kind"] == "permanent"
        assert "injected persistent failure" in record["error"]
        assert store.quarantined(1) is None

    def test_quarantine_attempts_survive_resume(
        self, naive_design, present_spec, single_shot, tmp_path
    ):
        """A resumed quarantined shard continues its attempt count, and a
        later success removes its quarantine record."""
        fault = _fault(naive_design, present_spec)
        ck = tmp_path / "ck"
        config = ExecutorConfig(
            shard_runs=RNG_BLOCK, checkpoint_dir=ck, retries=2, backoff=0.0
        )
        run_campaign(
            naive_design, [fault], n_runs=N_RUNS, key=TEST_KEY80, seed=SEED,
            executor=config, shard_hook=always_fail_shard_zero,
        )
        assert (ck / "shard_00000.failed.json").exists()

        # still failing: the budget of 3 attempts is spent, so the resume
        # grants shard 0 exactly one more attempt (attempt 4)
        hook = FailShardZeroAndRecord()
        partial = run_campaign(
            naive_design, [fault], n_runs=N_RUNS, key=TEST_KEY80, seed=SEED,
            executor=dataclasses.replace(config, resume=True), shard_hook=hook,
        )
        assert hook.calls == [(0, 4)]
        [failure] = partial.extra["failed_shards"]
        assert failure["attempts"] == 4
        store = _store(ck)
        store.load()
        assert store.quarantined(0)["attempts"] == 4

        healed = run_campaign(
            naive_design, [fault], n_runs=N_RUNS, key=TEST_KEY80, seed=SEED,
            executor=dataclasses.replace(config, resume=True),
        )
        _assert_identical(healed, single_shot)
        assert not list(ck.glob("*.failed.json"))

    def test_shard_timeout_enforced(self, naive_design, present_spec):
        fault = _fault(naive_design, present_spec)
        result = run_campaign(
            naive_design, [fault], n_runs=N_RUNS, key=TEST_KEY80, seed=SEED,
            executor=ExecutorConfig(
                shard_runs=RNG_BLOCK, timeout=0.3, retries=0, backoff=0.0
            ),
            shard_hook=sleep_in_shard_zero,
        )
        assert result.partial
        assert "ShardTimeout" in result.extra["failed_shards"][0]["error"]

    def test_timeout_alone_selects_the_executor(self, naive_design, present_spec):
        """A config that sets nothing but a timeout still runs shards under
        it: shard 0 sleeps past the budget on every attempt and ends up
        quarantined, the other shards survive."""
        fault = _fault(naive_design, present_spec)
        result = run_campaign(
            naive_design, [fault], n_runs=N_RUNS, key=TEST_KEY80, seed=SEED,
            executor=ExecutorConfig(timeout=0.3),
            shard_hook=sleep_in_shard_zero,
        )
        assert result.partial
        [failure] = result.extra["failed_shards"]
        assert failure["index"] == 0
        assert "ShardTimeout" in failure["error"]


class TestCheckpointIntegrity:
    def _checkpointed(self, naive_design, present_spec, ck):
        fault = _fault(naive_design, present_spec)
        return run_campaign(
            naive_design, [fault], n_runs=N_RUNS, key=TEST_KEY80, seed=SEED,
            executor=ExecutorConfig(shard_runs=RNG_BLOCK, checkpoint_dir=ck),
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
                executor=ExecutorConfig(
                    shard_runs=RNG_BLOCK, checkpoint_dir=ck, resume=True
                ),
            )
        assert "fresh manifest" in caplog.text
        _assert_identical(resumed, single_shot)
        store = _store(ck)
        store.load()  # the recovered manifest parses and verifies again
        assert all(store.read_shard(i) is not None for i in range(3))

    def test_direct_load_of_corrupt_manifest_raises(
        self, naive_design, present_spec, tmp_path
    ):
        from repro.faults.checkpoint import CheckpointCorrupt

        ck = tmp_path / "ck"
        self._checkpointed(naive_design, present_spec, ck)
        (ck / "manifest.json").write_text("{ this is not json")
        store = _store(ck)
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
        store = _store(ck)
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
                executor=ExecutorConfig(
                    shard_runs=RNG_BLOCK, checkpoint_dir=ck, resume=True
                ),
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
            executor=ExecutorConfig(
                shard_runs=RNG_BLOCK, checkpoint_dir=ck, resume=True
            ),
        )
        _assert_identical(resumed, single_shot)

    def test_tampered_shard_fails_digest_and_recomputes(
        self, naive_design, present_spec, single_shot, tmp_path
    ):
        ck = tmp_path / "ck"
        self._checkpointed(naive_design, present_spec, ck)
        store = _store(ck)
        store.load()
        assert store.read_shard(1) is not None
        # flip one bit and rewrite the archive with its validation member
        with np.load(store.shard_path(1)) as data:
            members = {k: data[k] for k in data.files}
        members["released"][0, 0] ^= 1
        np.savez_compressed(store.shard_path(1), **members)
        assert store.read_shard(1) is None  # digest mismatch detected

        fault = _fault(naive_design, present_spec)
        resumed = run_campaign(
            naive_design, [fault], n_runs=N_RUNS, key=TEST_KEY80, seed=SEED,
            executor=ExecutorConfig(
                shard_runs=RNG_BLOCK, checkpoint_dir=ck, resume=True
            ),
        )
        _assert_identical(resumed, single_shot)

    def test_shard_archives_carry_their_digests(
        self, naive_design, present_spec, tmp_path
    ):
        """The manifest holds no per-shard state; each archive names its
        range, its arrays' digest and the campaign it belongs to."""
        ck = tmp_path / "ck"
        self._checkpointed(naive_design, present_spec, ck)
        raw = json.loads((ck / "manifest.json").read_text())
        assert set(raw) == {"version", "campaign", "environment", "keys", "checksum"}
        assert raw["version"] == 2
        assert raw["campaign"]["seed"] == SEED
        assert raw["campaign"]["n_runs"] == N_RUNS
        store = _store(ck)
        store.load()
        for index, (lo, hi) in enumerate(RANGES):
            arrays = store.read_shard(index)
            with np.load(store.shard_path(index)) as data:
                meta = json.loads(str(data[SHARD_META]))
            assert meta == {
                "lo": lo,
                "hi": hi,
                "digest": shard_digest(arrays, SHARD_KEYS),
                "campaign": store.campaign_digest,
            }

    def test_sweep_writes_the_manifest_once(
        self, naive_design, present_spec, monkeypatch, tmp_path
    ):
        """Finishing a shard writes its archive, never the manifest."""
        from repro.faults import checkpoint

        written = []
        write = checkpoint.atomic_write_text

        def counting(path, text, *args, **kwargs):
            written.append(Path(path).name)
            return write(path, text, *args, **kwargs)

        monkeypatch.setattr(checkpoint, "atomic_write_text", counting)
        self._checkpointed(naive_design, present_spec, tmp_path / "ck")
        assert written.count("manifest.json") == 1
        assert sorted(p.name for p in (tmp_path / "ck").glob("shard_*")) == [
            "shard_00000.npz", "shard_00001.npz", "shard_00002.npz",
        ]

    @pytest.mark.parametrize("source", ["other_index", "other_seed"])
    def test_foreign_shard_file_is_recomputed(
        self, naive_design, present_spec, single_shot, tmp_path, source
    ):
        """A valid archive of another shard or another campaign, copied
        under shard 0's name, is not adopted: shard 0 runs again."""
        ck = tmp_path / "ck"
        self._checkpointed(naive_design, present_spec, ck)
        if source == "other_index":
            donor = ck / "shard_00001.npz"
        else:
            fault = _fault(naive_design, present_spec)
            other = tmp_path / "other"
            run_campaign(
                naive_design, [fault], n_runs=N_RUNS, key=TEST_KEY80,
                seed=SEED + 1,
                executor=ExecutorConfig(shard_runs=RNG_BLOCK, checkpoint_dir=other),
            )
            donor = other / "shard_00000.npz"
        (ck / "shard_00000.npz").write_bytes(donor.read_bytes())

        hook = RecordShards()
        fault = _fault(naive_design, present_spec)
        resumed = run_campaign(
            naive_design, [fault], n_runs=N_RUNS, key=TEST_KEY80, seed=SEED,
            executor=ExecutorConfig(
                shard_runs=RNG_BLOCK, checkpoint_dir=ck, resume=True
            ),
            shard_hook=hook,
        )
        assert hook.calls == [(0, 1)]
        _assert_identical(resumed, single_shot)

    def test_checkpoint_with_a_shard_ledger_is_recomputed(
        self, naive_design, present_spec, single_shot, tmp_path
    ):
        """The older layout — a per-shard ledger in the manifest and
        archives without a validation member — resumes by recomputing
        every shard, never by merging them."""
        fault = _fault(naive_design, present_spec)
        ck = tmp_path / "ck"
        ck.mkdir()
        ledger = {}
        for index, (lo, hi) in enumerate(RANGES):
            arrays = dict(zip(SHARD_KEYS, run_range(
                naive_design, [fault], key=TEST_KEY80, seed=SEED, lo=lo, hi=hi
            )))
            np.savez_compressed(ck / f"shard_{index:05d}.npz", **arrays)
            ledger[str(index)] = {
                "index": index, "lo": lo, "hi": hi, "status": "done",
                "attempts": 1, "digest": shard_digest(arrays, SHARD_KEYS),
                "error": "", "error_kind": "",
            }
        raw = {
            "version": 2,
            "campaign": campaign_identity(
                naive_design, [fault], key=TEST_KEY80, seed=SEED,
                n_runs=N_RUNS, shard_runs=RNG_BLOCK,
            ),
            "environment": {},
            "keys": list(SHARD_KEYS),
            "shards": ledger,
        }
        raw["checksum"] = sha256_bytes(json.dumps(raw, sort_keys=True).encode())
        (ck / "manifest.json").write_text(json.dumps(raw))

        hook = RecordShards()
        resumed = run_campaign(
            naive_design, [fault], n_runs=N_RUNS, key=TEST_KEY80, seed=SEED,
            executor=ExecutorConfig(
                shard_runs=RNG_BLOCK, checkpoint_dir=ck, resume=True
            ),
            shard_hook=hook,
        )
        assert hook.calls == [(0, 1), (1, 1), (2, 1)]
        _assert_identical(resumed, single_shot)
        # the recomputed archives replaced the older ones and validate
        store = _store(ck)
        store.load()
        assert all(store.read_shard(i) is not None for i in range(3))

    def test_manifest_pins_campaign_identity(
        self, naive_design, present_spec, tmp_path
    ):
        """Exactly these fields and values identify a campaign checkpoint;
        checkpoints written before are resumable only while they hold."""
        ck = tmp_path / "ck"
        self._checkpointed(naive_design, present_spec, ck)
        raw = json.loads((ck / "manifest.json").read_text())
        assert raw["campaign"] == {
            "netlist": (
                "6af8541d37cc8d29be55d02024d4d2829717eb7c03092225d6637a63145c2cd0"
            ),
            "scheme": "naive_duplication",
            "variant": None,
            "block_bits": 64,
            "key": str(TEST_KEY80),
            "seed": SEED,
            "n_runs": N_RUNS,
            "shard_runs": RNG_BLOCK,
            "specs": [
                {
                    "net": 505,
                    "fault_type": "stuck_at_0",
                    "cycles": [29],
                    "probability": 1.0,
                    "label": "",
                }
            ],
        }

    def test_resume_under_another_netlist_is_refused(self, tmp_path):
        """Two constructions of one scheme share its name, variant and
        block size; the checkpoint of one must not answer for the other."""
        from repro.ciphers.registry import make_spec
        from repro.countermeasures import build_three_in_one

        spec = make_spec("present80", rounds=3)
        monolithic = build_three_in_one(spec, construction="monolithic")
        separate = build_three_in_one(spec, construction="separate")
        fault = [FaultSpec.at(700, FaultType.BIT_FLIP, 1)]
        ck = tmp_path / "ck"
        run_campaign(
            monolithic, fault, n_runs=2048, key=7, seed=3,
            executor=ExecutorConfig(shard_runs=1024, checkpoint_dir=ck),
        )
        with pytest.raises(CheckpointError, match="netlist"):
            run_campaign(
                separate, fault, n_runs=2048, key=7, seed=3,
                executor=ExecutorConfig(
                    shard_runs=1024, checkpoint_dir=ck, resume=True
                ),
            )

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
                executor=ExecutorConfig(
                    shard_runs=RNG_BLOCK, checkpoint_dir=ck, resume=True
                ),
            )


class TestDeadlineFallback:
    """Timeouts degrade gracefully where SIGALRM cannot be armed."""

    def test_non_main_thread_degrades_with_one_log_event(self, caplog):
        import threading

        from repro.faults import _supervisor as supervisor

        results: list = []

        def body():
            with supervisor._deadline(0.01):
                results.append("ran")
            with supervisor._deadline(0.01):
                results.append("ran again")

        saved = supervisor._timeout_warned
        supervisor._timeout_warned = False
        try:
            with caplog.at_level(
                logging.WARNING, logger="repro.faults.executor"
            ):
                thread = threading.Thread(target=body)
                thread.start()
                thread.join()
        finally:
            supervisor._timeout_warned = saved
        assert results == ["ran", "ran again"]
        messages = [
            r.getMessage()
            for r in caplog.records
            if "SIGALRM" in r.getMessage()
        ]
        assert len(messages) == 1  # logged once, not per shard
        assert "without a wall-clock guard" in messages[0]

    def test_no_timeout_means_no_guard(self):
        from repro.faults import _supervisor as supervisor

        with supervisor._deadline(None):
            pass


class TestExecutorConfig:
    """Every knob is checked once, when the config is built."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"jobs": 0},
            {"jobs": -3},
            {"jobs": 2.5},
            {"jobs": True},
            {"shard_runs": 0},
            {"retries": -1},
            {"backoff": -1},
            {"backoff": float("nan")},
            {"heartbeat": 0},
            {"timeout": 0},
            {"timeout": -5},
            {"hang_deadline": 0},
            {"wall_budget": -1},
            {"wall_budget": float("nan")},
            {"wall_budget": True},
            {"resume": 1},
        ],
    )
    def test_rejects_a_bad_knob_naming_it(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            ExecutorConfig(**kwargs)

    def test_unpicklable_task_raises_before_any_shard(self):
        from repro.faults.executor import run_sharded

        ran = []
        with pytest.raises(Exception, match="pickle"):
            run_sharded(
                lambda lo, hi: ran.append(lo) or {"x": np.arange(lo, hi)},
                [(0, 2), (2, 4)],
                config=ExecutorConfig(jobs=2),
                keys=("x",),
            )
        assert ran == []


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
        assert sorted(run.results) == list(range(len(run.ranges)))
        assert not run.stopped_early and not run.budget_exhausted
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
    """``prewarm_backend`` compiles a design's kernel ahead of a measurement."""

    def test_prewarm_backend_populates_codegen_caches(self, naive_design, monkeypatch):
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

        # no kernel named: the one REPRO_SIM_BACKEND selects when it runs
        _PROGRAM_CACHE.pop(circuit, None)
        monkeypatch.setenv("REPRO_SIM_BACKEND", "compiled")
        prewarm_backend(naive_design)
        assert circuit in _PROGRAM_CACHE
