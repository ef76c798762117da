"""Campaign save/load round-trips, and re-running attacks offline."""

import json

import numpy as np
import pytest

from repro.attacks import sifa_attack
from repro.faults import (
    RNG_BLOCK,
    CampaignResult,
    ExecutorConfig,
    FaultSpec,
    FaultType,
    run_campaign,
)
from repro.faults.models import sbox_input_net
from tests.conftest import TEST_KEY80


class TestSpecSerialization:
    SPECS = [
        FaultSpec(3, FaultType.STUCK_AT_0),
        FaultSpec.at(17, FaultType.BIT_FLIP, 5),
        FaultSpec.at(99, FaultType.SET_FLIP, [2, 7, 30], probability=0.25,
                     label="laser/b"),
        FaultSpec(0, FaultType.RESET_FLIP, cycles=None, probability=0.0),
    ]

    @pytest.mark.parametrize("spec", SPECS)
    def test_roundtrip_identity(self, spec):
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_dict_is_json_safe(self):
        import json

        for spec in self.SPECS:
            clone = FaultSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
            assert clone == spec

    def test_fault_type_roundtrip(self):
        for ft in FaultType:
            assert FaultType.from_dict(ft.to_dict()) is ft
        assert FaultType.from_dict("STUCK_AT_1") is FaultType.STUCK_AT_1


class TestPersistence:
    def make_campaign(self, naive_design, present_spec, n=3000):
        net = sbox_input_net(naive_design.cores[0], 7, 1)
        fault = FaultSpec.at(net, FaultType.STUCK_AT_0, present_spec.rounds - 2)
        return run_campaign(
            naive_design, [fault], n_runs=n, key=TEST_KEY80, seed=21
        )

    def test_roundtrip_preserves_arrays(self, naive_design, present_spec, tmp_path):
        result = self.make_campaign(naive_design, present_spec, n=500)
        path = tmp_path / "campaign.npz"
        result.save(path)
        loaded = CampaignResult.load(path)
        assert loaded.scheme == result.scheme
        assert loaded.key == result.key
        assert (loaded.released_bits == result.released_bits).all()
        assert (loaded.outcomes == result.outcomes).all()
        assert loaded.counts() == result.counts()
        assert loaded.specs == result.specs

    def test_offline_attack_matches_online(
        self, naive_design, present_spec, tmp_path
    ):
        result = self.make_campaign(naive_design, present_spec)
        path = tmp_path / "campaign.npz"
        result.save(path)
        loaded = CampaignResult.load(path)
        online = sifa_attack(result, present_spec, 7, 1)
        offline = sifa_attack(loaded, present_spec, 7, 1)
        assert online.recovered_bits == offline.recovered_bits
        assert [r.best_guess for r in online.attacked] == [
            r.best_guess for r in offline.attacked
        ]

    def test_large_key_survives_stringification(self, naive_design, present_spec, tmp_path):
        result = self.make_campaign(naive_design, present_spec, n=64)
        assert result.key.bit_length() > 64  # 80-bit keys exceed int64
        path = tmp_path / "c.npz"
        result.save(path)
        assert CampaignResult.load(path).key == result.key

    def test_partial_campaign_loads_as_partial(
        self, naive_design, present_spec, tmp_path
    ):
        net = sbox_input_net(naive_design.cores[0], 7, 1)
        fault = FaultSpec.at(net, FaultType.STUCK_AT_0, present_spec.rounds - 2)
        result = run_campaign(
            naive_design, [fault], n_runs=3 * RNG_BLOCK, key=TEST_KEY80, seed=21,
            executor=ExecutorConfig(shard_runs=RNG_BLOCK, retries=0, backoff=0.0),
            shard_hook=_fail_shard_two,
        )
        assert result.partial and len(result.extra["failed_shards"]) == 1
        path = tmp_path / "partial.npz"
        result.save(path)
        loaded = CampaignResult.load(path)
        assert loaded.partial
        assert loaded.extra == json.loads(json.dumps(result.extra, default=str))
        assert loaded.extra["failed_shards"][0]["index"] == 2

    def test_archive_without_extra_loads_with_an_empty_one(
        self, naive_design, present_spec, tmp_path
    ):
        result = self.make_campaign(naive_design, present_spec, n=64)
        path = tmp_path / "c.npz"
        result.save(path)
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files if k != "extra"}
        np.savez_compressed(path, **arrays)
        loaded = CampaignResult.load(path)
        assert loaded.extra == {} and not loaded.partial


def _fail_shard_two(index: int, attempt: int) -> None:
    if index == 2:
        raise RuntimeError("injected shard failure")


def _fail_from_shard_one(index: int, attempt: int) -> None:
    if index >= 1:
        raise RuntimeError("injected interruption")


class TestResumeAfterCorruption:
    """Torn writes on checkpoint artefacts are detected and recomputed.

    Persistence is atomic (tmp + ``os.replace``), so a torn write cannot
    happen through our own code path — but power loss can still tear the
    rename journal, and media decays.  These tests hand-tear the artefacts
    the way a mid-write kill would and demand the resumed campaign end up
    equal to the uninterrupted run.
    """

    N = 2 * RNG_BLOCK + RNG_BLOCK // 2  # 3 shards at shard_runs=RNG_BLOCK

    def _fault(self, naive_design, present_spec):
        net = sbox_input_net(naive_design.cores[0], 7, 1)
        return FaultSpec.at(net, FaultType.STUCK_AT_0, present_spec.rounds - 2)

    @pytest.fixture(scope="class")
    def uninterrupted(self, naive_design, present_spec):
        fault = self._fault(naive_design, present_spec)
        return run_campaign(
            naive_design, [fault], n_runs=self.N, key=TEST_KEY80, seed=21
        )

    def _assert_equal(self, a, b):
        assert (a.released_bits == b.released_bits).all()
        assert (a.fault_flags == b.fault_flags).all()
        assert (a.outcomes == b.outcomes).all()

    def _checkpointed(self, naive_design, present_spec, ck, **kwargs):
        fault = self._fault(naive_design, present_spec)
        return run_campaign(
            naive_design, [fault], n_runs=self.N, key=TEST_KEY80, seed=21,
            executor=ExecutorConfig(
                shard_runs=RNG_BLOCK, checkpoint_dir=ck,
                retries=0, backoff=0.0, **kwargs,
            ),
        )

    def _resume(self, naive_design, present_spec, ck):
        fault = self._fault(naive_design, present_spec)
        return run_campaign(
            naive_design, [fault], n_runs=self.N, key=TEST_KEY80, seed=21,
            executor=ExecutorConfig(
                shard_runs=RNG_BLOCK, checkpoint_dir=ck,
                retries=0, backoff=0.0, resume=True,
            ),
        )

    def test_truncated_shard_archive_is_recomputed(
        self, naive_design, present_spec, uninterrupted, tmp_path
    ):
        ck = tmp_path / "ck"
        self._checkpointed(naive_design, present_spec, ck)
        shard = ck / "shard_00001.npz"
        shard.write_bytes(shard.read_bytes()[: shard.stat().st_size // 2])
        resumed = self._resume(naive_design, present_spec, ck)
        assert not resumed.partial
        self._assert_equal(resumed, uninterrupted)

    def test_truncated_manifest_is_recovered(
        self, naive_design, present_spec, uninterrupted, tmp_path
    ):
        ck = tmp_path / "ck"
        self._checkpointed(naive_design, present_spec, ck)
        manifest = ck / "manifest.json"
        text = manifest.read_text()
        manifest.write_text(text[: len(text) // 2])  # torn mid-write
        resumed = self._resume(naive_design, present_spec, ck)
        assert not resumed.partial
        self._assert_equal(resumed, uninterrupted)

    def test_interrupted_run_with_torn_artefacts_completes(
        self, naive_design, present_spec, uninterrupted, tmp_path
    ):
        """The worst case: killed mid-campaign AND both artefact kinds torn."""
        ck = tmp_path / "ck"
        fault = self._fault(naive_design, present_spec)
        partial = run_campaign(
            naive_design, [fault], n_runs=self.N, key=TEST_KEY80, seed=21,
            executor=ExecutorConfig(
                shard_runs=RNG_BLOCK, checkpoint_dir=ck,
                retries=0, backoff=0.0,
            ),
            shard_hook=_fail_from_shard_one,
        )
        assert partial.partial  # only shard 0 completed
        shard = ck / "shard_00000.npz"
        shard.write_bytes(shard.read_bytes()[: shard.stat().st_size // 2])
        manifest = ck / "manifest.json"
        text = manifest.read_text()
        manifest.write_text(text[: len(text) // 2])
        resumed = self._resume(naive_design, present_spec, ck)
        assert not resumed.partial
        self._assert_equal(resumed, uninterrupted)
