"""Chaos recovery is cipher-agnostic: recover bit-identically, per entry.

``tests/test_chaos.py`` proves the full chaos taxonomy on reduced-round
PRESENT; this module proves the *golden invariant* — a seeded chaos
schedule with a healthy retry path yields results bit-identical to the
undisturbed run — holds for **every registered cipher**, including the
``kill -9``-style pool-worker death and a clean resume over whatever
debris the schedule left in the checkpoint store.
"""

from __future__ import annotations

import pytest

from repro.faults import (
    RNG_BLOCK,
    ExecutorConfig,
    FaultSpec,
    FaultType,
    run_campaign,
)
from repro.faults.models import last_round, sbox_input_net
from repro.resilience import CHAOS_ENV, ChaosFault, ChaosSpec, chaos

from tests.cipherlight.conftest import battery_key

N_RUNS = 2 * RNG_BLOCK + RNG_BLOCK // 2  # 3 shards at shard_runs=RNG_BLOCK
SEED = 29


@pytest.fixture(autouse=True)
def _pristine_chaos(monkeypatch):
    monkeypatch.delenv(CHAOS_ENV, raising=False)
    chaos.disable()
    yield
    chaos.disable()


@pytest.fixture(scope="session")
def campaign_fault(protected):
    core = protected.cores[0]
    net = sbox_input_net(core, 0, 1)
    return FaultSpec.at(net, FaultType.STUCK_AT_0, last_round(core))


@pytest.fixture(scope="session")
def chaos_baseline(protected, fast_spec, campaign_fault):
    """Chaos-free serial ground truth per cipher."""
    return run_campaign(
        protected,
        [campaign_fault],
        n_runs=N_RUNS,
        key=battery_key(fast_spec),
        seed=SEED,
    )


def _assert_identical(a, b):
    assert (a.plaintext_bits == b.plaintext_bits).all()
    assert (a.released_bits == b.released_bits).all()
    assert (a.expected_bits == b.expected_bits).all()
    assert (a.fault_flags == b.fault_flags).all()
    assert (a.outcomes == b.outcomes).all()


def _run(protected, fast_spec, campaign_fault, *, config):
    return run_campaign(
        protected,
        [campaign_fault],
        n_runs=N_RUNS,
        key=battery_key(fast_spec),
        seed=SEED,
        executor=config,
    )


class TestChaosRecoveryPerCipher:
    def test_recovery_and_resume_are_bit_identical(
        self, fast_spec, protected, campaign_fault, chaos_baseline, tmp_path
    ):
        """Worker raises plus a truncated checkpoint shard, then a clean
        resume over the debris — both must reproduce the baseline."""
        ck = tmp_path / "ck"
        chaos.configure(
            ChaosSpec(
                seed=11,
                faults=(
                    ChaosFault("worker", "raise", 0.6, 2),
                    ChaosFault("checkpoint.shard", "truncate", 1.0, 1),
                ),
            )
        )
        try:
            result = _run(
                protected, fast_spec, campaign_fault,
                config=ExecutorConfig(
                    shard_runs=RNG_BLOCK, checkpoint_dir=ck,
                    retries=3, backoff=0.0,
                ),
            )
        finally:
            chaos.disable()
        assert not result.partial
        _assert_identical(result, chaos_baseline)

        resumed = _run(
            protected, fast_spec, campaign_fault,
            config=ExecutorConfig(
                shard_runs=RNG_BLOCK, checkpoint_dir=ck,
                retries=1, backoff=0.0, resume=True,
            ),
        )
        assert not resumed.partial
        _assert_identical(resumed, chaos_baseline)

    def test_pool_survives_kill9_worker_crashes(
        self, fast_spec, protected, campaign_fault, chaos_baseline, tmp_path
    ):
        """os._exit in a pool worker (no cleanup, no exception) is detected,
        the pool restarted, and the campaign completes bit-identically —
        proven here for every registered cipher, not just PRESENT."""
        chaos.configure(
            ChaosSpec(seed=5, faults=(ChaosFault("worker", "crash", 1.0, 1),))
        )
        result = _run(
            protected, fast_spec, campaign_fault,
            config=ExecutorConfig(
                shard_runs=RNG_BLOCK, checkpoint_dir=tmp_path / "ck",
                jobs=2, retries=3, backoff=0.0,
            ),
        )
        assert not result.partial
        _assert_identical(result, chaos_baseline)
