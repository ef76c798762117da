"""Chaos property suite: fault-inject the campaign stack itself.

The golden invariant mirrors the paper's detect-or-survive demand, aimed
at our own infrastructure: **any seeded chaos schedule that leaves at
least one healthy retry path must yield results bit-identical to the
undisturbed run** — across worker crashes (including ``kill -9``-style
process death under a pool), hangs past the shard deadline, torn or
bit-rotted checkpoint artefacts, and delayed/duplicated result delivery.
Schedules with *no* healthy path must degrade to structured quarantine
records or a degraded partial result, never an unhandled exception.
"""

from __future__ import annotations

import logging

import pytest

from repro.ciphers.netlist_present import PresentSpec
from repro.countermeasures import build_naive_duplication
from repro.faults import (
    RNG_BLOCK,
    ExecutorConfig,
    FaultSpec,
    FaultType,
    run_campaign,
)
from repro.faults.campaign import SHARD_KEYS
from repro.faults.checkpoint import CheckpointStore
from repro.faults.models import sbox_input_net
from repro.resilience import (
    CHAOS_ENV,
    ChaosError,
    ChaosFault,
    ChaosSpec,
    ErrorKind,
    ShardHang,
    chaos,
    classify_error,
)
from repro.resilience.chaos import _fires
from tests.conftest import TEST_KEY80

N_RUNS = 2 * RNG_BLOCK + RNG_BLOCK // 2  # 3 shards at shard_runs=RNG_BLOCK
SEED = 33
ROUNDS = 3  # reduced-round PRESENT keeps ~60 campaigns affordable


@pytest.fixture(autouse=True)
def _pristine_chaos(monkeypatch):
    """Every test starts and ends with the injector disabled."""
    monkeypatch.delenv(CHAOS_ENV, raising=False)
    chaos.disable()
    yield
    chaos.disable()


@pytest.fixture(scope="module")
def design3():
    return build_naive_duplication(PresentSpec(rounds=ROUNDS))


@pytest.fixture(scope="module")
def fault3(design3):
    net = sbox_input_net(design3.cores[0], 7, 1)
    return FaultSpec.at(net, FaultType.STUCK_AT_0, ROUNDS - 2)


@pytest.fixture(scope="module")
def baseline(design3, fault3):
    """The chaos-free ground truth every recovered run must reproduce."""
    return run_campaign(
        design3, [fault3], n_runs=N_RUNS, key=TEST_KEY80, seed=SEED
    )


def _assert_identical(a, b):
    assert (a.plaintext_bits == b.plaintext_bits).all()
    assert (a.released_bits == b.released_bits).all()
    assert (a.expected_bits == b.expected_bits).all()
    assert (a.fault_flags == b.fault_flags).all()
    assert (a.outcomes == b.outcomes).all()


def _run(design, fault, *, config):
    return run_campaign(
        design, [fault], n_runs=N_RUNS, key=TEST_KEY80, seed=SEED,
        executor=config,
    )


# ------------------------------------------------------------ spec parsing


class TestChaosSpec:
    def test_parse_full_mini_language(self):
        spec = ChaosSpec.parse(
            "seed=7; hang=1.5, delay=0.01; worker:raise:0.5:2;"
            "checkpoint.shard:truncate"
        )
        assert spec.seed == 7
        assert spec.hang_s == 1.5
        assert spec.delay_s == 0.01
        assert spec.faults == (
            ChaosFault("worker", "raise", 0.5, 2),
            ChaosFault("checkpoint.shard", "truncate", 1.0, 1),
        )

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "seed=3;worker:crash")
        spec = ChaosSpec.from_env()
        assert spec is not None and spec.seed == 3
        monkeypatch.delenv(CHAOS_ENV)
        assert ChaosSpec.from_env() is None

    @pytest.mark.parametrize(
        "bad",
        [
            "nonsense=1",
            "worker",  # no kind
            "worker:explode",  # unknown kind
            "mars:raise",  # unknown site
            "worker:raise:1.5",  # rate outside [0, 1]
            "seed=banana",  # option wants a number
            "hang=soon",  # option wants a number
            "worker:raise:often",  # rate must be a float
            "worker:raise:0.5:always",  # max_attempt must be an integer
        ],
    )
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ValueError):
            ChaosSpec.parse(bad)

    def test_parse_errors_name_the_offending_segment(self):
        with pytest.raises(ValueError, match=r"'seed=banana'.*number"):
            ChaosSpec.parse("seed=banana")
        with pytest.raises(ValueError, match=r"'worker:raise:often'"):
            ChaosSpec.parse("worker:raise:often")

    def test_from_env_errors_name_the_variable(self, monkeypatch):
        """REPRO_CHAOS typos must fail *eagerly* with the variable named,
        not deep inside a campaign with a bare parse error."""
        monkeypatch.setenv(CHAOS_ENV, "worker:explode")
        with pytest.raises(ValueError, match="REPRO_CHAOS"):
            ChaosSpec.from_env()

    def test_backend_env_errors_name_the_variable(self, monkeypatch):
        from repro.netlist.simulator import resolve_backend

        monkeypatch.setenv("REPRO_SIM_BACKEND", "turbo")
        with pytest.raises(ValueError, match="REPRO_SIM_BACKEND"):
            resolve_backend(None)
        # an explicit bad argument is still blamed on the caller, not env
        monkeypatch.delenv("REPRO_SIM_BACKEND")
        with pytest.raises(ValueError) as excinfo:
            resolve_backend("turbo")
        assert "REPRO_SIM_BACKEND" not in str(excinfo.value)

    def test_fires_is_a_pure_deterministic_function(self):
        spec = ChaosSpec(seed=11)
        fault = ChaosFault("worker", "raise", 0.5, 1)
        pattern = [_fires(spec, fault, i, 1) for i in range(1000)]
        assert pattern == [_fires(spec, fault, i, 1) for i in range(1000)]
        # the rate is honoured statistically...
        assert 400 < sum(pattern) < 600
        # ...the seed reshuffles the pattern...
        other = ChaosSpec(seed=12)
        assert pattern != [_fires(other, fault, i, 1) for i in range(1000)]
        # ...and the attempt bound gates firing entirely
        assert not any(_fires(spec, fault, i, 2) for i in range(1000))
        always = ChaosFault("worker", "raise", 1.0, 0)  # persistent fault
        assert all(_fires(spec, always, i, a) for i in range(5) for a in (1, 9))

    def test_corrupt_file_truncates_and_bitrots(self, tmp_path):
        data = bytes(range(256))
        trunc = tmp_path / "t.bin"
        trunc.write_bytes(data)
        chaos.configure(
            ChaosSpec(seed=0, faults=(ChaosFault("checkpoint.shard", "truncate"),))
        )
        chaos.corrupt_file("checkpoint.shard", trunc, index=0)
        assert trunc.read_bytes() == data[: len(data) // 2]

        rot = tmp_path / "r.bin"
        rot.write_bytes(data)
        chaos.configure(
            ChaosSpec(seed=0, faults=(ChaosFault("checkpoint.shard", "bitrot"),))
        )
        chaos.corrupt_file("checkpoint.shard", rot, index=0)
        rotten = rot.read_bytes()
        assert len(rotten) == len(data)
        assert sum(a != b for a, b in zip(rotten, data)) == 1

    def test_disabled_injector_is_inert(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"intact")
        chaos.at("worker", index=0, attempt=1)
        chaos.corrupt_file("checkpoint.shard", path, index=0)
        assert not chaos.should("supervisor.result", "duplicate", index=0)
        assert path.read_bytes() == b"intact"


class TestErrorTaxonomy:
    def test_classification(self):
        from repro.faults.executor import ShardTimeout

        assert classify_error(ChaosError("x")) is ErrorKind.TRANSIENT
        assert classify_error(ShardTimeout("x")) is ErrorKind.TIMEOUT
        assert classify_error(ShardHang("x")) is ErrorKind.CRASH
        assert classify_error(EOFError("x")) is ErrorKind.CORRUPTION
        assert classify_error(OSError("x")) is ErrorKind.TRANSIENT
        assert classify_error(ValueError("x")) is ErrorKind.PERMANENT
        assert classify_error(RuntimeError("x")) is ErrorKind.TRANSIENT
        assert str(ErrorKind.CRASH) == "crash"


# ----------------------------------------------- the bit-identity invariant


def _schedules():
    """≥25 seeded schedules mixing every site and kind (healthy retries)."""
    mixes = [
        (("worker", "raise", 1.0, 1),),
        (("worker", "crash", 1.0, 1),),
        (("worker", "hang", 1.0, 1),),
        (("worker", "delay", 1.0, 1),),
        (("checkpoint.shard", "truncate", 1.0, 1),),
        (("checkpoint.shard", "bitrot", 1.0, 1),),
        (("checkpoint.manifest", "truncate", 1.0, 1),),
        (("checkpoint.manifest", "bitrot", 1.0, 1),),
        (("supervisor.result", "duplicate", 1.0, 1),),
        (("supervisor.result", "delay", 1.0, 1),),
        (
            ("worker", "raise", 0.5, 1),
            ("checkpoint.shard", "truncate", 0.5, 1),
        ),
        (
            ("worker", "crash", 0.4, 1),
            ("checkpoint.manifest", "truncate", 1.0, 1),
            ("supervisor.result", "duplicate", 0.5, 1),
        ),
        (
            ("worker", "raise", 0.7, 2),  # fires on the retry too
            ("checkpoint.shard", "bitrot", 0.6, 1),
            ("supervisor.result", "delay", 0.3, 1),
        ),
    ]
    schedules = []
    for seed in (7, 101):
        for mix in mixes:
            schedules.append(
                ChaosSpec(
                    seed=seed,
                    faults=tuple(ChaosFault(*f) for f in mix),
                    hang_s=2.0,  # must exceed the 0.8 s shard timeout
                    delay_s=0.005,
                )
            )
    return schedules


def _schedule_id(spec):
    return f"s{spec.seed}-" + "+".join(
        f"{f.site.rsplit('.', 1)[-1]}.{f.kind}" for f in spec.faults
    )


class TestBitIdentityUnderChaos:
    @pytest.mark.parametrize("spec", _schedules(), ids=_schedule_id)
    def test_recovered_run_is_bit_identical(
        self, design3, fault3, baseline, tmp_path, spec
    ):
        """Chaos run → bit-identical; clean resume over the debris → same."""
        ck = tmp_path / "ck"
        chaos.configure(spec)
        try:
            result = _run(
                design3, fault3,
                config=ExecutorConfig(
                    shard_runs=RNG_BLOCK, checkpoint_dir=ck,
                    retries=3, backoff=0.0, timeout=0.8,
                ),
            )
        finally:
            chaos.disable()
        assert not result.partial
        _assert_identical(result, baseline)

        # Whatever the schedule left on disk — truncated shards, a
        # bit-rotted manifest — a chaos-free resume must detect it and
        # recompute rather than trust it.
        resumed = _run(
            design3, fault3,
            config=ExecutorConfig(
                shard_runs=RNG_BLOCK, checkpoint_dir=ck,
                retries=1, backoff=0.0, resume=True,
            ),
        )
        assert not resumed.partial
        _assert_identical(resumed, baseline)

    def test_pool_survives_kill9_worker_crashes(
        self, design3, fault3, baseline, tmp_path
    ):
        """os._exit in pool workers (no cleanup, no exception — the pool
        just loses processes) is detected, the pool restarted, and the
        campaign still completes bit-identically."""
        chaos.configure(
            ChaosSpec(seed=5, faults=(ChaosFault("worker", "crash", 1.0, 1),))
        )
        result = _run(
            design3, fault3,
            config=ExecutorConfig(
                shard_runs=RNG_BLOCK, checkpoint_dir=tmp_path / "ck",
                jobs=2, retries=3, backoff=0.0,
            ),
        )
        assert not result.partial
        _assert_identical(result, baseline)

    def test_heartbeat_restarts_pool_on_hung_worker(
        self, design3, fault3, baseline, tmp_path, caplog
    ):
        """A worker stuck far past every deadline is declared dead by the
        supervisor's heartbeat; the pool is restarted and the shard retried."""
        chaos.configure(
            ChaosSpec(
                seed=5,
                faults=(ChaosFault("worker", "hang", 1.0, 1),),
                hang_s=60.0,
            )
        )
        with caplog.at_level(logging.WARNING, logger="repro.faults.executor"):
            result = _run(
                design3, fault3,
                config=ExecutorConfig(
                    shard_runs=RNG_BLOCK, checkpoint_dir=tmp_path / "ck",
                    jobs=2, retries=2, backoff=0.0,
                    heartbeat=0.2, hang_deadline=1.2,
                ),
            )
        assert "heartbeat" in caplog.text
        assert not result.partial
        _assert_identical(result, baseline)

    def test_env_driven_chaos_round_trips(
        self, design3, fault3, baseline, monkeypatch
    ):
        monkeypatch.setenv(CHAOS_ENV, "seed=9;worker:raise")
        result = _run(
            design3, fault3,
            config=ExecutorConfig(shard_runs=RNG_BLOCK, retries=2, backoff=0.0),
        )
        assert chaos.enabled and chaos.spec.seed == 9  # adopted by the run
        assert not result.partial
        _assert_identical(result, baseline)


# ---------------------------------------------------- structured degradation


class TestStructuredDegradation:
    def test_persistent_chaos_quarantines_not_raises(
        self, design3, fault3, tmp_path
    ):
        """max_attempt=0 = the fault survives every retry: all shards end
        up quarantined with typed records; nothing raises."""
        ck = tmp_path / "ck"
        chaos.configure(
            ChaosSpec(seed=1, faults=(ChaosFault("worker", "raise", 1.0, 0),))
        )
        result = _run(
            design3, fault3,
            config=ExecutorConfig(
                shard_runs=RNG_BLOCK, checkpoint_dir=ck,
                retries=1, backoff=0.0,
            ),
        )
        assert result.partial
        assert result.n_runs == 0
        failures = result.extra["failed_shards"]
        assert [f["index"] for f in failures] == [0, 1, 2]
        for failure in failures:
            assert failure["attempts"] == 2
            assert failure["error_kind"] == "transient"
            assert "injected failure" in failure["error"]
        store = CheckpointStore(
            ck, keys=SHARD_KEYS, ranges=[(f["lo"], f["hi"]) for f in failures]
        )
        store.load()
        records = [store.quarantined(i) for i in range(3)]
        assert [r["attempts"] for r in records] == [2, 2, 2]
        assert all(r["error_kind"] == "transient" for r in records)

        # ...and once the infrastructure heals, a resume completes fully
        # (the surviving retry budget grants each shard one fresh attempt)
        chaos.disable()
        healed = _run(
            design3, fault3,
            config=ExecutorConfig(
                shard_runs=RNG_BLOCK, checkpoint_dir=ck,
                retries=1, backoff=0.0, resume=True,
            ),
        )
        assert not healed.partial
        assert healed.n_runs == N_RUNS
        assert not list(ck.glob("*.failed.json"))  # success clears them

    def test_wall_budget_degrades_gracefully(self, design3, fault3):
        result = _run(
            design3, fault3,
            config=ExecutorConfig(shard_runs=RNG_BLOCK, wall_budget=0.0),
        )
        assert result.partial
        assert result.extra["budget_exhausted"]
        assert result.extra["failed_shards"] == []  # pending, not failed
        assert result.n_runs == 0


# ------------------------------------------------- compiled backend parity
# The recovery contract is backend-independent: the AOT-codegen backend
# must survive the same abuse as the levelized default, bit-identically
# (the backends are bit-exact, so the ground truth is one `baseline`).
# REPRO_SIM_BACKEND selects it; forked pool workers inherit the variable.


def _compiled_schedules():
    mixes = [
        (("worker", "raise", 1.0, 1),),
        (("worker", "crash", 1.0, 1),),
        (("checkpoint.shard", "truncate", 1.0, 1),),
        (("checkpoint.manifest", "bitrot", 1.0, 1),),
        (
            ("worker", "raise", 0.7, 2),
            ("checkpoint.shard", "bitrot", 0.6, 1),
            ("supervisor.result", "duplicate", 0.5, 1),
        ),
    ]
    return [
        ChaosSpec(
            seed=seed,
            faults=tuple(ChaosFault(*f) for f in mix),
            hang_s=2.0,
            delay_s=0.005,
        )
        for seed in (7, 101)
        for mix in mixes
    ]


class TestCompiledBackendChaos:
    @pytest.fixture(autouse=True)
    def _compiled(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "compiled")

    @pytest.mark.parametrize("spec", _compiled_schedules(), ids=_schedule_id)
    def test_recovered_compiled_run_is_bit_identical(
        self, design3, fault3, baseline, tmp_path, spec
    ):
        ck = tmp_path / "ck"
        chaos.configure(spec)
        try:
            result = _run(
                design3, fault3,
                config=ExecutorConfig(
                    shard_runs=RNG_BLOCK, checkpoint_dir=ck,
                    retries=3, backoff=0.0, timeout=0.8,
                ),
            )
        finally:
            chaos.disable()
        assert not result.partial
        _assert_identical(result, baseline)

        resumed = _run(
            design3, fault3,
            config=ExecutorConfig(
                shard_runs=RNG_BLOCK, checkpoint_dir=ck,
                retries=1, backoff=0.0, resume=True,
            ),
        )
        assert not resumed.partial
        _assert_identical(resumed, baseline)

    def test_pool_survives_kill9_with_compiled_backend(
        self, design3, fault3, baseline, tmp_path
    ):
        """Worker kill-9 under the compiled backend: every replacement
        process re-runs the pre-warm codegen in its initializer (outside
        any shard timeout window) and the campaign still completes."""
        chaos.configure(
            ChaosSpec(seed=5, faults=(ChaosFault("worker", "crash", 1.0, 1),))
        )
        result = _run(
            design3, fault3,
            config=ExecutorConfig(
                shard_runs=RNG_BLOCK, checkpoint_dir=tmp_path / "ck",
                jobs=2, retries=3, backoff=0.0,
            ),
        )
        assert not result.partial
        _assert_identical(result, baseline)
