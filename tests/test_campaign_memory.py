"""Packed campaign results: memory, layout and compatibility.

Campaign words stay packed from the RNG draw to the attack code: packed
rows into the simulator, byte rows ``(runs, ceil(block / 8))`` out of it.
These tests bound a campaign's traced peak below what its words alone
would take unpacked, bound the traced peak of a paper-scale campaign and
its SIFA readout at the default chunk, bound the traced peak of an
in-process Fig. 4 series (reduced chunk by chunk) below what the
campaign's stored rows alone would add, bound one
:class:`RangeRun` pass above its simulator below what a single
``(lanes, block)`` bit matrix of its words costs on top of the byte rows it
keeps, bound what building a :class:`RangeRun` (draws plus the software
reference, no simulation) allocates, pin the ``*_bits`` views to
``np.unpackbits`` of the stored rows, and check that archives and
checkpoints written with the old bit-matrix keys are handled: archives are
packed on load, checkpoints refuse to resume.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.attacks.sifa import ineffective_distribution
from repro.ciphers.netlist_present import PresentSpec
from repro.countermeasures import build_naive_duplication, build_three_in_one
from repro.evaluation import figures
from repro.faults import (
    RNG_BLOCK,
    CampaignResult,
    CheckpointError,
    CheckpointStore,
    ExecutorConfig,
    FaultSpec,
    FaultType,
    Outcome,
    last_round,
    run_campaign,
)
from repro.faults.campaign import CHUNK, RangeRun, campaign_identity
from repro.faults.classification import classify
from repro.faults.models import last_round, sbox_input_net
from tests.conftest import TEST_KEY80

LEGACY_KEYS = ("plaintext_bits", "released_bits", "expected_bits", "fault_flags")

#: lanes the memory bounds below are measured at.  Pinned rather than read
#: from ``CHUNK`` so that a smaller default chunk cannot loosen them.
LANES = 1 << 14


@pytest.fixture(scope="module")
def design():
    return build_naive_duplication(PresentSpec(rounds=3))


@pytest.fixture(scope="module")
def specs(design):
    core = design.cores[0]
    return [
        FaultSpec.at(sbox_input_net(core, 7, 1), FaultType.STUCK_AT_0, last_round(core))
    ]


@pytest.fixture(scope="module")
def result(design, specs):
    return run_campaign(design, specs, n_runs=3000, key=TEST_KEY80, seed=21)


@pytest.mark.parametrize("backend", ["levelized", "compiled"])
def test_campaign_peak_stays_below_its_unpacked_words(
    design, specs, backend, monkeypatch
):
    monkeypatch.setenv("REPRO_SIM_BACKEND", backend)
    n_runs = 8 * LANES
    # build and compile outside the traced window
    run_campaign(design, specs, n_runs=RNG_BLOCK, key=TEST_KEY80)
    tracemalloc.start()
    try:
        result = run_campaign(design, specs, n_runs=n_runs, key=TEST_KEY80)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.n_runs == n_runs
    # three (runs, block) uint8 matrices: plaintexts, released, expected
    unpacked_words = 3 * n_runs * design.spec.block_bits
    assert peak < unpacked_words, f"traced peak {peak / 1e6:.1f} MB"


#: traced bytes one 80,000-run campaign of 31-round three-in-one
#: PRESENT-80 may allocate, as the attacks run it: whole, then read out.
#: At the default 4,096-lane chunk it peaks at 4.2 MiB: 2.0 MiB of stored
#: results, the 1.4 MiB value matrix, the 0.4 MiB gather scratch.  At
#: 8,192-lane chunks it took 6.2 MiB.  The Fig. 4/5 series no longer take
#: this path; ``STREAMED_SERIES_BUDGET`` bounds theirs.
SERIES_BUDGET = 5 * 2**20

#: traced bytes the series' SIFA readout may allocate above the stored
#: results: 0.8 MiB in uint8, 2 MiB when the gathered bits widen to int64
READOUT_BUDGET = int(1.25 * 2**20)


@pytest.mark.parametrize("backend", ["levelized", "compiled"])
def test_fig4_series_peak_at_the_default_chunk(backend, monkeypatch):
    monkeypatch.setenv("REPRO_SIM_BACKEND", backend)
    spec = PresentSpec()
    design = build_three_in_one(spec)
    core = design.cores[0]
    specs = [
        FaultSpec.at(sbox_input_net(core, 13, 2), FaultType.STUCK_AT_0, last_round(core))
    ]
    n_runs = 80_000
    assert n_runs > 2 * CHUNK
    # build and compile outside the traced window
    run_campaign(design, specs, n_runs=RNG_BLOCK, key=TEST_KEY80)
    tracemalloc.start()
    try:
        result = run_campaign(design, specs, n_runs=n_runs, key=TEST_KEY80)
        stored, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        dist = ineffective_distribution(result, spec, 13)
        readout = tracemalloc.get_traced_memory()[1] - stored
    finally:
        tracemalloc.stop()
    assert dist.sum() == result.count(Outcome.INEFFECTIVE) > 0
    assert peak < SERIES_BUDGET, f"campaign peak {peak / 2**20:.2f} MiB"
    assert readout < READOUT_BUDGET, f"SIFA readout {readout / 2**20:.2f} MiB"


#: traced bytes an in-process 80,000-run Fig. 4 series (naive duplication,
#: then three-in-one PRESENT-80) may allocate.  It reduces one 4,096-run
#: chunk at a time, so it peaks at about 2.3 MiB on either kernel: the
#: simulator and one chunk.  The 2.0 MiB of rows a whole campaign stores
#: would take it past the budget (4.2 MiB when the series kept them).
STREAMED_SERIES_BUDGET = int(2.75 * 2**20)


@pytest.mark.parametrize("backend", ["levelized", "compiled"])
def test_streamed_fig4_series_holds_no_campaign_rows(backend, monkeypatch):
    monkeypatch.setenv("REPRO_SIM_BACKEND", backend)
    spec = PresentSpec()
    naive, ours = build_naive_duplication(spec), build_three_in_one(spec)
    # the figure builds its designs through these module globals
    monkeypatch.setattr(figures, "build_naive_duplication", lambda _: naive)
    monkeypatch.setattr(figures, "build_three_in_one", lambda _: ours)
    n_runs = 80_000
    # compile outside the traced window
    figures.figure4(n_runs=RNG_BLOCK, key=TEST_KEY80, spec=spec)
    tracemalloc.start()
    try:
        fig = figures.figure4(n_runs=n_runs, key=TEST_KEY80, spec=spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for series in (fig.naive, fig.ours):
        assert sum(series.counts.values()) == n_runs
        assert series.distribution.sum() == series.counts["ineffective"] > 0
    stored_rows = 3 * n_runs * 8
    assert peak + stored_rows > STREAMED_SERIES_BUDGET
    assert peak < STREAMED_SERIES_BUDGET, f"series peak {peak / 2**20:.2f} MiB"


#: traced bytes one RangeRun pass may allocate above its simulator.  A
#: pass that builds one (lanes, block) uint8 bit matrix at either simulator
#: edge takes about 3.1 MiB on the design below; packed draws and byte-row
#: readout take under 0.9 MiB on either kernel.
RANGE_PASS_BUDGET = int(2.5 * 2**20)

#: traced bytes building a RangeRun may allocate: the plaintext draw, the
#: discarded clean-pass draws and the packed software reference take about
#: 0.9 MiB at 16,384 lanes; one (lanes, block) bit matrix adds 1 MiB.
RANGE_BUILD_BUDGET = int(1.25 * 2**20)


@pytest.mark.parametrize("backend", ["levelized", "compiled"])
def test_range_run_passes_build_no_bit_matrix(backend):
    design = build_three_in_one(PresentSpec(rounds=3))
    core = design.cores[0]
    specs = [
        FaultSpec.at(
            sbox_input_net(core, 5, 1), FaultType.BIT_FLIP, last_round(core),
            probability=0.5,
        )
    ]
    sim = design.simulator(LANES, backend=backend)
    RangeRun(design, sim, key=TEST_KEY80, seed=3, lo=0).faulted(specs)  # warm up
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run = RangeRun(design, sim, key=TEST_KEY80, seed=3, lo=0)
        built = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        released, flags = run.faulted(specs)
        faulted = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert released.shape == (LANES, 8) and flags.any()
    assert built < RANGE_BUILD_BUDGET, f"RangeRun build {built / 2**20:.2f} MiB"
    assert faulted < RANGE_PASS_BUDGET, f"faulted pass {faulted / 2**20:.2f} MiB"


def test_bits_views_unpack_the_stored_rows(result):
    block = result.block_bits
    assert result.released.shape == (result.n_runs, (block + 7) // 8)
    for name in ("plaintext", "released", "expected"):
        rows = getattr(result, name)
        assert rows.dtype == np.uint8
        want = np.unpackbits(rows, axis=1, bitorder="little")[:, :block]
        np.testing.assert_array_equal(getattr(result, f"{name}_bits"), want)
    assert result.released_ints([0])[0] == sum(
        int(b) << i for i, b in enumerate(result.released_bits[0])
    )


def test_bits_views_are_read_only(result):
    with pytest.raises(AttributeError):
        result.released_bits = result.released_bits


def test_legacy_bit_matrix_archive_loads_and_classifies(result, tmp_path):
    path = tmp_path / "legacy.npz"
    np.savez_compressed(
        path,
        scheme=np.array(result.scheme),
        key=np.array(str(result.key)),
        specs=np.array([]),
        plaintext_bits=result.plaintext_bits,
        released_bits=result.released_bits,
        expected_bits=result.expected_bits,
        fault_flags=result.fault_flags,
        outcomes=result.outcomes,
    )
    loaded = CampaignResult.load(path)
    assert loaded.block_bits == result.block_bits
    for name in ("plaintext", "released", "expected"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(result, name))
    outcomes = classify(loaded.released, loaded.fault_flags, loaded.expected)
    np.testing.assert_array_equal(outcomes, result.outcomes)
    assert loaded.counts() == result.counts()


def test_resuming_a_bit_matrix_checkpoint_is_refused(design, specs, result, tmp_path):
    """A checkpoint whose shards hold ``*_bits`` matrices never mixes with
    packed shards: its manifest pins the old key set."""
    ck = tmp_path / "ck"
    n_runs = 2 * RNG_BLOCK
    store = CheckpointStore(
        ck, keys=LEGACY_KEYS, ranges=[(0, RNG_BLOCK), (RNG_BLOCK, n_runs)]
    )
    store.create(
        campaign_identity(
            design, specs, key=TEST_KEY80, seed=21, n_runs=n_runs,
            shard_runs=RNG_BLOCK,
        )
    )
    rows = slice(0, RNG_BLOCK)
    store.write_shard(
        0,
        {
            "plaintext_bits": result.plaintext_bits[rows],
            "released_bits": result.released_bits[rows],
            "expected_bits": result.expected_bits[rows],
            "fault_flags": result.fault_flags[rows],
        },
    )
    with pytest.raises(CheckpointError, match="stores arrays"):
        run_campaign(
            design, specs, n_runs=n_runs, key=TEST_KEY80, seed=21,
            executor=ExecutorConfig(
                shard_runs=RNG_BLOCK, checkpoint_dir=ck, resume=True
            ),
        )
