"""Fig. 4/5 series and the round sweep reduce a campaign chunk by chunk.

The in-process series and sweep never hold a campaign's arrays: they
reduce :func:`repro.faults.campaign.campaign_chunks`.  These tests hold
them to the whole-campaign path: the sharded ``run_campaign`` for the
series, a plain ``run_campaign`` for the sweep.  9,000 runs end on a
partial chunk (two of 4,096 runs, then 808) and a partial RNG block.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ciphers.registry import make_spec
from repro.countermeasures import build_naive_duplication, build_three_in_one
from repro.evaluation.figures import figure4, figure5
from repro.evaluation.matrix import DEFAULT_KEY, run_round_sweep
from repro.faults import ExecutorConfig, FaultSpec, FaultType, Outcome, run_campaign
from repro.faults.campaign import CHUNK, RNG_BLOCK, campaign_chunks
from repro.faults.models import last_round, sbox_input_net

N_RUNS = 9_000
assert N_RUNS % CHUNK and N_RUNS % RNG_BLOCK and N_RUNS > 2 * CHUNK


def assert_same_series(streamed, sharded):
    assert streamed.scheme == sharded.scheme
    assert streamed.n_runs == sharded.n_runs == N_RUNS
    assert streamed.counts == sharded.counts
    assert sum(streamed.counts.values()) == N_RUNS
    np.testing.assert_array_equal(streamed.distribution, sharded.distribution)
    assert streamed.sei == sharded.sei
    assert streamed.faulty_released == sharded.faulty_released


@pytest.mark.parametrize("figure", [figure4, figure5])
def test_streamed_series_equal_sharded(figure):
    streamed = figure(n_runs=N_RUNS)
    sharded = figure(n_runs=N_RUNS, executor=ExecutorConfig(jobs=1))
    for scheme in ("naive", "ours"):
        assert_same_series(getattr(streamed, scheme), getattr(sharded, scheme))
    if figure is figure5:  # naive duplication releases faulty ciphertexts
        assert streamed.naive.faulty_released > 0
        assert streamed.ours.faulty_released == 0


def test_campaign_chunks_concatenate_to_the_campaign(naive_design):
    core = naive_design.cores[0]
    specs = [FaultSpec.at(sbox_input_net(core, 13, 2), FaultType.STUCK_AT_0, last_round(core))]
    whole = run_campaign(naive_design, specs, n_runs=N_RUNS, key=DEFAULT_KEY, seed=3)
    chunks = list(
        campaign_chunks(naive_design, specs, n_runs=N_RUNS, key=DEFAULT_KEY, seed=3)
    )
    assert [c.n_runs for c in chunks] == [CHUNK, CHUNK, N_RUNS - 2 * CHUNK]
    for name in ("plaintext", "released", "expected", "fault_flags", "outcomes"):
        np.testing.assert_array_equal(
            np.concatenate([getattr(c, name) for c in chunks]), getattr(whole, name)
        )


def test_round_sweep_rows_match_run_campaign():
    n_runs, rounds = 5_000, (1, 31)
    rows = run_round_sweep(n_runs, rounds=rounds)
    spec = make_spec("present80")
    designs = (build_naive_duplication(spec), build_three_in_one(spec))
    for row, round_ in zip(rows, rounds, strict=True):
        want: list = [round_]
        for design in designs:
            net = sbox_input_net(design.cores[0], 13, 2)
            fault = FaultSpec.at(net, FaultType.STUCK_AT_0, round_ - 1)
            res = run_campaign(
                design, [fault], n_runs=n_runs, key=DEFAULT_KEY, seed=round_
            )
            want += [res.rate(Outcome.INEFFECTIVE), res.count(Outcome.EFFECTIVE)]
        assert row == want
