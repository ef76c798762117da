"""sha256 pins on the bits of one encryption pass.

The golden certificate covers only static λ, and the range-run oracle
calls the same ``ProtectedDesign.run`` it checks.  These digests were
computed when dynamic λ was still streamed through a per-cycle input
callback and a pinned λ was written as an input row: a dynamic-λ campaign
whose probabilistic fault masks are drawn before λ, and power traces with
λ pinned and with λ drawn fresh every round.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.ciphers.netlist_present import PresentSpec
from repro.countermeasures import LambdaVariant, RecoveryPolicy, build_three_in_one
from repro.faults import FaultSpec, FaultType, run_campaign
from repro.faults.models import last_round, sbox_input_net
from repro.sca import LeakageModel, power_trace
from tests.conftest import TEST_KEY80

FIXED_PT = 0x0123456789ABCDEF
TRACES = 64


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def _core_a_state(design) -> list[int]:
    """Core a's state register: a probe whose weight follows λ."""
    return [
        g.out for g in design.circuit.dffs() if g.tag.startswith("a/state")
    ]


def test_dynamic_lambda_campaign_is_pinned():
    design = build_three_in_one(
        PresentSpec(rounds=3),
        variant=LambdaVariant.PER_SBOX,
        policy=RecoveryPolicy.RANDOM_GARBAGE,
    )
    cycle = last_round(design.cores[0])
    specs = [
        FaultSpec.at(
            sbox_input_net(core, 3, 2), FaultType.STUCK_AT_0, cycle,
            probability=0.3, group="event",
        )
        for core in design.cores
    ]
    res = run_campaign(design, specs, n_runs=1500, key=TEST_KEY80, seed=23)
    assert 0 < res.fault_flags.sum() < res.n_runs
    assert _digest(
        res.plaintext, res.released, res.expected, res.fault_flags, res.outcomes
    ) == "c6760a2bd625e0516832c1906075204b35148b76e5f355751697f13472e81bf8"


@pytest.mark.parametrize(
    "pin, model, want",
    [
        (0, LeakageModel.HAMMING_WEIGHT,
         "33f225a09e4a01175df61b337efca94277159304e355662dfba3158b8fbb6eee"),
        (1, LeakageModel.HAMMING_WEIGHT,
         "6f428280912ca2a7639866ed3444429207165b95d4eb2bb23a9216be7915f431"),
        (0, LeakageModel.HAMMING_DISTANCE,
         "e31ae069efdfa5452c2244bc47b8d207da7b9352508b4e119a0ff9aa6d9ff2bd"),
        (1, LeakageModel.HAMMING_DISTANCE,
         "1b50a07c6638722edc30eace61dd7e0ca7902ff831349f460cbcb53f9498eaf2"),
    ],
)
def test_pinned_lambda_traces_are_pinned(ours_prime, pin, model, want):
    traces = power_trace(
        ours_prime, [FIXED_PT] * TRACES, TEST_KEY80, model=model,
        nets=_core_a_state(ours_prime), lambda_pin=pin, rng=3,
    )
    assert _digest(traces) == want


def test_drawn_per_round_lambda_traces_are_pinned(ours_per_round):
    traces = power_trace(
        ours_per_round, [FIXED_PT] * TRACES, TEST_KEY80,
        model=LeakageModel.HAMMING_WEIGHT, nets=_core_a_state(ours_per_round),
        rng=5,
    )
    assert _digest(traces) == (
        "cc5f3e8536c7969190cee1ae43d67bb7954a3ceaf37dd3e16267e43bd13ac264"
    )
