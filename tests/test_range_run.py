"""Build once, reference once: the bits stay pinned.

``run_range`` reuses one simulator per batch size and a certify shard
shares one draw and one fault-free reference across its locations
(:class:`repro.faults.campaign.RangeRun`).  These tests hold that path to
the loop it replaced — two fresh simulators per chunk, a clean twin and a
faulty one — to a golden certificate digest, and to its build counts.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.certify import CertifyConfig, certify_design
from repro.ciphers.netlist_present import PresentSpec
from repro.countermeasures import LambdaVariant, RecoveryPolicy, build_three_in_one
from repro.faults import FaultSpec, FaultType
from repro.faults.campaign import RNG_BLOCK, RangeRun, range_rng, run_range
from repro.faults.injector import FaultInjector
from repro.faults.models import last_round, sbox_input_net
from repro.netlist.simulator import BACKENDS, Simulator
from repro.rng import random_bits
from repro.utils.bits import bits_to_bytes, bits_to_ints
from tests.conftest import TEST_KEY80

#: sha256 of the timing-free rendering of the certificate produced by
#: ``_golden_certificate`` — computed with the two-simulators-per-location
#: certifier, so any drift in the bits of certify fails here
GOLDEN_CERTIFICATE_SHA256 = (
    "e5e63581cc10d4aa3b9349c3277ad9eb5820b69ccbe4600c8e6cd57b3230f040"
)


def two_simulator_range(design, specs, *, key, seed, lo, hi, chunk, backend):
    """The oracle: a fresh clean twin and a fresh faulty simulator per chunk.

    Words are packed into byte rows only at the end, the layout
    ``run_range`` returns."""
    block = design.spec.block_bits
    chunk = max(RNG_BLOCK, chunk - chunk % RNG_BLOCK)
    parts: tuple[list, list, list, list] = ([], [], [], [])
    start = lo
    while start < hi:
        stop = min(start + chunk, hi)
        batch = stop - start
        rng = range_rng(seed, start, stop)
        pts_bits = random_bits(rng, batch, block)
        pts = bits_to_ints(pts_bits)
        clean_sim = design.simulator(batch, backend=backend)
        clean = design.run(clean_sim, pts, key, rng=rng)
        injector = FaultInjector(specs, batch, rng=rng)
        fault_sim = design.simulator(batch, faults=injector, backend=backend)
        faulted = design.run(fault_sim, pts, key, rng=rng)
        arrays = (
            bits_to_bytes(pts_bits),
            bits_to_bytes(faulted["ciphertext"]),
            bits_to_bytes(clean["ciphertext"]),
            faulted["fault"],
        )
        for part, array in zip(parts, arrays):
            part.append(array)
        start = stop
    return tuple(np.concatenate(part) for part in parts)


@pytest.fixture(scope="module")
def spec3() -> PresentSpec:
    return PresentSpec(rounds=3)


@pytest.fixture(scope="module")
def designs(spec3):
    return {
        # one λ bit per invocation, suppression: no garbage draws
        "static": build_three_in_one(spec3),
        # λ streamed every cycle plus a garbage word: both passes draw
        "dynamic": build_three_in_one(
            spec3,
            variant=LambdaVariant.PER_SBOX,
            policy=RecoveryPolicy.RANDOM_GARBAGE,
        ),
    }


def scenario(design, name: str) -> list[FaultSpec]:
    cycle = last_round(design.cores[0])
    if name == "masked":
        return [
            FaultSpec.at(
                sbox_input_net(design.cores[0], 5, 1),
                FaultType.BIT_FLIP,
                cycle,
                probability=0.5,
            )
        ]
    if name == "coupled":
        return [
            FaultSpec.at(
                sbox_input_net(core, 3, 2),
                FaultType.STUCK_AT_0,
                cycle,
                probability=0.3,
                group="event",
            )
            for core in design.cores
        ]
    assert name == "stuck"
    return [
        FaultSpec.at(
            sbox_input_net(design.cores[1], 9, 0), FaultType.STUCK_AT_1, cycle
        )
    ]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("variant", ["static", "dynamic"])
@pytest.mark.parametrize("name", ["masked", "coupled"])
def test_run_range_matches_two_simulator_loop(
    designs, backend, variant, name, monkeypatch
):
    monkeypatch.setenv("REPRO_SIM_BACKEND", backend)
    design = designs[variant]
    specs = scenario(design, name)
    # two chunks: a full one and a partial one of 100 runs (not a
    # multiple of 64), starting past the first RNG block
    window = dict(
        key=TEST_KEY80, seed=23, lo=RNG_BLOCK, hi=2 * RNG_BLOCK + 100,
        chunk=RNG_BLOCK,
    )
    got = run_range(design, specs, **window)
    want = two_simulator_range(design, specs, **window, backend=backend)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    assert got[3].any(), "the scenario must be sensed in some runs"


def test_faulted_passes_are_independent_of_order(designs):
    """A shared RangeRun gives each scenario exactly its own run_range bits,
    whatever scenarios ran before it on the same simulator."""
    design = designs["dynamic"]
    names = ["masked", "coupled", "stuck"]
    runs = 200
    want = {
        n: run_range(
            design, scenario(design, n), key=TEST_KEY80, seed=5, lo=0, hi=runs
        )
        for n in names
    }
    run = RangeRun(design, design.simulator(runs), key=TEST_KEY80, seed=5, lo=0)
    for n in names + names[::-1]:
        released, flags = run.faulted(scenario(design, n))
        pt, rel, exp, fl = want[n]
        np.testing.assert_array_equal(run.plaintext, pt)
        np.testing.assert_array_equal(run.expected, exp)
        np.testing.assert_array_equal(released, rel)
        np.testing.assert_array_equal(flags, fl)


def _golden_certificate(design, jobs: int):
    config = CertifyConfig(
        budget=128 * 64, runs_per_location=64, seed=11, jobs=jobs
    )
    return certify_design(design, key=TEST_KEY80, config=config)


@pytest.mark.parametrize("jobs", [1, 2])
def test_certificate_bits_are_pinned(jobs):
    design = build_three_in_one(PresentSpec(rounds=8))
    cert = _golden_certificate(design, jobs)
    assert cert.coverage["locations_covered"] == 128
    digest = hashlib.sha256(
        cert.render(include_timing=False).encode()
    ).hexdigest()
    assert digest == GOLDEN_CERTIFICATE_SHA256


@pytest.fixture
def builds(monkeypatch):
    """Counts ``Simulator.__init__`` calls, grouped by batch size."""
    counts: dict[int, int] = {}
    original = Simulator.__init__

    def counting(self, circuit, batch, **kwargs):
        counts[batch] = counts.get(batch, 0) + 1
        original(self, circuit, batch, **kwargs)

    monkeypatch.setattr(Simulator, "__init__", counting)
    return counts


def test_run_range_builds_one_simulator_per_batch_size(designs, builds):
    design = designs["static"]
    specs = scenario(design, "stuck")
    run_range(
        design, specs, key=TEST_KEY80, seed=3, lo=0, hi=3 * RNG_BLOCK,
        chunk=RNG_BLOCK,
    )
    assert builds == {RNG_BLOCK: 1}
    builds.clear()
    run_range(
        design, specs, key=TEST_KEY80, seed=3, lo=0, hi=3 * RNG_BLOCK + 100,
        chunk=RNG_BLOCK,
    )
    assert builds == {RNG_BLOCK: 1, 100: 1}


def test_certify_builds_one_simulator_per_shard(designs, builds):
    runs, shards = 16, 3
    cert = certify_design(
        designs["static"],
        key=TEST_KEY80,
        config=CertifyConfig(
            budget=shards * 64 * runs, runs_per_location=runs,
            shard_locations=64, seed=2,
        ),
    )
    assert cert.coverage["locations_covered"] == shards * 64
    assert builds == {runs: shards}
