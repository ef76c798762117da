"""The packed cipher reference that campaigns take their expected words from.

``CipherSpec.encrypt_packed`` maps the simulator's packed plaintext lanes to
ciphertext byte rows in software (bitsliced over a bit-major state for
every ``SpnSpec``).  These tests hold it to each cipher's integer oracle
(``spec.reference(key).encrypt``) at full and partial campaign chunks,
hold every registered scheme × cipher netlist's fault-free output to it,
and check that a campaign against a sabotaged netlist no longer agrees
with itself.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

from repro.ciphers.registry import get_entry, make_spec, registered_ciphers
from repro.countermeasures import build_three_in_one
from repro.faults import Outcome, run_campaign
from repro.netlist.gates import GateType
from repro.rng import make_rng, random_ints, random_words
from repro.service.protocol import SCHEMES, build_design
from repro.utils.bits import bytes_to_ints, ints_to_bits, pack_bits
from tests.conftest import TEST_KEY80

#: 2,176 lanes is the last chunk of an 80,000-run campaign, 4,096 a full one
BATCHES = (1, 63, 64, 1000, 2176, 4096, 8192)


def _sampled_lanes(batch: int) -> np.ndarray:
    """Lanes of a large batch checked against the integer oracle: a stride
    coprime to 64 visits every lane position of a word, plus the last."""
    if batch <= 1000:
        return np.arange(batch)
    return np.r_[np.arange(0, batch, 67), batch - 1]


def _key(spec, seed: int) -> int:
    return random_ints(make_rng(seed), 1, spec.key_bits)[0]


@pytest.mark.parametrize(
    "cipher,rounds",
    [("present80", 1), ("present80", 8), ("present80", 31),
     ("gift64", None), ("gift128", None), ("aes128", None)],
)
@pytest.mark.parametrize("batch", BATCHES)
def test_packed_reference_equals_the_cipher(cipher, rounds, batch):
    spec = make_spec(cipher, rounds=rounds)
    key = _key(spec, batch)
    plaintexts = random_ints(make_rng(batch + 1), batch, spec.block_bits)
    words = pack_bits(ints_to_bits(plaintexts, spec.block_bits))
    rows = spec.encrypt_packed(words, key, batch)
    assert rows.shape == (batch, (spec.block_bits + 7) // 8)
    assert rows.dtype == np.uint8
    lanes = _sampled_lanes(batch)
    oracle = spec.reference(key)
    got = bytes_to_ints(rows[lanes])
    assert got == [oracle.encrypt(plaintexts[i]) for i in lanes]


def _pairs():
    for cipher in registered_ciphers():
        entry = get_entry(cipher)
        for scheme in SCHEMES:
            variants = entry.variants if scheme == "three-in-one" else ("prime",)
            for variant in variants:
                label = f"{scheme}-{cipher}-{variant}"
                yield pytest.param(scheme, cipher, variant, id=label)


@pytest.mark.parametrize("scheme,cipher,variant", list(_pairs()))
def test_fault_free_netlists_release_the_reference(scheme, cipher, variant):
    runs = 1024
    rounds = get_entry(cipher).fast_rounds
    design = build_design(scheme, cipher=cipher, variant=variant, rounds=rounds)
    spec = design.spec
    key = _key(spec, 7)
    words = random_words(make_rng(3), runs, spec.block_bits)
    out = design.run(design.simulator(runs), words, key, rng=5)
    assert not out.fault.any()
    np.testing.assert_array_equal(
        out.ciphertext_rows, spec.encrypt_packed(words, key, runs)
    )


def _flip_gates(design, tags: list[str], new_type: GateType):
    """A copy of ``design`` with the first gate under each tag retyped."""
    broken = copy.deepcopy(design)
    circuit = broken.circuit
    for tag in tags:
        index = next(
            i for i, g in enumerate(circuit.gates) if g.tag.startswith(tag)
        )
        gate = dataclasses.replace(circuit.gates[index], gtype=new_type)
        circuit.gates[index] = gate
        circuit._driver[gate.out] = gate
    circuit._topo_cache = circuit._levels_cache = None
    return broken


def test_a_sabotaged_netlist_does_not_agree_with_itself():
    """The same wrong datapath gate in every core, as a generator bug would
    put it, passes the comparator; a fault-free campaign must still see the
    wrong words, because it classifies against the cipher."""
    design = build_three_in_one(make_spec("present80", rounds=3))
    tags = [f"{core.tag}/addkey" for core in design.cores]
    for tag in tags:
        assert design.circuit.find_gates(tag)[0].gtype is GateType.XOR
    broken = _flip_gates(design, tags, GateType.XNOR)

    clean = run_campaign(design, [], n_runs=2048, key=TEST_KEY80, seed=4)
    assert clean.count(Outcome.INEFFECTIVE) == clean.n_runs
    sabotaged = run_campaign(broken, [], n_runs=2048, key=TEST_KEY80, seed=4)
    assert not sabotaged.fault_flags.any()
    assert sabotaged.count(Outcome.EFFECTIVE) == sabotaged.n_runs
    np.testing.assert_array_equal(sabotaged.expected, clean.expected)
