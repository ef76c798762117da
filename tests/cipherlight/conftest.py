"""cipherlight: the cipher-agnostic conformance battery.

Every test in this package is parametrized over the cipher registry, so a
newly registered :class:`~repro.ciphers.spn.CipherSpec` inherits the full
battery for free: published/software KAT equivalence, three-backend
differential equivalence, the fault-ordering contract, structural lint of
every countermeasure variant, a single-fault detection smoke sweep, and
chaos/kill-9 campaign recovery.

Environment knobs (both used by CI):

``REPRO_CIPHERLIGHT_ONLY``
    comma-separated cipher names — restrict the battery to those entries
    (the per-cipher CI matrix job sets one name per shard).
``REPRO_CIPHERLIGHT_FULL=1``
    run the battery on *full-round* specs instead of each entry's
    ``fast_rounds`` instance (the nightly deep sweep).
"""

from __future__ import annotations

import os

import pytest

from repro.ciphers.registry import get_entry, registered_ciphers, resolve_cipher
from repro.netlist.builder import CircuitBuilder
from repro.netlist.simulator import Simulator
from repro.synth.sbox_synth import synthesize_sbox

FULL_ROUNDS = os.environ.get("REPRO_CIPHERLIGHT_FULL") == "1"

_only = os.environ.get("REPRO_CIPHERLIGHT_ONLY")
if _only:
    CIPHERS = tuple(resolve_cipher(n) for n in _only.split(","))
else:
    CIPHERS = registered_ciphers()

#: deterministic battery key per cipher (clipped to the key port width)
BATTERY_KEY = 0x2B7E151628AED2A6ABF7158809CF4F3C


def battery_key(spec) -> int:
    return BATTERY_KEY & ((1 << spec.key_bits) - 1)


def build_bare(spec):
    """An unprotected single-core circuit for ``spec`` (no countermeasure).

    This is the cipher-agnostic equivalent of ``build_present_circuit``:
    a plain S-box, the spec's own ``build_core``, and the ciphertext port.
    """
    builder = CircuitBuilder(f"{spec.name}_bare")
    pt = builder.input("plaintext", spec.block_bits)
    key = builder.input("key", spec.key_bits)
    sbox_circuit = synthesize_sbox(spec.sbox.truthtable(), name=f"{spec.name}_sbox")
    core = spec.build_core(builder, pt, key, sbox_circuit=sbox_circuit, tag="u")
    builder.output("ciphertext", core.ciphertext)
    builder.circuit.validate()
    return builder.circuit, core


def run_bare(circuit, spec, keys: list[int], pts: list[int]) -> list[int]:
    """Encrypt a batch on an unprotected circuit; returns ciphertext ints."""
    sim = Simulator(circuit, len(pts))
    sim.set_input_ints("plaintext", pts)
    sim.set_input_ints("key", keys)
    sim.run(spec.rounds)
    sim.eval_comb()
    return sim.get_output_ints("ciphertext")


@pytest.fixture(scope="session", params=CIPHERS)
def cipher_name(request) -> str:
    return request.param


@pytest.fixture(scope="session")
def entry(cipher_name):
    return get_entry(cipher_name)


@pytest.fixture(scope="session")
def fast_spec(entry):
    """The battery spec: reduced-round by default, full-round in nightly."""
    return entry.make(rounds=None if FULL_ROUNDS else entry.fast_rounds)


@pytest.fixture(scope="session")
def protected(fast_spec):
    """The paper's three-in-one design over the battery spec."""
    from repro.countermeasures import build_three_in_one

    return build_three_in_one(fast_spec)
