"""Known-answer conformance: published vectors, netlist vs model vs KAT.

Three layers, per registered cipher:

1. the *software model* must hit every published test vector (and invert
   it — decrypt round-trips through the same schedule);
2. the *full-round netlist* must hit the same vectors, batched, proving
   the datapath and the software model agree on exactly the points the
   spec authors pinned;
3. the *reduced-round regression vectors* (``vectors.REDUCED``) must hold
   for both model and netlist, guarding the round-reduction plumbing.
"""

from __future__ import annotations

import pytest

from tests.cipherlight.conftest import build_bare, run_bare
from tests.cipherlight.vectors import PUBLISHED, REDUCED


def test_every_registered_cipher_has_vectors(cipher_name):
    assert cipher_name in PUBLISHED, (
        f"{cipher_name} is registered but has no published vectors; "
        "add them to tests/cipherlight/vectors.py"
    )
    assert cipher_name in REDUCED


def test_published_vectors_software_model(cipher_name, entry):
    spec = entry.make()
    for key, pt, want in PUBLISHED[cipher_name]:
        cipher = spec.reference(key)
        got = cipher.encrypt(pt)
        assert got == want, f"{cipher_name}: {got:#x} != {want:#x}"
        assert cipher.decrypt(want) == pt


def test_published_vectors_full_round_netlist(cipher_name, entry):
    spec = entry.make()
    circuit, _ = build_bare(spec)
    vectors = PUBLISHED[cipher_name]
    keys = [key for key, _, _ in vectors]
    pts = [pt for _, pt, _ in vectors]
    got = run_bare(circuit, spec, keys, pts)
    for (key, pt, want), ct in zip(vectors, got):
        assert ct == want, f"{cipher_name}: netlist {ct:#x} != KAT {want:#x}"
        # triangle closed: netlist == known answer == software model
        assert ct == spec.reference(key).encrypt(pt)


def test_reduced_round_regression(cipher_name, entry):
    rounds, key, pt, want = REDUCED[cipher_name]
    assert rounds == entry.fast_rounds, (
        f"{cipher_name}: fast_rounds changed; re-pin vectors.REDUCED"
    )
    spec = entry.make(rounds=rounds)
    assert spec.rounds == rounds
    got = spec.reference(key).encrypt(pt)
    assert got == want, f"{cipher_name}/r{rounds}: model {got:#x} != {want:#x}"
    circuit, _ = build_bare(spec)
    (ct,) = run_bare(circuit, spec, [key], [pt])
    assert ct == want, f"{cipher_name}/r{rounds}: netlist {ct:#x} != {want:#x}"


def test_rounds_out_of_range_rejected(entry):
    with pytest.raises(ValueError, match="rounds"):
        entry.make(rounds=0)
    with pytest.raises(ValueError, match="rounds"):
        entry.make(rounds=entry.full_rounds + 1)


@pytest.mark.parametrize("rounds", [2.5, True, "8"], ids=["float", "bool", "str"])
def test_non_integer_rounds_rejected(entry, rounds):
    """Spec and software reference both refuse a round count that is not
    an int (``True`` would otherwise build a one-round cipher)."""
    with pytest.raises(ValueError, match="rounds must be an integer"):
        entry.make(rounds=rounds)
    reference = type(entry.make(rounds=entry.fast_rounds).reference(1))
    with pytest.raises(ValueError, match="rounds must be an integer"):
        reference(1, rounds=rounds)
