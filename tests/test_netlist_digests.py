"""Pinned netlists: every scheme wrapped around every registered cipher.

Each design is built at two rounds through ``service.protocol.build_design``
(the CLI's and the service's vocabulary) and hashed gate for gate: type,
input nets, output net, reset value and tag, then every port's nets.  A
digest moves only when the synthesised structure does, so a refactor of
the builders or the synthesis flow that should keep the bits must leave
this table untouched.
"""

import hashlib

import pytest

from repro.ciphers.registry import registered_ciphers
from repro.service.protocol import SCHEMES, build_design

ROUNDS = 2

#: (scheme, cipher) -> sha256 of ``netlist_digest`` at ``ROUNDS`` rounds
DIGESTS = {
    ("three-in-one", "present80"): "d3046b27032f2a9bb0f3215f617e66b086746cc471d447d5beb0e64ff00bb0e8",
    ("three-in-one", "gift64"): "7c6b9c88561e4c8da2cd5e25e37ebe60f088d07fdb27bde1df620ac379c57dfb",
    ("three-in-one", "gift128"): "4276f3eaffca1fdc9346c5f5f27de4b43d26274a299a5a08c4f266c0c854ce16",
    ("three-in-one", "aes128"): "0e862d1e2d4a53057f01af44e47b3ac190cb73585584fc8f27608fedde04296d",
    ("naive", "present80"): "b10b2bece492dfb98e8eb1dd610710e499d9d4d6780b0b6da7c456c6e0151ced",
    ("naive", "gift64"): "db2c3a5b65d7ae5015202cd5539b93bc299dc7379a8e62a34fbccc6c59459628",
    ("naive", "gift128"): "ca2f12ade5a7f8b786003ef96b9d7cf8905c27c486423858caf08a329bf9b2bc",
    ("naive", "aes128"): "b774500f9c10ff13edccd5b53a39c1d209653f96be2b1355c676e0b36c518b2c",
    ("acisp20", "present80"): "7491ffc016400c9a3e8a6417fdaf16d2ff72db560999efbd68dbe67086d5806c",
    ("acisp20", "gift64"): "67c77f45e8957525e389831863c9afb72ed40108b16add86664fd195b430ea41",
    ("acisp20", "gift128"): "4a79b2bea0c07576a73757eab91716736bafd5461eafd22455811d7c368dc490",
    ("acisp20", "aes128"): "37e04b1ed3b8d78737779f7451b683127aa60e40cbf5ae84763ba8bdbdceb992",
    ("triplication", "present80"): "886cc20c713bcda618f6abdf45a3264a62326245bc7bd5b06255c18b7e12d691",
    ("triplication", "gift64"): "abe5ad1f057f1bcbb524b16530ce1df9febf922f638680c521c2624db555189d",
    ("triplication", "gift128"): "fb0299a536520d2fae424db50f6107075690277547a98d826f166d7b6aaa2867",
    ("triplication", "aes128"): "030d8a8f5f7221f09306d18fa63494541431b3756308ede1e192c65577d1ea57",
}


def netlist_digest(circuit) -> str:
    h = hashlib.sha256()
    for gate in circuit.gates:
        h.update(
            f"{gate.gtype.value}:{','.join(map(str, gate.ins))}:{gate.out}:"
            f"{gate.init}:{gate.tag}\n".encode()
        )
    for kind, ports in (("in", circuit.inputs), ("out", circuit.outputs)):
        for name, nets in ports.items():
            h.update(f"{kind}:{name}:{','.join(map(str, nets))}\n".encode())
    return h.hexdigest()


def test_every_scheme_and_cipher_is_pinned():
    assert set(DIGESTS) == {(s, c) for s in SCHEMES for c in registered_ciphers()}


@pytest.mark.parametrize("scheme,cipher", sorted(DIGESTS))
def test_netlist_digest_is_pinned(scheme, cipher):
    design = build_design(scheme, cipher=cipher, rounds=ROUNDS)
    assert netlist_digest(design.circuit) == DIGESTS[scheme, cipher]
