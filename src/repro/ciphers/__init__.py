"""Cipher reference models and gate-level datapath generators.

Each cipher appears twice:

- a *reference* implementation (``present``, ``aes``, ``gift``) — pure
  integer spec code, validated against published test vectors where those
  exist; it is the oracle every netlist and countermeasure is tested
  against;
- a *netlist* generator (``netlist_present``, ``netlist_gift``,
  ``netlist_aes``, ``netlist_sbox_layer``) — a round-iterative hardware
  datapath built on :mod:`repro.netlist`, which is what the fault
  campaigns attack.

The :mod:`~repro.ciphers.registry` maps cipher names to spec factories;
every by-name front-end (CLI, service, evaluation matrix, the cipherlight
battery) resolves through it.
"""

from repro.utils.lazy import lazy_exports

__all__ = [
    "AES128",
    "CipherEntry",
    "Gift64",
    "Gift128",
    "Present80",
    "SBox",
    "get_entry",
    "make_spec",
    "register_cipher",
    "registered_ciphers",
    "resolve_cipher",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "AES128": "repro.ciphers.aes",
        "CipherEntry": "repro.ciphers.registry",
        "get_entry": "repro.ciphers.registry",
        "Gift128": "repro.ciphers.gift",
        "Gift64": "repro.ciphers.gift",
        "make_spec": "repro.ciphers.registry",
        "Present80": "repro.ciphers.present",
        "register_cipher": "repro.ciphers.registry",
        "registered_ciphers": "repro.ciphers.registry",
        "resolve_cipher": "repro.ciphers.registry",
        "SBox": "repro.ciphers.sbox",
    },
)
