"""The cipher registry: one name → everything the stack needs.

Every front-end that takes a cipher by name — ``repro certify --cipher``,
``repro submit``/the service request key, the evaluation matrix, the
cipherlight conformance battery, the cipher benchmark suite — resolves
through this table.  Registering a spec here is the *whole* integration
contract: the countermeasure builders, the certifier, the service and the
parametrized test battery are all generic over :class:`CipherSpec`, so a
new cipher inherits the full pipeline (and its test suite) for free.

Each entry records, besides the spec factory:

- ``full_rounds`` — the spec's nominal round count;
- ``fast_rounds`` — a reduced-round instance used by smoke sweeps and the
  CI battery (spec-faithful per round, just fewer iterations);
- ``variants`` — which three-in-one λ-variants the cipher supports (AES's
  MixColumns needs one shared λ, so ``per_sbox`` is excluded there);
- ``aliases`` — accepted spellings (``present`` → ``present80`` …).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.ciphers.spn import CipherSpec

__all__ = [
    "CipherEntry",
    "get_entry",
    "make_spec",
    "register_cipher",
    "registered_ciphers",
    "resolve_cipher",
]


@dataclass(frozen=True)
class CipherEntry:
    """One registered cipher: identity, factory and capability flags."""

    name: str
    factory: Callable[..., CipherSpec]
    full_rounds: int
    fast_rounds: int
    #: three-in-one λ-variants this cipher supports
    variants: tuple[str, ...]
    description: str
    aliases: tuple[str, ...] = ()

    def make(self, *, rounds: int | None = None) -> CipherSpec:
        return self.factory(rounds=rounds)


_REGISTRY: dict[str, CipherEntry] = {}
_ALIASES: dict[str, str] = {}


def register_cipher(entry: CipherEntry) -> CipherEntry:
    """Add a cipher to the registry (idempotent per name)."""
    if entry.name in _REGISTRY:
        raise ValueError(f"cipher {entry.name!r} already registered")
    for alias in entry.aliases:
        if alias in _REGISTRY or alias in _ALIASES:
            raise ValueError(f"cipher alias {alias!r} already registered")
    _REGISTRY[entry.name] = entry
    for alias in entry.aliases:
        _ALIASES[alias] = entry.name
    return entry


def registered_ciphers() -> tuple[str, ...]:
    """Canonical names, in registration order."""
    return tuple(_REGISTRY)


def resolve_cipher(name: str) -> str:
    """Canonicalize ``name`` (case-insensitive, aliases allowed).

    Raises :class:`ValueError` naming the registered ciphers on a miss —
    front-ends surface this verbatim (the CLI at argument-parse time).
    """
    norm = str(name).strip().lower()
    if norm in _REGISTRY:
        return norm
    if norm in _ALIASES:
        return _ALIASES[norm]
    raise ValueError(
        f"unknown cipher {name!r} (registered: {', '.join(_REGISTRY)})"
    )


def get_entry(name: str) -> CipherEntry:
    return _REGISTRY[resolve_cipher(name)]


def make_spec(name: str, *, rounds: int | None = None) -> CipherSpec:
    """Build a spec by registry name; ``rounds=None`` means full-round."""
    return get_entry(name).make(rounds=rounds)


# ------------------------------------------------------- default entries


def _present80(*, rounds: int | None = None) -> CipherSpec:
    from repro.ciphers.netlist_present import PresentSpec

    return PresentSpec(rounds=rounds)


def _gift64(*, rounds: int | None = None) -> CipherSpec:
    from repro.ciphers.netlist_gift import GiftSpec

    return GiftSpec(rounds=rounds)


def _gift128(*, rounds: int | None = None) -> CipherSpec:
    from repro.ciphers.netlist_gift import Gift128Spec

    return Gift128Spec(rounds=rounds)


def _aes128(*, rounds: int | None = None) -> CipherSpec:
    from repro.ciphers.netlist_aes import AesSpec

    return AesSpec(rounds=rounds)


ALL_VARIANTS = ("prime", "per_round", "per_sbox")

register_cipher(CipherEntry(
    name="present80",
    factory=_present80,
    full_rounds=31,
    fast_rounds=4,
    variants=ALL_VARIANTS,
    description="PRESENT-80 (CHES'07): the paper's target design",
    aliases=("present",),
))
register_cipher(CipherEntry(
    name="gift64",
    factory=_gift64,
    full_rounds=28,
    fast_rounds=4,
    variants=ALL_VARIANTS,
    description="GIFT-64-128 (CHES'17): key added after the permutation",
    aliases=("gift",),
))
register_cipher(CipherEntry(
    name="gift128",
    factory=_gift128,
    full_rounds=40,
    fast_rounds=3,
    variants=ALL_VARIANTS,
    description="GIFT-128-128 (CHES'17): 128-bit state, two key words/round",
))
register_cipher(CipherEntry(
    name="aes128",
    factory=_aes128,
    full_rounds=10,
    fast_rounds=3,
    variants=("prime", "per_round"),  # MixColumns needs one shared λ
    description="AES-128 (FIPS-197): non-permutation linear layer",
    aliases=("aes",),
))
