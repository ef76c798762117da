"""Request schema and content addressing for the certification service.

A :class:`CertifyRequest` is the wire form of one certification campaign:
which protected design to build, which slice of its fault space to sweep,
under which seed and key.  Two requests that would provably produce
the same certificate must collapse to the same :func:`request_key` — the
content address under which the daemon dedupes in-flight work and stores
finished certificates.

The key is a SHA-256 over a canonical document combining

- the **netlist hash** (:func:`circuit_digest` over the built design's
  gate list — the same design identity the PR 4 run manifest pins via
  scheme/variant/rounds, but structural, so a builder change invalidates
  stale cache entries),
- the **fault-space selection** (models × cycles, budget, runs/location —
  the inputs of ``enumerate_fault_space`` + the budget sampler), and
- the campaign **seed and key**.

The simulation kernel is not part of the request: the kernels are
bit-exact, so a stored certificate answers a request whatever kernel the
daemon runs (``REPRO_SIM_BACKEND``); the certificate's run manifest
records the one that earned it.

Normalisation happens *before* hashing: ``rounds=None`` resolves to the
cipher's full-round count and ``models=None`` to the default model tuple,
so spelling a default out loud never causes a spurious cache miss.  The
per-request ``deadline_s`` is deliberately **not** part of the identity:
a deadline changes how much of the sweep finishes, not what is being
certified — the store only ever caches *complete* certificates, and a
truncated run leaves its checkpoints behind for the next identical
request to resume and finish.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

__all__ = [
    "CertifyRequest",
    "SCHEMES",
    "build_design",
    "circuit_digest",
    "request_key",
]

#: protected-design builders the service knows how to instantiate
SCHEMES = ("three-in-one", "naive", "acisp20", "triplication")


def build_design(
    scheme: str,
    *,
    cipher: str = "present80",
    variant: str = "prime",
    rounds: int | None = None,
):
    """Instantiate a protected design by name (the CLI's vocabulary).

    ``cipher`` resolves through :mod:`repro.ciphers.registry`, so every
    registered cipher (PRESENT, GIFT-64, GIFT-128, AES-128, …) can be
    wrapped by every scheme; unsupported λ-variants (e.g. ``per_sbox`` on
    AES) are rejected with the registry's capability error before any
    synthesis work.
    """
    from repro.ciphers.registry import get_entry
    from repro.countermeasures import (
        build_acisp20,
        build_naive_duplication,
        build_three_in_one,
        build_triplication,
    )
    from repro.countermeasures.three_in_one import LambdaVariant

    entry = get_entry(cipher)
    if scheme == "three-in-one" and variant not in entry.variants:
        raise ValueError(
            f"cipher {entry.name!r} does not support the {variant!r} λ-variant "
            f"(supported: {', '.join(entry.variants)})"
        )
    spec = entry.make(rounds=rounds)
    if scheme == "three-in-one":
        return build_three_in_one(spec, variant=LambdaVariant(variant))
    if scheme == "naive":
        return build_naive_duplication(spec)
    if scheme == "acisp20":
        return build_acisp20(spec)
    if scheme == "triplication":
        return build_triplication(spec)
    raise ValueError(f"unknown scheme {scheme!r} (known: {', '.join(SCHEMES)})")


def circuit_digest(circuit) -> str:
    """SHA-256 identity of a netlist: every gate's type, pins and init.

    Net ids are allocation-ordered and gates are kept in insertion order,
    so the digest is deterministic for a given builder version and changes
    whenever the synthesised structure does.  Tags are excluded — they are
    labels for humans and fault-space enumeration, not circuit semantics
    (and the enumeration itself is pinned separately via the space digest
    inside the certify checkpoint identity).
    """
    h = hashlib.sha256()
    h.update(f"{circuit.name}:{circuit.num_nets}\n".encode())
    for gate in circuit.gates:
        h.update(
            f"{gate.gtype.value}:{gate.out}:"
            f"{','.join(map(str, gate.ins))}:{gate.init}\n".encode()
        )
    return h.hexdigest()


@dataclass(frozen=True)
class CertifyRequest:
    """One certification campaign, as submitted to the daemon."""

    scheme: str = "three-in-one"
    cipher: str = "present80"
    variant: str = "prime"
    rounds: int | None = None
    budget: int | None = None
    runs_per_location: int = 64
    models: tuple[str, ...] | None = None
    cycles: tuple[int, ...] | None = None
    seed: int = 4
    key: str = "0x0123456789abcdef0123"
    #: wall-clock budget for this request; exceeded → valid *degraded*
    #: certificate via the executor's ``wall_budget`` path.  Not identity.
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        from repro.certify import DEFAULT_MODELS, CertifyConfig
        from repro.ciphers.registry import resolve_cipher

        if self.scheme not in SCHEMES:
            raise ValueError(
                f"unknown scheme {self.scheme!r} (known: {', '.join(SCHEMES)})"
            )
        resolve_cipher(self.cipher)  # raises ValueError listing the registry
        int(self.key, 0)  # must be a parseable integer literal
        # the cipher's spec checks the range of rounds when it is built
        if self.rounds is not None and type(self.rounds) is not int:
            raise ValueError(f"rounds must be an integer, got {self.rounds!r}")
        deadline = self.deadline_s
        if deadline is not None and not (
            type(deadline) in (int, float) and deadline >= 0
        ):
            raise ValueError(
                f"deadline_s must be a non-negative number, got {deadline!r}"
            )
        # the sweep is checked where the certifier's config is, and its
        # cycles against the built design's rounds
        CertifyConfig(
            budget=self.budget,
            runs_per_location=self.runs_per_location,
            models=DEFAULT_MODELS if self.models is None else self.models,
            cycles=self.cycles,
            seed=self.seed,
        )

    @classmethod
    def from_dict(cls, doc: dict) -> "CertifyRequest":
        """Build a request from parsed JSON, rejecting unknown fields."""
        if not isinstance(doc, dict):
            raise ValueError("request body must be a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ValueError(
                f"unknown request field(s): {', '.join(sorted(unknown))}"
            )
        kwargs = dict(doc)
        for name in ("models", "cycles"):
            if isinstance(kwargs.get(name), list):
                kwargs[name] = tuple(kwargs[name])
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "cipher": self.cipher,
            "variant": self.variant,
            "rounds": self.rounds,
            "budget": self.budget,
            "runs_per_location": self.runs_per_location,
            "models": list(self.models) if self.models is not None else None,
            "cycles": list(self.cycles) if self.cycles is not None else None,
            "seed": self.seed,
            "key": self.key,
            "deadline_s": self.deadline_s,
        }

    def normalized(self) -> "CertifyRequest":
        """Resolve every defaultable field to its canonical value."""
        from repro.certify import DEFAULT_MODELS
        from repro.ciphers.registry import resolve_cipher

        return replace(
            self,
            cipher=resolve_cipher(self.cipher),
            models=self.models if self.models is not None else DEFAULT_MODELS,
            key=str(int(self.key, 0)),
        )


def request_key(request: CertifyRequest, design=None) -> str:
    """The content address of a request: netlist hash + sweep identity.

    ``design`` may be passed to reuse an already-built design (the daemon
    caches them); otherwise it is built here.
    """
    norm = request.normalized()
    if design is None:
        design = build_design(
            norm.scheme, cipher=norm.cipher, variant=norm.variant, rounds=norm.rounds
        )
    doc = {
        "kind": "certify-request",
        "netlist": circuit_digest(design.circuit),
        "scheme": norm.scheme,
        "variant": norm.variant,
        "cipher": design.spec.name,
        "rounds": design.spec.rounds,
        "key": norm.key,
        "seed": norm.seed,
        "runs_per_location": norm.runs_per_location,
        "budget": norm.budget,
        "models": list(norm.models),
        "cycles": list(norm.cycles) if norm.cycles is not None else None,
    }
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
