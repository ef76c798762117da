"""The machine-readable coverage certificate.

A certificate is the auditable artefact of one certify run: what space was
swept, how much of it, what happened at every covered location, every
``EFFECTIVE`` witness with enough information to replay it exactly, and a
verdict per paper claim.  Rendering is deterministic — ``sort_keys`` JSON
with all wall-clock data isolated under the single ``timing`` key — so two
runs over the same inputs (including an interrupted-and-resumed run) emit
byte-identical documents once ``timing`` is dropped; the test suite and CI
diff them that way.

Integrity: :meth:`Certificate.save` writes atomically and embeds an
``integrity`` block (SHA-256 over the canonical rendering of everything
else).  :meth:`Certificate.load` re-verifies it — a certificate that was
torn mid-write, bit-rotted, hand-edited or stripped of the block raises
:class:`CertificateError`, which the CLI maps to the documented exit
code 3 (artefact mismatch), the same family as a foreign checkpoint.
A certificate is a *security verdict*; trusting a corrupted one silently
would defeat the whole exercise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.resilience.persist import atomic_write_text, sha256_bytes

__all__ = ["CERTIFICATE_VERSION", "Certificate", "CertificateError"]

CERTIFICATE_VERSION = 1


class CertificateError(ValueError):
    """A certificate document is unreadable, unversioned or fails integrity."""


def _canonical_digest(doc: dict) -> str:
    """SHA-256 over the canonical (sorted, compact) JSON of ``doc``."""
    return sha256_bytes(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    )


@dataclass
class Certificate:
    """Everything a certify run asserts, in JSON-safe form."""

    scheme: str
    variant: str | None
    cipher: str
    rounds: int
    key: str
    seed: int
    runs_per_location: int
    #: enumeration summary: total size, per-model sizes, space digest
    space: dict
    #: locations_total / locations_covered / runs_executed / fraction /
    #: sampled / budget / stopped_early / failed_shards
    coverage: dict
    #: :meth:`repro.netlist.analysis.LintReport.to_dict` of the preamble
    lint: dict
    #: aggregate outcome histograms keyed ``model/fault_type``
    histograms: dict
    #: per-location records: ``[space_index, [ineff, det, eff, inf]]``
    locations: list = field(default_factory=list)
    #: every EFFECTIVE location (capped), each with a replayable recipe
    witnesses: list = field(default_factory=list)
    #: claim → verdict dict (``status`` plus claim-specific evidence)
    verdicts: dict = field(default_factory=dict)
    #: wall-clock data; everything volatile lives here and only here
    timing: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """True when every applicable verdict passed."""
        return all(
            v.get("status") in ("pass", "not_applicable")
            for v in self.verdicts.values()
        )

    @property
    def degraded(self) -> bool:
        """True when the sweep lost coverage to quarantine or a wall budget.

        A degraded certificate is still *valid* — its verdicts hold over
        exactly the covered locations, and ``coverage`` accounts for the
        uncovered remainder explicitly — but it is not the full claim.
        """
        return bool(self.coverage.get("degraded")) or any(
            v.get("degraded") for v in self.verdicts.values()
        )

    def to_dict(self, *, include_timing: bool = True) -> dict:
        doc = {
            "version": CERTIFICATE_VERSION,
            "scheme": self.scheme,
            "variant": self.variant,
            "cipher": self.cipher,
            "rounds": self.rounds,
            "key": self.key,
            "seed": self.seed,
            "runs_per_location": self.runs_per_location,
            "space": self.space,
            "coverage": self.coverage,
            "lint": self.lint,
            "histograms": self.histograms,
            "locations": self.locations,
            "witnesses": self.witnesses,
            "verdicts": self.verdicts,
        }
        if include_timing:
            doc["timing"] = self.timing
        return doc

    def render(self, *, include_timing: bool = True) -> str:
        """Deterministic JSON text (see module docstring)."""
        return json.dumps(
            self.to_dict(include_timing=include_timing),
            indent=1,
            sort_keys=True,
        )

    def save(self, path) -> None:
        """Atomically persist the certificate with an integrity digest."""
        doc = self.to_dict()
        doc["integrity"] = {
            "algorithm": "sha256",
            "digest": _canonical_digest(doc),
        }
        atomic_write_text(
            path, json.dumps(doc, indent=1, sort_keys=True) + "\n"
        )

    @classmethod
    def from_dict(cls, doc: dict) -> "Certificate":
        if doc.get("version") != CERTIFICATE_VERSION:
            raise CertificateError(
                f"unsupported certificate version {doc.get('version')!r}"
            )
        return cls(
            scheme=doc["scheme"],
            variant=doc["variant"],
            cipher=doc["cipher"],
            rounds=doc["rounds"],
            key=doc["key"],
            seed=doc["seed"],
            runs_per_location=doc["runs_per_location"],
            space=doc["space"],
            coverage=doc["coverage"],
            lint=doc["lint"],
            histograms=doc["histograms"],
            locations=doc.get("locations", []),
            witnesses=doc.get("witnesses", []),
            verdicts=doc.get("verdicts", {}),
            timing=doc.get("timing", {}),
        )

    @classmethod
    def load(cls, path) -> "Certificate":
        """Load and *verify* a certificate (schema version + checksum).

        Raises :class:`CertificateError` on an unparseable document, an
        unsupported schema version, a malformed structure, a missing
        ``integrity`` block, or an integrity digest that does not match
        the content.
        """
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise CertificateError(
                f"unreadable certificate {path}: {exc}"
            ) from exc
        if not isinstance(doc, dict):
            raise CertificateError(
                f"certificate {path} is not a JSON object"
            )
        integrity = doc.pop("integrity", None)
        try:
            certificate = cls.from_dict(doc)  # checks the version first
        except (KeyError, TypeError) as exc:
            raise CertificateError(
                f"malformed certificate {path}: missing/invalid {exc}"
            ) from exc
        if not isinstance(integrity, dict):
            raise CertificateError(f"certificate {path} has no integrity block")
        if integrity.get("digest") != _canonical_digest(doc):
            raise CertificateError(
                f"certificate {path} fails its integrity checksum "
                f"(torn write, bit-rot, or out-of-band edit)"
            )
        return certificate

    def summary(self) -> str:
        """A short human-readable digest for CLI output."""
        cov = self.coverage
        lines = [
            f"certificate: {self.scheme}"
            + (f" ({self.variant})" if self.variant else "")
            + f" on {self.cipher}, {self.rounds} rounds",
            f"space: {self.space['total']} locations "
            + " ".join(f"{m}={n}" for m, n in sorted(self.space["per_model"].items())),
            f"coverage: {cov['locations_covered']}/{cov['locations_total']} "
            f"locations ({cov['fraction']:.4f})"
            + (" [stratified sample]" if cov["sampled"] else " [exhaustive]")
            + f", {cov['runs_executed']} faulted runs",
        ]
        if self.degraded:
            lines.append(
                f"DEGRADED: {cov.get('locations_uncovered', 0)} planned "
                f"location(s) uncovered "
                f"({len(cov.get('failed_shards', []))} quarantined shard(s)"
                + (
                    ", wall budget exhausted"
                    if cov.get("budget_exhausted")
                    else ""
                )
                + ")"
            )
        for claim, verdict in sorted(self.verdicts.items()):
            lines.append(f"verdict {claim}: {verdict['status']}")
        if self.witnesses:
            w = self.witnesses[0]
            lines.append(
                f"witnesses: {len(self.witnesses)} EFFECTIVE location(s); first: "
                f"{w['scenario']['label']} (replay: seed={w['seed']}, "
                f"run={w['run']})"
            )
        else:
            lines.append("witnesses: none")
        return "\n".join(lines)
