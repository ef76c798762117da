"""Crash-recoverable content-addressed certificate store.

Layout (everything under one ``root`` directory)::

    root/
      certs/<key>.json  one finished certificate per content address,
                        written by Certificate.save (atomic + integrity);
                        the store's only record of a certificate
      work/<key>/       the executor checkpoint directory of an unfinished
                        campaign for that key; removed once the complete
                        certificate is stored

Every durable artefact is written with :mod:`repro.resilience.persist`
(tmp + fsync + ``os.replace``) and carries its own digest, so a
``kill -9`` at any point leaves only (a) verifiable finished artefacts, (b) resumable checkpoint
shards, or (c) garbage that validation rejects.  Recovery is therefore
*read-side*: a missing certificate is a plain miss, and one that fails
its integrity check on ``get`` is discarded (counted, never served) and
recomputed by the caller.

Keys are request keys: 64 lowercase hex characters.  Anything else is a
miss that touches no file, so a key taken raw from a URL can never name
a path outside ``certs/``.

Only **complete** certificates are stored.  A degraded certificate
(deadline/wall-budget truncation, quarantined shards) is returned to its
requester but not cached — its checkpoints stay in ``work/<key>/`` so the
next identical request resumes where it left off and, given enough
budget, completes and *then* enters the cache.  This is what makes a
daemon restart after ``kill -9`` serve the same request to a bit-identical
certificate: either the finished artefact is already in ``certs/``, or the
campaign re-runs over its surviving shards deterministically.

Chaos: certificate writes are followed by a
``chaos.corrupt_file("service.store", ...)`` hook, so the seeded replay
suite can tear/bit-rot exactly these artefacts and assert the recovery
path above.
"""

from __future__ import annotations

import logging
import re
import shutil
from pathlib import Path

from repro.certify.certificate import Certificate, CertificateError
from repro.resilience.chaos import chaos
from repro.telemetry import metrics, trace

__all__ = ["ResultStore"]

log = logging.getLogger(__name__)

_KEY = re.compile(r"[0-9a-f]{64}")


class ResultStore:
    """Content-addressed certificate store: one verified file per key."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.certs_dir = self.root / "certs"
        self.work_root = self.root / "work"
        self.certs_dir.mkdir(parents=True, exist_ok=True)
        self.work_root.mkdir(exist_ok=True)

    def cert_path(self, key: str) -> Path:
        return self.certs_dir / f"{key}.json"

    def work_dir(self, key: str) -> Path:
        """The checkpoint directory for an in-progress campaign on ``key``."""
        return self.work_root / key[:32]

    def get(self, key: str) -> Certificate | None:
        """Fetch and *verify* a stored certificate; a bad one is evicted."""
        if not _KEY.fullmatch(key):
            return None
        path = self.cert_path(key)
        if not path.is_file():
            return None
        try:
            certificate = Certificate.load(path)
        except CertificateError as exc:
            # Bit-rot/torn write since it was stored: never serve it —
            # evict and let the caller recompute deterministically.
            log.warning("stored certificate %s fails validation (%s)", path, exc)
            trace.event("service.store_cert_corrupt", key=key, error=str(exc))
            metrics.inc("service.store.certs_corrupt")
            path.unlink(missing_ok=True)
            return None
        metrics.inc("service.store.hits")
        return certificate

    def put(self, key: str, certificate: Certificate) -> None:
        """Store a *complete* certificate and retire its work directory."""
        if certificate.degraded:
            raise ValueError(
                "refusing to cache a degraded certificate; its checkpoints "
                "remain resumable under work/"
            )
        if not _KEY.fullmatch(key):
            raise ValueError(f"not a request key: {key!r}")
        path = self.cert_path(key)
        certificate.save(path)
        chaos.corrupt_file("service.store", path)
        metrics.inc("service.store.puts")
        shutil.rmtree(self.work_dir(key), ignore_errors=True)

    def keys(self) -> list[str]:
        """The keys of the stored certificate files (unverified)."""
        return sorted(
            p.stem for p in self.certs_dir.glob("*.json")
            if _KEY.fullmatch(p.stem)
        )

    def pending_work(self) -> list[str]:
        """Key prefixes with surviving checkpoints (crash debris to resume)."""
        return sorted(
            p.name for p in self.work_root.iterdir() if p.is_dir()
        ) if self.work_root.exists() else []
