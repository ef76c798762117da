"""On-disk checkpointing for sharded fault campaigns.

Layout of a checkpoint directory::

    manifest.json       campaign identity + per-shard status ledger
    shard_00000.npz     arrays of shard 0 (plaintext/released/expected byte rows,
                        fault flags)
    shard_00001.npz     ...

The manifest is the source of truth for resume: it pins the campaign
identity (scheme, key, seed, n_runs, shard size, serialised fault specs)
and records, per shard, its run range, status (``pending`` / ``done`` /
``quarantined``), attempt count, SHA-256 digest of the shard arrays, the
last error message and its :class:`~repro.resilience.errors.ErrorKind`.

Crash safety: every write — the manifest *and* each shard ``.npz`` — is
atomic (tempfile + fsync + ``os.replace`` via
:mod:`repro.resilience.persist`), so a ``kill -9`` mid-write never leaves
a torn artefact under the final name.  Every artefact also carries a
content digest checked on load: a shard that fails its digest is simply
recomputed; a manifest that fails its checksum (or cannot be parsed)
raises :class:`CheckpointCorrupt`, which the executor treats as "no
usable checkpoint" and recovers from by starting a fresh ledger —
corruption costs recomputation, never a crash and never silent trust.

A manifest that parses and verifies but describes a *different* campaign
than the one being resumed raises plain :class:`CheckpointError` — that
is an operator error (wrong directory), and silently mixing shards from
two campaigns would corrupt results.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zipfile
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.resilience.chaos import chaos
from repro.resilience.persist import atomic_write_text, sha256_bytes
from repro.telemetry import run_manifest

__all__ = [
    "CheckpointCorrupt",
    "CheckpointError",
    "CheckpointStore",
    "ShardRecord",
]

MANIFEST_NAME = "manifest.json"
#: Bumped whenever shard contents from the same parameters would change:
#: 2 = a fault on an input or constant lasts only its cycle (version 1
#: shards kept it for the rest of the run).
MANIFEST_VERSION = 2

#: Array keys persisted per shard, in digest order.  The words are byte
#: rows (:mod:`repro.utils.bits`); checkpoints written when shards held bit
#: matrices under ``*_bits`` keys fail the manifest's key check on resume.
SHARD_KEYS = ("plaintext", "released", "expected", "fault_flags")


class CheckpointError(RuntimeError):
    """A checkpoint directory is unusable or belongs to another campaign."""


class CheckpointCorrupt(CheckpointError):
    """The manifest is torn, unparseable or fails its checksum.

    Recoverable: the ledger carries no results of its own (shards are
    digest-verified independently), so the executor may start a fresh
    ledger and recompute — as opposed to the identity mismatches plain
    :class:`CheckpointError` signals, which need an operator decision.
    """


@dataclass
class ShardRecord:
    """One shard's entry in the manifest ledger."""

    index: int
    lo: int
    hi: int
    status: str = "pending"  # pending | done | quarantined (legacy: failed)
    attempts: int = 0
    digest: str = ""
    error: str = ""
    #: :class:`repro.resilience.errors.ErrorKind` of the last failure
    error_kind: str = ""

    @property
    def n_runs(self) -> int:
        return self.hi - self.lo


def shard_digest(
    arrays: dict[str, np.ndarray], keys: tuple[str, ...] = SHARD_KEYS
) -> str:
    """SHA-256 over the shard's arrays in canonical key order."""
    h = hashlib.sha256()
    for key in keys:
        a = np.ascontiguousarray(arrays[key])
        h.update(key.encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


class CheckpointStore:
    """Reads and writes one campaign's checkpoint directory.

    ``keys`` names the arrays each shard persists (first key's leading
    dimension must equal the shard's item count).  Campaigns use the
    default :data:`SHARD_KEYS`; the coverage certifier stores per-location
    outcome counts instead.  The key set is pinned in the manifest, so
    resuming with a different key set raises :class:`CheckpointError`
    rather than mixing incompatible shards.
    """

    def __init__(self, directory, *, keys: tuple[str, ...] = SHARD_KEYS) -> None:
        self.directory = Path(directory)
        self.manifest_path = self.directory / MANIFEST_NAME
        self.keys = tuple(keys)
        self.config: dict = {}
        self.shards: dict[int, ShardRecord] = {}
        #: environment snapshot (git rev, versions, ...) of the run that
        #: created the ledger — informational only, never part of the
        #: campaign identity compared on resume.
        self.environment: dict = {}

    # ------------------------------------------------------------- lifecycle

    @property
    def exists(self) -> bool:
        return self.manifest_path.exists()

    def create(self, config: dict, ranges: list[tuple[int, int]]) -> None:
        """Start a fresh ledger for ``config`` with one record per range."""
        self.directory.mkdir(parents=True, exist_ok=True)
        self.config = dict(config)
        self.environment = run_manifest(kind="checkpoint")
        self.shards = {
            i: ShardRecord(index=i, lo=lo, hi=hi)
            for i, (lo, hi) in enumerate(ranges)
        }
        self.flush()

    def load(self, expected_config: dict | None = None) -> None:
        """Load an existing ledger, validating identity against a campaign.

        Raises :class:`CheckpointCorrupt` on torn/unparseable/checksum-
        failing manifests (recoverable by recreating the ledger) and plain
        :class:`CheckpointError` when ``expected_config`` does not match
        the stored campaign identity.
        """
        try:
            raw = json.loads(self.manifest_path.read_text())
            stored_sum = raw.pop("checksum", None)
            if stored_sum is not None:
                payload = json.dumps(raw, sort_keys=True).encode()
                if sha256_bytes(payload) != stored_sum:
                    raise CheckpointCorrupt(
                        f"checkpoint manifest {self.manifest_path} fails its "
                        f"content checksum (torn write or bit-rot)"
                    )
            if raw.get("version") != MANIFEST_VERSION:
                raise CheckpointError(
                    f"unsupported manifest version {raw.get('version')!r} "
                    f"in {self.manifest_path}"
                )
            self.config = raw["campaign"]
            self.environment = dict(raw.get("environment") or {})
            self.shards = {
                int(k): ShardRecord(**v) for k, v in raw["shards"].items()
            }
        except CheckpointError:
            raise
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CheckpointCorrupt(
                f"corrupt checkpoint manifest {self.manifest_path}: {exc}"
            ) from exc
        stored_keys = tuple(raw.get("keys", SHARD_KEYS))
        if stored_keys != self.keys:
            raise CheckpointError(
                f"checkpoint at {self.directory} stores arrays "
                f"{list(stored_keys)}, this run expects {list(self.keys)}"
            )
        if expected_config is not None and self.config != expected_config:
            diff = {
                k: (self.config.get(k), expected_config.get(k))
                for k in set(self.config) | set(expected_config)
                if self.config.get(k) != expected_config.get(k)
            }
            raise CheckpointError(
                f"checkpoint at {self.directory} belongs to a different "
                f"campaign (mismatched fields: {diff})"
            )

    def flush(self) -> None:
        """Atomically persist the ledger (with a whole-manifest checksum)."""
        payload = {
            "version": MANIFEST_VERSION,
            "campaign": self.config,
            "environment": self.environment,
            "keys": list(self.keys),
            "shards": {str(i): asdict(r) for i, r in sorted(self.shards.items())},
        }
        payload["checksum"] = sha256_bytes(
            json.dumps(payload, sort_keys=True).encode()
        )
        atomic_write_text(
            self.manifest_path,
            json.dumps(payload, indent=1, sort_keys=True),
        )
        chaos.corrupt_file("checkpoint.manifest", self.manifest_path)

    # ----------------------------------------------------------- shard data

    def shard_path(self, index: int) -> Path:
        return self.directory / f"shard_{index:05d}.npz"

    def write_shard(self, index: int, arrays: dict[str, np.ndarray]) -> None:
        """Atomically persist a completed shard and mark it ``done``."""
        record = self.shards[index]
        path = self.shard_path(index)
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=f".{path.name}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez_compressed(fh, **{k: arrays[k] for k in self.keys})
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        chaos.corrupt_file("checkpoint.shard", path, index=index)
        record.status = "done"
        record.digest = shard_digest(arrays, self.keys)
        record.error = ""
        record.error_kind = ""
        self.flush()

    def read_shard(self, index: int) -> dict[str, np.ndarray] | None:
        """Load a ``done`` shard's arrays, or None when they need recomputing.

        Missing files, unreadable archives and digest mismatches all return
        None (the executor recomputes the shard deterministically) rather
        than failing the resume.
        """
        record = self.shards[index]
        if record.status != "done":
            return None
        try:
            with np.load(self.shard_path(index), allow_pickle=False) as data:
                arrays = {k: data[k] for k in self.keys}
        except (OSError, ValueError, KeyError, zipfile.BadZipFile, zlib.error):
            return None
        if record.digest and shard_digest(arrays, self.keys) != record.digest:
            return None
        if len(arrays[self.keys[0]]) != record.n_runs:
            return None
        return arrays

    def mark_quarantined(
        self, index: int, error: str, attempts: int, kind: str = ""
    ) -> None:
        """Record a shard whose retries are exhausted (typed, structured)."""
        record = self.shards[index]
        record.status = "quarantined"
        record.error = error
        record.error_kind = kind
        record.attempts = attempts
        self.flush()
