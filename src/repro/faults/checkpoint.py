"""On-disk checkpointing for sharded runs: the checkpoint is its shard files.

Layout of a checkpoint directory::

    manifest.json            version, campaign identity, array keys,
                             environment and checksum; written once
    shard_00000.npz          arrays of shard 0 plus a validation member:
                             its (lo, hi), the digest of its arrays and
                             the digest of the campaign identity
    shard_00000.failed.json  only while shard 0 is quarantined: its
                             attempts, last error and error kind
    shard_00001.npz          ...

A shard is done when its archive exists and validates, so finishing one
writes that archive and nothing else.  A quarantine record's attempt
count seeds the shard's retry budget on resume; a later success removes
the record.

Crash safety: every write is atomic (tempfile + fsync + ``os.replace``
via :mod:`repro.resilience.persist`), so a ``kill -9`` mid-write never
leaves a torn artefact under the final name, and every artefact carries
a digest checked on load.  A shard that fails validation is recomputed;
a manifest that fails its checksum (or cannot be parsed) raises
:class:`CheckpointCorrupt`, which the executor recovers from by writing
a fresh one — corruption costs recomputation, never a crash and never
silent trust.  A manifest that verifies but describes a *different*
campaign raises plain :class:`CheckpointError`: that is an operator
error (wrong directory), and mixing two campaigns' shards would corrupt
results.
"""

from __future__ import annotations

import hashlib
import io
import json
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.resilience.chaos import chaos
from repro.resilience.persist import atomic_write_bytes, atomic_write_text, sha256_bytes
from repro.telemetry import metrics, run_manifest, trace

__all__ = [
    "CheckpointCorrupt",
    "CheckpointError",
    "CheckpointStore",
]

MANIFEST_NAME = "manifest.json"
#: Bumped whenever shard contents from the same parameters would change:
#: 2 = a fault on an input or constant lasts only its cycle (version 1
#: shards kept it for the rest of the run).
MANIFEST_VERSION = 2
#: name of the validation member inside each shard archive
SHARD_META = "__shard__"


class CheckpointError(RuntimeError):
    """A checkpoint directory is unusable or belongs to another campaign."""


class CheckpointCorrupt(CheckpointError):
    """The manifest is torn, unparseable or fails its checksum.

    Recoverable: the manifest holds no results (shards validate on their
    own), so the executor may write a fresh one — unlike the identity
    mismatches plain :class:`CheckpointError` signals.
    """


def shard_digest(arrays: dict[str, np.ndarray], keys: tuple[str, ...]) -> str:
    """SHA-256 over the shard's arrays in canonical key order."""
    h = hashlib.sha256()
    for key in keys:
        a = np.ascontiguousarray(arrays[key])
        h.update(key.encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


class CheckpointStore:
    """Reads and writes one sweep's checkpoint directory.

    ``keys`` names the arrays each shard persists and ``ranges`` gives
    every shard's ``(lo, hi)`` by index; both come from the caller, so the
    store knows no workload.  The key set is pinned in the manifest:
    resuming with another raises :class:`CheckpointError` rather than
    mixing incompatible shards.
    """

    def __init__(
        self, directory, *, keys: tuple[str, ...], ranges: list[tuple[int, int]]
    ) -> None:
        self.directory = Path(directory)
        self.manifest_path = self.directory / MANIFEST_NAME
        self.keys = tuple(keys)
        self.ranges = list(ranges)
        #: names the campaign in every shard and quarantine record
        self.campaign_digest = ""

    # ------------------------------------------------------------- lifecycle

    def _pin(self, config: dict) -> None:
        doc = {"version": MANIFEST_VERSION, "campaign": config, "keys": list(self.keys)}
        self.campaign_digest = sha256_bytes(json.dumps(doc, sort_keys=True).encode())

    def create(self, config: dict) -> None:
        """Atomically write the manifest for ``config`` (with a checksum)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        self._pin(config)
        payload = {
            "version": MANIFEST_VERSION,
            "campaign": config,
            # informational only, never part of the identity compared on resume
            "environment": run_manifest(kind="checkpoint"),
            "keys": list(self.keys),
        }
        payload["checksum"] = sha256_bytes(
            json.dumps(payload, sort_keys=True).encode()
        )
        atomic_write_text(
            self.manifest_path,
            json.dumps(payload, indent=1, sort_keys=True),
        )
        chaos.corrupt_file("checkpoint.manifest", self.manifest_path)

    def load(self, expected_config: dict | None = None) -> None:
        """Load an existing manifest, validating identity against a campaign.

        Raises :class:`CheckpointCorrupt` on torn/unparseable/checksum-
        failing manifests and plain :class:`CheckpointError` when
        ``expected_config`` does not match the stored campaign identity.
        An older checkout's per-shard ``shards`` ledger is ignored: its
        archives lack the validation member, so every shard recomputes.
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
            config = raw["campaign"]
            stored_keys = tuple(raw["keys"])
        except CheckpointError:
            raise
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CheckpointCorrupt(
                f"corrupt checkpoint manifest {self.manifest_path}: {exc}"
            ) from exc
        if stored_keys != self.keys:
            raise CheckpointError(
                f"checkpoint at {self.directory} stores arrays "
                f"{list(stored_keys)}, this run expects {list(self.keys)}"
            )
        if expected_config is not None and config != expected_config:
            diff = {
                k: (config.get(k), expected_config.get(k))
                for k in set(config) | set(expected_config)
                if config.get(k) != expected_config.get(k)
            }
            raise CheckpointError(
                f"checkpoint at {self.directory} belongs to a different "
                f"campaign (mismatched fields: {diff})"
            )
        self._pin(config)

    # ----------------------------------------------------------- shard data

    def shard_path(self, index: int) -> Path:
        return self.directory / f"shard_{index:05d}.npz"

    def failed_path(self, index: int) -> Path:
        return self.directory / f"shard_{index:05d}.failed.json"

    def _shard_meta(self, index: int, digest: str) -> dict:
        lo, hi = self.ranges[index]
        return {"lo": lo, "hi": hi, "digest": digest, "campaign": self.campaign_digest}

    def write_shard(self, index: int, arrays: dict[str, np.ndarray]) -> None:
        """Atomically persist a completed shard with its validation member."""
        members = {k: arrays[k] for k in self.keys}
        meta = self._shard_meta(index, shard_digest(arrays, self.keys))
        members[SHARD_META] = np.array(json.dumps(meta, sort_keys=True))
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **members)
        path = self.shard_path(index)
        atomic_write_bytes(path, buffer.getbuffer())
        chaos.corrupt_file("checkpoint.shard", path, index=index)
        self.failed_path(index).unlink(missing_ok=True)

    def read_shard(self, index: int) -> dict[str, np.ndarray] | None:
        """Load a shard's arrays if its archive validates, else None.

        An archive that is missing, unreadable, lacks the validation
        member, names another range or campaign, or fails its digest
        returns None: the executor recomputes the shard deterministically.
        """
        path = self.shard_path(index)
        if not path.exists():
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                meta = json.loads(str(data[SHARD_META]))
                arrays = {k: data[k] for k in self.keys}
        except (OSError, ValueError, KeyError, zipfile.BadZipFile, zlib.error):
            meta = None
        if meta is not None and meta == self._shard_meta(
            index, shard_digest(arrays, self.keys)
        ):
            return arrays
        trace.event("checkpoint.shard_corrupt", shard=index)
        metrics.inc("checkpoint.shards_recomputed")
        return None

    def mark_quarantined(
        self, index: int, error: str, attempts: int, kind: str = ""
    ) -> None:
        """Record a shard whose retries are exhausted (typed, structured)."""
        record = {
            "attempts": attempts,
            "error": error,
            "error_kind": kind,
            "campaign": self.campaign_digest,
        }
        atomic_write_text(self.failed_path(index), json.dumps(record, sort_keys=True))

    def quarantined(self, index: int) -> dict | None:
        """This campaign's record of quarantined shard ``index``
        (``attempts``, ``error``, ``error_kind``), or None."""
        try:
            record = json.loads(self.failed_path(index).read_text())
            if record.pop("campaign") == self.campaign_digest:
                return record
        except (OSError, ValueError, KeyError):
            pass
        return None
