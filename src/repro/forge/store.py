"""The persistent artifact store: versioned model blobs that survive restarts.

The in-memory :class:`~repro.core.registry.ModelRegistry` is the paper's
cloud store *as seen by one process*; a restart loses every trained model
and forces a full retrain.  The :class:`ArtifactStore` closes that gap with
an on-disk layout built for crash safety:

* every blob is written **atomically** -- to a ``.tmp`` file first, fsynced,
  then renamed into place -- so a crash never leaves a half-written artifact
  under a final name;
* a single JSON **manifest** (also replaced atomically) records, per
  version, the file name, byte size, and SHA-256 checksum;
* **startup recovery** walks the manifest, discards entries whose file is
  missing, truncated, or checksum-mismatched (torn writes), deletes stale
  ``.tmp`` files and orphan blobs, and repoints ``current`` at the newest
  surviving version;
* the last *K* versions are retained per model, and :meth:`rollback`
  repoints ``current`` at the previous version without touching bytes.

``sync_registry`` republishes every current artifact into a fresh
:class:`ModelRegistry`, which is how a restarted ByteCard warm-starts and
serves estimates with **zero** training calls.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ModelError
from repro.obs.metrics import MetricsRegistry

_MANIFEST = "MANIFEST.json"
_FORMAT = 1


@dataclass(frozen=True)
class ArtifactRecord:
    """One persisted model version."""

    kind: str
    name: str
    version: int
    file: str
    sha256: str
    nbytes: int
    #: the registry timestamp the blob was published under (0 if unknown)
    timestamp: int


@dataclass
class RecoveryReport:
    """What startup recovery found and repaired."""

    #: (kind, name, version, reason) of manifest entries discarded
    discarded: list[tuple[str, str, int, str]] = field(default_factory=list)
    #: stale ``.tmp`` files removed (interrupted writes)
    removed_tmp: list[str] = field(default_factory=list)
    #: blob files on disk that no manifest entry references
    orphans: list[str] = field(default_factory=list)
    #: the manifest itself was unreadable and the store restarted empty
    manifest_corrupt: bool = False

    @property
    def clean(self) -> bool:
        return not (
            self.discarded or self.removed_tmp or self.orphans
            or self.manifest_corrupt
        )


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _fsync_dir(path: Path) -> None:
    """Flush a directory entry so a rename survives power loss."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open support
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


class ArtifactStore:
    """Crash-safe versioned blob store under one directory."""

    def __init__(
        self,
        directory: str | Path,
        retention: int = 4,
        metrics: MetricsRegistry | None = None,
    ):
        if retention < 1:
            raise ValueError("retention must be >= 1")
        self.directory = Path(directory)
        self.retention = retention
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry(enabled=False)
        )
        self.blob_dir = self.directory / "blobs"
        self.blob_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        #: "kind::name" -> {"kind", "name", "current", "versions": [...]}
        self._entries: dict[str, dict] = {}
        self.recovery = self._recover()
        self._record_gauges()

    # ------------------------------------------------------------------
    # Paths and manifest I/O
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.directory / _MANIFEST

    @staticmethod
    def _entry_key(kind: str, name: str) -> str:
        return f"{kind}::{name}"

    def _write_manifest_locked(self) -> None:
        payload = json.dumps(
            {"format": _FORMAT, "entries": self._entries},
            indent=2,
            sort_keys=True,
        ).encode("utf-8")
        tmp = self.manifest_path.with_name(_MANIFEST + ".tmp")
        with open(tmp, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.manifest_path)
        _fsync_dir(self.directory)

    def _record(self, entry: dict, version_info: dict) -> ArtifactRecord:
        return ArtifactRecord(
            kind=entry["kind"],
            name=entry["name"],
            version=int(version_info["version"]),
            file=version_info["file"],
            sha256=version_info["sha256"],
            nbytes=int(version_info["nbytes"]),
            timestamp=int(version_info.get("timestamp", 0)),
        )

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self) -> RecoveryReport:
        report = RecoveryReport()
        # 1. stale tmp files are torn writes by definition: remove them.
        for tmp in list(self.directory.glob("*.tmp")) + list(
            self.blob_dir.glob("*.tmp")
        ):
            tmp.unlink(missing_ok=True)
            report.removed_tmp.append(tmp.name)
        # 2. load the manifest (atomically replaced, so either absent,
        #    old, or new -- but a hand-edited/corrupt one must not crash).
        entries: dict[str, dict] = {}
        if self.manifest_path.exists():
            try:
                doc = json.loads(self.manifest_path.read_text("utf-8"))
                entries = dict(doc.get("entries", {}))
            except (json.JSONDecodeError, UnicodeDecodeError, AttributeError):
                report.manifest_corrupt = True
                entries = {}
        # 3. validate every version: file present, size and checksum match.
        dirty = report.manifest_corrupt
        for key, entry in list(entries.items()):
            survivors = []
            for info in entry.get("versions", []):
                path = self.blob_dir / info["file"]
                reason = None
                if not path.exists():
                    reason = "missing blob file"
                else:
                    blob = path.read_bytes()
                    if len(blob) != int(info["nbytes"]):
                        reason = (
                            f"truncated blob ({len(blob)} of "
                            f"{info['nbytes']} bytes)"
                        )
                    elif _sha256(blob) != info["sha256"]:
                        reason = "checksum mismatch"
                if reason is None:
                    survivors.append(info)
                else:
                    path.unlink(missing_ok=True)
                    report.discarded.append(
                        (entry["kind"], entry["name"], int(info["version"]), reason)
                    )
                    dirty = True
            if not survivors:
                del entries[key]
                continue
            entry["versions"] = survivors
            versions = {int(v["version"]) for v in survivors}
            if int(entry.get("current", -1)) not in versions:
                # the current pointer referenced a torn write: fall back to
                # the newest complete version.
                entry["current"] = max(versions)
                dirty = True
        # 4. blobs no manifest entry references are orphans of interrupted
        #    put() calls (blob renamed, manifest not yet updated): remove.
        referenced = {
            info["file"]
            for entry in entries.values()
            for info in entry["versions"]
        }
        for path in self.blob_dir.iterdir():
            if path.is_file() and path.name not in referenced:
                path.unlink(missing_ok=True)
                report.orphans.append(path.name)
        self._entries = entries
        if dirty or report.orphans:
            self._write_manifest_locked()
        if self.metrics.enabled and not report.clean:
            self.metrics.counter("artifact_store_recovered_versions_total").inc(
                len(report.discarded)
            )
        return report

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def put(
        self, kind: str, name: str, blob: bytes, timestamp: int = 0
    ) -> ArtifactRecord:
        """Persist a new version of ``(kind, name)`` atomically."""
        if not blob:
            raise ModelError("refusing to persist an empty model blob")
        with self._lock:
            key = self._entry_key(kind, name)
            entry = self._entries.setdefault(
                key, {"kind": kind, "name": name, "current": 0, "versions": []}
            )
            version = 1 + max(
                (int(v["version"]) for v in entry["versions"]), default=0
            )
            file_name = f"{kind}__{name}__v{version}.bcm"
            final = self.blob_dir / file_name
            tmp = self.blob_dir / (file_name + ".tmp")
            with open(tmp, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, final)
            _fsync_dir(self.blob_dir)
            info = {
                "version": version,
                "file": file_name,
                "sha256": _sha256(blob),
                "nbytes": len(blob),
                "timestamp": int(timestamp),
            }
            entry["versions"].append(info)
            entry["current"] = version
            self._prune_locked(entry)
            self._write_manifest_locked()
            record = self._record(entry, info)
        if self.metrics.enabled:
            self.metrics.counter(
                "artifact_store_writes_total", kind=kind
            ).inc()
            self._record_gauges()
        return record

    def _prune_locked(self, entry: dict) -> None:
        """Retain the last K versions (plus ``current``, always)."""
        versions = entry["versions"]
        if len(versions) <= self.retention:
            return
        keep = versions[-self.retention:]
        kept_numbers = {int(v["version"]) for v in keep}
        current = int(entry["current"])
        for info in versions[: -self.retention]:
            if int(info["version"]) == current:
                keep.insert(0, info)
                kept_numbers.add(current)
                continue
            (self.blob_dir / info["file"]).unlink(missing_ok=True)
        entry["versions"] = sorted(keep, key=lambda v: int(v["version"]))

    def rollback(self, kind: str, name: str) -> ArtifactRecord:
        """Repoint ``current`` at the version preceding it.

        The artifact bytes stay on disk; only the pointer moves.  Raises
        :class:`ModelError` when there is no older retained version.
        """
        with self._lock:
            entry = self._entries.get(self._entry_key(kind, name))
            if entry is None:
                raise ModelError(f"no artifacts stored for {kind}/{name}")
            current = int(entry["current"])
            older = [
                v for v in entry["versions"] if int(v["version"]) < current
            ]
            if not older:
                raise ModelError(
                    f"{kind}/{name} has no version older than v{current} "
                    "to roll back to"
                )
            target = max(older, key=lambda v: int(v["version"]))
            entry["current"] = int(target["version"])
            self._write_manifest_locked()
            record = self._record(entry, target)
        if self.metrics.enabled:
            self.metrics.counter(
                "artifact_store_rollbacks_total", kind=kind
            ).inc()
        return record

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def keys(self) -> list[tuple[str, str]]:
        with self._lock:
            return sorted(
                (entry["kind"], entry["name"])
                for entry in self._entries.values()
            )

    def current(self, kind: str, name: str) -> ArtifactRecord | None:
        """The serving version -- the latest, unless rolled back."""
        with self._lock:
            entry = self._entries.get(self._entry_key(kind, name))
            if entry is None:
                return None
            current = int(entry["current"])
            for info in entry["versions"]:
                if int(info["version"]) == current:
                    return self._record(entry, info)
            return None

    def versions(self, kind: str, name: str) -> list[ArtifactRecord]:
        with self._lock:
            entry = self._entries.get(self._entry_key(kind, name))
            if entry is None:
                return []
            return [self._record(entry, info) for info in entry["versions"]]

    def read_blob(self, record: ArtifactRecord) -> bytes:
        """Load and checksum-verify one artifact's bytes."""
        blob = (self.blob_dir / record.file).read_bytes()
        if len(blob) != record.nbytes or _sha256(blob) != record.sha256:
            raise ModelError(
                f"artifact {record.kind}/{record.name} v{record.version} "
                "failed its checksum on read"
            )
        return blob

    def total_bytes(self) -> int:
        with self._lock:
            return sum(
                int(info["nbytes"])
                for entry in self._entries.values()
                for info in entry["versions"]
            )

    # ------------------------------------------------------------------
    # Registry bridge
    # ------------------------------------------------------------------
    def sync_registry(self, registry) -> list[tuple[str, str]]:
        """Publish every key's *current* artifact into ``registry``.

        The warm-start path: a fresh :class:`ModelRegistry` seeded from
        disk, which the Model Loader then loads exactly as if ModelForge
        had just trained everything.
        """
        published: list[tuple[str, str]] = []
        for kind, name in self.keys():
            record = self.current(kind, name)
            if record is None:  # pragma: no cover - keys() implies current
                continue
            registry.publish(kind, name, self.read_blob(record))
            published.append((kind, name))
        return published

    def persist_registry(self, registry) -> list[tuple[str, str]]:
        """Persist every key's latest registry blob into the store.

        The inverse of :meth:`sync_registry`: memory -> disk.  Unchanged
        blobs (same checksum as the stored current version) are skipped,
        so repeated calls do not mint redundant versions.  This is how
        ``ByteCard.fleet`` snapshots a live instance's models so worker
        processes can warm-start from them with zero training.
        """
        persisted: list[tuple[str, str]] = []
        for kind, name in registry.keys():
            record = registry.latest(kind, name)
            if record is None:  # pragma: no cover - keys() implies latest
                continue
            current = self.current(kind, name)
            if current is not None and current.sha256 == _sha256(record.blob):
                continue
            self.put(kind, name, record.blob, timestamp=record.timestamp)
            persisted.append((kind, name))
        return persisted

    # ------------------------------------------------------------------
    def _record_gauges(self) -> None:
        if not self.metrics.enabled:
            return
        with self._lock:
            versions = sum(
                len(entry["versions"]) for entry in self._entries.values()
            )
            models = len(self._entries)
        self.metrics.gauge("artifact_store_models").set(models)
        self.metrics.gauge("artifact_store_versions").set(versions)
        self.metrics.gauge("artifact_store_bytes").set(self.total_bytes())
