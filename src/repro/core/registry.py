"""The model store (the paper's cloud storage, simulated).

ModelForge publishes serialized model blobs here with monotonically
increasing logical timestamps; the Model Loader polls for blobs newer than
what it has loaded.  An optional directory backing makes the store
persistent, which the lifecycle example uses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class ModelRecord:
    """One published model version."""

    kind: str  # "bn" | "rbx" | ...
    name: str  # e.g. the table name, or "universal" for RBX
    timestamp: int
    blob: bytes

    @property
    def key(self) -> tuple[str, str]:
        return (self.kind, self.name)

    @property
    def nbytes(self) -> int:
        return len(self.blob)


class ModelRegistry:
    """Versioned blob store with logical timestamps."""

    def __init__(self, directory: str | Path | None = None):
        self._records: dict[tuple[str, str], list[ModelRecord]] = {}
        self._clock = itertools.count(1)
        self._directory = Path(directory) if directory is not None else None
        if self._directory is not None:
            self._directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def publish(self, kind: str, name: str, blob: bytes) -> ModelRecord:
        """Store a new version; returns the record with its timestamp."""
        record = ModelRecord(
            kind=kind, name=name, timestamp=next(self._clock), blob=blob
        )
        self._records.setdefault(record.key, []).append(record)
        if self._directory is not None:
            path = self._directory / f"{kind}__{name}__{record.timestamp}.bcm"
            path.write_bytes(blob)
        return record

    def latest(self, kind: str, name: str) -> ModelRecord | None:
        versions = self._records.get((kind, name))
        if not versions:
            return None
        return versions[-1]

    def keys(self) -> list[tuple[str, str]]:
        return sorted(self._records)
