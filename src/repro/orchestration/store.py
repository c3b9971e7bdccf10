"""On-disk memoization of run records, keyed by spec hash.

A :class:`ResultStore` is a directory of one JSON file per computed
:class:`~repro.orchestration.study.RunRecord`, named by the record's
spec hash.  :meth:`Study.run <repro.orchestration.study.Study.run>`
consults it before executing and writes every fresh record back, so a
repeated benchmark or CLI invocation over the same grid is served
entirely from disk — bit-identical to the records of the first run.

Robustness contract: :meth:`ResultStore.get` returns ``None`` (a cache
miss, never an exception) for absent, corrupt, schema-mismatched, or
version-mismatched entries; writes are atomic (temp file + rename), so a
crashed run can never poison the cache for later ones.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

from repro._version import __version__
from repro.orchestration.study import RunRecord

__all__ = ["ResultStore"]

#: bump when the on-disk payload layout changes incompatibly
STORE_SCHEMA = 1


class ResultStore:
    """A directory-backed record cache keyed by spec hash.

    ``require_version`` (default: the current package version) guards
    against serving records computed by a different release of the
    simulator; pass ``None`` to accept any version.
    """

    def __init__(
        self, root: str | Path, require_version: str | None = __version__
    ) -> None:
        self.root = Path(root)
        self.require_version = require_version
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, spec_hash: str) -> Path:
        """The file a record with this spec hash lives in."""
        return self.root / f"{spec_hash}.json"

    @property
    def claims_root(self) -> Path:
        """Where this store's spec claims live (the ``claims/`` subdir).

        Record globs are non-recursive, so claim files never read as
        records; see :class:`~repro.orchestration.shard.ClaimRegistry`
        for the claim protocol itself.
        """
        return self.root / "claims"

    # ------------------------------------------------------------------
    def get(self, spec_hash: str) -> RunRecord | None:
        """The cached record for ``spec_hash``, or ``None`` on any miss."""
        path = self.path_for(spec_hash)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict) or payload.get("store_schema") != STORE_SCHEMA:
            return None
        try:
            record = RunRecord.from_dict(payload["record"])
        except (AttributeError, KeyError, TypeError, ValueError):
            return None
        if record.spec_hash != spec_hash:
            return None
        if (
            self.require_version is not None
            and record.version != self.require_version
        ):
            return None
        return record

    def put(self, record: RunRecord) -> Path:
        """Persist a record atomically; returns the file it landed in.

        Two workers may finish one spec (after a claim's lease expires),
        so each writer stages its own temp file: a shared one would be
        renamed away by the first writer under the second.  The name
        never matches the ``*.json`` record glob.
        """
        path = self.path_for(record.spec_hash)
        payload = {"store_schema": STORE_SCHEMA, "record": record.to_dict()}
        tmp = path.with_name(
            f".{path.stem}.{os.getpid()}-{threading.get_ident()}.tmp"
        )
        tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        tmp.replace(path)
        return path

    # ------------------------------------------------------------------
    def __contains__(self, spec_hash: str) -> bool:
        return self.path_for(spec_hash).exists()

    def __len__(self) -> int:
        # counting records: filesystem iteration order cannot matter
        return sum(1 for _ in self.root.glob("*.json"))  # detlint: ignore[no-unordered-iteration]

    def spec_hashes(self) -> list[str]:
        """Spec hashes of every stored record, sorted."""
        return sorted(path.stem for path in self.root.glob("*.json"))

    def clear(self) -> int:
        """Delete every stored record; returns how many were removed."""
        removed = 0
        # unlink order cannot matter: every record is deleted regardless
        for path in self.root.glob("*.json"):  # detlint: ignore[no-unordered-iteration]
            path.unlink()
            removed += 1
        return removed
