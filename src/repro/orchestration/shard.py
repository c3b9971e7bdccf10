"""Crash-safe sharded study execution over a shared :class:`ResultStore`.

The paper's figure grids are embarrassingly parallel, and every run is
already memoized by spec hash, so N hosts can cooperatively execute one
:class:`~repro.orchestration.study.Study` — provided claiming, crashing
and merging are first-class.  This module supplies the three pieces:

* :class:`ClaimRegistry` — an atomic, lease-based claim protocol.  One
  claim file per spec hash records the owner and a lease deadline;
  claims are acquired with a link-into-place create that exactly one
  contender can win, and an expired lease is reclaimable through an
  equally atomic eviction, so a SIGKILLed worker's specs are re-executed
  after its leases lapse — never lost, and (while a lease is live) never
  executed twice.
* :func:`shard_run` — claim-and-execute a slice of a study against a
  shared or per-host store, surviving worker death through the
  fault-tolerant :func:`~repro.orchestration.batch.run_batch`.
* :func:`merge_stores` / :func:`store_status` — fold N stores into one
  (verifying spec-hash and record-payload agreement on overlap; the
  deterministic winner on agreement is the record with the smaller wall
  time, so any merge order folds to the same contents) and report the
  claimed / done / orphaned state of a sharded run.

Crash-safety invariants (the contract the fault-injection suite under
``tests/orchestration/`` pins):

1. **At-most-once while leased**: a spec with a live claim is executed
   by exactly one worker — claim acquisition is an atomic filesystem
   create, and eviction of an expired claim is an atomic rename only one
   evictor can win.
2. **At-least-once eventually**: a crashed worker's leases expire, after
   which any later :func:`shard_run` over the store reclaims and
   re-executes its specs.
3. **Exactly-once in the merged result**: re-execution is harmless
   because records are deterministic — the store keyed by spec hash
   deduplicates, and :func:`merge_stores` verifies payload agreement on
   every overlap, so a 2-shard run merges to a result set bit-identical
   (up to wall time) to serial execution.
"""

from __future__ import annotations

import contextlib
import json
import os
import socket
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ClaimError, StoreMergeError
from repro.orchestration.batch import run_batch
from repro.orchestration.store import ResultStore
from repro.orchestration.study import RunRecord, Study

__all__ = [
    "CLAIM_SCHEMA",
    "Claim",
    "ClaimRegistry",
    "MergeReport",
    "ShardReport",
    "StoreStatus",
    "default_owner",
    "merge_stores",
    "shard_run",
    "store_status",
]

#: bump when the on-disk claim layout changes incompatibly
CLAIM_SCHEMA = 1

#: bounded retry of the claim/evict race before giving up on a hash
_MAX_CLAIM_ATTEMPTS = 8


def default_owner() -> str:
    """A worker identity unique per host and process (``host-pid``)."""
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass(frozen=True)
class Claim:
    """One worker's recorded hold (or completion marker) on a spec hash."""

    spec_hash: str
    owner: str
    state: str  # "claimed" | "completed"
    deadline: float
    claimed_at: float

    def expired(self, now: float) -> bool:
        """True when the lease has lapsed (completed claims never expire)."""
        return self.state == "claimed" and now >= self.deadline

    def to_dict(self) -> dict:
        """JSON-ready claim payload."""
        return {
            "claim_schema": CLAIM_SCHEMA,
            "spec_hash": self.spec_hash,
            "owner": self.owner,
            "state": self.state,
            "deadline": self.deadline,
            "claimed_at": self.claimed_at,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Claim":
        """Rebuild a claim from :meth:`to_dict` output."""
        return cls(
            spec_hash=str(data["spec_hash"]),
            owner=str(data["owner"]),
            state=str(data["state"]),
            deadline=float(data["deadline"]),
            claimed_at=float(data["claimed_at"]),
        )


class ClaimRegistry:
    """Atomic, lease-based spec claims in a directory of claim files.

    One JSON file per spec hash under ``root``, which the first claim
    write creates: reads treat a missing ``root`` as "no claims", so a
    census leaves the store as it found it.  Acquisition writes a
    private temp file and links it into place — ``os.link`` fails with
    ``FileExistsError`` when the name is taken, so exactly one contender
    wins.  Reclaiming an expired lease first renames the stale file
    away (again, exactly one evictor can win the rename) and then races
    for a fresh acquisition.  ``clock`` is injectable so the lease state
    machine is unit-testable without sleeping; production code uses the
    wall clock, which only ever gates *lease expiry* — simulation
    results never depend on it.
    """

    def __init__(
        self,
        root: str | Path,
        owner: str | None = None,
        lease_seconds: float = 900.0,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if lease_seconds <= 0:
            raise ClaimError(f"lease_seconds must be > 0, got {lease_seconds}")
        self.root = Path(root)
        self.owner = owner if owner is not None else default_owner()
        self.lease_seconds = lease_seconds
        self.clock = clock

    @classmethod
    def for_store(
        cls,
        store: ResultStore,
        owner: str | None = None,
        lease_seconds: float = 900.0,
        clock: Callable[[], float] = time.time,
    ) -> "ClaimRegistry":
        """The registry co-located with a store (its ``claims/`` subdir)."""
        return cls(
            store.claims_root, owner=owner,
            lease_seconds=lease_seconds, clock=clock,
        )

    def path_for(self, spec_hash: str) -> Path:
        """The file a claim on this spec hash lives in."""
        return self.root / f"{spec_hash}.json"

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, spec_hash: str) -> Claim | None:
        """The recorded claim for ``spec_hash``, or ``None`` on any miss.

        Mirrors the store's robustness contract: absent, corrupt or
        schema-mismatched claim files read as "unclaimed", never raise.
        """
        try:
            payload = json.loads(
                self.path_for(spec_hash).read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("claim_schema") != CLAIM_SCHEMA
        ):
            return None
        try:
            return Claim.from_dict(payload)
        except (KeyError, TypeError, ValueError):
            return None

    def holder(self, spec_hash: str) -> str | None:
        """Owner of the live (unexpired, uncompleted) claim, if any."""
        claim = self.get(spec_hash)
        if claim is None or claim.state != "claimed":
            return None
        return None if claim.expired(self.clock()) else claim.owner

    def spec_hashes(self) -> list[str]:
        """Spec hashes of every claim file, sorted."""
        return sorted(path.stem for path in self.root.glob("*.json"))

    # ------------------------------------------------------------------
    # the claim state machine: claim -> (renew | expire -> reclaim) -> complete
    # ------------------------------------------------------------------
    def try_claim(self, spec_hash: str) -> bool:
        """Atomically acquire ``spec_hash``; False when someone holds it.

        Acquisition succeeds when no claim file exists, when the
        caller already holds a live claim (the lease is renewed), or
        when the recorded lease has expired and this caller wins the
        eviction race.  A ``completed`` marker is permanent: the spec's
        record is in the store, so claiming it again is always refused.
        """
        path = self.path_for(spec_hash)
        for _ in range(_MAX_CLAIM_ATTEMPTS):
            if self._create(path, spec_hash):
                return True
            claim = self.get(spec_hash)
            if claim is None:
                if path.exists():
                    # unreadable/corrupt claim file: treat like an
                    # expired lease and evict before racing again
                    self._evict(path)
                # otherwise the holder vanished (released/evicted)
                # between our create and read; race again either way
                continue
            if claim.state == "completed":
                return False
            now = self.clock()
            if claim.owner == self.owner and not claim.expired(now):
                self.renew(spec_hash)
                return True
            if not claim.expired(now):
                return False
            if not self._evict(path):
                continue  # another claimant won the eviction; race again
        return False

    def renew(self, spec_hash: str) -> None:
        """Extend the caller's live lease by ``lease_seconds`` from now."""
        claim = self.get(spec_hash)
        if claim is None or claim.owner != self.owner:
            holder = claim.owner if claim is not None else "nobody"
            raise ClaimError(
                f"{self.owner!r} cannot renew {spec_hash[:12]}…: held by "
                f"{holder!r}"
            )
        self._write(
            self.path_for(spec_hash),
            Claim(
                spec_hash=spec_hash, owner=self.owner, state=claim.state,
                deadline=self.clock() + self.lease_seconds,
                claimed_at=claim.claimed_at,
            ),
        )

    def complete(self, spec_hash: str) -> bool:
        """Mark the spec completed; True when this caller's marker landed.

        Safe after lease expiry: if another worker has meanwhile
        reclaimed the spec (live foreign claim), the marker is *not*
        written — that worker will complete it, and the records agree
        byte-for-byte because runs are deterministic.
        """
        claim = self.get(spec_hash)
        now = self.clock()
        if (
            claim is not None
            and claim.state == "claimed"
            and claim.owner != self.owner
            and not claim.expired(now)
        ):
            return False
        if claim is not None and claim.state == "completed":
            return False
        self._write(
            self.path_for(spec_hash),
            Claim(
                spec_hash=spec_hash, owner=self.owner, state="completed",
                deadline=now,
                claimed_at=claim.claimed_at if claim else now,
            ),
        )
        return True

    def release(self, spec_hash: str) -> None:
        """Drop the caller's claim without completing it (graceful abandon)."""
        claim = self.get(spec_hash)
        if claim is None:
            return
        if claim.owner != self.owner:
            raise ClaimError(
                f"{self.owner!r} cannot release {spec_hash[:12]}…: held by "
                f"{claim.owner!r}"
            )
        try:
            self.path_for(spec_hash).unlink()
        except FileNotFoundError:
            pass

    # ------------------------------------------------------------------
    # atomic filesystem primitives
    # ------------------------------------------------------------------
    def _create(self, path: Path, spec_hash: str) -> bool:
        """Link a fresh claim into place; False when the name is taken."""
        self.root.mkdir(parents=True, exist_ok=True)
        now = self.clock()
        tmp = path.with_name(f".{path.stem}.{self.owner}.tmp")
        tmp.write_text(
            json.dumps(
                Claim(
                    spec_hash=spec_hash, owner=self.owner, state="claimed",
                    deadline=now + self.lease_seconds, claimed_at=now,
                ).to_dict(),
                sort_keys=True,
            ),
            encoding="utf-8",
        )
        try:
            os.link(tmp, path)  # atomic: fails iff the claim exists
            return True
        except FileExistsError:
            return False
        finally:
            tmp.unlink()

    def _evict(self, path: Path) -> bool:
        """Rename an expired claim away; False when another evictor won."""
        tombstone = path.with_name(f".{path.stem}.{self.owner}.evicted")
        try:
            os.rename(path, tombstone)  # atomic: exactly one renamer wins
        except FileNotFoundError:
            return False
        tombstone.unlink()
        return True

    def _write(self, path: Path, claim: Claim) -> None:
        """Atomically replace a claim file (temp + rename, like the store)."""
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.stem}.{self.owner}.rewrite")
        tmp.write_text(
            json.dumps(claim.to_dict(), sort_keys=True), encoding="utf-8"
        )
        tmp.replace(path)


# ----------------------------------------------------------------------
# sharded execution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardReport:
    """What one :func:`shard_run` worker did with its slice of the grid."""

    owner: str
    total: int  # specs in this worker's slice
    executed: int  # claimed, simulated and completed by this worker
    cached: int  # already in the store; skipped
    claimed_elsewhere: int  # live foreign lease; skipped
    reclaimed: int  # of the executed, how many took over an expired lease
    executed_hashes: tuple[str, ...] = field(default=(), repr=False)

    def summary(self) -> str:
        """One-line human-readable report."""
        return (
            f"shard {self.owner}: {self.executed}/{self.total} executed "
            f"({self.reclaimed} reclaimed from expired leases), "
            f"{self.cached} cached, {self.claimed_elsewhere} claimed "
            "elsewhere"
        )


def _slice_specs(specs: Sequence, slice_index: int, slice_count: int) -> list:
    """Round-robin slice ``slice_index`` of ``slice_count`` (deterministic)."""
    if slice_count < 1:
        raise ClaimError(f"slice_count must be >= 1, got {slice_count}")
    if not 0 <= slice_index < slice_count:
        raise ClaimError(
            f"slice_index must be in [0, {slice_count}), got {slice_index}"
        )
    return [
        spec for position, spec in enumerate(specs)
        if position % slice_count == slice_index
    ]


def shard_run(
    study: Study,
    store: ResultStore,
    owner: str | None = None,
    lease_seconds: float = 900.0,
    jobs: int = 1,
    slice_index: int = 0,
    slice_count: int = 1,
    claim_batch: int | None = None,
    clock: Callable[[], float] = time.time,
    executed_log: str | Path | None = None,
) -> ShardReport:
    """Claim and execute one slice of a study against a store.

    The worker walks its round-robin slice (``slice_index`` of
    ``slice_count``) of the study's spec list in claim waves of at most
    ``claim_batch`` specs (default: the whole slice at once): cached
    specs are marked completed and skipped, specs with a live foreign
    lease are skipped, and everything else is claimed, executed through
    the fault-tolerant :func:`~repro.orchestration.batch.run_batch`,
    stored, and completed.  ``lease_seconds`` must comfortably exceed
    one wave's runtime (claims are only acquired at the start of the
    wave that executes them, so smaller ``claim_batch`` values tolerate
    shorter leases).  A wave whose batch raises releases its claims
    before the error propagates.  When
    ``executed_log`` is given, one ``owner spec_hash`` line is appended
    per executed spec — the audit trail the claim-contention tests
    assert exactly-once execution on.
    """
    if claim_batch is not None and claim_batch < 1:
        raise ClaimError(f"claim_batch must be >= 1, got {claim_batch}")
    claims = ClaimRegistry.for_store(
        store, owner=owner, lease_seconds=lease_seconds, clock=clock
    )
    sliced = _slice_specs(study.specs(), slice_index, slice_count)
    pending = list(sliced)
    executed = cached = elsewhere = reclaimed = 0
    executed_hashes: list[str] = []
    while pending:
        wave, pending = (
            (pending, [])
            if claim_batch is None
            else (pending[:claim_batch], pending[claim_batch:])
        )
        mine = []
        for spec in wave:
            if store.get(spec.spec_hash) is not None:
                claims.complete(spec.spec_hash)
                cached += 1
                continue
            was_expired = (
                claims.get(spec.spec_hash) is not None
                and claims.holder(spec.spec_hash) is None
            )
            if claims.try_claim(spec.spec_hash):
                mine.append(spec)
                reclaimed += int(was_expired)
            else:
                elsewhere += 1
        if not mine:
            continue
        try:
            results = run_batch(
                [spec.config for spec in mine],
                jobs=jobs,
                labels=[spec.label() for spec in mine],
            )
        except BaseException:
            # hand the wave back, so no worker waits out its leases; a
            # claim another worker reclaimed after our lease ran out is
            # theirs, and the batch's error stays the one raised
            for spec in mine:
                with contextlib.suppress(ClaimError):
                    claims.release(spec.spec_hash)
            raise
        for spec, result in zip(mine, results):
            record = RunRecord.from_result(spec, result)
            store.put(record)
            claims.complete(spec.spec_hash)
            executed += 1
            executed_hashes.append(spec.spec_hash)
            if executed_log is not None:
                _append_log(executed_log, claims.owner, spec.spec_hash)
    return ShardReport(
        owner=claims.owner,
        total=len(sliced),
        executed=executed,
        cached=cached,
        claimed_elsewhere=elsewhere,
        reclaimed=reclaimed,
        executed_hashes=tuple(executed_hashes),
    )


def _append_log(path: str | Path, owner: str, spec_hash: str) -> None:
    """Append one executed-spec line (O_APPEND: atomic for short lines)."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(f"{owner} {spec_hash}\n")


# ----------------------------------------------------------------------
# merging per-host stores
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MergeReport:
    """What folding source stores into a destination did."""

    copied: int  # records new to the destination
    replaced: int  # agreeing duplicates where the source won (smaller wall)
    identical: int  # agreeing duplicates where the destination won
    skipped_invalid: int  # unreadable/corrupt source entries, left behind
    total: int  # records in the destination afterwards

    def summary(self) -> str:
        """One-line human-readable report."""
        return (
            f"merged: {self.copied} copied, {self.replaced} replaced, "
            f"{self.identical} identical, {self.skipped_invalid} invalid "
            f"skipped; {self.total} records in destination"
        )


def merge_stores(
    destination: ResultStore, sources: Sequence[ResultStore]
) -> MergeReport:
    """Fold every source store's records into ``destination``.

    On overlap the records must agree: equal spec hash (they are filed
    under it) *and* equal payload fingerprint — the digest of everything
    except wall time.  Disagreement raises :class:`StoreMergeError`: two
    differing records under one spec hash written by one version mean a
    determinism violation, not a merge policy question; written by two
    versions, they mean the stores come from different releases, and the
    error names both versions.  Among agreeing duplicates
    the record with the smaller ``wall_seconds`` wins (ties keep the
    incumbent), which makes the fold order-independent: any merge order
    of any partition of the sources produces byte-identical destination
    contents.  Sources are read whatever version wrote them — merging
    preserves whatever the shards computed; version gating happens when
    records are *read* for a study.
    """
    copied = replaced = identical = invalid = 0
    for source in sources:
        reader = ResultStore(source.root, require_version=None)
        for spec_hash in reader.spec_hashes():
            record = reader.get(spec_hash)
            if record is None:
                invalid += 1
                continue
            incumbent = destination.get(spec_hash)
            if incumbent is None:
                destination.put(record)
                copied += 1
                continue
            if incumbent.fingerprint() != record.fingerprint():
                if incumbent.version != record.version:
                    raise StoreMergeError(
                        f"stores disagree on spec {spec_hash[:12]}…: "
                        f"{source.root} holds a record written by version "
                        f"{record.version} and {destination.root} one "
                        f"written by version {incumbent.version}; records "
                        "of different releases do not merge, so recompute "
                        "one side under a single version"
                    )
                raise StoreMergeError(
                    f"stores disagree on spec {spec_hash[:12]}…: "
                    f"{source.root} and {destination.root} hold records "
                    "with differing payloads (same spec hash, different "
                    "fingerprint) — a determinism violation, refusing to "
                    "merge"
                )
            if record.wall_seconds < incumbent.wall_seconds:
                destination.put(record)
                replaced += 1
            else:
                identical += 1
    return MergeReport(
        copied=copied,
        replaced=replaced,
        identical=identical,
        skipped_invalid=invalid,
        total=len(destination),
    )


# ----------------------------------------------------------------------
# status
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StoreStatus:
    """Claimed / done / orphaned census of a (possibly sharded) store."""

    done: int  # records in the store
    claimed: int  # live leases with no record yet
    orphaned: int  # expired leases with no record (a crashed worker's)
    pending: int | None  # grid specs with neither record nor live claim
    total_specs: int | None  # grid size, when a study was given

    def summary(self) -> str:
        """One-line human-readable report."""
        parts = [
            f"{self.done} done", f"{self.claimed} claimed",
            f"{self.orphaned} orphaned",
        ]
        if self.total_specs is not None:
            parts.append(f"{self.pending} pending of {self.total_specs} specs")
        return ", ".join(parts)


def store_status(
    store: ResultStore,
    study: Study | None = None,
    clock: Callable[[], float] = time.time,
) -> StoreStatus:
    """Census the store and its claims, optionally against a study grid.

    ``done`` counts stored records; ``claimed`` counts live leases not
    yet backed by a record; ``orphaned`` counts expired leases without a
    record — the signature a SIGKILLed worker leaves behind, and exactly
    the specs the next :func:`shard_run` over the store will reclaim.
    With a ``study``, ``pending`` additionally counts grid specs nobody
    has stored or claimed.
    """
    claims = ClaimRegistry.for_store(store, clock=clock)
    done_hashes = set(store.spec_hashes())
    now = clock()
    claimed = orphaned = 0
    live: set[str] = set()
    for spec_hash in claims.spec_hashes():
        if spec_hash in done_hashes:
            continue
        claim = claims.get(spec_hash)
        if claim is None or claim.state != "claimed":
            continue
        if claim.expired(now):
            orphaned += 1
        else:
            claimed += 1
            live.add(spec_hash)
    pending = total = None
    if study is not None:
        spec_hashes = [spec.spec_hash for spec in study.specs()]
        total = len(spec_hashes)
        pending = sum(
            1 for spec_hash in spec_hashes
            if spec_hash not in done_hashes and spec_hash not in live
        )
    return StoreStatus(
        done=len(done_hashes), claimed=claimed, orphaned=orphaned,
        pending=pending, total_specs=total,
    )
