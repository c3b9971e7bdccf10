"""Peer-to-peer lookup substrate.

The paper leaves candidate discovery to "some peer-to-peer lookup mechanism"
(footnote 4) and names the two archetypes of its era: a centralized
directory server (Napster) and a distributed lookup service (Chord).  This
package implements both, behind the adapters of :mod:`repro.network.lookup`
(``DirectoryLookup`` and ``ChordLookup``), which share the one interface the
simulator consumes:

* :mod:`repro.network.directory` — the Napster-style central directory;
* :mod:`repro.network.chord` — a from-scratch Chord DHT (consistent-hash
  ring, finger tables, iterative lookups) plus a supplier index on top;
* :mod:`repro.network.transport` — per-kind control-message counters the
  engines bump, summarised into counts, bytes and latency so experiments
  can account for signalling overhead.
"""

from repro.network.lookup import DirectoryLookup, ChordLookup
from repro.network.directory import CentralDirectory
from repro.network.chord import ChordRing, ChordNode, SupplierIndex
from repro.network.transport import Transport

__all__ = [
    "DirectoryLookup",
    "ChordLookup",
    "CentralDirectory",
    "ChordRing",
    "ChordNode",
    "SupplierIndex",
    "Transport",
]
