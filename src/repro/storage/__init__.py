"""Storage engine substrates.

Functional, from-scratch implementations of the data structures the six
benchmarked stores are built on:

* :mod:`repro.storage.record` — the benchmark record (25-byte key, five
  10-byte fields; Section 3 / Figure 2).
* :mod:`repro.storage.sortedkeys` — the key order of a dict, sorted at
  the first scan: the ordered index of the LSM memtable, the Redis zset
  and the VoltDB primary key.
* :mod:`repro.storage.bloom` — Bloom filters guarding SSTable reads.
* :mod:`repro.storage.lsm` — log-structured merge engine (memtable,
  commit log, SSTables, size-tiered compaction) used by the Cassandra and
  HBase models.
* :mod:`repro.storage.btree` — B+tree engine used by the Voldemort
  (BerkeleyDB) and MySQL (InnoDB) models.
* :mod:`repro.storage.hashstore` — in-memory hash + sorted-set store used
  by the Redis model.
* :mod:`repro.storage.encoding` — byte-accurate on-disk record encodings
  per store, from which the Figure 17 disk-usage experiment is computed.
"""

from repro.storage.record import RecordSchema, APM_SCHEMA

__all__ = ["RecordSchema", "APM_SCHEMA"]
