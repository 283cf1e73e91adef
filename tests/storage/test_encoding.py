"""Unit tests for the on-disk encodings and disk-usage models."""

import hashlib
import struct
from functools import partial

import pytest

from repro.storage.encoding import (
    DISK_USAGE_MODELS,
    CassandraDiskUsage,
    HBaseDiskUsage,
    MySQLDiskUsage,
    VoldemortDiskUsage,
    encode_bdb_entry,
    encode_binlog_event,
    encode_hfile_cells,
    encode_innodb_row,
    encode_sstable_row,
    redis_memory_per_record,
    sample_record,
)
from repro.storage.record import APM_SCHEMA, RecordSchema
from repro.ycsb.generator import generate_record


@pytest.fixture
def record():
    return "u" * 25, ("v" * 10,) * 5, APM_SCHEMA


class TestSerializers:
    def test_sstable_row_layout(self, record):
        data = encode_sstable_row(*record)
        key_length = struct.unpack(">H", data[:2])[0]
        assert key_length == 25
        assert data[2:27] == b"u" * 25
        row_size = struct.unpack(">q", data[27:35])[0]
        assert len(data) == 2 + 25 + 8 + row_size
        # column count comes after the 12-byte deletion info
        count = struct.unpack(">i", data[47:51])[0]
        assert count == 5

    def test_hfile_cells_repeat_row_key_per_cell(self, record):
        data = encode_hfile_cells(*record)
        assert data.count(b"u" * 25) == 5  # one copy per column!
        # 5 cells x 62 bytes with 1-byte family and 6-byte qualifiers
        assert len(data) == 5 * 62

    def test_bdb_entry_contains_vector_clock(self, record):
        data = encode_bdb_entry(*record, replica_count=2)
        single = encode_bdb_entry(*record, replica_count=1)
        assert len(data) == len(single) + 10  # one more clock entry

    def test_innodb_row_is_compact(self, record):
        data = encode_innodb_row(*record)
        # 6 var-len bytes + 1 null bitmap + 5 header + 13 system + 75 data
        assert len(data) == 6 + 1 + 5 + 13 + 75

    def test_binlog_event_contains_statement(self):
        schema = RecordSchema(field_count=12)
        row = tuple(f"v{i}" for i in range(12))
        data = encode_binlog_event("u" * 25, row, schema)
        # The columns in name order, each with its own value.
        names = sorted(schema.field_names)
        columns = ", ".join(["ycsb_key"] + names)
        values = ", ".join(["'" + "u" * 25 + "'"]
                           + [f"'v{name[5:]}'" for name in names])
        statement = f"INSERT INTO usertable ({columns}) VALUES ({values})"
        assert data.endswith(statement.encode())
        assert len(data) == 19 + 8 + 19 + 4 + 19 + 14 + len(statement)


class TestDiskUsageModels:
    """Figure 17 calibration: paper values at 10M records per node."""

    def test_cassandra_near_2_5_gb(self):
        gb = CassandraDiskUsage().node_bytes(10_000_000) / 2**30
        assert 2.2 <= gb <= 3.0

    def test_mysql_near_5_gb_with_binlog(self):
        gb = MySQLDiskUsage().node_bytes(10_000_000) / 2**30
        assert 4.2 <= gb <= 5.5

    def test_mysql_halves_without_binlog(self):
        with_binlog = MySQLDiskUsage().bytes_per_record()
        without = MySQLDiskUsage(binlog_enabled=False).bytes_per_record()
        assert without == pytest.approx(with_binlog / 2, rel=0.15)

    def test_voldemort_near_5_5_gb(self):
        gb = VoldemortDiskUsage().node_bytes(10_000_000) / 2**30
        assert 4.5 <= gb <= 6.0

    def test_hbase_near_7_5_gb(self):
        gb = HBaseDiskUsage().node_bytes(10_000_000) / 2**30
        assert 6.3 <= gb <= 8.0

    def test_paper_ordering(self):
        per_record = {name: model.bytes_per_record()
                      for name, model in DISK_USAGE_MODELS.items()}
        assert (per_record["cassandra"] < per_record["mysql"]
                < per_record["voldemort"] < per_record["hbase"])

    def test_hbase_is_about_10x_raw(self):
        ratio = HBaseDiskUsage().bytes_per_record() / 75
        assert 8.5 <= ratio <= 11.5

    def test_linear_in_records(self):
        model = CassandraDiskUsage()
        assert model.node_bytes(2_000_000) == pytest.approx(
            2 * model.node_bytes(1_000_000))


class TestMemoryModels:
    def test_redis_memory_is_order_of_magnitude_above_raw(self):
        per_record = redis_memory_per_record()
        assert 500 <= per_record <= 1500


#: A 12-field schema: field names of two lengths, so name order
#: (``field0, field1, field10, field11, field2, ...``) is not index order.
WIDE = RecordSchema(field_count=12)


ENCODERS = {
    "sstable": encode_sstable_row,
    "hfile": encode_hfile_cells,
    "bdb-1": encode_bdb_entry,
    "bdb-3": partial(encode_bdb_entry, replica_count=3),
    "innodb": encode_innodb_row,
    "binlog": encode_binlog_event,
}

#: sha256 of each encoder's bytes for the sample record and generated
#: records 0-9, one after the other, per schema: taken when the encoders
#: took a key with a field dict, whose columns they wrote in name order.
ENCODED_SHA256 = {
    ("bdb-1", 5):
        "d8d1a0b5b09cfe76af5db2da0244618667646944fc7123cc3ca7723217e400c9",
    ("bdb-3", 5):
        "d5322ef3ab4ce5679e9a0e1bf7f2b2349f931c9695d47689a7b5ae49716586a9",
    ("binlog", 5):
        "658e0401a25b74cc4c5216823a58637f0ff35ddc6e95afd6121e2a7d31978bb0",
    ("hfile", 5):
        "84105c87f6f609bc25684dcc362cc834456a9fcaa5eac0023b975684c2d65b7a",
    ("innodb", 5):
        "768d16d69b7a5723826817fe23497ef83fae48cbeaaf11c56eff0e0a2872e4c8",
    ("sstable", 5):
        "bc6d1777b85e44a8dc19ccbb34851ff56f76e3befb0a8ced5a868f1f22c0bddd",
    ("bdb-1", 12):
        "a411e24d465bba912708bbf4a415269e9439a71fc4da78e440cf97d12610222e",
    ("bdb-3", 12):
        "1f3413806f545feced57f56147f580ede2c48856673917c3d662dc72e6b6f05e",
    ("binlog", 12):
        "0efcd5fb86114abf2f7569a52de087999438cd36cb5f3a1bd5dbf1aa3ed206a4",
    ("hfile", 12):
        "67e49f5e14c8fb911afaa5578e447dae346716df38776ea64c28264c618f4000",
    ("innodb", 12):
        "b522d1f3d27f335adbb382ee02ffa777512e99208c4c7cdf845be52f4409cd28",
    ("sstable", 12):
        "214adacb601963faa55f1c2a5976066c174311d46f8cebf54eee37209d34717f",
}


@pytest.mark.parametrize("schema", [APM_SCHEMA, WIDE],
                         ids=["apm", "wide"])
@pytest.mark.parametrize("encoder", sorted(ENCODERS))
def test_the_encoded_bytes_are_pinned(encoder, schema):
    records = [sample_record(schema)]
    records += [generate_record(number, schema) for number in range(10)]
    digest = hashlib.sha256()
    for key, row in records:
        digest.update(ENCODERS[encoder](key, row, schema))
    assert digest.hexdigest() == ENCODED_SHA256[
        encoder, schema.field_count]
