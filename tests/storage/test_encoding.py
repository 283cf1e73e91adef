"""Unit tests for the on-disk encodings and disk-usage models."""

import struct

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
)
from repro.storage.record import APM_SCHEMA, Record, RecordSchema


@pytest.fixture
def record():
    return Record("u" * 25, {f: "v" * 10 for f in APM_SCHEMA.field_names})


class TestSerializers:
    def test_sstable_row_layout(self, record):
        data = encode_sstable_row(record)
        key_length = struct.unpack(">H", data[:2])[0]
        assert key_length == 25
        assert data[2:27] == b"u" * 25
        row_size = struct.unpack(">q", data[27:35])[0]
        assert len(data) == 2 + 25 + 8 + row_size
        # column count comes after the 12-byte deletion info
        count = struct.unpack(">i", data[47:51])[0]
        assert count == 5

    def test_hfile_cells_repeat_row_key_per_cell(self, record):
        data = encode_hfile_cells(record)
        assert data.count(b"u" * 25) == 5  # one copy per column!
        # 5 cells x 62 bytes with 1-byte family and 6-byte qualifiers
        assert len(data) == 5 * 62

    def test_bdb_entry_contains_vector_clock(self, record):
        data = encode_bdb_entry(record, replica_count=2)
        single = encode_bdb_entry(record, replica_count=1)
        assert len(data) == len(single) + 10  # one more clock entry

    def test_innodb_row_is_compact(self, record):
        data = encode_innodb_row(record)
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
