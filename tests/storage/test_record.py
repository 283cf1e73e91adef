"""Unit tests for the record model."""

import pytest

from repro.storage.record import APM_SCHEMA, Record, RecordSchema


class TestSchema:
    def test_paper_shape(self):
        assert APM_SCHEMA.key_length == 25
        assert APM_SCHEMA.field_count == 5
        assert APM_SCHEMA.field_length == 10
        assert APM_SCHEMA.raw_record_bytes == 75
        assert APM_SCHEMA.raw_value_bytes == 50

    def test_field_names(self):
        assert APM_SCHEMA.field_names == (
            "field0", "field1", "field2", "field3", "field4")

    def test_validate_accepts_conforming(self):
        record = Record("k" * 25, {f: "v" * 10
                                   for f in APM_SCHEMA.field_names})
        APM_SCHEMA.validate(record)  # no exception

    def test_validate_rejects_bad_key(self):
        record = Record("short", {f: "v" * 10
                                  for f in APM_SCHEMA.field_names})
        with pytest.raises(ValueError, match="key"):
            APM_SCHEMA.validate(record)

    def test_validate_rejects_missing_field(self):
        record = Record("k" * 25, {"field0": "v" * 10})
        with pytest.raises(ValueError, match="fields"):
            APM_SCHEMA.validate(record)

    def test_validate_rejects_bad_field_length(self):
        fields = {f: "v" * 10 for f in APM_SCHEMA.field_names}
        fields["field2"] = "x"
        with pytest.raises(ValueError, match="length"):
            APM_SCHEMA.validate(Record("k" * 25, fields))

    def test_custom_schema(self):
        schema = RecordSchema(key_length=10, field_count=2, field_length=4)
        assert schema.raw_record_bytes == 18
        assert schema.field_names == ("field0", "field1")

    def test_layout_is_computed_once_and_stays_out_of_identity(self):
        schema = RecordSchema(field_count=2, field_length=4)
        assert schema.field_names is schema.field_names
        # Derived values are no part of what a schema *is*.
        untouched = RecordSchema(field_count=2, field_length=4)
        assert schema == untouched
        assert hash(schema) == hash(untouched)
        assert repr(schema) == repr(untouched)


class TestRecord:
    def test_raw_size(self):
        record = Record("abcde", {"f": "12345", "g": "678"})
        assert record.raw_size == 5 + 5 + 3

    def test_subset(self):
        record = Record("k", {"a": "1", "b": "2", "c": "3"})
        assert record.subset(["a", "c"]).fields == {"a": "1", "c": "3"}

    def test_frozen(self):
        record = Record("k", {})
        with pytest.raises(AttributeError):
            record.key = "other"
