"""Unit tests for the record model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


#: A partial column subset of the APM schema, values of any length.
COLUMNS = st.dictionaries(st.sampled_from(APM_SCHEMA.field_names),
                          st.text("abxyz", max_size=12))


class TestRow:
    """A stored row is the schema-ordered tuple of a field mapping."""

    @settings(max_examples=300, deadline=None)
    @given(old=COLUMNS, new=COLUMNS)
    def test_overlay_is_the_dict_upsert(self, old, new):
        schema = APM_SCHEMA
        row = schema.overlay(schema.to_row(old), schema.to_row(new))
        assert schema.row_fields(row) == {**old, **new}
        assert schema.row_fields(schema.to_row(old)) == old

    def test_a_row_is_in_field_name_order(self):
        row = APM_SCHEMA.to_row({"field3": "d", "field0": "a"})
        assert row == ("a", None, None, "d", None)
        assert type(row) is tuple
        assert RecordSchema(field_count=1).to_row({"field0": "a"}) == ("a",)
        # A None value is a column not written, in a full mapping or not.
        assert APM_SCHEMA.to_row({"field1": None}) == (None,) * 5
        full = dict.fromkeys(APM_SCHEMA.field_names, "v")
        assert APM_SCHEMA.to_row({**full, "field1": None}) == (
            "v", None, "v", "v", "v")

    def test_row_fields_is_a_fresh_dict(self):
        row = APM_SCHEMA.to_row({f: f for f in APM_SCHEMA.field_names})
        first = APM_SCHEMA.row_fields(row)
        first["field0"] = "scribbled"
        assert APM_SCHEMA.row_fields(row)["field0"] == "field0"

    @pytest.mark.parametrize("fields", [
        {"extra": "x"},
        {"field0": "a", "field5": "x"},
        {**{f: "v" for f in APM_SCHEMA.field_names}, "fieldX": "x"},
        {**{f: "v" for f in APM_SCHEMA.field_names[:-1]}, "fieldX": "x"},
    ])
    def test_to_row_rejects_a_column_the_schema_does_not_name(self, fields):
        with pytest.raises(ValueError, match="not in the schema"):
            APM_SCHEMA.to_row(fields)


class TestRecord:
    def test_frozen(self):
        record = Record("k", {})
        with pytest.raises(AttributeError):
            record.key = "other"
