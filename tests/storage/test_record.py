"""Unit tests for the record model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.record import APM_SCHEMA, RecordSchema
from tests.rows import fields_of


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


#: A partial row of the APM schema: ``None`` for a column not written.
ROWS = st.tuples(*[st.none() | st.text("abxyz", max_size=12)]
                 * APM_SCHEMA.field_count)


class TestRow:
    """A stored row is the schema-ordered tuple of a record's fields."""

    @settings(max_examples=300, deadline=None)
    @given(old=ROWS, new=ROWS)
    def test_overlay_is_the_dict_upsert(self, old, new):
        row = APM_SCHEMA.overlay(old, new)
        assert type(row) is tuple
        assert fields_of(row) == {**fields_of(old), **fields_of(new)}
