"""A record's row and its field dict, for tests whose oracle is a dict.

Everything under ``src/`` holds and passes a record's fields as a row,
the tuple of its values in ``field_names`` order (``None`` for a column
not written).  A few references here model a record as YCSB's field map
instead — a dict upsert, a digest first taken of dicts — and convert at
their edge with these two.
"""

from repro.storage.record import APM_SCHEMA


def row_of(fields: dict, schema=APM_SCHEMA) -> tuple:
    """``fields`` as a row of ``schema``."""
    return tuple(map(fields.get, schema.field_names))


def fields_of(row: tuple, schema=APM_SCHEMA) -> dict:
    """The written columns of ``row`` as a field dict."""
    return {name: value for name, value in zip(schema.field_names, row)
            if value is not None}
