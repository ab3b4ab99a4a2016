"""Tests for CSV input/output."""

import pytest

from repro.data.csvio import read_csv, write_csv
from repro.data.schema import ColumnDef, ColumnType, Schema
from repro.data.table import Table


def test_roundtrip_int_table(tmp_path, kv_table):
    path = write_csv(kv_table, tmp_path / "kv.csv")
    loaded = read_csv(path)
    assert loaded == kv_table


def test_roundtrip_with_explicit_schema(tmp_path, kv_table):
    path = write_csv(kv_table, tmp_path / "kv.csv")
    loaded = read_csv(path, schema=kv_table.schema)
    assert loaded == kv_table


def test_float_columns_inferred(tmp_path):
    schema = Schema([ColumnDef("a", ColumnType.INT), ColumnDef("b", ColumnType.FLOAT)])
    table = Table.from_rows(schema, [(1, 1.5), (2, 2.25)])
    path = write_csv(table, tmp_path / "f.csv")
    loaded = read_csv(path)
    assert loaded.schema["b"].ctype is ColumnType.FLOAT
    assert loaded.column("b").tolist() == [1.5, 2.25]


def test_header_mismatch_rejected(tmp_path, kv_table):
    path = write_csv(kv_table, tmp_path / "kv.csv")
    wrong = Schema([ColumnDef("x"), ColumnDef("y")])
    with pytest.raises(ValueError, match="does not match"):
        read_csv(path, schema=wrong)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_csv(path)


def test_empty_table_roundtrip(tmp_path, kv_schema):
    table = Table.empty(kv_schema)
    path = write_csv(table, tmp_path / "empty_table.csv")
    loaded = read_csv(path, schema=kv_schema)
    assert loaded.num_rows == 0
    assert loaded.schema.names == ["key", "value"]


def test_write_creates_parent_directories(tmp_path, kv_table):
    path = write_csv(kv_table, tmp_path / "deep" / "nested" / "kv.csv")
    assert path.exists()


def test_int64_values_beyond_two_to_the_53_roundtrip_exactly(tmp_path):
    """INT cells are parsed as integers, not through a float: values a
    double cannot hold come back unchanged, with and without a schema."""
    schema = Schema([ColumnDef("k", ColumnType.INT)])
    values = [2**62 + 1, -(2**53) - 1, 2**63 - 1, -(2**63), 7]
    table = Table.from_rows(schema, [(v,) for v in values])
    path = write_csv(table, tmp_path / "big.csv")
    assert read_csv(path, schema=schema).column("k").tolist() == values
    assert read_csv(path).column("k").tolist() == values


@pytest.mark.parametrize("cell", ["3.7", "nan", "abc", "9223372036854775808"])
def test_a_cell_that_is_not_an_int64_is_refused_naming_its_column(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"k,v\n1,{cell}\n")
    schema = Schema([ColumnDef("k", ColumnType.INT), ColumnDef("v", ColumnType.INT)])
    with pytest.raises(ValueError, match="INT column 'v'"):
        read_csv(path, schema=schema)


def test_an_integral_cell_in_an_int_column_reads_as_its_integer(tmp_path):
    path = tmp_path / "ints.csv"
    path.write_text("k\n3.0\n1e3\n")
    schema = Schema([ColumnDef("k", ColumnType.INT)])
    assert read_csv(path, schema=schema).column("k").tolist() == [3, 1000]
