"""Column-store storage substrate: types, columns, tables, catalog."""

from .catalog import Catalog
from .column import Column, Dictionary, column_from_values
from .datatypes import (
    BIGINT,
    DATE,
    DECIMAL,
    INT,
    DataType,
    char,
    date_to_int,
    date_type,
    decimal_type,
    int_to_date,
    int_type,
    string_type,
    varchar,
)
from .partition import (
    PartitionSpec,
    hash_buckets,
    partition_indices,
    partition_table,
)
from .table import Table

__all__ = [
    "BIGINT",
    "DATE",
    "DECIMAL",
    "INT",
    "Catalog",
    "Column",
    "DataType",
    "Dictionary",
    "PartitionSpec",
    "Table",
    "char",
    "column_from_values",
    "hash_buckets",
    "partition_indices",
    "partition_table",
    "date_to_int",
    "date_type",
    "decimal_type",
    "int_to_date",
    "int_type",
    "string_type",
    "varchar",
]
