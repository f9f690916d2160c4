"""Column data types for the column store.

NestGPU is a column-store system; every column has a fixed-width
logical type.  The logical width (``DataType.width``) is what the
simulated device uses for memory accounting and materialization cost
(the paper's ``Rs_i`` in Eq. (1) and Eq. (4)), independent of the numpy
dtype the host process happens to use to hold the values.

Strings are dictionary encoded: the column stores ``int32`` codes and
the type carries no dictionary itself (the dictionary lives on the
column).  Dictionaries are built *sorted*, so comparisons on codes are
order-preserving and the relational kernels never touch Python strings.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

import numpy as np

_EPOCH = datetime.date(1970, 1, 1).toordinal()


@dataclass(frozen=True)
class DataType:
    """A logical column type.

    Attributes:
        name: type family, one of ``int``, ``decimal``, ``date``,
            ``string``.
        width: logical width in bytes used for device memory accounting.
        np_dtype: numpy dtype used to hold values on the host.
    """

    name: str
    width: int
    np_dtype: np.dtype

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataType({self.name}, width={self.width})"

    @property
    def is_string(self) -> bool:
        return self.name == "string"


def int_type(width: int = 4) -> DataType:
    """A signed integer column (keys, quantities, sizes)."""
    return DataType("int", width, np.dtype(np.int64))


def decimal_type() -> DataType:
    """A fixed-point decimal column, held as float64 on the host."""
    return DataType("decimal", 8, np.dtype(np.float64))


def date_type() -> DataType:
    """A calendar date column, held as int32 days since 1970-01-01."""
    return DataType("date", 4, np.dtype(np.int64))


def string_type(width: int) -> DataType:
    """A dictionary-encoded string column of declared width ``width``."""
    return DataType("string", width, np.dtype(np.int32))


INT = int_type()
BIGINT = int_type(8)
DECIMAL = decimal_type()
DATE = date_type()


def char(width: int) -> DataType:
    """Shorthand for a fixed-width string type (TPC-H ``CHAR(n)``)."""
    return string_type(width)


def varchar(width: int) -> DataType:
    """Shorthand for a variable-width string type (TPC-H ``VARCHAR(n)``)."""
    return string_type(width)


def date_to_int(value: str | datetime.date) -> int:
    """Convert a date (``YYYY-MM-DD`` string or ``datetime.date``) to days since epoch."""
    if isinstance(value, str):
        value = datetime.date.fromisoformat(value)
    return value.toordinal() - _EPOCH


def int_to_date(days: int) -> datetime.date:
    """Convert days-since-epoch back to a ``datetime.date``."""
    return datetime.date.fromordinal(int(days) + _EPOCH)
