"""Unit tests for storage data types."""

import datetime

import numpy as np
import pytest

from repro.storage import (
    DATE,
    DECIMAL,
    INT,
    char,
    date_to_int,
    int_to_date,
    int_type,
    string_type,
    varchar,
)


class TestDataTypeBasics:
    def test_int_width(self):
        assert INT.width == 4
        assert int_type(8).width == 8

    def test_string_flags(self):
        assert char(10).is_string
        assert not DECIMAL.is_string
        assert not DATE.is_string

    def test_char_width(self):
        assert char(25).width == 25

    def test_varchar_width(self):
        assert varchar(152).width == 152

    def test_string_np_dtype_is_code(self):
        assert string_type(10).np_dtype == np.dtype(np.int32)

    def test_date_np_dtype(self):
        assert DATE.np_dtype == np.dtype(np.int64)

    def test_types_are_hashable(self):
        assert len({INT, DECIMAL, DATE, char(5), char(5)}) == 4


class TestDateConversion:
    def test_epoch_is_zero(self):
        assert date_to_int("1970-01-01") == 0

    def test_roundtrip_string(self):
        days = date_to_int("1993-07-01")
        assert int_to_date(days) == datetime.date(1993, 7, 1)

    def test_roundtrip_date_object(self):
        d = datetime.date(1998, 8, 2)
        assert int_to_date(date_to_int(d)) == d

    def test_ordering_preserved(self):
        assert date_to_int("1993-07-01") < date_to_int("1993-10-01")

    def test_one_day_increment(self):
        assert date_to_int("1992-01-02") == date_to_int("1992-01-01") + 1

    def test_pre_epoch(self):
        assert date_to_int("1969-12-31") == -1
