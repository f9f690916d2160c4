"""Unit tests for columns and dictionaries."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.storage import (
    DATE,
    DECIMAL,
    INT,
    Column,
    Dictionary,
    column_from_values,
    string_column,
    varchar,
)


class TestDictionary:
    def test_sorted_construction(self):
        d = Dictionary(["pear", "apple", "plum", "apple"])
        assert list(d) == ["apple", "pear", "plum"]

    def test_code_ordering_matches_lexicographic(self):
        d = Dictionary(["b", "a", "c"])
        assert d.code_of("a") < d.code_of("b") < d.code_of("c")

    def test_encode_decode_roundtrip(self):
        d = Dictionary(["x", "y", "z"])
        codes = d.encode(["z", "x", "y", "x"])
        assert d.decode(codes) == ["z", "x", "y", "x"]

    def test_code_of_missing(self):
        d = Dictionary(["only"])
        assert d.code_of("absent") is None

    def test_matching_codes(self):
        d = Dictionary(["SM BOX", "MED BOX", "MED BAG", "LG JAR"])
        codes = d.matching_codes(lambda v: v.endswith("BOX"))
        assert sorted(d[c] for c in codes) == ["MED BOX", "SM BOX"]

    def test_matching_codes_empty(self):
        d = Dictionary(["a", "b"])
        assert len(d.matching_codes(lambda v: False)) == 0

    def test_len(self):
        assert len(Dictionary(["a", "b", "a"])) == 2


class TestColumn:
    def test_nbytes_uses_logical_width(self):
        col = column_from_values("k", INT, [1, 2, 3])
        assert col.nbytes == 4 * 3  # declared width, not numpy's 8

    def test_pool_coded_strings_equal_per_row_strings(self):
        pool = ["pear", "apple", "fig", "apple", "kiwi"]  # unsorted, a repeat
        index = np.array([4, 0, 3, 0, 1])  # "fig" never occurs
        coded = column_from_values("s", varchar(8), (pool, index))
        plain = column_from_values("s", varchar(8), [pool[i] for i in index])
        assert list(coded.dictionary) == list(plain.dictionary) == ["apple", "kiwi", "pear"]
        assert coded.data.dtype == plain.data.dtype
        assert (coded.data == plain.data).all()

    def test_string_column_roundtrip(self):
        col = string_column("s", ["b", "a", "b"])
        assert col.to_python() == ["b", "a", "b"]

    def test_string_requires_dictionary(self):
        from repro.storage import string_type

        with pytest.raises(ReproError):
            Column("s", string_type(4), np.array([0], dtype=np.int32))

    def test_take(self):
        col = column_from_values("k", INT, [10, 20, 30, 40])
        taken = col.take(np.array([3, 0]))
        assert taken.to_python() == [40, 10]

    def test_take_preserves_dictionary(self):
        col = string_column("s", ["x", "y", "z"])
        taken = col.take(np.array([2, 0]))
        assert taken.to_python() == ["z", "x"]

    def test_slice(self):
        col = column_from_values("k", INT, [1, 2, 3, 4, 5])
        assert col.slice(1, 3).to_python() == [2, 3]

    def test_renamed(self):
        col = column_from_values("k", INT, [1])
        assert col.renamed("j").name == "j"
        assert col.name == "k"

    def test_date_ingestion(self):
        col = column_from_values("d", DATE, ["1992-01-01", "1992-01-03"])
        assert int(col.data[1] - col.data[0]) == 2

    def test_date_to_python(self):
        import datetime

        col = column_from_values("d", DATE, ["1995-06-17"])
        assert col.to_python() == [datetime.date(1995, 6, 17)]

    def test_decimal_to_python(self):
        col = column_from_values("v", DECIMAL, [1.5, 2.25])
        assert col.to_python() == [1.5, 2.25]


class TestLiteralEncoding:
    def test_present_string_encodes_to_code(self):
        col = string_column("s", ["apple", "pear"])
        assert col.encode_literal("apple") == col.dictionary.code_of("apple")

    def test_absent_string_between_codes(self):
        col = string_column("s", ["apple", "pear"])
        encoded = col.encode_literal("banana")
        # lands strictly between apple (0) and pear (1)
        assert 0 < encoded < 1

    def test_absent_string_before_all(self):
        col = string_column("s", ["m", "z"])
        assert col.encode_literal("a") < 0

    def test_absent_string_after_all(self):
        col = string_column("s", ["a", "m"])
        assert col.encode_literal("z") > 1

    def test_absent_ordering_is_correct(self):
        # codes compare like the decoded strings even for absent probes
        col = string_column("s", ["alpha", "gamma", "omega"])
        probe = col.encode_literal("delta")
        codes = col.data
        names = col.to_python()
        for code, name in zip(codes, names):
            assert (code < probe) == (name < "delta")

    def test_date_literal(self):
        col = column_from_values("d", DATE, ["1993-01-01"])
        from repro.storage import date_to_int

        assert col.encode_literal("1993-07-01") == date_to_int("1993-07-01")

    def test_numeric_passthrough(self):
        col = column_from_values("k", INT, [1])
        assert col.encode_literal(42) == 42
