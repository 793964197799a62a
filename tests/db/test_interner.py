"""Unit tests for the dictionary encoding behind every relation."""

import numpy as np

from repro.db.interner import CODE_DTYPE, ValueInterner


class TestCode:
    def test_codes_are_dense_in_first_seen_order(self):
        interner = ValueInterner()
        assert [interner.code(v) for v in ("b", "a", 7, (1,))] == [0, 1, 2, 3]
        assert interner.values() == ["b", "a", 7, (1,)]
        assert len(interner) == 4

    def test_recoding_a_value_returns_its_code_without_growing(self):
        interner = ValueInterner()
        first = interner.code("x")
        interner.code("y")
        assert interner.code("x") == first
        assert len(interner) == 2

    def test_value_inverts_code(self):
        interner = ValueInterner()
        for value in ("a", 3, None, (2, "b")):
            assert interner.value(interner.code(value)) == value


class TestEncodeColumn:
    def test_integer_array_interns_only_distinct_values_as_native_ints(self):
        interner = ValueInterner()
        codes = interner.encode_column(np.array([5, 3, 5, 5, 3], dtype=np.int64))
        assert codes.dtype == CODE_DTYPE
        assert len(interner) == 2
        assert all(type(value) is int for value in interner.values())
        assert interner.decode_column(codes) == [5, 3, 5, 5, 3]

    def test_array_path_reuses_codes_interned_value_by_value(self):
        interner = ValueInterner()
        earlier = [interner.code(v) for v in (9, 4)]
        codes = interner.encode_column(np.array([4, 9, 11]))
        assert codes.tolist() == [earlier[1], earlier[0], 2]

    def test_float_array_decodes_to_python_floats(self):
        interner = ValueInterner()
        codes = interner.encode_column(np.array([0.5, 1.5, 0.5]))
        decoded = interner.decode_column(codes)
        assert decoded == [0.5, 1.5, 0.5]
        assert {type(value) for value in decoded} == {float}

    def test_object_array_with_unsortable_values(self):
        # np.unique cannot sort mixed types; object arrays intern one by one.
        values = np.empty(4, dtype=object)
        values[:] = ["a", 1, (2, 3), "a"]
        interner = ValueInterner()
        codes = interner.encode_column(values)
        assert codes.tolist() == [0, 1, 2, 0]
        assert interner.decode_column(codes) == ["a", 1, (2, 3), "a"]

    def test_plain_list_column(self):
        interner = ValueInterner()
        codes = interner.encode_column(["u", "v", "u"])
        assert codes.dtype == CODE_DTYPE
        assert codes.tolist() == [0, 1, 0]

    def test_empty_array_gives_empty_codes(self):
        interner = ValueInterner()
        codes = interner.encode_column(np.empty(0, dtype=np.int64))
        assert codes.dtype == CODE_DTYPE
        assert codes.shape == (0,)
        assert len(interner) == 0

    def test_two_dimensional_array_keeps_its_shape(self):
        interner = ValueInterner()
        values = np.array([[7, 8], [8, 7], [9, 7]])
        codes = interner.encode_column(values)
        assert codes.shape == values.shape
        decoded = interner.decode_column(codes.ravel())
        assert decoded == values.ravel().tolist()


class TestTranslate:
    def test_translate_to_self_returns_the_columns(self):
        interner = ValueInterner()
        column = interner.encode_column(["a", "b"])
        (translated,) = interner.translate([column], interner)
        assert np.array_equal(translated, column)

    def test_translate_interns_unseen_values_into_the_target(self):
        source = ValueInterner()
        column = source.encode_column(["p", "q", "p"])
        target = ValueInterner()
        target.code("q")
        (translated,) = source.translate([column], target)
        assert target.decode_column(translated) == ["p", "q", "p"]
        assert target.values() == ["q", "p"]

    def test_translate_empty_column(self):
        source = ValueInterner()
        source.code("a")
        (translated,) = source.translate([np.empty(0, dtype=CODE_DTYPE)], ValueInterner())
        assert translated.dtype == CODE_DTYPE
        assert translated.shape == (0,)
