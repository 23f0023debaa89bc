import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnrefine import DomainSchema, ExampleError, VariableSpec

SCHEMA = DomainSchema(
    (
        VariableSpec("a", ("f", "t")),
        VariableSpec("b", ("x", "y", "z")),
        VariableSpec("c", tuple("pqrst")),
    )
)


def reference_fault(schema, position, example):
    """The rule checked one value at a time, as ``validate_example`` did
    before examples were validated as whole blocks: the oracle here."""
    if not isinstance(example, (tuple, list, np.ndarray)) or np.ndim(example) == 0:
        return f"example {position} is not a sequence of values: {example!r}"
    example = tuple(example)
    if len(example) != len(schema):
        return f"example has {len(example)} values, schema has {len(schema)}"
    for x, value in enumerate(example):
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            return f"value for {schema.name(x)!r} is not an index: {value!r}"
        if not 0 <= value < schema.arity(x):
            return (
                f"value index {value} out of range for {schema.name(x)!r} "
                f"(arity {schema.arity(x)})"
            )
    return None


small_ints = st.integers(-2, 6)
values = st.one_of(
    small_ints,
    small_ints,
    small_ints.map(np.int64),
    st.integers(0, 4).map(np.uint8),
    st.sampled_from([2**63, 2**70, -(2**64), np.uint64(2**64 - 1)]),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.floats(allow_nan=False, width=32),
    st.text(max_size=2),
)
rows = st.one_of(
    st.lists(values, min_size=3, max_size=3),
    st.lists(values, max_size=4),
    st.lists(st.integers(0, 1), min_size=3, max_size=3),
)
# an example that is not a sequence: a bare value where a row belongs
not_sequences = st.one_of(st.integers(-2, 6), st.none(), st.integers(0, 4).map(np.int64))
list_blocks = st.lists(st.one_of(rows.map(tuple), rows.map(tuple), not_sequences), max_size=6)
array_blocks = st.tuples(
    st.sampled_from([np.int64, np.uint8, np.int8, bool, float]),
    st.integers(0, 5),
    st.sampled_from([3, 3, 2, 4]),
).flatmap(
    lambda spec: st.lists(
        st.integers(-1, 5), min_size=spec[1] * spec[2], max_size=spec[1] * spec[2]
    ).map(lambda flat: np.array(flat).astype(spec[0]).reshape(spec[1], spec[2]))
)


class TestEncodeRows:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(list_blocks, array_blocks))
    def test_accepts_and_rejects_exactly_as_the_one_row_rule(self, block):
        faults = [f for f in (reference_fault(SCHEMA, i, row) for i, row in enumerate(block)) if f]
        if faults:
            with pytest.raises(ExampleError) as err:
                SCHEMA.encode_rows(block)
            assert str(err.value) == faults[0]
        else:
            encoded = SCHEMA.encode_rows(block)
            assert encoded.dtype == SCHEMA.value_dtype
            assert encoded.shape == (len(block), len(SCHEMA))
            assert encoded.tolist() == [[int(v) for v in row] for row in block]
        for row in block:
            fault = reference_fault(SCHEMA, 0, row)
            if fault is None:
                SCHEMA.encode_rows([row])
            else:
                with pytest.raises(ExampleError) as err:
                    SCHEMA.encode_rows([row])
                assert str(err.value) == fault

    def test_bool_mixed_with_ints_is_named(self):
        with pytest.raises(ExampleError, match=r"value for 'b' is not an index: True"):
            SCHEMA.encode_rows([(1, 2, 4), (0, True, 3)])

    def test_integer_beyond_int64_is_out_of_range(self):
        with pytest.raises(ExampleError, match=f"value index {2**70} out of range for 'c'"):
            SCHEMA.encode_rows([(1, 2, 2**70)])

    def test_empty_block_is_an_empty_array(self):
        for empty in ([], np.empty((0, 3), dtype=np.int64), np.empty((0, 7), dtype=bool)):
            encoded = SCHEMA.encode_rows(empty)
            assert encoded.shape == (0, 3) and encoded.dtype == SCHEMA.value_dtype

    def test_generator_of_lists_is_accepted(self):
        encoded = SCHEMA.encode_rows([v, 2, 4] for v in (0, 1))
        assert encoded.tolist() == [[0, 2, 4], [1, 2, 4]]

    @pytest.mark.parametrize(
        "block, fault",
        [
            ((0, 1), "example 0 is not a sequence of values: 0"),
            ([5], "example 0 is not a sequence of values: 5"),
            ([(1, 2, 4), None], "example 1 is not a sequence of values: None"),
            (np.array([1, 2, 4]), "example 0 is not a sequence of values: np.int64(1)"),
        ],
    )
    def test_an_example_that_is_not_a_sequence_is_named(self, block, fault):
        with pytest.raises(ExampleError) as err:
            SCHEMA.encode_rows(block)
        assert str(err.value) == fault

    def test_a_wide_log_takes_the_same_rule(self):
        wide = DomainSchema(SCHEMA.variables + (VariableSpec("d", tuple(map(str, range(300)))),))
        assert wide.value_dtype == np.uint16
        assert wide.encode_rows([(1, 2, 4, 299), (0, 0, 0, 0)]).tolist() == [[1, 2, 4, 299], [0, 0, 0, 0]]
        for example, fault in [
            ((1, 2, 4, 300), "value index 300 out of range for 'd' (arity 300)"),
            ((1, 2, 4, -1), "value index -1 out of range for 'd' (arity 300)"),
            ((1, 2, 5, 0), "value index 5 out of range for 'c' (arity 5)"),
            ((1, 2, 4, 2**64), f"value index {2**64} out of range for 'd' (arity 300)"),
        ]:
            with pytest.raises(ExampleError) as err:
                wide.encode_rows([(0, 0, 0, 0), example])
            assert str(err.value) == fault
