"""Framing, codecs and size estimation — including property tests."""

import sys
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io.serialization import (
    BinaryCodec,
    TextLineCodec,
    encode_frames,
    estimate_size,
    frame_count,
    iter_frames,
)

# Picklable scalar values for framing round-trips.
scalars = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
    st.booleans(),
    st.none(),
)
values = st.one_of(scalars, st.tuples(scalars, scalars), st.lists(scalars, max_size=5))


class TestFrames:
    def test_empty(self):
        assert encode_frames([]) == b""
        assert list(iter_frames(b"")) == []
        assert frame_count(b"") == 0

    @given(st.lists(values, max_size=50))
    @settings(max_examples=60)
    def test_roundtrip(self, items):
        data = encode_frames(items)
        assert list(iter_frames(data)) == items
        assert frame_count(data) == len(items)

    def test_truncated_header_rejected(self):
        data = encode_frames([1, 2])
        with pytest.raises(ValueError):
            list(iter_frames(data[:-1] + b""))  # cut into last payload
        with pytest.raises(ValueError):
            list(iter_frames(data + b"\x01"))  # dangling header byte

    def test_frame_count_rejects_trailing_garbage(self):
        data = encode_frames([1])
        with pytest.raises(Exception):
            frame_count(data + b"\xff\xff\xff\xff")

    @pytest.mark.parametrize(
        "data",
        [
            encode_frames([1, 2])[:2],  # cut inside the first header
            encode_frames([1]) + b"\x01",  # one dangling header byte
        ],
    )
    def test_frame_count_rejects_truncated_header(self, data):
        with pytest.raises(ValueError, match="truncated frame header"):
            list(iter_frames(data))
        with pytest.raises(ValueError, match="truncated frame header"):
            frame_count(data)


class TestTextLineCodec:
    def codec(self):
        return TextLineCodec((float, int, str))

    def test_roundtrip(self):
        codec = self.codec()
        records = [(1.5, 7, "/a"), (2.25, 8, "/b/c")]
        assert list(codec.decode(codec.encode(records))) == records

    def test_empty_encode(self):
        assert self.codec().encode([]) == b""
        assert list(self.codec().decode(b"")) == []

    def test_field_count_mismatch_on_encode(self):
        with pytest.raises(ValueError):
            self.codec().encode([(1.0, 2)])

    def test_malformed_line_on_decode(self):
        with pytest.raises(ValueError):
            list(self.codec().decode(b"only\ttwo\n"))

    def test_custom_delimiter(self):
        codec = TextLineCodec((int, str), delimiter=",")
        assert list(codec.decode(b"3,x\n")) == [(3, "x")]

    def test_empty_parsers_rejected(self):
        with pytest.raises(ValueError):
            TextLineCodec(())

    def test_skips_blank_lines(self):
        codec = TextLineCodec((int,))
        assert list(codec.decode(b"1\n\n2\n")) == [(1,), (2,)]


class TestBinaryCodec:
    @given(st.lists(values, max_size=30))
    @settings(max_examples=40)
    def test_roundtrip(self, records):
        codec = BinaryCodec()
        assert list(codec.decode(codec.encode(records))) == records

    def test_binary_beats_text_on_parse_free_decode(self):
        # Not a performance assertion — just that both decode identically
        # shaped records so the parsing-cost experiment is apples-to-apples.
        records = [(1.0, 2, "/x")] * 10
        text = TextLineCodec((float, int, str))
        binary = BinaryCodec()
        assert list(text.decode(text.encode(records))) == list(
            binary.decode(binary.encode(records))
        )


class TestEstimateSize:
    def test_scalars_positive(self):
        for obj in (0, 1.5, True, None, "abc", b"xyz"):
            assert estimate_size(obj) > 0

    def test_string_scales_with_length(self):
        assert estimate_size("x" * 100) > estimate_size("x")

    def test_containers_include_elements(self):
        assert estimate_size([1, 2, 3]) > estimate_size([])
        assert estimate_size({"a": 1}) > estimate_size({})
        assert estimate_size((1, "abc")) > estimate_size((1,))
        assert estimate_size({1, 2}) > estimate_size(set())

    def test_deep_nesting_terminates(self):
        nested = [[[[[1] * 10] * 5] * 3]]
        assert estimate_size(nested) > 0

    @given(values)
    @settings(max_examples=60)
    def test_never_negative_or_zero(self, obj):
        assert estimate_size(obj) > 0


def _reference_estimate_size(obj, _depth=0):
    """The plain recursive estimator, frozen here as the reference.

    Spill points, merge passes and disk volumes follow from these values,
    so the inlined :func:`estimate_size` must match it exactly on every
    input.
    """
    t = type(obj)
    base = {int: 28, float: 24, bool: 28, type(None): 16}.get(t)
    if base is not None:
        return base
    if t is str:
        return 49 + len(obj)
    if t is bytes or t is bytearray:
        return 33 + len(obj)
    if t in (tuple, list):
        size = sys.getsizeof(obj)
        if _depth >= 3:
            return size
        return size + sum(_reference_estimate_size(x, _depth + 1) for x in obj)
    if t is dict:
        size = sys.getsizeof(obj)
        if _depth >= 3:
            return size
        return size + sum(
            _reference_estimate_size(k, _depth + 1)
            + _reference_estimate_size(v, _depth + 1)
            for k, v in obj.items()
        )
    if t is set or t is frozenset:
        size = sys.getsizeof(obj)
        if _depth >= 3:
            return size
        return size + sum(_reference_estimate_size(x, _depth + 1) for x in obj)
    return sys.getsizeof(obj)


_Pair = namedtuple("_Pair", "left right")

_leaves = st.one_of(
    st.integers(),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=20),
    st.binary(max_size=20),
)
_hashables = st.one_of(_leaves, st.tuples(_leaves, _leaves), st.frozensets(_leaves, max_size=3))


def _nested(depth):
    """Values nested up to ``depth`` container levels (past the cut-off of 3)."""
    if depth == 0:
        return _leaves
    inner = st.deferred(lambda: _nested(depth - 1))
    return st.one_of(
        _leaves,
        st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=4),
        st.dictionaries(_hashables, inner, max_size=3),
        st.sets(_hashables, max_size=4),
        st.frozensets(_hashables, max_size=4),
        st.builds(_Pair, inner, inner),
    )


class TestEstimateSizeContract:
    @given(_nested(5))
    @settings(max_examples=300)
    def test_matches_reference(self, obj):
        assert estimate_size(obj) == _reference_estimate_size(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            (),
            (7, (1.5, "http://example.com/p")),
            tuple(range(1000)),
            ((((1, "a"),),),),
            [1, 2.0, "x", b"y", None, True],
            _Pair(1, "a"),
            {"k": [1, (2, "b")]},
            2**200,
        ],
    )
    def test_matches_reference_on_fixed_values(self, obj):
        assert estimate_size(obj) == _reference_estimate_size(obj)
