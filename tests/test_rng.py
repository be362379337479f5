"""Determinism checks for the stream layer."""

import numpy as np
import pytest

from pocs import RngStream, as_generator, fnv1a64


def test_same_stream_same_sequence():
    a = RngStream(42, 7).generator().standard_normal(1000)
    b = RngStream(42, 7).generator().standard_normal(1000)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = RngStream(42, 7).generator().standard_normal(100)
    b = RngStream(42, 8).generator().standard_normal(100)
    c = RngStream(43, 7).generator().standard_normal(100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_generator_continues_but_stream_restarts():
    stream = RngStream(5, 1)
    gen = stream.generator()
    first = as_generator(gen).standard_normal(10)
    second = as_generator(gen).standard_normal(10)
    assert not np.array_equal(first, second)
    assert np.array_equal(first, as_generator(stream).standard_normal(10))


def test_invalid_arguments():
    with pytest.raises(TypeError):
        as_generator(12345)


def test_fnv1a64_known_vectors():
    # published FNV-1a 64-bit reference values
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


def test_fnv1a64_continues_from_a_prefix_state():
    for prefix, rest in [(b"", b"foobar"), (b"foo", b"bar"), (b"foobar", b"")]:
        assert fnv1a64(rest, fnv1a64(prefix)) == fnv1a64(prefix + rest)
