"""Determinism and moment checks for the stream layer."""

import numpy as np
import pytest

from pocs import RngStream, as_generator, fnv1a64, gaussian_stream


def test_same_stream_same_sequence():
    a = gaussian_stream(RngStream(42, 7), 1000, 2.5)
    b = gaussian_stream(RngStream(42, 7), 1000, 2.5)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = gaussian_stream(RngStream(42, 7), 100, 1.0)
    b = gaussian_stream(RngStream(42, 8), 100, 1.0)
    c = gaussian_stream(RngStream(43, 7), 100, 1.0)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_generator_continues_but_stream_restarts():
    stream = RngStream(5, 1)
    gen = stream.generator()
    first = gaussian_stream(gen, 10, 1.0)
    second = gaussian_stream(gen, 10, 1.0)
    assert not np.array_equal(first, second)
    assert np.array_equal(first, gaussian_stream(stream, 10, 1.0))


def test_child_stream():
    assert RngStream(9).child(3) == RngStream(9, 3)


def test_mean_within_clt_tolerance():
    samples = gaussian_stream(RngStream(1234), 1_000_000, 1.0)
    assert abs(samples.mean()) <= 4.0 / np.sqrt(1_000_000)


def test_variance_within_one_percent():
    stddev = 1.7
    samples = gaussian_stream(RngStream(999), 1_000_000, stddev)
    assert abs(samples.var(ddof=1) - stddev**2) <= 0.01 * stddev**2


def test_invalid_arguments():
    with pytest.raises(ValueError):
        gaussian_stream(RngStream(0), 10, 0.0)
    with pytest.raises(ValueError):
        gaussian_stream(RngStream(0), -1, 1.0)
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
