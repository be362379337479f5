"""Determinism checks for the stream layer."""

import numpy as np
import pytest

from pocs import ConfigError, RngStream, fnv1a64


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
    first = gen.standard_normal(10)
    second = gen.standard_normal(10)
    assert not np.array_equal(first, second)
    assert np.array_equal(first, stream.generator().standard_normal(10))


def test_fnv1a64_known_vectors():
    # published FNV-1a 64-bit reference values
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


@pytest.mark.parametrize("field", ["master_seed", "stream_id"])
@pytest.mark.parametrize("key", [-1, 2**64, 1.5, True])
def test_keys_outside_64_bits_are_refused(field, key):
    # -1 would draw what 2^64 - 1 draws
    with pytest.raises(ConfigError, match=f"^{field}:"):
        RngStream(**{"master_seed": 0, "stream_id": 0, field: key})


# Raw values of every Generator method the sweep engine draws with, at the call
# shapes of pocs.experiments._draw_chunk, from a fresh RngStream(0, 1), recorded
# with numpy 2.4.6. NEP 19 lets numpy change these algorithms; a change shows here
# as one named method before it shows as golden mismatches.
@pytest.mark.parametrize("method, draw, expected", [
    ("random", lambda g: g.random((2, 2)),
     ["0x1.5ab98be352f88p-1", "0x1.f1a30952d2850p-3",
      "0x1.39391ab428710p-1", "0x1.b14114f01989cp-2"]),
    ("standard_normal", lambda g: g.standard_normal((2, 2)),
     ["0x1.9c34aff467089p-1", "-0x1.e97cb67f22f58p+0",
      "-0x1.bf9233dbc4e33p+1", "0x1.de185f27407c7p-1"]),
    ("beta", lambda g: g.beta(10, 237, 3),
     ["0x1.fd848c149b2cdp-5", "0x1.c90610a9fa104p-5", "0x1.0766f69181f1fp-5"]),
    ("standard_exponential", lambda g: g.standard_exponential((2, 2)),
     ["0x1.9b308038ef348p-1", "0x1.872b74f7a7e54p-2",
      "0x1.74ea8df0ada6fp-2", "0x1.0f1743b601f8cp-1"]),
    ("binomial", lambda g: g.binomial(64, 2 / 3, 3), [41, 45, 42]),
    ("uniform", lambda g: g.uniform(-0.5, 0.5, (2, 2)),
     ["0x1.6ae62f8d4be20p-3", "-0x1.072e7b5696bd8p-2",
      "0x1.c9c8d5a143880p-4", "-0x1.3afbac3f99d90p-4"]),
    ("standard_gamma", lambda g: g.standard_gamma(64, 3),
     ["0x1.193c7be84c6cep+6", "0x1.3d25de182e606p+5", "0x1.2a39fe3f7ce4ep+6"]),
    ("rayleigh", lambda g: g.rayleigh(size=(2, 2)),
     ["0x1.4471e5bf54962p+0", "0x1.bf867b8039d61p-1",
      "0x1.b4f57c9dd389ep-1", "0x1.076ff98b06e44p+0"]),
])
def test_generator_methods_keep_their_algorithms(method, draw, expected):
    values = draw(RngStream(0, 1).generator()).ravel().tolist()
    assert [v if isinstance(v, int) else v.hex() for v in values] == expected


def test_seed_sequence_and_pcg64_keep_their_algorithms():
    # a stream id past 2^63 and a small seed, through SeedSequence into PCG64
    assert RngStream(7, 2**63 + 5).generator().random().hex() == "0x1.b01868c33ca30p-1"
