"""Stand-ins for the random generator and the sensing matrix, shared by the
test modules.

Each wrapper delegates to a real ``numpy.random.Generator`` and changes only
the draw it names; :func:`wrap_generators` makes every
``RngStream.generator()`` hand one out, so the code under test draws through
it unpatched. :class:`ScriptedUniforms` replaces a generator outright, and
:func:`inject` makes a given matrix a sensing matrix.
"""

import numpy as np

import pocs.rng
from pocs import SensingMatrix, VarianceConvention

# bound at import, before any test patches the method
real_generator = pocs.rng.RngStream.generator


def wrap_generators(monkeypatch, double, *args, **kwargs):
    """Make every ``RngStream.generator()`` return ``double(gen, *args, **kwargs)``,
    with ``gen`` the generator the real method builds for that stream.

    Returns a list that gets the stream id of each generator built, in order.
    """
    ids = []

    def generator(stream):
        ids.append(stream.stream_id)
        return double(real_generator(stream), *args, **kwargs)

    monkeypatch.setattr(pocs.rng.RngStream, "generator", generator)
    return ids


def inject(mat):
    """``mat`` as a phase-only sensing matrix, whatever its scale."""
    mat = np.asarray(mat, dtype=np.complex128)
    return SensingMatrix(mat=mat, convention=VarianceConvention.PHASE_ONLY)


class ScriptedUniforms:
    """A generator whose ``random`` hands out the given uniforms in order, flat:
    a draw of ``size`` takes the next ``prod(size)`` of them."""

    def __init__(self, uniforms):
        self._u, self._next = np.asarray(uniforms, dtype=float).ravel(), 0

    def random(self, size):
        count = int(np.prod(size))
        self._next += count
        return self._u[self._next - count : self._next].reshape(size).copy()


class Delegating:
    """Every attribute a subclass does not define is the wrapped generator's."""

    def __init__(self, gen):
        self._gen = gen

    def __getattr__(self, name):
        return getattr(self._gen, name)


class ZeroValues(Delegating):
    """A generator whose first two-dimensional uniform draw has every value of
    the given rows at 0.5, past the first ``n`` columns, and whose first
    ``again`` one-dimensional uniform draws (a row's redraws) are all 0.5."""

    def __init__(self, gen, n, rows, again=0):
        super().__init__(gen)
        self._n, self._rows, self._again, self._first = n, rows, again, True

    def random(self, size=None):
        u = self._gen.random(size)
        if u.ndim == 2 and self._first:
            self._first = False
            u[[r for r in self._rows if r < len(u)], self._n:] = 0.5  # values 2u - 1 all zero
        elif u.ndim == 1 and self._again:
            self._again -= 1
            u[...] = 0.5
        return u


class ZeroEveryModulus(Delegating):
    """A generator whose moduli draws (the Rayleigh draws of the scalar law:
    (rows, m) or flat) have every ``step``-th entry at an exact zero, counted
    from the draw's first entry."""

    def __init__(self, gen, step):
        super().__init__(gen)
        self._step = step

    def rayleigh(self, scale=1.0, size=None):
        mod = self._gen.rayleigh(scale, size)
        mod.reshape(-1)[:: self._step] = 0.0
        return mod


class ZeroModuli(Delegating):
    """A generator whose moduli draws (its Rayleigh draws) have the first two
    moduli of row ``row`` at exact zeros; in a flat draw a row's entries
    follow the arc entries, m - K, of the rows before it."""

    def __init__(self, gen, m, row):
        super().__init__(gen)
        self._m, self._row = m, row
        self._circle = np.zeros(row + 1, dtype=np.int64)

    def binomial(self, *args):
        self._circle = self._gen.binomial(*args)
        return self._circle

    def rayleigh(self, scale=1.0, size=None):
        mod = self._gen.rayleigh(scale, size)
        arcs = self._m - self._circle
        assert arcs[self._row] >= 2
        mod.reshape(-1)[arcs[: self._row].sum() :][:2] = 0.0
        return mod


class FirstModuliZero(Delegating):
    """A generator whose Rayleigh draws, the moduli ``|y_i| / sigma``, start
    each row with ``count`` exact zeros."""

    def __init__(self, gen, count):
        super().__init__(gen)
        self._count = count

    def rayleigh(self, scale=1.0, size=None):
        mod = self._gen.rayleigh(scale, size)
        mod[..., : self._count] = 0.0  # the first moduli of every trial
        return mod


class Recorder(Delegating):
    """A generator that logs each draw: its method, its first argument (its
    ``size`` when passed by keyword) and the state of the bit generator it
    starts from."""

    def __init__(self, gen, log):
        super().__init__(gen)
        self._log = log

    def __getattr__(self, name):
        attr = super().__getattr__(name)
        if name == "bit_generator":
            return attr

        def draw(*args, **kwargs):
            self._log.append((name, args[0] if args else kwargs["size"],
                              self._gen.bit_generator.state["state"]["state"]))
            return attr(*args, **kwargs)

        return draw
