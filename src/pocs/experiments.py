"""Seeded Monte Carlo sweeps over the sensing-and-reconstruction pipeline.

A sweep is a grid of cells, each one (scheme, s, m, tau) combination, that
:func:`run_sweep` runs for a :class:`SweepConfig`. Every trial draws a
fresh sparse signal and, straight from their exact law, the entries of the
back-projection ``Phi^H z / (sigma ||z||_2) ~ x0 rho + (I - x0 x0^H) g``
that PBP can keep, without forming the m x n sensing matrix: the channel
(phase-only with bounded phase noise, or unaltered linear) enters only
through ``rho = y^H z / (sigma ||z||_2)``. It keeps the s strongest, as PBP
does, and records the direction error (:func:`_score_chunk`). A cell runs
on one stream, in chunks of :func:`_chunk_trials` trials.
:func:`_draw_chunk` specifies the law, the stream key and the order of the
draws. A pool task (:func:`_run_batch`) is a batch of whole chunks that
share s, from one cell or several: it draws each chunk, then scores all
their rows in one pass, as scoring is row by row. Aggregation folds trials
in index order, so a sweep gives the same bytes for one ``ENGINE`` whatever
the worker count or the batches, and :func:`run_trial` replays any trial
alone.

CSV schema (fixed column order, UTF-8, LF line endings, floats at 10
significant digits):

    scheme,s,m,tau,trials,failures,mean_error,mean_error_db,stderr_error

``mean_error_db`` is 10 log10 of the mean linear error. The JSON output
also carries each cell's ``zero_sign_hits``: how many drawn moduli (past
tau = pi, those of the arc entries only) met the zero-signum convention of
:func:`pocs.core.csign`.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Sequence, get_type_hints

import numpy as np

from .core import (ConfigError, DegenerateEstimateError, VarianceConvention, _check_int,
                   _check_real, _check_scheme, _unit_values, sample_sensing_matrix)
from .rip import oracle_support_error_bound, pbp_error_bound, rip_distortion_probe
from .rng import RngStream, fnv1a64

__all__ = [
    "CSV_HEADER",
    "ENGINE",
    "CellAggregate",
    "SweepConfig",
    "SweepResult",
    "fit_rate",
    "load_sweep_cells",
    "render_csv",
    "render_json",
    "rip_estimate_report",
    "run_sweep",
    "run_trial",
    "trial_stream_id",
]

# Stream-key version: names how a chunk consumes its stream.
ENGINE = "stat-v4"

# The chunk size (_chunk_trials) is a multiple of this, and at least this.
# It and _CHUNK_ENTRIES are part of the stream key: changing either needs a
# new ENGINE.
_MIN_CHUNK = 32
# Largest request, in complex128 entries (4 GiB): the working set of a
# 32-trial chunk (about five (32, s) arrays, whatever n is), its (32, m)
# draws, or rip-estimate's m x n matrix.
_MAX_ENTRIES = 2**28
# Widest draw of a chunk, in entries (512 KiB of float64): rows x max(m, 2s).
# Past it more rows cost memory traffic, not fewer calls.
_CHUNK_ENTRIES = 2**16
# Widest batch of chunks scored in one pass (_run_batch), in entries of its
# (rows, 2s) normals (128 KiB of float64), unless one chunk alone is wider. It
# moves no bit; a batch of 2^16 held more draws than a sweep's memory bound.
_BATCH_ENTRIES = 2**14
# What a chunk draws, each quantity from its own sub-stream, in this order
# (_draw_chunk)
_QUANTITIES = ("v", "redraw", "g", "beta", "gaps", "circle", "c", "arc", "law")
# Sub-streams lie whole jumps apart: the step of numpy's PCG64.jumped,
# (phi - 1) 2^128 outputs rounded to odd. Streams a multiple of 2^64 apart
# share the low half of the LCG state, and their outputs are correlated.
_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835


@dataclass(frozen=True, kw_only=True)
class SweepConfig:
    """Declarative description of one sweep: the grid of (scheme, s, m, tau)
    cells over ``schemes``, ``sparsity_levels``, the measurement counts and
    ``tau_grid``. The counts come from exactly one of ``m`` (a single count)
    and ``log2_m_over_n`` (m = round(n 2^ratio) per ratio). The fields, in
    this order, are the JSON output's ``config``.
    """

    n: int
    sparsity_levels: Sequence[int]
    log2_m_over_n: Sequence[float] | None = None
    m: int | None = None
    tau_grid: Sequence[float] = (0.0,)
    schemes: Sequence[str] = tuple(c.value for c in VarianceConvention)
    trials: int
    master_seed: int


@dataclass(frozen=True)
class CellAggregate:
    scheme: str
    s: int
    m: int
    tau: float
    trials: int
    failures: int
    mean_error: float
    mean_error_db: float
    stderr_error: float
    zero_sign_hits: int = 0


_CELL_TYPES = get_type_hints(CellAggregate)  # field -> int, float or str, in CSV column order
_CSV_FIELDS = tuple(_CELL_TYPES)[:9]  # zero_sign_hits is JSON only
CSV_HEADER = ",".join(_CSV_FIELDS)


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    cells: tuple[CellAggregate, ...]


def trial_stream_id(scheme: str, s: int, m: int, tau: float, trial_index: int) -> int:
    """Documented stream-id derivation; identical across configs and runs. A
    cell runs on the stream id of its trial 0. The scheme is keyed by its
    plain name, ``'po'`` or ``'cs'``, also when given as its
    :class:`VarianceConvention`."""
    scheme = _check_scheme("scheme", scheme)  # a member formats as its name from Python 3.11
    key = f"{ENGINE}|{scheme}|s={s}|m={m}|tau={tau + 0.0:.17g}|trial={trial_index}"
    return fnv1a64(key.encode("ascii"))


def _largest_exponentials(beta, gaps) -> np.ndarray:
    """The k largest of ``pool`` i.i.d. ``Exp(1)`` variables, in decreasing
    order, per row: ``(rows, k)`` from the draws ``beta``, (rows,), and
    ``gaps``, (rows, k - 1).

    The k-th largest is ``T_k = -log B`` with ``B ~ Beta(k, pool - k + 1)``,
    the k-th smallest of ``pool`` uniforms, drawn as ``beta``. Above it lie
    k - 1 i.i.d. ``Exp(1)`` excesses, whose spacings are independent
    ``Exp(1) / j`` (Renyi's representation): ``T_j = T_{j+1} + Z_j / j``,
    with ``Z_j`` the j-th column of ``gaps``, ``Exp(1)`` draws.
    """
    k = gaps.shape[1] + 1
    steps = np.empty((beta.size, k))  # T_k, then T_{j} - T_{j+1} for j = k - 1 down to 1
    steps[:, 0] = -np.log(beta)
    steps[:, 1:] = gaps[:, ::-1] / np.arange(k - 1, 0, -1)
    return np.cumsum(steps, axis=1)[:, ::-1]


def _arc_law(tau):
    # (q, r, p) of the mixture law of U[-tau, tau] mod 2 pi (_draw_chunk); the
    # quotient of a tau past 2^53 pi is rounded, so p is clamped to 1
    q, r = divmod(tau, math.pi)
    return q, r, min(1.0, q * math.pi / tau) if q else 0.0


def _draw_chunk(scheme, n, s, m, tau, master_seed, chunk, rows):
    """Draws for the first ``rows`` trials of chunk ``chunk`` of one cell:
    ``(x0, g, top, rho, zero_signs)``. This docstring specifies the engine's
    draws and their order. ``ENGINE`` names it, the chunk size included, and
    changes whenever the draws do.

    ``Phi^H z``, PBP's input for an m x n matrix ``Phi`` with per-part
    deviation sigma and its measurements ``z`` of a unit-norm ``x0``, is
    sampled without drawing ``Phi``. Split each row along ``x0``,
    ``phi_i = y_i x0^H + phi_i (I - x0 x0^H)`` with ``y = Phi x0``: for
    i.i.d. circular Gaussian rows ``y`` has m i.i.d. circular Gaussian
    entries with per-part sigma and is uncorrelated with, hence independent
    of, ``Phi (I - x0 x0^H)``. ``z`` depends only on ``y`` and the phase
    noise, so given ``z`` the part of ``Phi^H z`` orthogonal to ``x0`` is
    ``(I - x0 x0^H)`` applied to a circular Gaussian n-vector with per-part
    deviation ``sigma ||z||_2``. Hence, whatever the sparsity of ``x0``,

        Phi^H z / (sigma ||z||_2)  ~  x0 rho + (I - x0 x0^H) g

    with ``g`` n i.i.d. standard complex normals and
    ``rho = y^H z / (sigma ||z||_2)``. PBP and the direction error ignore a
    positive scale, so (scheme, m, tau) enter a trial only through the law
    of ``rho``, in which sigma cancels: on the phase-only channel
    (``z = csign(y) exp(1j xi)``, ``|xi_i| <= tau``) ``||z||_2 = sqrt(m)``
    and ``|y_i| / sigma = sqrt(2 E_i)``, ``E_i ~ Exp(1)``, so
    ``rho = sum_i sqrt(2 E_i) exp(1j xi_i) / sqrt(m)``; on the linear one
    ``z = y``, ``tau`` is 0 and ``rho = ||y||_2 / sigma = sqrt(2 Gamma(m, 1))``.

    The phase noise reduced mod 2 pi is a mixture (:func:`_arc_law`): with
    q, r = divmod(tau, pi), an entry is uniform on the circle with
    probability p = q pi / tau, else q pi + u with u ~ U[-r, r]. A circle
    term ``sqrt(2 E_i) exp(1j xi_i)`` is a standard complex normal, so K of
    them sum to ``sqrt(K) c`` with one standard complex normal ``c``, and
    ``sqrt(m) rho = (-1)^q sum_arc sqrt(2 E_i) exp(1j u_i) + sqrt(K) c``.
    At q = 0 every entry is an arc entry, u = xi; at tau = k pi a row draws
    no phase and no modulus.

    Off the support S of ``x0`` the scaled back-projection is ``g_j``,
    independent of the entries on S, and it counts only through its modulus
    ``sqrt(2 E_j)``, ``E_j ~ Exp(1)``, if among the s largest. So ``g`` on S
    and the k = min(s, n - s) largest ``E_j`` are exact; the positions of S
    only break ties, which have probability zero.

    A cell runs on one stream, the stream id of its trial 0,

        fnv1a64(b"<ENGINE>|<scheme>|s=<s>|m=<m>|tau=<tau:.17g>|trial=0")

    (:func:`trial_stream_id`) under the master seed, with a tau of -0.0
    keyed as 0.0. Its trials run in chunks of :func:`_chunk_trials`
    trials, and trial t is row t % size of chunk t // size. Quantity j of
    this list draws from its own sub-stream, the cell's stream jumped
    9 chunk + j times (``PCG64.jumped``, taken with ``advance``), in one
    array call for the ``rows`` rows:

    0. ``v``, (rows, s) uniforms, the signal values ``2v - 1`` on S,
       normalized by :func:`pocs.core._unit_values`, which also draws
    1. the redraws of the rows whose values are all zero: row by row, in row
       order, each row's s uniforms until they are not all 0.5;
    2. ``g``, (rows, s) standard complex normals, its entries on S;
    3. if k > 0, rows Beta draws for the k-th largest of n - s ``Exp(1)``
       variables, and
    4. (rows, k - 1) ``Exp(1)`` gaps above it (:func:`_largest_exponentials`);
    5. on the phase-only channel with q >= 1, rows circle counts
       ``K ~ Binomial(m, p)``, and
    6. (rows, 2) standard normals ``c``;
    7. on the phase-only channel with tau > 0, the arc phases: the m - K of
       each row, flat in row order, uniform on [-r, r] ((rows, m) uniforms
       on [-tau, tau] at q = 0);
    8. the law of ``rho``: ``po`` draws the Rayleigh(1) moduli
       ``sqrt(2 E)``, ``E ~ Exp(1)`` (numpy's ``rayleigh``), for the arc
       entries, flat in row order ((rows, m) at q = 0, summed per row by
       ``np.bincount`` past it); ``cs`` draws ``G ~ Gamma(m, 1)``, and
       ``rho = sqrt(2 G)``.

    numpy fills a draw in order, so every draw is a prefix: row k of a
    draw, a row's flat entries and a row's redraws do not depend on the
    rows after it. A trial is therefore the same bits whatever the trial
    count, the worker count, or ``rows`` (:func:`run_trial` draws its chunk
    up to its row). Returns ``x0`` (the values on S), ``g`` and ``top``,
    their ``rho``, and how many drawn moduli met the zero-signum convention
    of :func:`pocs.core.csign`.
    """
    gen = RngStream(master_seed, trial_stream_id(scheme, s, m, tau, 0)).generator()
    bits = gen.bit_generator
    cell = bits.state

    def at(quantity):  # gen, at the start of the quantity's sub-stream
        jumps = chunk * len(_QUANTITIES) + _QUANTITIES.index(quantity)
        if jumps:  # chunk 0 draws "v" first, from the cell's stream as it starts
            bits.state = cell
            bits.advance(jumps * _JUMP)
        return gen

    k = min(s, n - s)
    x0 = _unit_values(at("v").random((rows, s)), lambda: at("redraw"))
    g = at("g").standard_normal((rows, 2 * s)).view(np.complex128)
    top = np.empty((rows, 0))
    if k:
        beta = at("beta").beta(k, n - s - k + 1, rows)
        top = _largest_exponentials(beta, at("gaps").standard_exponential((rows, k - 1)))
    if scheme == "cs":  # z = y: rho = ||y||_2 / sigma
        return x0, g, top, np.sqrt(2.0 * at("law").standard_gamma(m, rows)), 0
    q, r, p = _arc_law(tau)
    # conj(y_i) csign(y_i) = |y_i|, and an exact zero adds 0 whatever csign maps it to
    if not q:
        xi = at("arc").uniform(-tau, tau, (rows, m)) if tau > 0 else None
        mod = at("law").rayleigh(size=(rows, m))  # |y_i| / sigma
        if xi is None:
            rho = mod.sum(axis=1)
        else:  # the cosines, then the sines, in one buffer
            trig = np.empty_like(xi)
            re, im = (np.einsum("...i,...i->...", mod, f(xi, out=trig)) for f in (np.cos, np.sin))
            rho = re + 1j * im
    else:
        circle = at("circle").binomial(m, p, rows)
        c = at("c").standard_normal((rows, 2)).view(np.complex128)[:, 0]
        counts = m - circle  # arc entries per row
        drawn = int(counts.sum())
        u = at("arc").uniform(-r, r, drawn)
        mod = at("law").rayleigh(size=drawn)
        owner = np.repeat(np.arange(rows), counts)  # the row of each arc entry
        prod = np.empty_like(u)  # mod cos(u), then mod sin(u)
        re, im = (np.bincount(owner, np.multiply(f(u, out=prod), mod, out=prod), rows)
                  for f in (np.cos, np.sin))
        rho = (-1.0 if q % 2 else 1.0) * (re + 1j * im) + np.sqrt(circle) * c  # K circle terms
    zero_signs = 0 if mod.all() else int(np.count_nonzero(mod == 0.0))
    return x0, g, top, rho / math.sqrt(m), zero_signs


def _score_chunk(x0, g, top, rho):
    """PBP's direction error on drawn rows: NaN, a failed trial, where the
    estimate is identically zero.

    On the support the scaled back-projection (:func:`_draw_chunk`) is
    ``b = x0 rho + g - x0 (x0 . g)``; off it, the k candidates have squared
    moduli ``2 top``. PBP keeps the s largest of these s + k entries, and
    the error is summed term by term,
    ``sum_S |x0 - kept b / nrm|^2 + sum_kept_off 2 top / nrm^2``
    with ``nrm`` the estimate's norm, so that an exact recovery scores its
    rounding residue and not the cancellation of ``2 - 2 cos``.
    """
    s, k = x0.shape[1], top.shape[1]
    b = x0 * (rho[:, None] - np.einsum("ij,ij->i", x0, g)[:, None]) + g
    power = np.concatenate([b.real * b.real + b.imag * b.imag, 2.0 * top], axis=1)
    if k:  # drop all but the s largest; ties have probability zero
        power[power < np.partition(power, k, axis=1)[:, k, None]] = 0.0
    nrm = np.sqrt(power.sum(axis=1))
    inv = 1.0 / np.where(nrm > 0.0, nrm, math.nan)  # a zero estimate has no direction
    residual = x0 - np.where(power[:, :s] > 0.0, b, 0.0) * inv[:, None]
    off = power[:, s:].sum(axis=1) * (inv * inv)
    return np.sqrt((residual.real * residual.real + residual.imag * residual.imag).sum(axis=1) + off)


def _run_batch(tasks):
    """A pool task: the chunks ``tasks``, each given by :func:`_draw_chunk`'s
    arguments, all at one n and one s. Each chunk is drawn on its own, and
    :func:`_score_chunk` scores the rows of all of them in one pass. Scoring
    is row by row, with only correctly rounded arithmetic, partitions and
    row sums across a row, so a trial scores the same bits in any batch.
    Returns the errors, chunk after chunk, and each chunk's zero-signum
    count."""
    *draws, zero_signs = zip(*(_draw_chunk(*task) for task in tasks))
    batch = [np.concatenate(d) for d in draws]
    del draws  # the chunks' own arrays, freed before the scoring's temporaries
    return _score_chunk(*batch), list(zero_signs)


def _run_chunk(scheme, n, s, m, tau, master_seed, chunk, rows):
    """The first ``rows`` trials of chunk ``chunk`` of one cell, as a batch of
    that chunk alone (:func:`_run_batch`): ``(errors, zero_signs)``."""
    errors, (zero_signs,) = _run_batch([(scheme, n, s, m, tau, master_seed, chunk, rows)])
    return errors, zero_signs


def run_trial(
    scheme: str, n: int, s: int, m: int, tau: float, master_seed: int, trial_index: int
) -> float:
    """One trial: draw x0 and the back-projection of its measurements, keep
    the s strongest entries (PBP) and return the direction error, NaN if the
    estimate is zero. The trial is row ``trial_index % size`` of its chunk
    of ``size`` trials, drawn with the rows before it only. ``trial_index``
    lies in [0, 2^28), the trials a sweep can run."""
    n = _check_int("n", n, 1, 2**53)  # n - s is taken as a double
    scheme, s, m, tau = _check_cell(scheme, n, s, m, tau)
    master_seed = RngStream(master_seed).master_seed  # before any work
    # a sweep runs fewer trials; far past it the sub-stream offsets wrap at 2^128 and alias
    trial_index = _check_int("trial_index", trial_index, 0, _MAX_ENTRIES - 1)
    chunk, row = divmod(trial_index, _chunk_trials(s, m))
    errors, _ = _run_chunk(scheme, n, s, m, tau, master_seed, chunk, row + 1)
    return float(errors[row])


def _aggregate_cell(cell, errors: np.ndarray, zero_signs: int) -> CellAggregate:
    scheme, s, m, tau = cell
    failed = np.isnan(errors)
    failures = int(np.count_nonzero(failed))
    ok = errors[~failed] if failures else errors
    if ok.size == 0:
        raise DegenerateEstimateError(
            f"cell scheme={scheme} s={s} m={m} tau={tau:g}: no successful trials"
        )
    # the mean and the sample deviation as ndarray.mean and .std(ddof=1) sum them
    mean = float(np.add.reduce(ok) / ok.size)
    db = float(10.0 * np.log10(mean)) if mean > 0 else float("-inf")
    se = 0.0
    if ok.size > 1:
        dev = ok - mean
        se = math.sqrt(np.add.reduce(dev * dev) / (ok.size - 1)) / math.sqrt(ok.size)
    return CellAggregate(scheme, int(s), int(m), float(tau), int(errors.size), failures,
                         mean, db, se, int(zero_signs))


def _pool_size(workers: int, num_chunks: int) -> int:
    # worker processes for num_chunks chunks: never more than there are chunks, nor
    # than the CPUs this process may run on (a forking pool starts all its workers
    # at once)
    workers = _check_int("workers", workers, 1)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(workers, num_chunks, cpus)


def _chunk_trials(s, m) -> int:
    # trials per chunk: the multiple of 32 whose widest draw, rows x max(m, 2s),
    # holds at most _CHUNK_ENTRIES entries, and at least 32
    return _MIN_CHUNK * max(1, _CHUNK_ENTRIES // (_MIN_CHUNK * max(m, 2 * s)))


def _plan_batches(cells, n, trials, master_seed, workers):
    # the pool size and the pool tasks of a sweep. Its chunks, each (cell index, first
    # trial, _draw_chunk's arguments), are grouped by s, cells in nesting order and
    # chunks in order, and cut into batches of whole chunks whose (rows, 2s) normals
    # hold at most _BATCH_ENTRIES entries, or of one wider chunk. A pool gets at least
    # about four batches per worker, one round trip each.
    by_s = {}
    for ci, (scheme, s, m, tau) in enumerate(cells):
        size = _chunk_trials(s, m)
        for c in range(-(-trials // size)):
            task = (scheme, n, s, m, tau, master_seed, c, min(size, trials - c * size))
            by_s.setdefault(s, []).append((ci, c * size, task))
    count = sum(map(len, by_s.values()))
    processes = _pool_size(workers, count)
    cap = -(-count // (4 * processes)) if processes > 1 else count
    batches = []
    for s, chunks in by_s.items():
        entries = _BATCH_ENTRIES  # full: an s starts a batch
        for chunk in chunks:
            wide = 2 * s * chunk[2][-1]
            if entries + wide > _BATCH_ENTRIES or len(batches[-1]) == cap:
                batches.append([])
                entries = 0
            batches[-1].append(chunk)
            entries += wide
    return processes, batches


def _run_cells(cells, n, trials, master_seed, workers):
    errors, zero_signs = np.empty((len(cells), trials)), [0] * len(cells)
    size, batches = _plan_batches(cells, n, trials, master_seed, workers)
    if size > 1:  # imported here: a serial run does not pay for the pool machinery
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(size) if size > 1 else contextlib.nullcontext() as pool:
        tasks = ([task for *_, task in batch] for batch in batches)
        outputs = pool.map(_run_batch, tasks) if pool else map(_run_batch, tasks)
        for batch, (errs, zeros) in zip(batches, outputs):  # in batch order
            done = 0
            for (ci, start, task), z in zip(batch, zeros):
                rows = task[-1]
                errors[ci, start : start + rows] = errs[done : done + rows]
                zero_signs[ci] += z
                done += rows
    return tuple(
        _aggregate_cell(cell, errors[ci], zero_signs[ci]) for ci, cell in enumerate(cells)
    )


def _check_cell(scheme, n, s, m, tau, m_field="m"):
    # the rules of one (scheme, s, m, tau) cell at a checked n, returned with the plain
    # scheme name, int s, m and float tau; a ConfigError names the sweep field that gave
    # the value, m_field that of m. A chunk holds about five complex (32, s) arrays.
    s = _check_int("sparsity_levels", s, 1, min(n, _MAX_ENTRIES // (5 * _MIN_CHUNK)))
    scheme = _check_scheme("schemes", scheme)
    _check_real("tau_grid", tau)
    tau = float(tau)
    if scheme == "cs" and tau != 0:
        raise ConfigError("tau_grid: the linear scheme 'cs' has no phase noise; tau must be 0")
    m = _check_int(m_field, m, 1, _MAX_ENTRIES // _MIN_CHUNK)  # a chunk draws (32, m) at once
    return scheme, s, m, tau


def _check_grid(field: str, values) -> None:
    # a grid is read more than once, so a generator would be spent; an empty grid has
    # no cells, and a repeated value would give two cells with the same stream ids
    if not hasattr(values, "__len__"):
        raise ConfigError(f"{field}: must have a length, got a {type(values).__name__}")
    if len(values) == 0:  # not `not values`: a numpy grid has no truth value
        raise ConfigError(f"{field}: at least one value is required")
    seen = set()
    for value in values:
        if value in seen:
            raise ConfigError(f"{field}: {value!r} is given more than once")
        seen.add(value)


def _ratio_to_m(n: int, ratio: float) -> int:
    # 2.0**ratio raises OverflowError from 1024 on; NaN fails every comparison
    scaled = n * 2.0**ratio if ratio < 1024 else math.inf
    if not 0.5 < scaled < math.inf:  # round(scaled) >= 1
        raise ConfigError(f"log2_m_over_n: ratio {ratio:g} gives no finite m >= 1 at n={n}")
    return int(round(scaled))


def run_sweep(config: SweepConfig, workers: int = 1) -> SweepResult:
    """Direction error over the (scheme, s, m, tau) cells of ``config``, in that
    nesting order."""
    # the law of the off-support moduli takes n - s as a double; n is named before
    # a ratio turns it into m
    n = _check_int("n", config.n, 1, 2**53)
    seed = RngStream(config.master_seed).master_seed  # before any work
    for field in ("sparsity_levels", "schemes", "tau_grid"):
        _check_grid(field, getattr(config, field))
    # -0.0 is the cell 0.0: one label (trial_stream_id keys both alike)
    config = replace(config, tau_grid=tuple(0.0 if tau == 0 else tau for tau in config.tau_grid))
    if (config.m is None) == (config.log2_m_over_n is None):
        raise ConfigError("m: set exactly one of m and log2_m_over_n")
    field, ms = "m", (config.m,)
    if config.m is None:  # a repeated ratio, or two that round alike, repeat an m
        _check_grid("log2_m_over_n", config.log2_m_over_n)  # the JSON echo reads it again
        field, ms = "log2_m_over_n", tuple(_ratio_to_m(n, r) for r in config.log2_m_over_n)
        _check_grid(field, ms)
    cells = [
        _check_cell(scheme, n, s, m, tau, field)
        for scheme in config.schemes
        for s in config.sparsity_levels
        for m in ms
        for tau in config.tau_grid
    ]
    # bookkeeping held from before the first draw: per 32 trials of each cell,
    # 32 float64 errors and at most one chunk (about 240 bytes: its arguments, its
    # cell and first trial), so about 16 bytes, one complex entry, per trial
    bound = _MIN_CHUNK * (_MAX_ENTRIES // _MIN_CHUNK // len(cells))
    trials = _check_int("trials", config.trials, 1, bound)
    aggregates = _run_cells(cells, n, trials, seed, workers)
    return SweepResult(config=config, cells=aggregates)


def fit_rate(
    cells: Sequence[CellAggregate],
    scheme: str,
    s: int,
    n: int | None,
    min_log2_ratio: float = float("-inf"),
) -> float:
    """Least-squares slope of log10(mean error) against log10(m).

    Uses the ``cells`` matching ``scheme`` and ``s`` whose log2(m/n) is at
    least ``min_log2_ratio``; needs three or more grid points.
    """
    if n is None:
        raise ConfigError("n: signal dimension n unknown; pass n explicitly")
    n = _check_int("n", n, 1)
    scheme, s = _check_scheme("scheme", scheme), _check_int("s", s, 1)
    if (not isinstance(min_log2_ratio, numbers.Real) or isinstance(min_log2_ratio, bool)
            or math.isnan(min_log2_ratio)):  # "0", True, NaN
        raise ConfigError(f"min_log2_ratio: must be a number or +-inf, got {min_log2_ratio!r}")
    cells = [c for c in cells if c.scheme == scheme and c.s == s]
    for c in cells:
        if c.m < 1:
            raise ConfigError(f"fit_rate: cell scheme={scheme} s={s} m={c.m}; "
                              "a log-log fit needs m >= 1")
    points = sorted(
        (c.m, c.mean_error) for c in cells
        if math.log2(c.m) - math.log2(n) >= min_log2_ratio - 1e-12
    )
    if len(points) < 3:
        raise ConfigError(f"fit_rate: needs at least 3 grid points, found {len(points)}")
    for m, mean in points:
        if not 0 < mean < math.inf:
            raise ConfigError(f"fit_rate: cell scheme={scheme} s={s} m={m} has mean_error "
                              f"{mean:g}; a log-log fit needs finite positive means")
    x = [math.log10(m) for m, _ in points]  # exact for any int, as math.log2 above
    y = np.log10([mean for _, mean in points])
    return float(np.polyfit(x, y, 1)[0])


def _csv_text(header: Sequence[str], rows) -> str:
    # CSV of the column names `header` and the value sequences `rows`: floats at 10
    # significant digits, anything else by str, LF endings
    lines = [header, *([f"{v:.10g}" if isinstance(v, float) else str(v) for v in r] for r in rows)]
    return "".join(",".join(line) + "\n" for line in lines)


def render_csv(result: SweepResult) -> str:
    return _csv_text(_CSV_FIELDS, ([getattr(c, f) for f in _CSV_FIELDS] for c in result.cells))


def _json_text(payload: dict) -> str:
    # the JSON of a sweep or a rip-estimate report: indented by 2, LF-terminated
    def plain(value):  # a numpy value or grid as its Python value, a range, say, as a list
        return value.tolist() if isinstance(value, (np.ndarray, np.generic)) else list(value)

    return json.dumps(payload, indent=2, default=plain) + "\n"


def render_json(result: SweepResult) -> str:
    return _json_text({"engine": ENGINE, "config": asdict(result.config),
                       "cells": [asdict(c) for c in result.cells]})


def _cell_from_row(path: str, lineno: int, line: str) -> CellAggregate:
    where, r = f"{path}, line {lineno}", line.split(",")
    if len(r) != len(_CSV_FIELDS):
        raise ConfigError(f"{where}: expected {len(_CSV_FIELDS)} fields, got {len(r)}")
    try:
        return CellAggregate(**{k: kind(v) for (k, kind), v in zip(_CELL_TYPES.items(), r)})
    except ValueError as exc:  # a field that is not a number
        raise ConfigError(f"{where}: {exc}") from None


def _json_value(where: str, value, kind):
    # a JSON value already holds its field's type; a real field takes an int too, none a bool
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ConfigError(f"{where} must be {kind.__name__}, got {value!r}")
    return kind(value)


def load_sweep_cells(path: str) -> tuple[tuple[CellAggregate, ...], int | None]:
    """The cells of a sweep rendered by :func:`render_csv` or
    :func:`render_json`, and its signal dimension ``n``.

    JSON gives ``n`` from ``config.n``, which must be an int or null, and no
    other config key is read; each cell field must hold its field's type. A
    CSV carries no ``n``: it comes back None, for a caller that needs the
    dimension (rate fitting, for example) to supply.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    if text.lstrip().startswith("{"):
        try:
            payload = json.loads(text)
            n = payload["config"]["n"]
            cells = tuple(
                CellAggregate(**{
                    k: _json_value(f"{path}: cells[{i}].{k}", v, _CELL_TYPES[k])
                    for k, v in c.items()
                })
                for i, c in enumerate(payload["cells"])
            )
        # bad JSON, a missing or unknown key, or a config or cell that is not an object
        except (json.JSONDecodeError, KeyError, TypeError, AttributeError) as exc:
            raise ConfigError(f"{path}: not a sweep JSON ({type(exc).__name__}: {exc})")
        return cells, None if n is None else _json_value(f"{path}: config.n", n, int)
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or lines[0][1] != CSV_HEADER:
        raise ConfigError(f"{path}: not a sweep CSV (unexpected header)")
    return tuple(_cell_from_row(path, no, ln) for no, ln in lines[1:]), None


def rip_estimate_report(
    m: int, n: int, s: int, num_probes: int, master_seed: int
) -> dict:
    """Probe a fresh PHASE_ONLY matrix and report the implied error bounds."""
    # checked before the m x n matrix is drawn
    m, n = _check_int("m", m, 1), _check_int("n", n, 1)
    s = _check_int("s", s, 1, n)
    num_probes = _check_int("num_probes", num_probes, 1)
    if m * n > _MAX_ENTRIES:
        raise ConfigError(
            f"{'m' if m >= n else 'n'}: an m x n = {m} x {n} matrix has more than "
            f"{_MAX_ENTRIES} entries"
        )
    stream = RngStream(master_seed)
    gen = stream.generator()
    Phi = sample_sensing_matrix(gen, m, n, VarianceConvention.PHASE_ONLY)
    estimate = rip_distortion_probe(Phi, s, num_probes, gen)
    return {
        "m": m,
        "n": n,
        "s": s,
        "master_seed": stream.master_seed,
        "requested_probes": num_probes,
        "evaluated_probes": estimate.num_probes,
        "delta_lower": estimate.delta_lower,
        "oracle_support_error_bound": oracle_support_error_bound(estimate.delta_lower),
        "pbp_error_bound_noiseless": pbp_error_bound(estimate.delta_lower, 0.0),
    }
