"""Seeded Monte Carlo sweeps over the sensing-and-reconstruction pipeline.

A sweep is a grid of cells, each one (scheme, s, m, tau) combination, that
:func:`run_sweep` runs for a :class:`SweepConfig`. Every trial draws a
fresh sparse signal, then the back-projection ``Phi^H z`` of its
measurements (phase-only with bounded phase noise, or unaltered linear)
straight from its exact law (:func:`_draw_chunk`), without forming the
m x n sensing matrix. The trial then keeps the s strongest entries, as PBP
does, and records the direction error.

Trials run in chunks of 32 per cell, and chunk c runs on one stream: the
stream id of its first trial,

    fnv1a64(b"<ENGINE>|<scheme>|s=<s>|m=<m>|tau=<tau:.17g>|trial=<32c>")

under the configured master seed. ``ENGINE`` names the way a chunk
consumes its stream (the chunk size included); it changes whenever the
draws do, and the JSON output echoes it. A chunk draws each quantity for
all its rows in one call (:func:`_draw_chunk`), the last one for the rows
asked for only. numpy fills a draw in order, so trial t is row t % 32 of
chunk t // 32 whatever the trial count, worker count or row blocking, and
:func:`run_trial` replays it alone. :func:`_score_chunk` then scores a
chunk's rows at once. Aggregation folds trials in index order, which makes
repeated runs byte-identical.

CSV schema (fixed column order, UTF-8, LF line endings, floats at 10
significant digits):

    scheme,s,m,tau,trials,failures,mean_error,mean_error_db,stderr_error

``mean_error_db`` is 10 log10 of the mean linear error. The JSON output
also carries each cell's ``zero_sign_hits``: how many measurements met the
zero-signum convention of :func:`pocs.core.csign`.
"""

from __future__ import annotations

import contextlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Sequence, get_type_hints

import numpy as np

from .core import hard_threshold
from .recon import direction_error
from .rip import oracle_support_error_bound, pbp_error_bound, rip_distortion_probe
from .rng import RngStream, fnv1a64
from .sensing import (
    VarianceConvention,
    _redraw_zero_values,
    _support_value_rows,
    per_part_sigma,
    sample_sensing_matrix,
)

# Stream-key version: names how a chunk consumes its stream.
ENGINE = "stat-v1"
SCHEMES = ("po", "cs")
CSV_HEADER = "scheme,s,m,tau,trials,failures,mean_error,mean_error_db,stderr_error"

# Trials per chunk, which share one stream: part of the stream key, so
# changing it needs a new ENGINE.
_TRIAL_CHUNK = 32
# Largest request, in complex128 entries (4 GiB): a chunk's (32, n) working
# set, one row block of an m-length draw, or rip-estimate's m x n matrix.
_MAX_ENTRIES = 2**28


class ConfigError(ValueError):
    """Invalid sweep configuration; the message names the offending field."""


class NumericalFailureError(ArithmeticError):
    """A sweep cell produced no usable trials."""


@dataclass(frozen=True)
class SweepConfig:
    """Declarative description of one sweep: the grid of (scheme, s, m, tau)
    cells over ``schemes``, ``sparsity_levels``, the measurement counts and
    ``tau_grid``. The counts come from exactly one of ``m`` (a single count)
    and ``log2_m_over_n`` (m = round(n 2^ratio) per ratio).
    """

    n: int
    sparsity_levels: Sequence[int]
    trials: int
    master_seed: int
    log2_m_over_n: Sequence[float] | None = None
    m: int | None = None
    tau_grid: Sequence[float] = (0.0,)
    schemes: Sequence[str] = SCHEMES


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


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    cells: tuple[CellAggregate, ...]


def trial_stream_id(scheme: str, s: int, m: int, tau: float, trial_index: int) -> int:
    """Documented stream-id derivation; identical across configs and runs. A
    chunk runs on the stream id of its first trial."""
    key = f"{ENGINE}|{scheme}|s={s}|m={m}|tau={tau:.17g}|trial={trial_index}"
    return fnv1a64(key.encode("ascii"))


def _phase_only_statistic(mod: np.ndarray, xi: np.ndarray | None) -> tuple[np.ndarray, int]:
    """``y^H z`` along the last axis for phase-only ``z = csign(y) exp(1j xi)``,
    from the moduli ``mod = |y|``.

    ``conj(y_i) csign(y_i) = |y_i|``, so ``y^H z = sum_i |y_i| exp(1j xi_i)``,
    computed without forming ``z``; ``xi=None`` stands for no phase noise.
    An exact zero of ``y`` adds 0 whatever csign maps it to. Returns the
    statistic and the number of such zeros.
    """
    zeros = mod.size - int(np.count_nonzero(mod))
    if xi is None:
        return mod.sum(axis=-1), zeros
    re = np.einsum("...i,...i->...", mod, np.cos(xi))
    return re + 1j * np.einsum("...i,...i->...", mod, np.sin(xi)), zeros


def _combine_back_projection(x0, yz, scale, g) -> np.ndarray:
    """``x0 (y^H z) + scale (I - x0 x0^H) g`` along the last axis, written into ``g``."""
    yz = np.asarray(yz, dtype=np.complex128)[..., None]
    scale = np.asarray(scale, dtype=np.complex128)[..., None]
    x0_g = np.einsum("...i,...i->...", x0.conj(), g)[..., None]
    g *= scale
    g += x0 * (yz - scale * x0_g)
    return g


def _draw_chunk(scheme, n, s, m, tau, master_seed, start, stop):
    """Draws for trials ``start`` to ``stop - 1`` of one cell, all in one chunk:
    ``(u, yz, scale, g, zero_signs)``.

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

        Phi^H z  ~  x0 (y^H z) + sigma ||z||_2 (I - x0 x0^H) g

    with ``g`` n i.i.d. standard complex normals, which
    :func:`_combine_back_projection` forms. ``y`` enters only through two
    scalars, drawn from their laws: on the phase-only channel
    (``z = csign(y) exp(1j xi)``, ``|xi_i| <= tau``)
    ``y^H z = sum_i |y_i| exp(1j xi_i)`` needs only the Rayleigh moduli and
    ``||z||_2 = sqrt(m)``; on the linear one ``z = y``, ``tau`` is 0 and
    both come from ``||y||_2``.

    The chunk's stream makes one array call per draw, in this order:

    1. ``u``, (32, n + s) uniforms for the signals, redrawing the values of
       rows whose s values are all zero;
    2. ``g``, (32, n) standard complex normals;
    3. on the phase-only channel with tau > 0, ``xi``, (32, m) uniforms on
       [-tau, tau];
    4. the scalar law of the rows up to ``stop`` only: ``po`` draws (rows, m)
       ``E ~ Exp(1)`` with ``|y_i| = sigma sqrt(2 E_i)``; ``cs`` draws
       ``q = ||y||^2 / sigma^2 ~ chi^2(2m) = 2 Gamma(m, 1)``.

    Row k of the last draw does not depend on the rows after it; that draw
    runs in row blocks of at most ``_MAX_ENTRIES`` entries. Returns rows
    ``start`` to ``stop - 1`` of ``u`` and ``g``, their ``y^H z`` and
    ``sigma ||z||_2``, and how many measurements met the zero-signum convention.
    """
    chunk0 = start - start % _TRIAL_CHUNK
    lo, hi = start - chunk0, stop - chunk0
    sigma = per_part_sigma(m, VarianceConvention(scheme))
    gen = RngStream(master_seed, trial_stream_id(scheme, s, m, tau, chunk0)).generator()
    u = gen.random((_TRIAL_CHUNK, n + s))
    _redraw_zero_values(gen, u, n)
    g = gen.standard_normal((_TRIAL_CHUNK, 2 * n)).view(np.complex128)
    if scheme == "cs":  # z = y: y^H z = ||y||^2 and ||z||_2 = ||y||_2
        q = 2.0 * gen.standard_gamma(m, hi)[lo:]
        return u[lo:hi], sigma * sigma * q, sigma * sigma * np.sqrt(q), g[lo:hi], 0
    block = max(1, _MAX_ENTRIES // m)  # rows per block
    noise = gen
    if tau > 0 and block < _TRIAL_CHUNK:
        # the moduli follow the noise of all 32 rows: read them from a copy of
        # the stream past it (one 64-bit output per uniform), the noise block by block
        bits = np.random.PCG64(0)
        bits.state = gen.bit_generator.state
        gen = np.random.Generator(bits.advance(_TRIAL_CHUNK * m))
    yz, zero_signs = np.empty(hi - lo, dtype=np.complex128), 0
    for b0 in range(0, hi, block):
        b1 = min(b0 + block, hi)
        xi = None
        if tau > 0:
            xi = noise.uniform(-tau, tau, (_TRIAL_CHUNK if noise is gen else b1 - b0, m))
        mod = gen.standard_exponential((b1 - b0, m))
        np.multiply(mod, 2.0 * sigma * sigma, out=mod)
        np.sqrt(mod, out=mod)  # |y_i| = sigma sqrt(2 E_i)
        first = max(lo, b0)  # rows before lo are drawn, not asked for
        if first < b1:
            yz[first - lo : b1 - lo], hits = _phase_only_statistic(
                mod[first - b0 :], None if xi is None else xi[first - b0 : b1 - b0]
            )
            zero_signs += hits
    return u[lo:hi], yz, np.full(hi - lo, sigma * math.sqrt(m)), g[lo:hi], zero_signs


def _score_chunk(u, s, yz, scale, g):
    """PBP on drawn rows: ``(errors, supports)``.

    Forms each row's signal from ``u`` and its back-projection from
    ``(yz, scale, g)`` (into ``g``), keeps the s strongest entries and
    scores the direction error: NaN, a failed trial, where the estimate is
    identically zero. ``supports`` holds the sorted supports found.
    """
    supports, values = _support_value_rows(u, s)
    x0 = np.zeros(g.shape, dtype=np.complex128)
    np.put_along_axis(x0, supports, values, axis=1)
    estimate, found = hard_threshold(_combine_back_projection(x0, yz, scale, g), s)
    # a zero estimate has no direction: score x0 in its place, then void the trial
    failed = ~estimate.any(axis=1)
    estimate[failed] = x0[failed]
    errors = direction_error(x0, estimate)
    errors[failed] = math.nan
    return errors, found


def _run_chunk(scheme, n, s, m, tau, master_seed, start, stop):
    """Trials ``start`` to ``stop - 1`` of one cell, all in one chunk:
    :func:`_score_chunk` of :func:`_draw_chunk`, ``(errors, supports,
    zero_signs)``."""
    u, yz, scale, g, zero_signs = _draw_chunk(scheme, n, s, m, tau, master_seed, start, stop)
    return (*_score_chunk(u, s, yz, scale, g), zero_signs)


def run_trial(
    scheme: str, n: int, s: int, m: int, tau: float, master_seed: int, trial_index: int
) -> float:
    """One trial: draw x0 and the back-projection of its measurements, keep
    the s strongest entries (PBP) and return the direction error, NaN if the
    estimate is zero. This is row ``trial_index % 32`` of its chunk, drawn
    alone."""
    _check_cell(scheme, n, s, m, tau)
    _check_master_seed(master_seed)
    if trial_index < 0:
        raise ConfigError(f"trial_index: must be >= 0, got {trial_index}")
    errors, _, _ = _run_chunk(scheme, n, s, m, tau, master_seed, trial_index, trial_index + 1)
    return float(errors[0])


def _aggregate_cell(cell, errors: np.ndarray, zero_signs: int) -> CellAggregate:
    scheme, s, m, tau = cell
    failed = np.isnan(errors)
    ok = errors[~failed]
    if ok.size == 0:
        raise NumericalFailureError(
            f"cell scheme={scheme} s={s} m={m} tau={tau:g}: no successful trials"
        )
    mean = float(ok.mean())
    db = float(10.0 * np.log10(mean)) if mean > 0 else float("-inf")
    se = float(ok.std(ddof=1) / math.sqrt(ok.size)) if ok.size > 1 else 0.0
    failures = int(np.count_nonzero(failed))
    return CellAggregate(scheme, int(s), int(m), float(tau), int(errors.size), failures,
                         mean, db, se, int(zero_signs))


def pool_size(workers: int, num_tasks: int) -> int:
    """Worker processes for ``num_tasks`` chunks: never more than there are chunks."""
    if workers < 1:
        raise ConfigError(f"workers: must be >= 1, got {workers}")
    return min(workers, num_tasks)


def _run_cells(cells, n, trials, master_seed, workers):
    tasks = [  # _run_chunk's arguments, cell by cell, chunk by chunk
        (scheme, n, s, m, tau, master_seed, start, min(start + _TRIAL_CHUNK, trials))
        for scheme, s, m, tau in cells
        for start in range(0, trials, _TRIAL_CHUNK)
    ]
    errors = np.empty((len(cells), trials))
    flat, zero_signs, done = errors.reshape(-1), [0] * len(cells), 0
    size = pool_size(workers, len(tasks))
    with ProcessPoolExecutor(size) if size > 1 else contextlib.nullcontext() as pool:
        outputs = (pool.map if pool else map)(_run_chunk, *zip(*tasks))
        for errs, _, zeros in outputs:  # in task order
            flat[done : done + errs.size] = errs
            zero_signs[done // trials] += zeros
            done += errs.size
    return tuple(
        _aggregate_cell(cell, errors[ci], zero_signs[ci]) for ci, cell in enumerate(cells)
    )


def _check_cell(scheme, n, s, m, tau) -> None:
    # the rules of one (scheme, s, m, tau) cell at dimension n; a ConfigError
    # names the sweep field that gave the value
    if not 1 <= s <= n:
        raise ConfigError(f"sparsity_levels: s={s} outside [1, n={n}]")
    if scheme not in SCHEMES:
        raise ConfigError(f"schemes: unknown scheme {scheme!r}, use 'po' or 'cs'")
    if not (tau >= 0 and math.isfinite(2.0 * tau)):  # uniform(-tau, tau) spans 2 tau
        raise ConfigError(f"tau_grid: need tau >= 0 with 2 tau finite, got {tau:g}")
    if scheme == "cs" and tau != 0:
        raise ConfigError("tau_grid: the linear scheme 'cs' has no phase noise; tau must be 0")
    if m < 1:
        raise ConfigError(f"m: must be >= 1, got {m}")


def _check_master_seed(seed) -> None:
    # RngStream keeps the low 64 bits only: outside [0, 2^64) two seeds would
    # give the same draws
    if seed is None:
        raise ConfigError("master_seed: a master seed is required, got None")
    if not 0 <= seed < 1 << 64:
        raise ConfigError(f"master_seed: must lie in [0, 2^64), got {seed}")


def _check_distinct(field: str, values) -> None:
    # a repeated value would give two cells with the same stream ids
    seen = set()
    for value in values:
        if value in seen:
            raise ConfigError(f"{field}: {value!r} is given more than once")
        seen.add(value)


def _ratio_to_m(n: int, ratio: float) -> int:
    # 2.0**ratio raises OverflowError from 1024 on; NaN fails every comparison
    scaled = n * 2.0**ratio if ratio < 1024 else math.inf
    if not math.isfinite(scaled):
        raise ConfigError(f"log2_m_over_n: ratio {ratio:g} gives no finite m at n={n}")
    m = int(round(scaled))
    if m < 1:
        raise ConfigError(f"log2_m_over_n: ratio {ratio:g} gives m < 1 at n={n}")
    return m


def run_sweep(config: SweepConfig, workers: int = 1) -> SweepResult:
    """Direction error over the (scheme, s, m, tau) cells of ``config``, in that
    nesting order."""
    if config.trials < 1:
        raise ConfigError(f"trials: must be >= 1, got {config.trials}")
    if config.n is None or config.n < 1:
        raise ConfigError(f"n: must be >= 1, got {config.n}")
    # a chunk's draws and scoring hold about five complex (32, n) arrays at once
    if 5 * _TRIAL_CHUNK * config.n > _MAX_ENTRIES:
        raise ConfigError(
            f"n: a chunk of {_TRIAL_CHUNK} trials at n = {config.n} holds about "
            f"{5 * _TRIAL_CHUNK * config.n} complex entries, more than {_MAX_ENTRIES}"
        )
    _check_master_seed(config.master_seed)
    if not config.sparsity_levels:
        raise ConfigError("sparsity_levels: at least one sparsity level is required")
    _check_distinct("sparsity_levels", config.sparsity_levels)
    if not config.schemes:
        raise ConfigError("schemes: at least one scheme is required")
    _check_distinct("schemes", config.schemes)
    if not config.tau_grid:
        raise ConfigError("tau_grid: at least one tau is required")
    _check_distinct("tau_grid", config.tau_grid)
    # -0.0 is the cell 0.0: one label and one stream key
    config = replace(config, tau_grid=tuple(0.0 if tau == 0 else tau for tau in config.tau_grid))
    if (config.m is None) == (config.log2_m_over_n is None):
        raise ConfigError("m: set exactly one of m and log2_m_over_n")
    field, ms = "m", {config.m: None}  # m -> the ratio that gave it
    if config.m is None:
        field, ms = "log2_m_over_n", {}
        if not config.log2_m_over_n:
            raise ConfigError("log2_m_over_n: at least one ratio is required")
        for ratio in config.log2_m_over_n:
            m = _ratio_to_m(config.n, ratio)
            if m in ms:
                raise ConfigError(
                    f"log2_m_over_n: ratios {ms[m]:g} and {ratio:g} both give m={m} "
                    f"at n={config.n}"
                )
            ms[m] = ratio
    for m in ms:
        # m-length draws run in row blocks of _MAX_ENTRIES entries; m + n stays under it
        if m + config.n > _MAX_ENTRIES:
            raise ConfigError(f"{field}: m + n = {m + config.n} exceeds {_MAX_ENTRIES}")
    cells = [
        (scheme, s, m, float(tau))
        for scheme in config.schemes
        for s in config.sparsity_levels
        for m in ms
        for tau in config.tau_grid
    ]
    for scheme, s, m, tau in cells:
        _check_cell(scheme, config.n, s, m, tau)
    # bookkeeping held from before the first draw: per chunk of each cell, 32
    # float64 errors and one task (about 240 bytes, its arguments), so about
    # 16 bytes, one complex entry, per trial
    entries = len(cells) * -(-config.trials // _TRIAL_CHUNK) * _TRIAL_CHUNK
    if entries > _MAX_ENTRIES:
        raise ConfigError(
            f"trials: {config.trials} trials in each of {len(cells)} cells keep about "
            f"{entries} complex entries of bookkeeping, more than {_MAX_ENTRIES}"
        )
    aggregates = _run_cells(cells, config.n, config.trials, config.master_seed, workers)
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
        raise ValueError("signal dimension n unknown; pass n explicitly")
    if n < 1:
        raise ValueError(f"n: must be >= 1, got {n}")
    if math.isnan(min_log2_ratio):
        raise ValueError("min_log2_ratio: must be a number or +-inf, got nan")
    cells = [c for c in cells if c.scheme == scheme and c.s == s]
    for c in cells:
        if c.m < 1:
            raise ValueError(
                f"fit_rate: cell scheme={scheme} s={s} m={c.m}; a log-log fit needs m >= 1"
            )
    points = sorted(
        (c.m, c.mean_error) for c in cells if math.log2(c.m / n) >= min_log2_ratio - 1e-12
    )
    if len(points) < 3:
        raise ValueError(f"fit_rate needs at least 3 grid points, found {len(points)}")
    for m, mean in points:
        if not 0 < mean < math.inf:
            raise ValueError(
                f"fit_rate: cell scheme={scheme} s={s} m={m} has mean_error {mean:g}; "
                "a log-log fit needs finite positive means"
            )
    x = np.log10([p[0] for p in points])
    y = np.log10([p[1] for p in points])
    return float(np.polyfit(x, y, 1)[0])


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def render_csv(result: SweepResult) -> str:
    lines = [CSV_HEADER] + [
        f"{c.scheme},{c.s},{c.m},{_fmt(c.tau)},{c.trials},{c.failures},"
        f"{_fmt(c.mean_error)},{_fmt(c.mean_error_db)},{_fmt(c.stderr_error)}"
        for c in result.cells
    ]
    return "\n".join(lines) + "\n"


def render_json(result: SweepResult) -> str:
    cfg = result.config
    payload = {
        "engine": ENGINE,
        "config": {
            "n": cfg.n,
            "sparsity_levels": list(cfg.sparsity_levels),
            "log2_m_over_n": (
                list(cfg.log2_m_over_n) if cfg.log2_m_over_n is not None else None
            ),
            "m": cfg.m,
            "tau_grid": list(cfg.tau_grid),
            "schemes": list(cfg.schemes),
            "trials": cfg.trials,
            "master_seed": cfg.master_seed,
        },
        "cells": [asdict(c) for c in result.cells],
    }
    return json.dumps(payload, indent=2) + "\n"


def _cell_from_row(path: str, lineno: int, line: str) -> CellAggregate:
    r = line.split(",")
    if len(r) != 9:
        raise ValueError(f"{path}, line {lineno}: expected 9 fields, got {len(r)}")
    try:
        return CellAggregate(**{k: kind(v) for (k, kind), v in zip(_CELL_TYPES.items(), r)})
    except ValueError as exc:  # a field that is not a number
        raise ValueError(f"{path}, line {lineno}: {exc}") from None


def _json_value(where: str, value, kind):
    # a JSON value already holds its field's type; a real field takes an int too, none a bool
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ValueError(f"{where} must be {kind.__name__}, got {value!r}")
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
        raise ValueError(f"{path}: not UTF-8 text ({exc})") from None
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
            raise ValueError(f"{path}: not a sweep JSON ({type(exc).__name__}: {exc})")
        return cells, None if n is None else _json_value(f"{path}: config.n", n, int)
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or lines[0][1] != CSV_HEADER:
        raise ValueError(f"{path}: not a sweep CSV (unexpected header)")
    return tuple(_cell_from_row(path, no, ln) for no, ln in lines[1:]), None


def rip_estimate_report(
    m: int, n: int, s: int, num_probes: int, master_seed: int
) -> dict:
    """Probe a fresh PHASE_ONLY matrix and report the implied error bounds."""
    # checked before the m x n matrix is drawn
    if m < 1:
        raise ConfigError(f"m: must be >= 1, got {m}")
    if n < 1:
        raise ConfigError(f"n: must be >= 1, got {n}")
    if not 1 <= s <= n:
        raise ConfigError(f"s: s={s} outside [1, n={n}]")
    if num_probes < 1:
        raise ConfigError(f"num_probes: must be >= 1, got {num_probes}")
    if m * n > _MAX_ENTRIES:
        raise ConfigError(
            f"{'m' if m >= n else 'n'}: an m x n = {m} x {n} matrix has more than "
            f"{_MAX_ENTRIES} entries"
        )
    _check_master_seed(master_seed)
    gen = RngStream(master_seed).generator()
    Phi = sample_sensing_matrix(gen, m, n, VarianceConvention.PHASE_ONLY)
    estimate = rip_distortion_probe(Phi, s, num_probes, gen)
    return {
        "m": m,
        "n": n,
        "s": s,
        "master_seed": master_seed,
        "requested_probes": num_probes,
        "evaluated_probes": estimate.num_probes,
        "delta_lower": estimate.delta_lower,
        "oracle_support_error_bound": oracle_support_error_bound(estimate.delta_lower),
        "pbp_error_bound_noiseless": pbp_error_bound(estimate.delta_lower, 0.0),
    }
