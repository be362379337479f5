"""Seeded Monte Carlo sweeps over the sensing-and-reconstruction pipeline.

A sweep cell is one (scheme, s, m, tau) combination. Every trial draws a
fresh sparse signal, then the back-projection ``Phi^H z`` of its
measurements (phase-only with bounded phase noise, or unaltered linear)
straight from its exact rank-one law (:func:`_run_trials`), without forming
the m x n sensing matrix. The trial then keeps the s strongest entries, as
PBP does, and records the direction error. Trial t of a cell runs on the
stream id

    fnv1a64(b"<ENGINE>|<scheme>|s=<s>|m=<m>|tau=<tau:.17g>|trial=<t>")

under the configured master seed, so any single trial is replayable in
isolation and results are independent of worker count and scheduling.
``ENGINE`` names the way a trial consumes its stream; it changes whenever
the draws do, and the JSON output echoes it. A trial draws, in order: n + s
uniforms for the signal (redrawing the s values while they are all zero),
m + n complex normals, and on the phase-only channel with tau > 0 m
uniforms for the phase noise.

Trials run in batches (:func:`_run_trials`): only the draws run trial by
trial, and each trial's m-length draws shrink at once to the two scalars
``y^H z`` and ``sigma ||z||_2``. Support selection, the rank-one combine,
the thresholding and the error run once per batch on (trials, n) rows.
Aggregation folds trials in index order, which makes repeated runs
byte-identical.

CSV schema (fixed column order, UTF-8, LF line endings, floats at 10
significant digits):

    scheme,s,m,tau,trials,failures,mean_error,mean_error_db,stderr_error

``mean_error_db`` is 10 log10 of the mean linear error. The JSON output
also carries each cell's ``zero_sign_hits``: how many measurements met the
zero-signum convention of :func:`pocs.core.csign`.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
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

# Stream-key version: names how a trial consumes its stream.
ENGINE = "rank1-v1"
SCHEMES = ("po", "cs")
CSV_HEADER = "scheme,s,m,tau,trials,failures,mean_error,mean_error_db,stderr_error"

# Trials per batch; larger batches run no faster and hold more memory.
_TRIAL_CHUNK = 32


class ConfigError(ValueError):
    """Invalid sweep configuration; the message names the offending field."""


class NumericalFailureError(ArithmeticError):
    """A sweep cell produced no usable trials."""


@dataclass(frozen=True)
class SweepConfig:
    """Declarative description of one sweep.

    ``log2_m_over_n`` drives a measurement-count sweep (tau fixed at 0);
    ``m`` plus ``tau_grid`` drives a phase-noise sweep.
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
class TrialRecord:
    scheme: str
    s: int
    m: int
    tau: float
    trial_index: int
    seed_used: int  # stream id; replay with RngStream(master_seed, seed_used)
    error: float
    failed: bool


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


def _cell_key_hash(scheme: str, s: int, m: int, tau: float) -> int:
    # FNV-1a state after the key prefix that every trial of a cell shares
    return fnv1a64(f"{ENGINE}|{scheme}|s={s}|m={m}|tau={tau:.17g}|trial=".encode("ascii"))


def trial_stream_id(scheme: str, s: int, m: int, tau: float, trial_index: int) -> int:
    """Documented stream-id derivation; identical across configs and runs."""
    return fnv1a64(b"%d" % trial_index, _cell_key_hash(scheme, s, m, tau))


def _phase_only_statistic(y: np.ndarray, xi: np.ndarray | None) -> tuple[complex, int]:
    """``y^H z`` for the phase-only measurements ``z = csign(y) exp(1j xi)``.

    ``conj(y_i) csign(y_i) = |y_i|``, so ``y^H z = sum_i |y_i| exp(1j xi_i)``,
    computed without forming ``z``. ``xi=None`` stands for no phase noise;
    the value is then ``sum_i |y_i|``, but it is taken through the signum as
    csign computes it, ``y_i (1 / |y_i|)``, because its rounding is all the
    error there is when a trial recovers the support exactly (s = 1). An
    exact zero of ``y`` adds 0 whatever csign maps it to. Returns the
    statistic and the number of such zeros.
    """
    mod = np.abs(y)
    zeros = mod.size - int(np.count_nonzero(mod))
    if xi is not None:
        return complex(mod @ np.cos(xi), mod @ np.sin(xi)), zeros
    if zeros:  # a zero's term conj(0) z_i is 0 whatever its reciprocal
        inv = np.divide(1.0, mod, out=np.zeros_like(mod), where=mod > 0)
    else:
        inv = 1.0 / mod
    return complex(np.vdot(y, y * inv)), zeros


def _combine_back_projection(x0, yz, scale, g) -> np.ndarray:
    """``x0 (y^H z) + scale (I - x0 x0^H) g`` along the last axis, written into ``g``."""
    yz = np.asarray(yz, dtype=np.complex128)[..., None]
    scale = np.asarray(scale, dtype=np.complex128)[..., None]
    x0_g = np.einsum("...i,...i->...", x0.conj(), g)[..., None]
    g *= scale
    g += x0 * (yz - scale * x0_g)
    return g


def _run_trials(scheme, n, s, m, tau, master_seed, start, stop):
    """Trials ``start`` to ``stop - 1`` of one cell, run as one batch.

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
    :func:`_combine_back_projection` forms. ``||z||_2 = sqrt(m)`` on the
    phase-only channel (``z = csign(y) exp(1j xi)``, ``|xi_i| <= tau``); on
    the linear one ``z = y`` and ``tau`` is 0.

    Each trial draws from its own stream in the order the module docstring
    gives; of its m + n complex normals the first m make ``y``, the last n
    ``g``. Only the draws run per trial. Returns ``(errors, failed,
    supports, zero_signs)``: per-trial errors (NaN where failed), flags for
    estimates that came out identically zero, the supports found (one sorted
    row of s per trial) and how many measurements met the zero-signum
    convention.
    """
    if not 1 <= s <= n:
        raise ValueError(f"sparsity s={s} out of range [1, {n}]")
    if m < 1:
        raise ValueError("measurement count m must be positive")
    if not (tau >= 0 and math.isfinite(2.0 * tau)):  # uniform(-tau, tau) spans 2 tau
        raise ValueError(f"tau: need tau >= 0 with 2 tau finite, got {tau!r}")
    convention = VarianceConvention(scheme)
    phase_only = convention is VarianceConvention.PHASE_ONLY
    if not phase_only and tau != 0:
        raise ValueError("the linear channel has no phase noise; tau must be 0")
    sigma = per_part_sigma(m, convention)
    prefix = _cell_key_hash(scheme, s, m, tau)
    count = stop - start
    u = np.empty((count, n + s))
    g = np.empty((count, n), dtype=np.complex128)
    yz = np.empty(count, dtype=np.complex128)
    scale = np.full(count, sigma * math.sqrt(m))  # sigma ||z||_2; cs sets its own
    normals = np.empty((m + n, 2))
    zero_signs = 0
    for k in range(count):
        gen = RngStream(master_seed, fnv1a64(b"%d" % (start + k), prefix)).generator()
        gen.random(out=u[k])
        if u[k, n] == 0.5:  # the s values can all be zero only if the first is
            _redraw_zero_values(gen, u[k : k + 1], n)
        gen.standard_normal(out=normals)
        g[k] = normals[m:].view(np.complex128)[:, 0]
        y = sigma * normals[:m].view(np.complex128)[:, 0]
        if phase_only:
            xi = gen.uniform(-tau, tau, size=m) if tau > 0 else None
            yz[k], zeros = _phase_only_statistic(y, xi)
            zero_signs += zeros
        else:
            yz[k] = np.vdot(y, y)
            scale[k] = sigma * float(np.linalg.norm(y))
    supports, values = _support_value_rows(u, s)
    x0 = np.zeros((count, n), dtype=np.complex128)
    np.put_along_axis(x0, supports, values, axis=1)
    estimate, found = hard_threshold(_combine_back_projection(x0, yz, scale, g), s)
    del u, g  # spent; freed before scoring, which holds the batch's peak memory
    # a zero estimate has no direction: score x0 in its place, then void the trial
    failed = ~estimate.any(axis=1)
    estimate[failed] = x0[failed]
    errors = direction_error(x0, estimate)
    errors[failed] = math.nan
    return errors, failed, found, zero_signs


def run_trial(
    scheme: str, n: int, s: int, m: int, tau: float, master_seed: int, trial_index: int
) -> TrialRecord:
    """One trial: draw x0 and the back-projection of its measurements, keep
    the s strongest entries (PBP) and score the direction error. This is the
    one-trial batch of the sweep kernel."""
    errors, failed, _, _ = _run_trials(
        scheme, n, s, m, tau, master_seed, trial_index, trial_index + 1
    )
    return TrialRecord(
        scheme=scheme,
        s=s,
        m=m,
        tau=tau,
        trial_index=trial_index,
        seed_used=trial_stream_id(scheme, s, m, tau, trial_index),
        error=float(errors[0]),
        failed=bool(failed[0]),
    )


def _run_chunk(task):
    ci, scheme, n, s, m, tau, master_seed, start, stop = task
    errors, failed, _, zero_signs = _run_trials(scheme, n, s, m, tau, master_seed, start, stop)
    return ci, start, errors, failed, zero_signs


def _aggregate_cell(
    cell, errors: np.ndarray, failed: np.ndarray, zero_signs: int
) -> CellAggregate:
    scheme, s, m, tau = cell
    ok = errors[~failed]
    if ok.size == 0:
        raise NumericalFailureError(
            f"cell scheme={scheme} s={s} m={m} tau={tau:g}: no successful trials"
        )
    mean = float(ok.mean())
    db = float(10.0 * np.log10(mean)) if mean > 0 else float("-inf")
    se = float(ok.std(ddof=1) / math.sqrt(ok.size)) if ok.size > 1 else 0.0
    return CellAggregate(
        scheme=scheme,
        s=int(s),
        m=int(m),
        tau=float(tau),
        trials=int(errors.size),
        failures=int(np.count_nonzero(failed)),
        mean_error=mean,
        mean_error_db=db,
        stderr_error=se,
        zero_sign_hits=int(zero_signs),
    )


def pool_size(workers: int, num_tasks: int) -> int:
    """Worker processes for ``num_tasks`` chunks: never more than there are chunks."""
    if workers < 1:
        raise ConfigError(f"workers: must be >= 1, got {workers}")
    return min(workers, num_tasks)


def _run_cells(cells, n, trials, master_seed, workers):
    errors = [np.empty(trials) for _ in cells]
    failed = [np.zeros(trials, dtype=bool) for _ in cells]
    zero_signs = [0] * len(cells)
    tasks = []
    for ci, (scheme, s, m, tau) in enumerate(cells):
        for start in range(0, trials, _TRIAL_CHUNK):
            stop = min(start + _TRIAL_CHUNK, trials)
            tasks.append((ci, scheme, n, s, m, tau, master_seed, start, stop))
    size = pool_size(workers, len(tasks))
    if size <= 1:
        outputs = map(_run_chunk, tasks)
    else:
        with ProcessPoolExecutor(max_workers=size) as pool:
            outputs = list(pool.map(_run_chunk, tasks))
    for ci, start, errs, flags, zeros in outputs:
        errors[ci][start : start + errs.size] = errs
        failed[ci][start : start + flags.size] = flags
        zero_signs[ci] += zeros
    return tuple(
        _aggregate_cell(cell, errors[ci], failed[ci], zero_signs[ci])
        for ci, cell in enumerate(cells)
    )


def _check_common(config: SweepConfig) -> None:
    if config.trials < 1:
        raise ConfigError(f"trials: must be >= 1, got {config.trials}")
    if config.n is None or config.n < 1:  # None: loaded from a CSV
        raise ConfigError(f"n: must be >= 1, got {config.n}")
    _check_master_seed(config.master_seed)
    if not config.sparsity_levels:
        raise ConfigError("sparsity_levels: at least one sparsity level is required")
    for s in config.sparsity_levels:
        if not 1 <= s <= config.n:
            raise ConfigError(f"sparsity_levels: s={s} outside [1, n={config.n}]")
    _check_distinct("sparsity_levels", config.sparsity_levels)
    if not config.schemes:
        raise ConfigError("schemes: at least one scheme is required")
    for scheme in config.schemes:
        if scheme not in SCHEMES:
            raise ConfigError(f"schemes: unknown scheme {scheme!r}, use 'po' or 'cs'")
    _check_distinct("schemes", config.schemes)


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


def run_m_sweep(config: SweepConfig, workers: int = 1) -> SweepResult:
    """Error versus measurement count over (scheme, s, log2(m/n)) cells, tau = 0."""
    _check_common(config)
    if not config.log2_m_over_n:
        raise ConfigError("log2_m_over_n: measurement-count sweep needs a ratio grid")
    if config.m is not None:
        raise ConfigError("m: measurement-count sweep derives m from log2_m_over_n; leave m unset")
    if any(t != 0.0 for t in config.tau_grid):
        raise ConfigError("tau_grid: measurement-count sweep runs at tau = 0 only")
    ms = {}
    for ratio in config.log2_m_over_n:
        m = _ratio_to_m(config.n, ratio)
        if m in ms:
            raise ConfigError(
                f"log2_m_over_n: ratios {ms[m]:g} and {ratio:g} both give m={m} "
                f"at n={config.n}"
            )
        ms[m] = ratio
    cells = [
        (scheme, s, m, 0.0)
        for scheme in config.schemes
        for s in config.sparsity_levels
        for m in ms
    ]
    aggregates = _run_cells(cells, config.n, config.trials, config.master_seed, workers)
    return SweepResult(config=config, cells=aggregates)


def run_tau_sweep(config: SweepConfig, workers: int = 1) -> SweepResult:
    """Error versus phase-noise amplitude at fixed (s, m), phase-only scheme."""
    _check_common(config)
    if config.m is None or config.m < 1:
        raise ConfigError("m: phase-noise sweep needs a fixed measurement count")
    if config.log2_m_over_n is not None:
        raise ConfigError("log2_m_over_n: phase-noise sweep runs at the fixed m only")
    if len(config.sparsity_levels) != 1:
        raise ConfigError("sparsity_levels: phase-noise sweep takes a single sparsity")
    if tuple(config.schemes) != ("po",):
        raise ConfigError("schemes: phase-noise sweep applies to the 'po' scheme only")
    if not config.tau_grid:
        raise ConfigError("tau_grid: at least one tau is required")
    for tau in config.tau_grid:
        if not (tau >= 0 and math.isfinite(2.0 * tau)):
            raise ConfigError(f"tau_grid: need tau >= 0 with 2 tau finite, got {tau:g}")
    _check_distinct("tau_grid", config.tau_grid)
    s = config.sparsity_levels[0]
    cells = [("po", s, config.m, float(tau)) for tau in config.tau_grid]
    aggregates = _run_cells(cells, config.n, config.trials, config.master_seed, workers)
    return SweepResult(config=config, cells=aggregates)


def fit_rate(
    result: SweepResult,
    scheme: str,
    s: int,
    min_log2_ratio: float = float("-inf"),
    n: int | None = None,
) -> float:
    """Least-squares slope of log10(mean error) against log10(m).

    Uses the cells of ``result`` matching ``scheme`` and ``s`` whose
    log2(m/n) is at least ``min_log2_ratio``; needs three or more grid
    points. ``n`` falls back to the result's config.
    """
    dim = result.config.n if n is None else int(n)
    if dim is None:
        raise ValueError("signal dimension n unknown; pass n explicitly")
    if dim < 1:
        raise ValueError(f"n: must be >= 1, got {dim}")
    cells = [c for c in result.cells if c.scheme == scheme and c.s == s]
    for c in cells:
        if c.m < 1:
            raise ValueError(
                f"fit_rate: cell scheme={scheme} s={s} m={c.m}; a log-log fit needs m >= 1"
            )
    points = sorted(
        (c.m, c.mean_error) for c in cells if math.log2(c.m / dim) >= min_log2_ratio - 1e-12
    )
    if len(points) < 3:
        raise ValueError(
            f"fit_rate needs at least 3 grid points, found {len(points)}"
        )
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
    lines = [CSV_HEADER]
    for c in result.cells:
        lines.append(
            ",".join(
                [
                    c.scheme,
                    str(c.s),
                    str(c.m),
                    _fmt(c.tau),
                    str(c.trials),
                    str(c.failures),
                    _fmt(c.mean_error),
                    _fmt(c.mean_error_db),
                    _fmt(c.stderr_error),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def result_to_dict(result: SweepResult) -> dict:
    cfg = result.config
    return {
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


def render_json(result: SweepResult) -> str:
    return json.dumps(result_to_dict(result), indent=2) + "\n"


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


def load_sweep_result(path: str, n: int | None = None) -> SweepResult:
    """Read a sweep rendered by :func:`render_csv` or :func:`render_json`.

    CSV files carry no config echo: ``sparsity_levels``, ``schemes`` and
    ``trials`` come from the cells, ``master_seed`` is None and so is ``n``
    unless passed, for a later step (rate fitting, for example) that needs
    the signal dimension. Config keys that JSON no longer echoes are ignored;
    each JSON cell field and ``config.n`` (or null) must hold its field's type.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc})") from None
    if text.lstrip().startswith("{"):
        try:
            payload = json.loads(text)
            cfg = payload["config"]
            config = SweepConfig(
                n=None if cfg["n"] is None else _json_value(f"{path}: config.n", cfg["n"], int),
                sparsity_levels=tuple(cfg["sparsity_levels"]),
                trials=cfg["trials"],
                master_seed=cfg["master_seed"],
                log2_m_over_n=(
                    tuple(cfg["log2_m_over_n"]) if cfg["log2_m_over_n"] else None
                ),
                m=cfg["m"],
                tau_grid=tuple(cfg["tau_grid"]),
                schemes=tuple(cfg["schemes"]),
            )
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
        return SweepResult(config=config, cells=cells)
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or lines[0][1] != CSV_HEADER:
        raise ValueError(f"{path}: not a sweep CSV (unexpected header)")
    cells = tuple(_cell_from_row(path, no, ln) for no, ln in lines[1:])
    config = SweepConfig(
        n=n,
        sparsity_levels=tuple(sorted({c.s for c in cells})),
        trials=cells[0].trials if cells else 0,
        master_seed=None,
        schemes=tuple(dict.fromkeys(c.scheme for c in cells)),
    )
    return SweepResult(config=config, cells=cells)


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
