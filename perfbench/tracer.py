"""Tracing of ``pocs`` from outside the program.

The tracer replaces public functions at the module attributes where their
callers look them up (``pocs.experiments.run_trial``,
``pocs.recon.adjoint_matvec``, ``RngStream.generator``, ...) with wrappers that
record one span per call, then puts the originals back. Nothing under ``src/``
is edited. A target that no longer exists is skipped and reports zero calls.

Spans stay in memory as parallel lists (name, start, end, parent index, trial
id) until :meth:`Tracer.write` saves them. A span's self time is its duration
minus the durations of its children; calls are sequential on one thread, so
the children never overlap. The wrappers' own cost lands in the caller's self
time; ``trace.overhead_frac`` bounds it.

Every count (``*.calls``, ``core.zero_sign_hits``, ``recon.degenerate``,
``rip.probes_evaluated``) is given per traced CLI call. Each call has a fixed
size, so a count depends on the code and not on how many calls a time-limited
run managed to make.

:class:`AllocMeter` is the separate ``tracemalloc`` pass: for a few targets it
records the peak traced bytes during a call above the traced bytes at entry.
These are measured allocations, not bytes moved.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
import tracemalloc
from collections import Counter, defaultdict

LAYERS = ("cli", "experiments", "rng", "sensing", "core", "recon", "rip")

# (span name, module, attribute) -- the attribute is where callers look the
# function up at call time. The span name's prefix is its layer.
TARGETS = (
    ("cli.main", "pocs.cli", "main"),
    ("experiments.sweep", "pocs.experiments", "run_m_sweep"),
    ("experiments.sweep", "pocs.experiments", "run_tau_sweep"),
    ("experiments.run_trial", "pocs.experiments", "run_trial"),
    ("experiments.render_csv", "pocs.experiments", "render_csv"),
    ("experiments.rip_estimate_report", "pocs.experiments", "rip_estimate_report"),
    ("rng.trial_stream_id", "pocs.experiments", "trial_stream_id"),
    ("rng.generator", "pocs.rng", "RngStream.generator"),
    ("sensing.sample_sensing_matrix", "pocs.experiments", "sample_sensing_matrix"),
    ("sensing.sample_sparse_signal", "pocs.experiments", "sample_sparse_signal"),
    ("sensing.measure_phase_only", "pocs.experiments", "measure_phase_only"),
    ("sensing.measure_linear", "pocs.experiments", "measure_linear"),
    ("sensing.measure_linear", "pocs.sensing", "measure_linear"),
    ("core.matvec", "pocs.sensing", "matvec"),
    ("core.csign", "pocs.sensing", "csign"),
    ("recon.pbp", "pocs.experiments", "pbp"),
    ("core.adjoint_matvec", "pocs.recon", "adjoint_matvec"),
    ("core.hard_threshold", "pocs.recon", "hard_threshold"),
    ("recon.direction_error", "pocs.experiments", "direction_error"),
    ("rip.rip_distortion_probe", "pocs.experiments", "rip_distortion_probe"),
)

ALLOC_SPANS = ("sensing.sample_sensing_matrix", "core.adjoint_matvec", "rip.rip_distortion_probe")

# Per-layer metrics read from span statistics:
# (metric, unit, span, statistic, scale); statistic is "mean" (inclusive
# time per call), "self" (self time per call) or "calls" (calls per traced
# CLI call).
SPAN_METRICS = (
    ("rng.trial_stream_id_us", "us", "rng.trial_stream_id", "mean", 1e6),
    ("rng.generator_us", "us", "rng.generator", "mean", 1e6),
    ("sensing.sample_sensing_matrix_us", "us", "sensing.sample_sensing_matrix", "mean", 1e6),
    ("sensing.sample_sensing_matrix.calls", "1/call", "sensing.sample_sensing_matrix", "calls", 1),
    ("sensing.sample_sparse_signal_us", "us", "sensing.sample_sparse_signal", "mean", 1e6),
    ("sensing.measure_phase_only.self_us", "us", "sensing.measure_phase_only", "self", 1e6),
    ("sensing.measure_linear_us", "us", "sensing.measure_linear", "mean", 1e6),
    ("core.adjoint_matvec_us", "us", "core.adjoint_matvec", "mean", 1e6),
    ("core.hard_threshold_us", "us", "core.hard_threshold", "mean", 1e6),
    ("core.csign_us", "us", "core.csign", "mean", 1e6),
    ("recon.pbp.self_us", "us", "recon.pbp", "self", 1e6),
    ("recon.direction_error_us", "us", "recon.direction_error", "mean", 1e6),
    ("rip.rip_distortion_probe_s", "s", "rip.rip_distortion_probe", "mean", 1.0),
    ("experiments.run_trial.calls", "1/call", "experiments.run_trial", "calls", 1),
    ("experiments.run_trial.self_us", "us", "experiments.run_trial", "self", 1e6),
    ("experiments.sweep.self_ms", "ms", "experiments.sweep", "self", 1e3),
    ("experiments.render_csv_ms", "ms", "experiments.render_csv", "mean", 1e3),
    ("cli.main.self_ms", "ms", "cli.main", "self", 1e3),
)

# Every per-layer metric the traced run reports: name -> unit.
PER_LAYER_UNITS = {
    **{name: unit for name, unit, *_ in SPAN_METRICS},
    "core.zero_sign_hits": "1/call",
    "recon.degenerate": "1/call",
    "rip.probes_evaluated": "1/call",
    **{f"{span}.alloc_bytes": "bytes" for span in ALLOC_SPANS},
    **{f"{layer}.share": "fraction" for layer in LAYERS},
    "trace.overhead_frac": "fraction",
}


def _locate(module: str, attr: str):
    """(owner, attribute name) for a target, or None when it no longer exists."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or not callable(getattr(owner, name, None)):
        return None
    return owner, name


class _Patches:
    """Replace each resolvable target with ``make(span, original)``; undo on exit."""

    def __init__(self, make, spans=None):
        self._make = make
        self._spans = spans
        self._saved = []

    def __enter__(self):
        for span, module, attr in TARGETS:
            if self._spans is not None and span not in self._spans:
                continue
            found = _locate(module, attr)
            if found is None:
                continue
            owner, name = found
            # An inherited attribute is saved as None and deleted again on exit.
            self._saved.append((owner, name, vars(owner).get(name)))
            setattr(owner, name, self._make(span, getattr(owner, name)))
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._saved):
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._saved.clear()
        return False


def _cell_key(args) -> str:
    # run_trial(scheme, n, s, m, tau, master_seed, trial_index), called positionally
    scheme, _, s, m, tau = (tuple(args[:5]) + (None,) * 5)[:5]
    return f"{scheme}|s={s}|m={m}|tau={tau}"


class Tracer:
    """In-memory span recorder; use :meth:`patched` around traced calls."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.trials: list[int] = []
        self.raised: Counter = Counter()
        self.trial_cells: dict[int, str] = {}
        self.zero_sign_trials: set[int] = set()
        self.probes = 0
        self.cli_calls = 0
        self._stack: list[int] = []
        self._trial = -1

    def patched(self) -> _Patches:
        """Patches for one traced CLI call."""
        self.cli_calls += 1
        return _Patches(self._wrap)

    def _span(self, name, fn, args, kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.trials.append(self._trial)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.raised[name] += 1
            raise
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        span = self._span
        if name == "experiments.run_trial":
            # The program tallies zero-signum entries itself; read its counter
            # outside the span so the check costs the traced code nothing.
            found = _locate("pocs.core", "zero_sign_count")
            zero_signs = getattr(*found) if found else (lambda: 0)

            def traced(*args, **kwargs):
                outer = self._trial
                self._trial = trial = len(self.trial_cells)
                self.trial_cells[trial] = _cell_key(args)
                before = zero_signs()
                try:
                    return span(name, fn, args, kwargs)
                finally:
                    if zero_signs() > before:
                        self.zero_sign_trials.add(trial)
                    self._trial = outer
        elif name == "rip.rip_distortion_probe":
            def traced(*args, **kwargs):
                result = span(name, fn, args, kwargs)
                self.probes += int(getattr(result, "num_probes", 0))
                return result
        else:
            def traced(*args, **kwargs):
                return span(name, fn, args, kwargs)
        return functools.wraps(fn)(traced)

    def durations(self) -> tuple[list[float], list[float]]:
        """(duration, time covered by children) per span."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        covered = [0.0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                covered[p] += dur[i]
        return dur, covered

    def nesting_violations(self, tol: float = 1e-9) -> list[int]:
        """Spans whose children cover more than the span itself, or lie outside it."""
        dur, covered = self.durations()
        bad = [i for i in range(len(dur)) if covered[i] > dur[i] + tol or dur[i] < 0]
        for i, p in enumerate(self.parents):
            if p >= 0 and (self.starts[i] < self.starts[p] or self.ends[i] > self.ends[p]):
                bad.append(i)
        return sorted(set(bad))

    def span_stats(self) -> dict[str, list]:
        """span name -> [calls, inclusive seconds, self seconds]."""
        dur, covered = self.durations()
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        for name, d, c in zip(self.names, dur, covered):
            st = stats[name]
            st[0] += 1
            st[1] += d
            st[2] += d - c
        return dict(stats)

    def wall_seconds(self) -> float:
        """Time covered by root spans, i.e. by the traced CLI calls."""
        dur, _ = self.durations()
        return sum(d for d, p in zip(dur, self.parents) if p < 0)

    def cell_seconds(self) -> dict[str, float]:
        dur, _ = self.durations()
        out = defaultdict(float)
        for name, d, trial in zip(self.names, dur, self.trials):
            if name == "experiments.run_trial":
                out[self.trial_cells[trial]] += d
        return dict(out)

    def metrics(self) -> dict[str, float]:
        stats = self.span_stats()
        per_cli_call = 1.0 / max(self.cli_calls, 1)
        out = {}
        for metric, _, span, stat, scale in SPAN_METRICS:
            calls, total, self_s = stats.get(span, (0, 0.0, 0.0))
            if stat == "calls":
                out[metric] = calls * per_cli_call
            else:
                out[metric] = (total if stat == "mean" else self_s) / calls * scale if calls else 0.0
        out["core.zero_sign_hits"] = len(self.zero_sign_trials) * per_cli_call
        out["recon.degenerate"] = self.raised["recon.direction_error"] * per_cli_call
        out["rip.probes_evaluated"] = self.probes * per_cli_call
        wall = self.wall_seconds()
        layer_self = defaultdict(float)
        for span, (_, _, self_s) in stats.items():
            layer_self[span.split(".", 1)[0]] += self_s
        for layer in LAYERS:
            out[f"{layer}.share"] = layer_self[layer] / wall if wall > 0 else 0.0
        return out

    def write(self, path) -> None:
        """Save every span as gzipped columnar JSON (times in us from the first span)."""
        t0 = min(self.starts, default=0.0)
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        payload = {
            "names": table,
            "name": [index[n] for n in self.names],
            "start_us": [round((s - t0) * 1e6, 3) for s in self.starts],
            "end_us": [round((e - t0) * 1e6, 3) for e in self.ends],
            "parent": self.parents,
            "trial": self.trials,
            "trial_cell": self.trial_cells,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


class AllocMeter:
    """Peak ``tracemalloc`` bytes above entry, per call of the ALLOC_SPANS targets.

    Nested measured calls hand their peak to the enclosing call, since
    ``tracemalloc.reset_peak`` would otherwise lose it.
    """

    def __init__(self):
        self.peaks: dict[str, list[int]] = defaultdict(list)
        self._stack: list[list[int]] = []

    def patched(self) -> _Patches:
        return _Patches(self._wrap, spans=ALLOC_SPANS)

    def _wrap(self, name, fn):
        def measured(*args, **kwargs):
            if self._stack:
                frame = self._stack[-1]
                frame[1] = max(frame[1], tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            self._stack.append([tracemalloc.get_traced_memory()[0], 0])
            try:
                return fn(*args, **kwargs)
            finally:
                base, child_peak = self._stack.pop()
                peak = max(tracemalloc.get_traced_memory()[1], child_peak)
                self.peaks[name].append(peak - base)
                if self._stack:
                    self._stack[-1][1] = max(self._stack[-1][1], peak)
        return functools.wraps(fn)(measured)

    def metrics(self) -> dict[str, int]:
        return {f"{span}.alloc_bytes": max(self.peaks.get(span, [0])) for span in ALLOC_SPANS}
