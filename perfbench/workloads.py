"""Benchmark workloads: the ``pocs`` command lines each one runs and the
checks every output must pass.

Standard library only: the benchmark child times the import of ``pocs``
(which pulls in numpy) from a clean start, so nothing here may import numpy.

Every call of a run gets its own master seed, ``call_seed(seed, rep)``, so a
run is fully determined by the workload seed. A call's size (trials per cell,
or random probes) is fixed per purpose: ``measure`` for timed calls,
``warmup`` for the set-up call, ``alloc`` for the allocation pass and
``tiny`` for the harness self-test.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

N = 256
CSV_HEADER = "scheme,s,m,tau,trials,failures,mean_error,mean_error_db,stderr_error"
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE_PATH = HERE / "reference.json"

# Standard errors a cell mean may sit from its target when that is wider
# than the target's own window (small trial counts).
SE_MULTIPLE = 4.0
_DB_PER_LN = 10.0 / math.log(10.0)


def call_seed(seed: int, rep: int) -> int:
    """Master seed of call ``rep`` of a run with workload seed ``seed``."""
    return seed * 10_000 + rep


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git directly (None outside a git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    """Values recorded at the seed commit (see record_reference.py)."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class CallCheck:
    """Outcome of checking one CLI call's output.

    ``cell_failed`` holds the failed operations per cell (degenerate trials,
    or every trial of a cell that misses its target); ``cells`` holds
    ``(usable trials, mean error, stderr)`` per cell for the pooled check.
    """

    ops: int
    cell_failed: list[int]
    problems: list[str] = field(default_factory=list)
    cells: list[tuple[int, float, float]] = field(default_factory=list)


@dataclass(frozen=True)
class CellTarget:
    scheme: str
    s: int
    m: int
    tau: float
    target: float
    window: float
    db: bool  # target and window in dB of the mean error, else linear

    def label(self) -> str:
        return f"{self.scheme} s={self.s} m={self.m} tau={self.tau:.10g}"

    def deviation(self, mean: float, se: float) -> tuple[float, float]:
        """(|value - target|, allowed deviation) on the target's scale."""
        if self.db:
            value = 10.0 * math.log10(mean) if mean > 0 else -math.inf
            se_value = _DB_PER_LN * se / mean if mean > 0 else math.inf
        else:
            value, se_value = mean, se
        return abs(value - self.target), max(self.window, SE_MULTIPLE * se_value)


def pool(cells: list[tuple[int, float, float]]) -> tuple[int, float, float]:
    """Combine per-call (count, mean, stderr) of one cell into one sample."""
    total = sum(k for k, _, _ in cells)
    mean = sum(k * mu for k, mu, _ in cells) / total
    ss = sum((k - 1) * se * se * k + k * (mu - mean) ** 2 for k, mu, se in cells)
    se = math.sqrt(ss / (total - 1) / total) if total > 1 else 0.0
    return total, mean, se


class SweepWorkload:
    """A ``sweep-m`` or ``sweep-tau`` call, checked cell by cell in CSV order."""

    kind = "sweep"
    unit = "trials"

    def __init__(self, name, why, args, targets, sizes):
        self.name = name
        self.why = why
        self.args = tuple(args)
        self.targets = tuple(targets)
        self.sizes = dict(sizes)

    def argv(self, seed: int, size: str) -> list[str]:
        trials = self.sizes[size]
        return [*self.args, "--trials", str(trials), "--seed", str(seed),
                "--workers", "1", "--format", "csv", "--out", "-"]

    def check(self, text: str, seed: int, size: str, reference: dict | None = None) -> CallCheck:
        trials = self.sizes[size]
        all_failed = [trials] * len(self.targets)
        out = CallCheck(ops=trials * len(self.targets), cell_failed=list(all_failed))
        lines = text.split("\n")
        if not text.endswith("\n") or lines[0] != CSV_HEADER:
            out.problems.append("csv: missing header or trailing newline")
            return out
        rows = [ln.split(",") for ln in lines[1:-1]]
        if len(rows) != len(self.targets) or any(len(r) != 9 for r in rows):
            out.problems.append(f"csv: expected {len(self.targets)} rows of 9 fields")
            return out
        for i, (row, tgt) in enumerate(zip(rows, self.targets)):
            problem = _check_sweep_row(row, tgt, trials)
            if problem:
                out.problems.append(f"{tgt.label()}: {problem}")
                continue
            failures = int(row[5])
            mean, se = float(row[6]), float(row[8])
            out.cell_failed[i] = failures
            out.cells.append((trials - failures, mean, se))
        return out

    def pooled_problems(self, checks: list[CallCheck]) -> dict[int, str]:
        """Cells whose mean over all calls of a run misses its target: index -> problem.

        The statistical check runs on the pooled sample only: a single call has
        too few trials for its standard error to be trusted.
        """
        usable = [c.cells for c in checks if len(c.cells) == len(self.targets)]
        bad = {}
        for i, tgt in enumerate(self.targets):
            per_call = [cells[i] for cells in usable if cells[i][0] > 0]
            if not per_call:
                continue
            count, mean, se = pool(per_call)
            dev, allowed = tgt.deviation(mean, se)
            if not dev <= allowed:
                scale = " dB" if tgt.db else ""
                bad[i] = (f"{tgt.label()}: mean of {count} trials off target "
                          f"{tgt.target}{scale} by {dev:.4g} > {allowed:.4g}")
        return bad


def _check_sweep_row(row: list[str], tgt: CellTarget, trials: int) -> str | None:
    try:
        scheme, s, m, tau = row[0], int(row[1]), int(row[2]), float(row[3])
        count, failures = int(row[4]), int(row[5])
        mean, db, se = float(row[6]), float(row[7]), float(row[8])
    except ValueError as exc:
        return f"unparsable row ({exc})"
    if (scheme, s, m) != (tgt.scheme, tgt.s, tgt.m) or abs(tau - tgt.tau) > 1e-8:
        return f"unexpected cell {','.join(row[:4])}"
    if count != trials or not 0 <= failures < trials:
        return f"trials={count} failures={failures}, expected {trials} trials"
    # The direction error of unit vectors lies in [0, 2].
    if not (0 < mean <= 2 and 0 <= se <= 2):
        return f"mean_error={row[6]} stderr={row[8]} outside (0, 2]"
    if abs(db - 10.0 * math.log10(mean)) > 1e-6:
        return f"mean_error_db={row[7]} is not 10 log10(mean_error={row[6]})"
    return None


class RipWorkload:
    """A ``rip-estimate`` call on a fresh matrix, checked against bounds and
    the distortion range recorded at the seed commit."""

    kind = "rip"
    unit = "probes"

    def __init__(self, name, why, m, s, sizes):
        self.name = name
        self.why = why
        self.m, self.s = m, s
        self.sizes = dict(sizes)

    def argv(self, seed: int, size: str) -> list[str]:
        return ["rip-estimate", "--m", str(self.m), "--n", str(N), "--s", str(self.s),
                "--probes", str(self.sizes[size]), "--seed", str(seed),
                "--format", "json", "--out", "-"]

    def check(self, text: str, seed: int, size: str, reference: dict | None = None) -> CallCheck:
        probes = self.sizes[size]
        out = CallCheck(ops=probes + N, cell_failed=[probes + N])
        try:
            report = json.loads(text)
            evaluated = int(report["evaluated_probes"])
            delta = float(report["delta_lower"])
            oracle = float(report["oracle_support_error_bound"])
            pbp_bound = float(report["pbp_error_bound_noiseless"])
        except (ValueError, KeyError, TypeError) as exc:
            out.problems.append(f"report: unparsable ({exc!r})")
            return out
        out.ops = max(evaluated, 1)
        out.cell_failed = [out.ops]
        echo = {"m": self.m, "n": N, "s": self.s, "master_seed": seed, "requested_probes": probes}
        for key, want in echo.items():
            if report.get(key) != want:
                out.problems.append(f"report: {key}={report.get(key)!r}, expected {want}")
        if evaluated < probes + N:
            out.problems.append(f"evaluated_probes={evaluated} < probes + n = {probes + N}")
        if not (math.isfinite(delta) and delta >= 0):
            out.problems.append(f"delta_lower={delta!r} not finite and nonnegative")
        else:
            # Independent evaluation of sqrt(5 delta) and 2 sqrt(5 delta) + 4 tau at tau = 0.
            root = math.sqrt(5.0 * delta)
            if not math.isclose(oracle, root, rel_tol=1e-12, abs_tol=1e-300):
                out.problems.append(f"oracle_support_error_bound={oracle!r} != sqrt(5 delta)={root!r}")
            if not math.isclose(pbp_bound, 2.0 * root, rel_tol=1e-12, abs_tol=1e-300):
                out.problems.append(f"pbp_error_bound_noiseless={pbp_bound!r} != 2 sqrt(5 delta)")
            lo, hi = (reference or load_reference())[self.name]["delta_range"][str(probes)]
            if not lo <= delta <= hi:
                out.problems.append(f"delta_lower={delta:.6g} outside the recorded range [{lo}, {hi}]")
        if not out.problems:
            out.cell_failed = [0]
        return out

    def pooled_problems(self, checks: list[CallCheck]) -> dict[int, str]:
        return {}


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            "sweep_m4096",
            "criterion-3 cells at m = 4096: the m x n matrix draw and the adjoint dominate; "
            "s = 2 vs 50 shows how an on-support engine scales with s",
            ["sweep-m", "--n", str(N), "--s", "2", "--s", "50", "--log2-ratio", "4",
             "--scheme", "po", "--scheme", "cs"],
            (
                CellTarget("po", 2, 4096, 0.0, -17.66, 0.3, db=True),
                CellTarget("po", 50, 4096, 0.0, -8.07, 0.3, db=True),
                CellTarget("cs", 2, 4096, 0.0, -18.23, 0.3, db=True),
                CellTarget("cs", 50, 4096, 0.0, -8.65, 0.3, db=True),
            ),
            {"measure": 8, "warmup": 1, "alloc": 1, "tiny": 2},
        ),
        SweepWorkload(
            "sweep_tau_m64",
            "criterion-1 anchor and the tau = 1.5 pi saturation point at m = 64: short trials, "
            "so fixed per-trial costs (rng, stream id, threshold, bookkeeping) carry weight",
            ["sweep-tau", "--n", str(N), "--s", "10", "--m", "64",
             "--tau", "0", "--tau", repr(1.5 * math.pi)],
            (
                # Criterion-1 anchor, noiseless.
                CellTarget("po", 10, 64, 0.0, 0.7366, 0.02, db=False),
                # Saturation point, checked against the value measured at the seed
                # commit (10,000 trials), with criterion 2's +/- 0.03 window width.
                CellTarget("po", 10, 64, 1.5 * math.pi, 1.4518, 0.03, db=False),
            ),
            {"measure": 250, "warmup": 1, "alloc": 1, "tiny": 20},
        ),
        RipWorkload(
            "rip_estimate_m4096",
            "one full 4096 x 256 matrix, then many gathered probe blocks: moves with the probe "
            "kernel, not with the per-trial sweep path",
            4096, 20,
            {"measure": 1000, "warmup": 1, "alloc": 100, "tiny": 100},
        ),
    )
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
