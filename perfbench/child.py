"""Benchmark child: runs one workload through ``pocs.cli.main`` in this process.

run.py starts it with BLAS pinned to one thread and ``src`` on the path:

    python3 perfbench/child.py --mode MODE --workload NAME --seed N --seconds S

Modes:

``setup``    import ``pocs``, build the parser, run the one-trial warm-up and report the
             time; then repeat the first measured call for a peak-memory sample.
``measure``  set up, then call the CLI untraced until ``--seconds`` have passed.
``trace``    set up, then alternate untraced and traced calls for ``--seconds``, then
             make one call under ``tracemalloc`` for the allocation counts.

Every call's output is checked. In ``measure`` and ``trace`` mode every call
is bracketed by runs of the calibration kernel. The last stdout line is one
JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import OUT_DIR, ROOT, WORKLOADS, call_seed, load_reference, sha256

MIN_CALLS = 4
# Median calibration_s() on a 2-vCPU Intel Xeon host with BLAS on one thread.
# It only fixes the scale of ``ops_per_s``: the rate the process would have
# measured on a machine where calibration_s() takes this long.
CALIBRATION_REF_S = 0.05
_calibration_buffers: dict = {}


def _calibration_kernel(b: dict) -> None:
    import numpy as np

    rng = np.random.default_rng(0)
    for _ in range(50):
        rng.standard_normal(out=b["a"].view(np.float64))
        rng.standard_normal(out=b["x"].view(np.float64))
        np.matmul(b["a"], b["x"], out=b["y"])
        np.abs(b["y"], out=b["y_abs"])
        np.divide(b["y"], b["y_abs"], out=b["y"])
        np.conjugate(b["a"], out=b["a_conj"])
        np.matmul(b["a_conj"].T, b["y"], out=b["z"])
        np.abs(b["z"], out=b["z_abs"])
        np.argpartition(b["z_abs"], -10)
        {j: j * 0.5 for j in range(100)}
    for _ in range(3):
        rng.standard_normal(out=b["big"].view(np.float64))
        rng.standard_normal(out=b["big_x"].view(np.float64))
        np.matmul(b["big"], b["big_x"], out=b["big_y"])
        np.conjugate(b["big"], out=b["big_conj"])
        np.matmul(b["big_conj"].T, b["big_y"], out=b["big_z"])
    # mode="clip": with the default "raise" np.take buffers its output in a temporary.
    np.take(b["big"], rng.integers(0, 256, size=(16, 20)), axis=1, out=b["cols"], mode="clip")
    rng.standard_normal(out=b["values"].view(np.float64))
    np.matmul(b["cols"].transpose(1, 0, 2), b["values"], out=b["proj"])


def calibration_s() -> float:
    """Seconds a fixed kernel takes now: a probe of the machine's current speed.

    On a shared host the speed of the same code drifts by up to 2x for tens of
    seconds at a time. The kernel mixes the kinds of work the workloads do
    (small complex draws and matrix-vector products with Python between them,
    a larger matrix draw, products of gathered columns). It uses numpy only,
    never ``pocs``, and writes into buffers it allocates and touches once per
    process, so its work does not depend on the allocator state that ``pocs``
    leaves behind.
    """
    import numpy as np

    b = _calibration_buffers
    if not b:
        c = np.complex128
        b.update(a=np.empty((64, 256), c), a_conj=np.empty((64, 256), c), x=np.empty(256, c),
                 y=np.empty(64, c), y_abs=np.empty(64), z=np.empty(256, c), z_abs=np.empty(256),
                 big=np.empty((512, 256), c), big_conj=np.empty((512, 256), c),
                 big_x=np.empty(256, c), big_y=np.empty(512, c), big_z=np.empty(256, c),
                 cols=np.empty((512, 16, 20), c), values=np.empty((16, 20, 1), c),
                 proj=np.empty((16, 512, 1), c))
        _calibration_kernel(b)
    start = time.perf_counter()
    _calibration_kernel(b)
    return time.perf_counter() - start


def cli_call(argv: list[str]) -> tuple[int, float, float, str]:
    """(exit code, wall seconds, CPU seconds, stdout) of one in-process ``pocs`` call."""
    main = sys.modules["pocs.cli"].main  # looked up per call, so tracer patches apply
    buf = io.StringIO()
    start, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    return rc, time.perf_counter() - start, time.process_time() - cpu, buf.getvalue()


def set_up(wl, seed: int) -> float:
    """Import pocs from this checkout, build the parser, warm up; seconds taken."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import pocs.cli

    if not Path(pocs.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported pocs from {pocs.cli.__file__}, not from {ROOT / 'src'}")
    pocs.cli.build_parser()
    rc, *_ = cli_call(wl.argv(call_seed(seed, 0), "warmup"))
    if rc != 0:
        raise SystemExit(f"warm-up call exited with {rc}")
    return time.perf_counter() - start


def checked_call(wl, seed: int, rep: int, reference: dict, tracer=None):
    """Make call ``rep`` of a run, traced when a tracer is given; (call record, check)."""
    with tracer.patched() if tracer else contextlib.nullcontext():
        rc, wall, cpu, text = cli_call(wl.argv(call_seed(seed, rep), "measure"))
    check = wl.check(text if rc == 0 else "", call_seed(seed, rep), "measure", reference)
    if rc != 0:
        check.problems.insert(0, f"exit code {rc}")
    call = {"rep": rep, "seconds": wall, "cpu_seconds": cpu, "ops": check.ops,
            "traced": tracer is not None, "sha256": sha256(text), "problems": check.problems,
            "failed": sum(check.cell_failed)}
    return call, check


def run_calls(wl, seed: int, seconds: float, tracer=None) -> list[dict]:
    """Call the CLI until ``seconds`` pass; every second call traced when a tracer is given.

    Each call records the mean calibration time of the calibration runs just
    before and just after it.
    """
    reference = load_reference()
    calls, checks = [], []
    before = calibration_s()
    deadline = time.perf_counter() + seconds
    while len(calls) < MIN_CALLS or time.perf_counter() < deadline:
        rep = len(calls)
        call, check = checked_call(wl, seed, rep, reference, tracer if rep % 2 else None)
        after = calibration_s()
        call["calibration_s"], before = (before + after) / 2, after
        calls.append(call)
        checks.append(check)
    for i, problem in wl.pooled_problems(checks).items():
        for check in checks:
            check.cell_failed[i] = wl.sizes["measure"]
        calls[0]["problems"].append(f"pooled over all calls: {problem}")
    for call, check in zip(calls, checks):
        call["failed"] = sum(check.cell_failed)
    return calls


def rate(calls: list[dict], traced: bool) -> float:
    """Median over calls of operations per wall second."""
    return statistics.median(c["ops"] / c["seconds"] for c in calls if c["traced"] == traced)


def scaled_rate(calls: list[dict]) -> float:
    """Median over calls of operations per wall second, scaled to reference machine speed."""
    return statistics.median(c["ops"] / c["seconds"] * c["calibration_s"] / CALIBRATION_REF_S
                             for c in calls)


def environment() -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        blas = None
    return {"numpy": np.__version__, "blas": blas}


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark child process")
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]

    result = {"setup_s": set_up(wl, args.seed)}
    if args.mode == "setup":
        # One more peak-memory sample. The call repeats call 0 of the measuring
        # process, and run.py requires the same output bytes; one call has too
        # few trials for the statistical check.
        calls = [checked_call(wl, args.seed, 0, load_reference())[0]]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    elif args.mode == "measure":
        calls = run_calls(wl, args.seed, args.seconds)
        result["ops_per_s"] = scaled_rate(calls)
        result["unscaled_ops_per_s"] = rate(calls, traced=False)
    elif args.mode == "trace":
        from tracer import AllocMeter, Tracer
        import tracemalloc

        tracer = Tracer()
        calls = run_calls(wl, args.seed, args.seconds, tracer)
        meter = AllocMeter()
        tracemalloc.start()
        try:
            with meter.patched():
                rc, *_ = cli_call(wl.argv(call_seed(args.seed, 0), "alloc"))
        finally:
            tracemalloc.stop()
        if rc != 0:
            raise SystemExit(f"allocation-pass call exited with {rc}")
        untraced, traced = rate(calls, False), rate(calls, True)
        result["per_layer"] = {
            **tracer.metrics(),
            **meter.metrics(),
            "trace.overhead_frac": 1.0 - traced / untraced,
        }
        result["cell_seconds"] = tracer.cell_seconds()
        result["nesting_violations"] = len(tracer.nesting_violations())
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{wl.name}.json.gz"
        tracer.write(spans_path)
        result["spans_path"] = str(spans_path.relative_to(ROOT))
    result["calls"] = calls
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
