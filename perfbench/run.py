"""Benchmark for pocs: sweep and RIP throughput end to end, per-module costs traced.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Workloads are defined in workloads.py. Each run starts child processes
(child.py) with BLAS pinned to one thread; a child imports ``pocs`` from this
checkout's ``src`` and drives ``pocs.cli.main`` in-process with
``--workers 1``, the way a user runs a sweep, checking every output.

``--trace 0`` reports the end-to-end metrics:

* ``ops_per_s``: median over calls of operations per wall second of one CLI
  call, scaled to reference machine speed (below); an operation is a trial on
  the sweep workloads and an evaluated probe on the RIP workload.
* ``setup_s``: median over five fresh set-up processes of the time to import
  ``pocs``, build the parser and make a one-trial warm-up call.
* ``peak_rss_mb``: median over the same five processes of each one's peak
  resident memory. After set-up each repeats the measuring process's first
  call, whose output bytes must match.

On a shared host the same code runs up to 2x slower for tens of seconds at a
time, which moves whole runs. So each call's rate is scaled by the speed of a
fixed numpy kernel that never calls ``pocs`` (``child.calibration_s``), run
before and after every call: the rate is multiplied by
``calibration_s / CALIBRATION_REF_S``. The unscaled rate is kept in the
manifest. ``setup_s`` is not scaled: most of its spread comes from importing,
which the kernel does not track.

``--trace 1`` reports the per-layer metrics of tracer.py from a run that
alternates untraced and traced calls, plus a separate ``tracemalloc`` call.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a readable summary goes to stderr and a manifest
(environment, per-call and per-cell seconds, output sha256) to
``.bench_out/``. The exit code is 0 only when every output passed its checks
and no operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import HERE, OUT_DIR, ROOT, WORKLOADS, git_commit, load_reference

SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0
BLAS_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
# For the set-up processes only, which give the peak-memory samples. glibc's
# malloc raises its mmap threshold as large blocks are freed and may then keep
# freed blocks resident in its heap; whether a matrix-sized block stays depends
# on the address layout, down to the size of the environment (71 or 87 MB on
# sweep_m4096). A fixed threshold (glibc's initial one) hands every large block
# back, so the peak is the program's own. The measuring process keeps the
# default allocator, whose block reuse a user's sweep also gets.
SETUP_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}
END_TO_END_UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class ChildError(RuntimeError):
    pass


def spawn(mode: str, args, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    try:
        env = {**os.environ, **BLAS_THREADS, **(SETUP_ENV if mode == "setup" else {})}
        proc = subprocess.run(cmd, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{mode} child timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{mode} child exited with {proc.returncode}")
    return json.loads(lines[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment(child_env: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        **child_env,
        "blas_thread_env": BLAS_THREADS,
        "setup_process_env": SETUP_ENV,
        "git_commit": git_commit(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="pocs benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "pocs" / "cli.py").is_file():
        print(f"benchmark: no pocs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    deadline = time.monotonic() + TIME_LIMIT_S

    try:
        if args.trace:
            from tracer import PER_LAYER_UNITS

            child = spawn("trace", args, deadline)
            values, units = child["per_layer"], PER_LAYER_UNITS
            setup_runs = []
        else:
            setup_runs = [spawn("setup", args, deadline) for _ in range(SETUP_SAMPLES)]
            child = spawn("measure", args, deadline)
            values = {
                "ops_per_s": child["ops_per_s"],
                "setup_s": statistics.median(r["setup_s"] for r in setup_runs),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in setup_runs),
            }
            units = END_TO_END_UNITS
    except ChildError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    # Process 0 measures; processes 1.. are the set-up and memory samples.
    calls = [{"process": i, **c} for i, r in enumerate([child] + setup_runs) for c in r["calls"]]
    for call in calls[len(child["calls"]):]:
        if call["sha256"] != calls[0]["sha256"]:
            call["problems"].append("output differs from the measuring process's call 0")
            call["failed"] = call["ops"]
    attempted = sum(c["ops"] for c in calls)
    failed = sum(c["failed"] for c in calls)
    problems = [f"process {c['process']} call {c['rep']}: {p}" for c in calls for p in c["problems"]]
    recorded = load_reference()[wl.name]["output_sha256"].get(str(args.seed))
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    manifest = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(child["env"]),
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": problems,
        "unscaled_ops_per_s": child.get("unscaled_ops_per_s"),
        "setup_samples_s": [r["setup_s"] for r in setup_runs],
        "peak_rss_samples_mb": [r["peak_rss_mb"] for r in setup_runs],
        "calls": [{k: c[k] for k in ("process", "rep", "seconds", "cpu_seconds", "calibration_s", "ops",
                                     "failed", "traced") if k in c}
                  for c in calls],
        "cell_seconds": child.get("cell_seconds"),  # summed over traced calls only
        "alloc_bytes_meaning": "peak tracemalloc bytes during one call above the bytes traced at "
                               "entry: measured allocation, not bytes moved",
        "nesting_violations": child.get("nesting_violations"),
        "spans_path": child.get("spans_path"),
        "output_sha256": calls[0]["sha256"],
        "output_matches_seed_commit": None if recorded is None else calls[0]["sha256"] == recorded,
    }
    OUT_DIR.mkdir(exist_ok=True)
    manifest_path = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    manifest_path.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")

    log = sys.stderr
    print(f"{wl.name} seed={args.seed}: {len(calls)} calls, {attempted} {wl.unit}", file=log)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=log)
    print(f"  failed_frac = {failed / attempted:.6g} ({failed}/{attempted})", file=log)
    for problem in problems:
        print(f"  FAILED {problem}", file=log)
    print(f"  manifest: {manifest_path.relative_to(ROOT)}", file=log)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
