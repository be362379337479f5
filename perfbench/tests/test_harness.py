"""Self-test of the benchmark harness.

Run from the repository root:

    python3 -m pytest perfbench/tests -q

Runs a tiny instance of every workload, shows that each kind of check can
fail, and checks the tracer's span arithmetic.
"""

import json
import math
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, CellTarget, SweepWorkload, load_reference  # noqa: E402

SEED = 3


@pytest.fixture(scope="module", autouse=True)
def pocs_loaded():
    child.set_up(WORKLOADS["sweep_tau_m64"], SEED)


def tiny_call(wl, seed=SEED):
    rc, _, _, text = child.cli_call(wl.argv(seed, "tiny"))
    assert rc == 0
    return text, wl.check(text, seed, "tiny")


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER_UNITS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_instance_passes_its_checks(name):
    wl = WORKLOADS[name]
    _, check = tiny_call(wl)
    assert check.problems == []
    assert sum(check.cell_failed) == 0
    assert wl.pooled_problems([check]) == {}


def test_wrong_target_fails_pooled_check_and_counts_every_trial():
    wl = WORKLOADS["sweep_tau_m64"]
    wrong = SweepWorkload(wl.name, wl.why, wl.args,
                          (CellTarget("po", 10, 64, 0.0, 0.9, 0.02, db=False), wl.targets[1]),
                          wl.sizes)
    text, check = tiny_call(wrong)
    assert check.problems == []
    bad = wrong.pooled_problems([check])
    assert list(bad) == [0] and "off target 0.9" in bad[0]


def test_malformed_csv_fails_every_cell():
    wl = WORKLOADS["sweep_tau_m64"]
    text, _ = tiny_call(wl)
    broken = text.replace(",0,", ",x,", 1)
    check = wl.check(broken, SEED, "tiny")
    assert check.problems and sum(check.cell_failed) > 0
    assert wl.check(text.replace("po,10,64", "cs,10,64", 1), SEED, "tiny").problems


def test_rip_report_outside_recorded_range_fails():
    wl = WORKLOADS["rip_estimate_m4096"]
    text, good = tiny_call(wl)
    reference = load_reference()
    reference[wl.name]["delta_range"][str(wl.sizes["tiny"])] = [0.5, 0.6]
    bad = wl.check(text, SEED, "tiny", reference)
    assert any("outside the recorded range" in p for p in bad.problems)
    assert bad.cell_failed == [good.ops]
    report = json.loads(text)
    report["pbp_error_bound_noiseless"] *= 1.001
    assert wl.check(json.dumps(report), SEED, "tiny").problems


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_child_self_times_never_exceed_their_parent(name):
    wl = WORKLOADS[name]
    tr = tracer.Tracer()
    with tr.patched():
        rc, *_ = child.cli_call(wl.argv(SEED, "tiny"))
    assert rc == 0
    assert tr.nesting_violations() == []
    dur, covered = tr.durations()
    assert all(c <= d + 1e-9 for d, c in zip(dur, covered))
    metrics = tr.metrics()
    shares = sum(metrics[f"{layer}.share"] for layer in tracer.LAYERS)
    assert math.isclose(shares, 1.0, rel_tol=1e-9)
    if wl.kind == "sweep":
        trials = wl.sizes["tiny"] * len(wl.targets)
        assert metrics["experiments.run_trial.calls"] == trials
        assert metrics["sensing.sample_sensing_matrix.calls"] == trials
        assert sum(1 for n in tr.names if n == "cli.main") == 1
    else:
        assert metrics["rip.probes_evaluated"] >= wl.sizes["tiny"] + 256


def test_patches_are_undone_and_missing_targets_report_zero(monkeypatch):
    import pocs.experiments
    import pocs.rng

    before = (pocs.experiments.run_trial, pocs.rng.RngStream.generator)
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (
        ("rip.gone", "pocs.experiments", "no_such_function"),
        ("rip.gone", "pocs.no_such_module", "f"),
    ))
    monkeypatch.setattr(tracer, "SPAN_METRICS", tracer.SPAN_METRICS + (
        ("rip.gone_us", "us", "rip.gone", "mean", 1e6),
        ("rip.gone.calls", "1/call", "rip.gone", "calls", 1),
    ))
    tr = tracer.Tracer()
    with tr.patched():
        assert pocs.experiments.run_trial is not before[0]
        rc, *_ = child.cli_call(WORKLOADS["sweep_tau_m64"].argv(SEED, "tiny"))
    assert rc == 0
    assert (pocs.experiments.run_trial, pocs.rng.RngStream.generator) == before
    metrics = tr.metrics()
    assert metrics["rip.gone_us"] == 0.0 and metrics["rip.gone.calls"] == 0


def test_counts_are_per_traced_cli_call_and_zero_signs_come_from_the_program(monkeypatch):
    import pocs.core
    import pocs.experiments

    original = pocs.experiments.run_trial
    hits = iter([True] + [False] * 10_000)

    def run_trial(*args, **kwargs):
        if next(hits):  # stands in for a trial that meets an exact zero in csign
            pocs.core._zero_sign_seen += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(pocs.experiments, "run_trial", run_trial)
    wl = WORKLOADS["sweep_tau_m64"]
    tr = tracer.Tracer()
    for rep in range(2):
        with tr.patched():
            rc, *_ = child.cli_call(wl.argv(SEED + rep, "tiny"))
        assert rc == 0
    metrics = tr.metrics()
    assert metrics["experiments.run_trial.calls"] == wl.sizes["tiny"] * len(wl.targets)
    assert metrics["sensing.sample_sensing_matrix.calls"] == wl.sizes["tiny"] * len(wl.targets)
    assert metrics["core.zero_sign_hits"] == 0.5


def test_alloc_meter_sees_the_matrix_and_adjoint_buffers():
    wl = WORKLOADS["sweep_m4096"]
    meter = tracer.AllocMeter()
    tracemalloc.start()
    try:
        with meter.patched():
            rc, *_ = child.cli_call(wl.argv(SEED, "alloc"))
    finally:
        tracemalloc.stop()
    assert rc == 0
    counts = meter.metrics()
    m, n = 4096, 256
    assert counts["sensing.sample_sensing_matrix.alloc_bytes"] >= 16 * m * n
    assert counts["core.adjoint_matvec.alloc_bytes"] >= 16 * m * n
    assert counts["rip.rip_distortion_probe.alloc_bytes"] == 0


def test_scaled_rate_scales_each_call_by_its_calibration():
    ref = child.CALIBRATION_REF_S
    calls = [{"ops": 10, "seconds": 1.0, "calibration_s": ref, "traced": False},
             {"ops": 10, "seconds": 2.0, "calibration_s": 2 * ref, "traced": False},
             {"ops": 10, "seconds": 4.0, "calibration_s": ref, "traced": False}]
    assert child.rate(calls, traced=False) == 5.0
    assert child.scaled_rate(calls) == 10.0


def test_calibration_kernel_allocates_nothing_once_warm():
    child.calibration_s()
    tracemalloc.start()
    try:
        seconds = child.calibration_s()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seconds > 0
    assert peak < 64 * 1024  # index and partition scratch only; no array-sized blocks


def _run(cwd, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_tau_m64", "--seed", "1",
         "--seconds", "0.5", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_metric_of_its_kind(trace):
    proc = _run(ROOT, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
