"""Command-line interface tests: subcommands, formats, exit codes."""

import json
import subprocess
import sys

import pytest

from pocs import cli, experiments
from pocs.experiments import CSV_HEADER


def run_main(*argv):
    return cli.main(list(argv))


def sweep_json(cell0=None, **config):
    """A three-cell po, s = 2, n = 16 sweep JSON with ``cells[0]`` and ``config`` patched."""
    cells = tuple(
        experiments.CellAggregate(scheme="po", s=2, m=m, tau=0.0, trials=20, failures=0,
                                  mean_error=err, mean_error_db=db, stderr_error=0.01)
        for m, err, db in [(16, 0.5, -3.0), (32, 0.35, -4.6), (64, 0.25, -6.0)]
    )
    result = experiments.SweepResult(
        config=experiments.SweepConfig(n=16, sparsity_levels=(2,), trials=20, master_seed=0),
        cells=cells,
    )
    payload = json.loads(experiments.render_json(result))
    payload["cells"][0].update(cell0 or {})
    payload["config"].update(config)
    return json.dumps(payload)


class TestSweepM:
    ARGS = (
        "sweep-m", "--n", "16", "--s", "2", "--log2-ratio", "0",
        "--log2-ratio", "1", "--trials", "10", "--seed", "3",
    )

    def test_writes_csv_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_main(*self.ARGS, "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("scheme,s,m,tau,")
        assert len(lines) == 5  # header + 2 schemes x 2 ratios

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_main(*self.ARGS, "--out", str(a)) == 0
        assert run_main(*self.ARGS, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_scheme_filter_and_json(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = run_main(*self.ARGS, "--scheme", "po", "--format", "json", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["n"] == 16
        assert payload["config"]["schemes"] == ["po"]
        assert len(payload["cells"]) == 2

    def test_workers_flag(self, tmp_path):
        out = tmp_path / "w.csv"
        assert run_main(*self.ARGS, "--workers", "2", "--out", str(out)) == 0
        base = tmp_path / "s.csv"
        assert run_main(*self.ARGS, "--out", str(base)) == 0
        assert out.read_bytes() == base.read_bytes()

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exit_2(self, tmp_path, workers):
        code = run_main(*self.ARGS, "--workers", workers, "--out", str(tmp_path / "x.csv"))
        assert code == 2

    def test_bad_sparsity_exits_2(self, tmp_path):
        code = run_main(
            "sweep-m", "--n", "16", "--s", "17", "--log2-ratio", "0",
            "--trials", "5", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2

    @pytest.mark.parametrize("flag,value,field", [
        ("--s", "2", "sparsity_levels"), ("--scheme", "po", "schemes"),
    ])
    def test_repeated_values_exit_2(self, tmp_path, capsys, flag, value, field):
        out = tmp_path / "x.csv"
        code = run_main(*self.ARGS, "--scheme", "po", flag, value, "--out", str(out))
        assert code == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_exits_3(self, tmp_path):
        code = run_main(*self.ARGS, "--out", str(tmp_path / "missing" / "x.csv"))
        assert code == 3

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_main("sweep-m", "--n", "16", "--trials", "5")
        assert exc.value.code == 2


class TestSweepTau:
    def test_runs_and_writes(self, tmp_path):
        out = tmp_path / "tau.csv"
        code = run_main(
            "sweep-tau", "--n", "16", "--s", "2", "--m", "8",
            "--tau", "0", "--tau", "3.14159", "--trials", "10", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "po"

    def test_repeated_tau_exits_2(self, tmp_path, capsys):
        code = run_main(
            "sweep-tau", "--n", "16", "--s", "2", "--m", "8", "--tau", "0.5",
            "--tau", "0.5", "--trials", "5", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "tau_grid" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_negative_zero_tau_is_tau_zero(self, tmp_path, fmt):
        # -0.0 and 0.0 are one cell: same label, same stream, same bytes
        outs = []
        for tau in ("--tau=-0", "--tau=0"):
            outs.append(tmp_path / f"tau{len(outs)}.{fmt}")
            assert run_main("sweep-tau", "--n", "16", "--s", "2", "--m", "8", tau,
                            "--trials", "5", "--seed", "1", "--format", fmt,
                            "--out", str(outs[-1])) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_negative_tau_exits_2(self, tmp_path):
        code = run_main(
            "sweep-tau", "--n", "16", "--s", "2", "--m", "8",
            "--tau", "-1", "--trials", "5", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2


@pytest.mark.parametrize("argv,field", [
    (("sweep-tau", "--n", "8", "--s", "2", "--m", "4", "--tau", "nan"), "tau_grid"),
    (("sweep-tau", "--n", "8", "--s", "2", "--m", "4", "--tau", "inf"), "tau_grid"),
    (("sweep-tau", "--n", "8", "--s", "2", "--m", "4", "--tau", "1e308"), "tau_grid"),
    (("sweep-m", "--n", "8", "--s", "2", "--log2-ratio", "nan"), "log2_m_over_n"),
    (("sweep-m", "--n", "8", "--s", "2", "--log2-ratio", "inf"), "log2_m_over_n"),
    (("sweep-m", "--n", "8", "--s", "2", "--log2-ratio", "1e9"), "log2_m_over_n"),
])
def test_non_finite_grid_values_exit_2(capsys, argv, field):
    # NaN tau used to run noiseless under a NaN label; the others overflowed (exit 4)
    assert run_main(*argv, "--trials", "3") == 2
    assert f"configuration error: {field}:" in capsys.readouterr().err


@pytest.mark.parametrize("argv,field", [
    (("sweep-m", "--n", "8", "--s", "2", "--log2-ratio", "40"), "log2_m_over_n"),
    (("sweep-tau", "--n", "8", "--s", "2", "--m", str(2**28), "--tau", "0"), "m"),
    (("sweep-tau", "--n", str(2**28), "--s", "2", "--m", "8", "--tau", "0"), "n"),
    # a 32-trial chunk of (32, n) arrays far past 4 GiB, even at one trial
    (("sweep-tau", "--n", "200000000", "--s", "2", "--m", "8", "--tau", "0"), "n"),
])
def test_trials_too_large_to_draw_exit_2(monkeypatch, capsys, argv, field):
    # past 2^28 complex entries in a chunk's working set or in m + n, the
    # sweep is rejected, not run
    monkeypatch.setattr(experiments, "_run_cells", lambda *a: pytest.fail("cells ran"))
    assert run_main(*argv, "--trials", "3") == 2
    assert f"configuration error: {field}:" in capsys.readouterr().err


def test_trial_count_past_the_bookkeeping_bound_exits_2(monkeypatch, capsys):
    # a float64 error per trial and a task per chunk: 7.28 TiB here, not allocated
    monkeypatch.setattr(experiments, "_run_cells", lambda *a: pytest.fail("cells ran"))
    argv = ("sweep-tau", "--n", "16", "--s", "2", "--m", "8", "--tau", "0")
    assert run_main(*argv, "--trials", "1000000000000") == 2
    assert "configuration error: trials:" in capsys.readouterr().err


class TestRipTools:
    def test_rip_bound_prints_reference_value(self):
        # stdout capture is off under -s; check the printed value via a subprocess
        out = subprocess.run(
            [sys.executable, "-m", "pocs.cli", "rip-bound", "--delta", "0.5",
             "--s", "10", "--n", "256", "--eta", "0.01"],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
        assert out.stdout.strip() == "4539"

    def test_rip_bound_invalid_delta(self):
        assert run_main("rip-bound", "--delta", "1.5", "--s", "10", "--n", "256") == 2

    def test_rip_estimate_json(self, tmp_path):
        out = tmp_path / "rip.json"
        code = run_main(
            "rip-estimate", "--m", "32", "--n", "16", "--s", "2",
            "--probes", "20", "--seed", "4", "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["delta_lower"] >= 0
        assert payload["m"] == 32

    def test_rip_estimate_csv(self, tmp_path):
        out = tmp_path / "rip.csv"
        code = run_main(
            "rip-estimate", "--m", "32", "--n", "16", "--s", "2",
            "--probes", "20", "--seed", "4", "--format", "csv", "--out", str(out),
        )
        assert code == 0
        header, row = out.read_text().splitlines()
        assert header.split(",")[0] == "m"
        assert len(row.split(",")) == len(header.split(","))

    @pytest.mark.parametrize("flag,value,field", [
        ("--m", "0", "m"), ("--n", "0", "n"), ("--s", "0", "s"), ("--s", "17", "s"),
        ("--probes", "0", "num_probes"), ("--seed", "-1", "master_seed"),
        # more than 2^28 matrix entries: rejected, not attempted
        ("--m", "100000000", "m"), ("--n", "100000000", "n"),
    ])
    def test_rip_estimate_bad_input_exits_2_before_the_matrix_draw(
        self, monkeypatch, capsys, flag, value, field
    ):
        drawn = []
        monkeypatch.setattr(
            experiments, "sample_sensing_matrix", lambda *a, **k: drawn.append(a)
        )
        argv = {"--m": "32", "--n": "16", "--s": "2", "--probes": "20", "--seed": "4"}
        argv[flag] = value
        code = run_main("rip-estimate", *[t for kv in argv.items() for t in kv])
        assert code == 2
        assert f"configuration error: {field}:" in capsys.readouterr().err
        assert drawn == []


# RngStream keeps a seed's low 64 bits, so -1 would alias 2^64 - 1 and 2^64 would alias 0
SWEEP_TAU = ("sweep-tau", "--n", "16", "--s", "2", "--m", "8", "--tau", "0.5", "--trials", "5")
RIP_ESTIMATE = ("rip-estimate", "--m", "8", "--n", "4", "--s", "2", "--probes", "5")


@pytest.mark.parametrize("argv", [SWEEP_TAU, TestSweepM.ARGS[:-2], RIP_ESTIMATE],
                         ids=["sweep-tau", "sweep-m", "rip-estimate"])
@pytest.mark.parametrize("seed", ["-1", str(2**64), str(-(2**64))])
def test_seed_outside_64_bits_exits_2(capsys, argv, seed):
    assert run_main(*argv, "--seed", seed) == 2
    assert "configuration error: master_seed:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [SWEEP_TAU, RIP_ESTIMATE], ids=["sweep-tau", "rip-estimate"])
def test_64_bit_seed_range_ends_are_accepted(capsys, argv):
    outputs = []
    for seed in ("0", str(2**64 - 1)):
        assert run_main(*argv, "--seed", seed) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] != outputs[1]


class TestFitRate:
    def test_fit_rate_from_csv(self, tmp_path):
        sweep_out = tmp_path / "sweep.csv"
        assert run_main(
            "sweep-m", "--n", "16", "--s", "2", "--log2-ratio", "0",
            "--log2-ratio", "1", "--log2-ratio", "2", "--scheme", "po",
            "--trials", "40", "--seed", "9", "--out", str(sweep_out),
        ) == 0
        result = subprocess.run(
            [sys.executable, "-m", "pocs.cli", "fit-rate", "--in", str(sweep_out),
             "--scheme", "po", "--s", "2", "--n", "16"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        float(result.stdout.strip())

    def test_too_few_points_exits_2(self, tmp_path):
        sweep_out = tmp_path / "sweep.csv"
        assert run_main(
            "sweep-m", "--n", "16", "--s", "2", "--log2-ratio", "0",
            "--scheme", "po", "--trials", "10", "--out", str(sweep_out),
        ) == 0
        assert run_main(
            "fit-rate", "--in", str(sweep_out), "--scheme", "po", "--s", "2",
            "--n", "16",
        ) == 2

    def test_zero_mean_error_exits_2(self, tmp_path, capsys):
        from pocs import CellAggregate, SweepConfig, SweepResult, render_csv

        cells = tuple(
            CellAggregate(scheme="po", s=1, m=m, tau=0.0, trials=10, failures=0,
                          mean_error=err, mean_error_db=db, stderr_error=0.0)
            for m, err, db in [(16, 0.5, -3.0), (32, 0.0, float("-inf")), (64, 0.25, -6.0)]
        )
        config = SweepConfig(n=16, sparsity_levels=(1,), trials=10, master_seed=0)
        path = tmp_path / "sweep.csv"
        path.write_text(render_csv(SweepResult(config=config, cells=cells)))
        code = run_main("fit-rate", "--in", str(path), "--scheme", "po", "--s", "1",
                        "--n", "16")
        assert code == 2
        assert "m=32" in capsys.readouterr().err

    def test_csv_without_n_exits_2(self, tmp_path, capsys):
        sweep_out = tmp_path / "sweep.csv"
        assert run_main(
            "sweep-m", "--n", "16", "--s", "2", "--log2-ratio", "0",
            "--log2-ratio", "1", "--log2-ratio", "2", "--scheme", "po",
            "--trials", "10", "--out", str(sweep_out),
        ) == 0
        code = run_main("fit-rate", "--in", str(sweep_out), "--scheme", "po", "--s", "2")
        assert code == 2
        assert "signal dimension n unknown" in capsys.readouterr().err

    def test_json_with_old_config_keys_still_loads(self, tmp_path, capsys):
        # sweep JSON from before the config echo lost output_path and aggregate
        sweep_out = tmp_path / "sweep.json"
        assert run_main(
            "sweep-m", "--n", "16", "--s", "2", "--log2-ratio", "0",
            "--log2-ratio", "1", "--log2-ratio", "2", "--scheme", "po",
            "--trials", "40", "--seed", "9", "--format", "json", "--out", str(sweep_out),
        ) == 0
        payload = json.loads(sweep_out.read_text())
        capsys.readouterr()
        assert run_main("fit-rate", "--in", str(sweep_out), "--scheme", "po", "--s", "2") == 0
        slope = capsys.readouterr().out
        payload["config"]["output_path"] = "sweep.json"
        payload["config"]["aggregate"] = "mean_error_db"
        old = tmp_path / "old.json"
        old.write_text(json.dumps(payload, indent=2) + "\n")
        loaded = experiments.load_sweep_cells(str(old))
        assert loaded == experiments.load_sweep_cells(str(sweep_out))
        assert run_main("fit-rate", "--in", str(old), "--scheme", "po", "--s", "2") == 0
        assert capsys.readouterr().out == slope

    @pytest.mark.parametrize("text,message", [
        (CSV_HEADER + "\npo,2,16\n", "line 2: expected 9 fields, got 3"),
        (CSV_HEADER + "\n\npo,2,16,0,5,0,0.5,-3,0.1,7\n", "line 3: expected 9 fields, got 10"),
        ('{"cells": []}', "'config'"),
        (CSV_HEADER + "\npo,x,16,0,5,0,0.5,-3,0.1\n", "line 2: invalid literal for int()"),
        ('{"cells": [}', "JSONDecodeError"),
        (sweep_json({"m": "16"}), "cells[0].m must be int, got '16'"),
        (sweep_json({"mean_error": "0.5"}), "cells[0].mean_error must be float, got '0.5'"),
        (sweep_json(n="16"), "config.n must be int, got '16'"),
    ], ids=["short-row", "long-row", "json-without-config", "non-numeric-field", "invalid-json",
            "json-string-m", "json-string-mean-error", "json-string-config-n"])
    def test_malformed_input_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "sweep.txt"
        path.write_text(text)
        code = run_main("fit-rate", "--in", str(path), "--scheme", "po", "--s", "2",
                        "--n", "16")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {path}") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("row,message", [
        ("po,2,0,0,20,0,0.5,-3,0.01", "cell scheme=po s=2 m=0; a log-log fit needs m >= 1"),
        ("po,2,16,0,20,0,inf,inf,0.01", "cell scheme=po s=2 m=16 has mean_error inf"),
    ], ids=["zero-m", "infinite-mean-error"])
    def test_unfittable_cell_exits_2(self, tmp_path, capsys, row, message):
        path = tmp_path / "sweep.csv"
        path.write_text("\n".join(
            [CSV_HEADER, row, "po,2,32,0,20,0,0.35,-4.6,0.01", "po,2,64,0,20,0,0.25,-6,0.01", ""]
        ))
        code = run_main("fit-rate", "--in", str(path), "--scheme", "po", "--s", "2",
                        "--n", "16")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: fit_rate: ") and message in err
        assert "Traceback" not in err

    def test_non_utf8_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        path.write_bytes(b"\xff\xfe")
        code = run_main("fit-rate", "--in", str(path), "--scheme", "po", "--s", "2",
                        "--n", "16")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {path}: not UTF-8 text")

    def test_json_cell_without_a_key_exits_2(self, tmp_path, capsys):
        sweep_out = tmp_path / "sweep.json"
        assert run_main(*TestSweepM.ARGS, "--format", "json", "--out", str(sweep_out)) == 0
        payload = json.loads(sweep_out.read_text())
        del payload["cells"][1]["mean_error"]
        sweep_out.write_text(json.dumps(payload))
        assert run_main("fit-rate", "--in", str(sweep_out), "--scheme", "po", "--s", "2") == 2
        assert "mean_error" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_explicit_n_below_1_exits_2(self, tmp_path, capsys, n):
        # a JSON sweep knows its n; an explicit --n 0 must not fall back to it
        sweep_out = tmp_path / "sweep.json"
        assert run_main(*TestSweepM.ARGS, "--format", "json", "--out", str(sweep_out)) == 0
        code = run_main("fit-rate", "--in", str(sweep_out), "--scheme", "po", "--s", "2",
                        "--n", n)
        assert code == 2
        assert f"configuration error: n: must be >= 1, got {n}" in capsys.readouterr().err

    def test_nan_min_log2_ratio_exits_2(self, tmp_path, capsys):
        # NaN fails every comparison, so it would filter out every grid point
        path = tmp_path / "sweep.json"
        path.write_text(sweep_json())
        argv = ("fit-rate", "--in", str(path), "--scheme", "po", "--s", "2")
        assert run_main(*argv, "--min-log2-ratio", "nan") == 2
        assert "configuration error: min_log2_ratio:" in capsys.readouterr().err
        # the infinities stay valid: every grid point, or none
        assert run_main(*argv, "--min-log2-ratio=-inf") == 0
        assert run_main(*argv, "--min-log2-ratio", "inf") == 2
        assert "found 0" in capsys.readouterr().err

    def test_missing_input_exits_3(self):
        assert run_main(
            "fit-rate", "--in", "/nonexistent/sweep.csv", "--scheme", "po", "--s", "2",
            "--n", "16",
        ) == 3


def test_numerical_failure_maps_to_exit_4(monkeypatch, tmp_path):
    from pocs.experiments import NumericalFailureError

    def boom(config, workers=1):
        raise NumericalFailureError("cell produced no usable trials")

    monkeypatch.setattr(cli.experiments, "run_sweep", boom)
    code = run_main(
        "sweep-m", "--n", "16", "--s", "2", "--log2-ratio", "0",
        "--trials", "5", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 4


def test_stdout_default_via_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "pocs.cli", "sweep-m", "--n", "16", "--s", "2",
         "--log2-ratio", "0", "--trials", "5", "--seed", "1"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("scheme,s,m,tau,")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    TestSweepM.ARGS,
    ("sweep-tau", "--n", "16", "--s", "2", "--m", "8", "--tau", "0", "--tau", "1",
     "--trials", "10", "--seed", "3"),
], ids=["sweep-m", "sweep-tau"])
def test_out_file_bytes_equal_stdout_bytes(tmp_path, capsys, argv, fmt):
    out = tmp_path / f"sweep.{fmt}"
    assert run_main(*argv, "--format", fmt, "--out", str(out)) == 0
    capsys.readouterr()
    assert run_main(*argv, "--format", fmt) == 0
    assert out.read_bytes() == capsys.readouterr().out.encode("utf-8")
