"""Sweep harness tests: seeding, determinism, aggregation, CSV/JSON, rate fits."""

import dataclasses
import json
import math
import multiprocessing

import numpy as np
import pytest

from pocs import (
    CellAggregate,
    ConfigError,
    SweepConfig,
    SweepResult,
    fit_rate,
    fnv1a64,
    load_sweep_result,
    render_csv,
    render_json,
    rip_estimate_report,
    run_m_sweep,
    run_tau_sweep,
    run_trial,
    trial_stream_id,
)
from pocs import cli
from pocs.experiments import ENGINE, pool_size

TINY = SweepConfig(
    n=16,
    sparsity_levels=(2,),
    log2_m_over_n=(-1.0, 0.0),
    schemes=("po", "cs"),
    trials=20,
    master_seed=7,
    tau_grid=(0.0,),
)


class TestSeeding:
    def test_stream_id_is_fnv1a_of_the_engine_tagged_key(self):
        key = f"{ENGINE}|po|s=10|m=64|tau=0.5|trial=3"
        assert trial_stream_id("po", 10, 64, 0.5, 3) == fnv1a64(key.encode("ascii"))

    def test_stream_ids_are_stable_and_distinct(self):
        a = trial_stream_id("po", 10, 64, 0.0, 3)
        assert a == trial_stream_id("po", 10, 64, 0.0, 3)
        others = [
            trial_stream_id("cs", 10, 64, 0.0, 3),
            trial_stream_id("po", 11, 64, 0.0, 3),
            trial_stream_id("po", 10, 65, 0.0, 3),
            trial_stream_id("po", 10, 64, 0.1, 3),
            trial_stream_id("po", 10, 64, 0.0, 4),
        ]
        assert len({a, *others}) == 6

    def test_run_trial_replayable(self):
        rec1 = run_trial("po", 32, 3, 16, 0.2, 99, 5)
        rec2 = run_trial("po", 32, 3, 16, 0.2, 99, 5)
        assert rec1 == rec2
        assert rec1.seed_used == trial_stream_id("po", 3, 16, 0.2, 5)
        assert 0.0 <= rec1.error <= 2.0
        assert not rec1.failed

    def test_trials_differ_across_indices(self):
        errs = {run_trial("po", 32, 3, 16, 0.0, 99, t).error for t in range(8)}
        assert len(errs) == 8


class TestMSweep:
    def test_cell_grid_and_sanity(self):
        result = run_m_sweep(TINY)
        assert len(result.cells) == 4  # 2 schemes x 1 sparsity x 2 ratios
        for cell in result.cells:
            assert cell.scheme in ("po", "cs")
            assert cell.m in (8, 16)
            assert cell.tau == 0.0
            assert cell.trials == 20
            assert cell.failures == 0
            assert 0.0 < cell.mean_error <= 2.0
            assert cell.mean_error_db == pytest.approx(
                10 * math.log10(cell.mean_error), abs=1e-12
            )
            assert cell.stderr_error > 0.0

    def test_rerun_identical(self):
        a = render_csv(run_m_sweep(TINY))
        b = render_csv(run_m_sweep(TINY))
        assert a == b

    def test_worker_count_does_not_change_results(self):
        serial = render_csv(run_m_sweep(TINY, workers=1))
        parallel = render_csv(run_m_sweep(TINY, workers=2))
        assert serial == parallel

    @pytest.mark.parametrize(
        "patch,field",
        [
            (dict(trials=0), "trials"),
            (dict(sparsity_levels=()), "sparsity_levels"),
            (dict(sparsity_levels=(17,)), "sparsity_levels"),
            (dict(schemes=("bogus",)), "schemes"),
            (dict(schemes=()), "schemes"),
            (dict(log2_m_over_n=None), "log2_m_over_n"),
            (dict(log2_m_over_n=(-10.0,)), "log2_m_over_n"),
            (dict(tau_grid=(0.5,)), "tau_grid"),
            # 16 * 2**0.01 rounds to m = 16: two cells with one stream id
            (dict(log2_m_over_n=(0.0, 0.01)), "log2_m_over_n"),
            # repeated values would give cells with identical stream ids
            (dict(sparsity_levels=(2, 3, 2)), "sparsity_levels"),
            (dict(schemes=("po", "cs", "po")), "schemes"),
            # a config loaded from a CSV holds neither
            (dict(n=None), "n"),
            (dict(master_seed=None), "master_seed"),
            # RngStream keeps a seed's low 64 bits: these would alias 2^64 - 1 and 0
            (dict(master_seed=-1), "master_seed"),
            (dict(master_seed=1 << 64), "master_seed"),
            # no finite m: 2.0**ratio overflows, or the ratio is not a number
            (dict(log2_m_over_n=(math.nan,)), "log2_m_over_n"),
            (dict(log2_m_over_n=(math.inf,)), "log2_m_over_n"),
            (dict(log2_m_over_n=(1e9,)), "log2_m_over_n"),
            (dict(log2_m_over_n=(1023.5,)), "log2_m_over_n"),
            # the sweep takes m from the ratio grid and would ignore this one
            (dict(m=64), "m"),
        ],
    )
    def test_config_errors_name_the_field(self, patch, field):
        import dataclasses

        cfg = SweepConfig(
            n=16, sparsity_levels=(2,), log2_m_over_n=(0.0,), schemes=("po",),
            trials=5, master_seed=1,
        )
        cfg = dataclasses.replace(cfg, **patch)
        with pytest.raises(ConfigError) as err:
            run_m_sweep(cfg)
        assert str(err.value).startswith(f"{field}:")


class TestPoolSize:
    @pytest.mark.parametrize(
        "workers,tasks,size", [(1, 8, 1), (2, 8, 2), (8, 3, 3), (4, 1, 1)]
    )
    def test_never_more_workers_than_chunks(self, workers, tasks, size):
        assert pool_size(workers, tasks) == size

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_fewer_than_one_worker(self, workers):
        with pytest.raises(ConfigError) as err:
            pool_size(workers, 4)
        assert "workers" in str(err.value)


class TestTauSweep:
    def test_basic_run(self):
        cfg = SweepConfig(
            n=32, sparsity_levels=(3,), m=16, tau_grid=(0.0, 0.5),
            schemes=("po",), trials=25, master_seed=11,
        )
        result = run_tau_sweep(cfg)
        assert [c.tau for c in result.cells] == [0.0, 0.5]
        assert all(c.m == 16 for c in result.cells)
        assert render_csv(result) == render_csv(run_tau_sweep(cfg))

    def test_saturation_onset_at_tau_pi(self):
        # reference value 1.414 +/- 0.05 at (n, s, m) = (256, 10, 64)
        cfg = SweepConfig(
            n=256, sparsity_levels=(10,), m=64, tau_grid=(math.pi,),
            schemes=("po",), trials=1000, master_seed=17,
        )
        cell = run_tau_sweep(cfg).cells[0]
        assert abs(cell.mean_error - 1.414) <= 0.05

    def test_error_grows_with_noise_up_to_pi(self):
        cfg = SweepConfig(
            n=64, sparsity_levels=(4,), m=32,
            tau_grid=(0.0, 0.25 * math.pi, 0.5 * math.pi, 0.75 * math.pi, math.pi),
            schemes=("po",), trials=400, master_seed=13,
        )
        cells = run_tau_sweep(cfg).cells
        for lo, hi in zip(cells, cells[1:]):
            slack = 2.0 * (lo.stderr_error + hi.stderr_error)
            assert hi.mean_error >= lo.mean_error - slack

    @pytest.mark.parametrize(
        "patch,field",
        [
            (dict(m=None), "m"),
            (dict(sparsity_levels=(2, 3)), "sparsity_levels"),
            (dict(schemes=("cs",)), "schemes"),
            (dict(tau_grid=()), "tau_grid"),
            (dict(tau_grid=(-0.1,)), "tau_grid"),
            (dict(tau_grid=(0.0, 0.5, 0.5)), "tau_grid"),
            # NaN passes tau < 0; 2 tau must be finite for uniform(-tau, tau)
            (dict(tau_grid=(math.nan,)), "tau_grid"),
            (dict(tau_grid=(0.5, math.inf)), "tau_grid"),
            (dict(tau_grid=(1e308,)), "tau_grid"),
            # the sweep runs at the fixed m and would ignore a ratio grid
            (dict(log2_m_over_n=(0.0,)), "log2_m_over_n"),
        ],
    )
    def test_config_errors(self, patch, field):
        import dataclasses
        cfg = SweepConfig(
            n=32, sparsity_levels=(3,), m=16, tau_grid=(0.0,),
            schemes=("po",), trials=5, master_seed=1,
        )
        cfg = dataclasses.replace(cfg, **patch)
        with pytest.raises(ConfigError) as err:
            run_tau_sweep(cfg)
        assert str(err.value).startswith(f"{field}:")


class TestCsvContract:
    HEADER = "scheme,s,m,tau,trials,failures,mean_error,mean_error_db,stderr_error"

    def test_header_and_shape(self):
        text = render_csv(run_m_sweep(TINY))
        lines = text.split("\n")
        assert lines[0] == self.HEADER
        assert lines[-1] == ""  # trailing LF
        assert len(lines) == 2 + len(TINY.schemes) * len(TINY.log2_m_over_n)
        for row in lines[1:-1]:
            assert len(row.split(",")) == 9

    def test_float_formatting_ten_significant_digits(self):
        cell = CellAggregate(
            scheme="po", s=2, m=8, tau=1.0 / 3.0, trials=5, failures=0,
            mean_error=0.123456789012345, mean_error_db=-9.08485018878,
            stderr_error=1.0,
        )
        result = SweepResult(config=TINY, cells=(cell,))
        row = render_csv(result).split("\n")[1]
        assert row.split(",")[3] == "0.3333333333"
        assert row.split(",")[6] == "0.123456789"
        assert row.split(",")[8] == "1"

    def test_lf_endings_and_utf8(self, tmp_path):
        # the CLI's file writer adds no \r and writes the rendered text as is
        path = tmp_path / "sweep.csv"
        assert cli.main([
            "sweep-m", "--n", "16", "--s", "2", "--log2-ratio", "-1", "--log2-ratio", "0",
            "--trials", "20", "--seed", "7", "--out", str(path),
        ]) == 0
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8") == render_csv(run_m_sweep(TINY))

    def test_roundtrip_csv_and_json(self, tmp_path):
        result = run_m_sweep(TINY)
        csv_path, json_path = tmp_path / "r.csv", tmp_path / "r.json"
        csv_path.write_text(render_csv(result), encoding="utf-8", newline="")
        json_path.write_text(render_json(result), encoding="utf-8", newline="")
        # CSV carries 10 significant digits; re-rendering the load is lossless
        from_csv = load_sweep_result(str(csv_path), n=TINY.n)
        assert render_csv(from_csv) == csv_path.read_text()
        assert [(c.scheme, c.s, c.m) for c in from_csv.cells] == [
            (c.scheme, c.s, c.m) for c in result.cells
        ]
        # JSON round-trips exactly
        from_json = load_sweep_result(str(json_path))
        assert from_json.cells == result.cells
        assert from_json.config == result.config

    def test_csv_load_leaves_unknown_config_none(self, tmp_path):
        # a CSV holds cells only: what they show is derived, the rest is None
        path = tmp_path / "r.csv"
        path.write_text(render_csv(run_m_sweep(TINY)), encoding="utf-8", newline="")
        config = load_sweep_result(str(path)).config
        assert (config.n, config.master_seed) == (None, None)
        assert config.schemes == ("po", "cs")
        assert config.sparsity_levels == (2,)
        assert config.trials == TINY.trials
        assert load_sweep_result(str(path), n=16).config.n == 16
        cs_only = render_csv(run_m_sweep(dataclasses.replace(TINY, schemes=("cs",))))
        path.write_text(cs_only, encoding="utf-8", newline="")
        assert load_sweep_result(str(path)).config.schemes == ("cs",)

    def test_json_echoes_the_engine(self):
        payload = json.loads(render_json(run_m_sweep(TINY)))
        assert payload["engine"] == ENGINE

    def test_json_text_is_deterministic(self):
        assert render_json(run_m_sweep(TINY)) == render_json(run_m_sweep(TINY))


class TestZeroSignHits:
    CFG = SweepConfig(
        n=16, sparsity_levels=(2,), m=8, tau_grid=(0.0, 0.5),
        schemes=("po",), trials=40, master_seed=3,
    )

    def test_json_cells_carry_the_count_and_csv_does_not(self):
        result = run_tau_sweep(self.CFG)
        payload = json.loads(render_json(result))
        assert [c["zero_sign_hits"] for c in payload["cells"]] == [0, 0]
        assert "zero_sign" not in render_csv(result)

    def test_json_without_the_field_still_loads(self, tmp_path):
        payload = json.loads(render_json(run_tau_sweep(self.CFG)))
        for cell in payload["cells"]:
            del cell["zero_sign_hits"]
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload))
        assert all(c.zero_sign_hits == 0 for c in load_sweep_result(str(path)).cells)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched draw reaches worker processes only when they are forked",
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_counts_from_every_worker_are_summed_per_cell(self, monkeypatch, workers):
        import pocs.experiments

        statistic = pocs.experiments._phase_only_statistic

        def two_zeros_per_trial(y, xi):
            yz, _ = statistic(y, xi)
            return yz, 2

        plain = render_csv(run_tau_sweep(self.CFG))
        monkeypatch.setattr(pocs.experiments, "_phase_only_statistic", two_zeros_per_trial)
        result = run_tau_sweep(self.CFG, workers=workers)
        assert [c.zero_sign_hits for c in result.cells] == [2 * self.CFG.trials] * 2
        assert render_csv(result) == plain

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched generator reaches worker processes only when they are forked",
    )
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_zero_measurements_reach_the_json(self, monkeypatch, tmp_path, workers):
        # nothing that counts is patched: the stream itself yields three exact
        # zeros of y = Phi x0 in every trial
        import pocs.rng

        plain = pocs.rng.RngStream.generator
        monkeypatch.setattr(pocs.rng.RngStream, "generator",
                            lambda self: _FirstNormalsZero(plain(self), 3))
        out = tmp_path / "sweep.json"
        assert cli.main([
            "sweep-m", "--n", "8", "--s", "2", "--log2-ratio", "-1", "--log2-ratio", "1",
            "--trials", "40", "--seed", "5", "--format", "json", "--workers", workers,
            "--out", str(out),
        ]) == 0
        cells = json.loads(out.read_text())["cells"]
        assert [(c["scheme"], c["m"]) for c in cells] == [
            ("po", 4), ("po", 16), ("cs", 4), ("cs", 16)
        ]
        # the linear channel keeps y as it is: no signum, nothing to count
        assert [c["zero_sign_hits"] for c in cells] == [3 * 40, 3 * 40, 0, 0]


class _FirstNormalsZero:
    """A generator whose complex normals start with ``count`` exact zeros."""

    def __init__(self, gen, count):
        self._gen, self._count = gen, count

    def standard_normal(self, size=None, out=None):
        z = self._gen.standard_normal(size) if out is None else self._gen.standard_normal(out=out)
        z[: self._count] = 0.0  # rows of (real, imag) pairs: the first entries of y
        return z

    def __getattr__(self, name):
        return getattr(self._gen, name)


def synthetic_power_law(exponent, coeff=0.9):
    n = 64
    cells = []
    for ratio in (0.0, 1.0, 2.0, 3.0):
        m = int(n * 2**ratio)
        err = coeff * m**exponent
        cells.append(
            CellAggregate(
                scheme="po", s=2, m=m, tau=0.0, trials=100, failures=0,
                mean_error=err, mean_error_db=10 * math.log10(err), stderr_error=0.0,
            )
        )
    config = SweepConfig(
        n=n, sparsity_levels=(2,), log2_m_over_n=(0.0, 1.0, 2.0, 3.0),
        schemes=("po",), trials=100, master_seed=0,
    )
    return SweepResult(config=config, cells=tuple(cells))


# reference n=256 sweep values (dB of mean error) used to pin the rate fit
REFERENCE_PO_S2_DB = {0.0: -10.6256988444573, 2.0: -14.28000096159, 4.0: -17.6637072106488}


class TestFitRate:
    def test_exact_inverse_sqrt_law(self):
        slope = fit_rate(synthetic_power_law(-0.5), "po", 2)
        assert slope == pytest.approx(-0.5, abs=1e-9)

    def test_exact_quarter_law(self):
        slope = fit_rate(synthetic_power_law(-0.25), "po", 2)
        assert slope == pytest.approx(-0.25, abs=1e-9)

    def test_reference_points_give_known_slope(self):
        n = 256
        cells = tuple(
            CellAggregate(
                scheme="po", s=2, m=int(n * 2**r), tau=0.0, trials=1000, failures=0,
                mean_error=10 ** (db / 10.0), mean_error_db=db, stderr_error=0.0,
            )
            for r, db in REFERENCE_PO_S2_DB.items()
        )
        config = SweepConfig(
            n=n, sparsity_levels=(2,), log2_m_over_n=tuple(REFERENCE_PO_S2_DB),
            schemes=("po",), trials=1000, master_seed=0,
        )
        slope = fit_rate(SweepResult(config=config, cells=cells), "po", 2)
        # three equally spaced points: least squares reduces to the endpoint slope
        xs = sorted((math.log10(c.m), math.log10(c.mean_error)) for c in cells)
        endpoint = (xs[-1][1] - xs[0][1]) / (xs[-1][0] - xs[0][0])
        assert slope == pytest.approx(endpoint, abs=1e-9)
        assert slope == pytest.approx(-0.58, abs=0.01)

    def test_ratio_filter(self):
        result = synthetic_power_law(-0.5)
        assert fit_rate(result, "po", 2, min_log2_ratio=1.0) == pytest.approx(-0.5, abs=1e-9)
        with pytest.raises(ValueError):
            fit_rate(result, "po", 2, min_log2_ratio=2.0)  # only 2 points remain

    def test_zero_mean_names_the_cell(self):
        result = synthetic_power_law(-0.5)
        cells = list(result.cells)
        cells[1] = dataclasses.replace(cells[1], mean_error=0.0, mean_error_db=float("-inf"))
        with pytest.raises(ValueError) as err:
            fit_rate(SweepResult(config=result.config, cells=tuple(cells)), "po", 2)
        assert f"m={cells[1].m}" in str(err.value)

    def test_needs_dimension_for_csv_loads(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(render_csv(synthetic_power_law(-0.5)), encoding="utf-8", newline="")
        loaded = load_sweep_result(str(path))
        with pytest.raises(ValueError, match="signal dimension n unknown"):
            fit_rate(loaded, "po", 2)
        assert fit_rate(loaded, "po", 2, n=64) == pytest.approx(-0.5, abs=1e-9)


class TestPoVsCsGap:
    def test_po_trails_cs_by_a_small_constant_db_gap(self, sweep_s2_low, sweep_s2_high):
        # at s = 2 and log2(m/n) >= 0 the phase-only error stays above the
        # linear-acquisition error, with a dB gap under 1.5
        cells = list(sweep_s2_low.result.cells) + list(sweep_s2_high.result.cells)
        po = {c.m: c for c in cells if c.scheme == "po"}
        cs = {c.m: c for c in cells if c.scheme == "cs"}
        assert sorted(po) == sorted(cs) == [256, 1024, 4096]
        for m in sorted(po):
            assert po[m].mean_error > cs[m].mean_error
            assert po[m].mean_error_db - cs[m].mean_error_db < 1.5

    def test_no_failed_trials_at_reference_scale(self, sweep_s2_low, sweep_s2_high, sweep_s10_low):
        for timed in (sweep_s2_low, sweep_s2_high, sweep_s10_low):
            assert all(c.failures == 0 for c in timed.result.cells)


class TestRipEstimateReport:
    def test_keys_and_determinism(self):
        a = rip_estimate_report(m=32, n=16, s=2, num_probes=40, master_seed=5)
        b = rip_estimate_report(m=32, n=16, s=2, num_probes=40, master_seed=5)
        assert a == b
        assert a["delta_lower"] >= 0.0
        assert a["evaluated_probes"] >= a["requested_probes"] + a["n"]
        assert a["oracle_support_error_bound"] == pytest.approx(
            math.sqrt(5 * a["delta_lower"]), abs=1e-12
        )
        assert a["pbp_error_bound_noiseless"] == pytest.approx(
            2 * math.sqrt(5 * a["delta_lower"]), abs=1e-12
        )

    def test_more_probes_never_lower_the_estimate_at_fixed_seed(self):
        small = rip_estimate_report(m=32, n=16, s=2, num_probes=20, master_seed=6)
        large = rip_estimate_report(m=32, n=16, s=2, num_probes=40, master_seed=6)
        assert large["delta_lower"] >= small["delta_lower"]

    def test_implied_bound_is_loose_against_observed_error(self):
        # the distortion-implied error bound sits far above the measured mean
        # error at the same cell (reference: 0.0968 at po, s=20, m=4096, n=256)
        report = rip_estimate_report(m=4096, n=256, s=20, num_probes=500, master_seed=8)
        assert report["pbp_error_bound_noiseless"] > 0.0968
