"""Sweep harness tests: seeding, determinism, aggregation, CSV/JSON, rate fits."""

import concurrent.futures
import dataclasses
import json
import math
import multiprocessing
import os

import numpy as np
import pytest

import pocs.experiments
from doubles import FirstModuliZero, wrap_generators
from pocs import (
    CellAggregate,
    ConfigError,
    SweepConfig,
    SweepResult,
    VarianceConvention,
    fit_rate,
    fnv1a64,
    load_sweep_cells,
    render_csv,
    render_json,
    rip_estimate_report,
    run_sweep,
    run_trial,
    trial_stream_id,
)
from pocs import cli
from pocs.experiments import ENGINE, _pool_size as pool_size

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

    def test_stream_id_keys_a_convention_member_by_its_name(self):
        # a member's format() is its qualified name from Python 3.11 on, so keying the
        # member itself would give an id that depends on the interpreter
        for member in VarianceConvention:
            ids = {trial_stream_id(scheme, 2, 8, 0.0, 0) for scheme in (member, member.value)}
            assert len(ids) == 1
        with pytest.raises(ConfigError, match="^scheme:"):
            trial_stream_id("xx", 2, 8, 0.0, 0)

    def test_run_trial_takes_the_indices_a_sweep_can_run(self):
        # a sweep runs at most 2^28 trials; an index 2^128 chunks on would replay the same trial
        assert 0.0 <= run_trial("po", 16, 2, 8, 0.0, 1, 2**28 - 1) <= 2.0
        with pytest.raises(ConfigError, match="^trial_index:"):
            run_trial("po", 16, 2, 8, 0.0, 1, 2**28)

    def test_run_trial_replayable(self):
        error = run_trial("po", 32, 3, 16, 0.2, 99, 5)
        assert error == run_trial("po", 32, 3, 16, 0.2, 99, 5)
        assert 0.0 <= error <= 2.0

    def test_trials_differ_across_indices(self):
        errs = {run_trial("po", 32, 3, 16, 0.0, 99, t) for t in range(8)}
        assert len(errs) == 8

    @pytest.mark.parametrize(
        "args,field",
        [
            # a negative index would name a chunk "-1" with stream key trial=-32
            (("po", 16, 2, 8, 0.0, 3, -1), "trial_index"),
            # RngStream keeps a seed's low 64 bits: these would alias 2^64 - 1 and 0
            (("po", 16, 2, 8, 0.0, -1, 0), "master_seed"),
            (("po", 16, 2, 8, 0.0, 1 << 64, 0), "master_seed"),
            # the cell rules a sweep applies (tau and m: tests/test_engine.py)
            (("po", 16, 0, 8, 0.0, 3, 0), "sparsity_levels"),
            (("bogus", 16, 2, 8, 0.0, 3, 0), "schemes"),
            (("po", 2**53 + 1, 2, 8, 0.0, 3, 0), "n"),
            # a chunk's five (32, s) complex arrays past 2^28 entries (trial 0 keeps a
            # missed check to one row; at t = 31 it would draw 32 rows, several GB)
            (("po", 2**21, 1_677_722, 8, 0.0, 0, 0), "sparsity_levels"),
            # a fractional n would run the law of a pool of n - s = 14.5 moduli
            (("po", 16.5, 2, 8, 0.0, 3, 0), "n"),
            # a str tau is not a number, even one that reads as one
            (("po", 16, 2, 8, "0.5", 3, 0), "tau_grid"),
        ],
    )
    def test_run_trial_rejects_what_a_sweep_rejects(self, args, field):
        with pytest.raises(ConfigError) as err:
            run_trial(*args)
        assert str(err.value).startswith(f"{field}:")

    def test_a_convention_member_is_its_scheme_name(self):
        # a VarianceConvention labels its cells and keys its streams with its plain
        # name, so it draws the experiment of that name, byte for byte
        for member in VarianceConvention:
            name = member.value
            configs = [SweepConfig(n=32, sparsity_levels=(2,), m=16, schemes=(scheme,),
                                   trials=40, master_seed=1) for scheme in (member, name)]
            by_member, by_name = (run_sweep(config) for config in configs)
            assert render_csv(by_member) == render_csv(by_name)
            assert render_json(by_member) == render_json(by_name)
            assert by_member.cells[0].scheme == name and type(by_member.cells[0].scheme) is str
            for t in (0, 39):
                replays = [run_trial(scheme, 32, 2, 16, 0.0, 1, t) for scheme in (member, name)]
                assert replays[0] == replays[1]
        errors = []
        for scheme in (VarianceConvention.CLASSICAL_CS, "cs"):
            with pytest.raises(ConfigError) as err:
                run_trial(scheme, 32, 2, 16, 0.5, 1, 0)
            errors.append(str(err.value))
        assert errors[0] == errors[1]


class TestMSweep:
    def test_cell_grid_and_sanity(self):
        result = run_sweep(TINY)
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
        a = render_csv(run_sweep(TINY))
        b = render_csv(run_sweep(TINY))
        assert a == b

    def test_worker_count_does_not_change_results(self):
        serial = render_csv(run_sweep(TINY, workers=1))
        parallel = render_csv(run_sweep(TINY, workers=2))
        assert serial == parallel

    @pytest.mark.parametrize(
        "patch,field",
        [
            (dict(trials=0), "trials"),
            (dict(sparsity_levels=()), "sparsity_levels"),
            (dict(sparsity_levels=(17,)), "sparsity_levels"),
            (dict(schemes=("bogus",)), "schemes"),
            (dict(schemes=()), "schemes"),
            # m comes from exactly one of m and log2_m_over_n: neither here
            (dict(log2_m_over_n=None), "m"),
            (dict(log2_m_over_n=(-10.0,)), "log2_m_over_n"),
            # the linear channel has no phase noise
            (dict(schemes=("cs",), tau_grid=(0.5,)), "tau_grid"),
            # 16 * 2**0.01 rounds to m = 16: two cells with one stream id
            (dict(log2_m_over_n=(0.0, 0.01)), "log2_m_over_n"),
            # repeated values would give cells with identical stream ids
            (dict(sparsity_levels=(2, 3, 2)), "sparsity_levels"),
            (dict(schemes=("po", "cs", "po")), "schemes"),
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
            # both m and log2_m_over_n
            (dict(m=64), "m"),
            (dict(tau_grid=()), "tau_grid"),
            (dict(tau_grid=(-0.1,)), "tau_grid"),
            (dict(tau_grid=(0.0, 0.5, 0.5)), "tau_grid"),
            # NaN passes tau < 0; 2 tau must be finite for uniform(-tau, tau)
            (dict(tau_grid=(math.nan,)), "tau_grid"),
            (dict(tau_grid=(0.5, math.inf)), "tau_grid"),
            (dict(tau_grid=(1e308,)), "tau_grid"),
            (dict(m=0, log2_m_over_n=None), "m"),
            (dict(log2_m_over_n=()), "log2_m_over_n"),
            # a chunk's (32, m) draws past 2^28 entries: rejected before any draw
            (dict(log2_m_over_n=(40.0,)), "log2_m_over_n"),
            (dict(m=2**23 + 1, log2_m_over_n=None), "m"),
            # n - s must be exact in a double
            (dict(n=2**53 + 1), "n"),
            # an error per trial and a task per chunk past 4 GiB: rejected before allocation
            (dict(trials=2**28 + 1), "trials"),
            (dict(trials=2**27 + 1, schemes=("po", "cs")), "trials"),
            # a chunk's five (32, s) complex arrays past 2^28 entries, at any listed s
            (dict(n=2**21, sparsity_levels=(1677722,)), "sparsity_levels"),
            (dict(n=2**21, sparsity_levels=(2, 1677722)), "sparsity_levels"),
            # m = 16 * 2^19.00001 just past 2^23
            (dict(log2_m_over_n=(19.00001,)), "log2_m_over_n"),
            # every count, size, seed and s is an integer, and a bool is none of them
            (dict(n=16.5), "n"),
            (dict(trials=2.5), "trials"),
            (dict(m=8.0, log2_m_over_n=None), "m"),
            (dict(sparsity_levels=(2.0,)), "sparsity_levels"),
            (dict(master_seed=1.5), "master_seed"),
            (dict(master_seed=True), "master_seed"),
            # a str tau is rejected before it is converted; a grid is read once per
            # cell and echoed, so one without a length (a generator) is rejected
            (dict(tau_grid=("0.5",)), "tau_grid"),
            (dict(sparsity_levels=(s for s in (2,))), "sparsity_levels"),
            (dict(log2_m_over_n=(r for r in (0.0,))), "log2_m_over_n"),
        ],
    )
    def test_config_errors_name_the_field(self, patch, field, monkeypatch):
        monkeypatch.setattr(pocs.experiments, "_run_cells", lambda *a: pytest.fail("cells ran"))
        cfg = SweepConfig(
            n=16, sparsity_levels=(2,), log2_m_over_n=(0.0,), schemes=("po",),
            trials=5, master_seed=1,
        )
        cfg = dataclasses.replace(cfg, **patch)
        with pytest.raises(ConfigError) as err:
            run_sweep(cfg)
        assert str(err.value).startswith(f"{field}:")

    def test_trial_bound_admits_2_to_the_28_trials_in_one_cell(self, monkeypatch):
        ran = []
        monkeypatch.setattr(pocs.experiments, "_run_cells", lambda *a: ran.append(a[2]) or ())
        run_sweep(SweepConfig(n=16, sparsity_levels=(2,), m=8, schemes=("po",),
                              trials=2**28, master_seed=1))
        assert ran == [2**28]

    def test_sparsity_bound_admits_its_edge(self, monkeypatch):
        # 5 x 32 x s just under 2^28; a run would hold 4 GiB, so the cells are not run
        ran = []
        monkeypatch.setattr(pocs.experiments, "_run_cells", lambda *a: ran.append(a) or ())
        run_sweep(SweepConfig(n=2**21, sparsity_levels=(1677721,), m=8, schemes=("po",),
                              trials=1, master_seed=1))
        assert len(ran) == 1

    @pytest.mark.parametrize("patch", [
        dict(n=2**28), dict(n=2**53), dict(m=2**23, schemes=("cs",)),
    ])
    def test_sizes_a_chunk_can_hold_run(self, patch):
        # n enters a chunk only through n - s; the linear scheme draws m as one Gamma
        cfg = dataclasses.replace(SweepConfig(n=16, sparsity_levels=(2,), m=8, schemes=("po",),
                                              trials=1, master_seed=1), **patch)
        assert run_sweep(cfg).cells[0].failures == 0

    def test_library_grids_run_in_scheme_s_m_tau_order(self):
        # grids the CLI cannot ask for: two s with two taus, and both schemes at fixed m
        base = SweepConfig(n=16, sparsity_levels=(2,), m=8, schemes=("po",), trials=1,
                           master_seed=5)
        grids = [
            (dataclasses.replace(base, sparsity_levels=(3, 2), tau_grid=(0.5, 0.0)),
             [("po", 3, 8, 0.5), ("po", 3, 8, 0.0), ("po", 2, 8, 0.5), ("po", 2, 8, 0.0)]),
            (dataclasses.replace(base, schemes=("po", "cs")),
             [("po", 2, 8, 0.0), ("cs", 2, 8, 0.0)]),
        ]
        for cfg, order in grids:
            cells = run_sweep(cfg).cells
            assert [(c.scheme, c.s, c.m, c.tau) for c in cells] == order
            for c in cells:  # the cell's one trial is trial 0 of its own key
                replay = run_trial(c.scheme, cfg.n, c.s, c.m, c.tau, cfg.master_seed, 0)
                assert c.mean_error == replay


class TestPoolSize:
    @pytest.fixture(autouse=True)
    def many_cpus(self, monkeypatch):
        # more CPUs than any case asks for, unless a test says otherwise
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)

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

    def test_never_more_workers_than_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert pool_size(500, 313) == 2
        assert pool_size(1, 313) == 1

    def test_cpu_count_where_there_is_no_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert pool_size(500, 313) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
        assert pool_size(500, 313) == 1

    def test_a_sweep_asks_for_no_more_workers_than_cpus(self, monkeypatch):
        # the executor is a stand-in that runs the tasks in this process: a
        # large --workers starts no process here
        asked = []

        class Executor:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        cfg = SweepConfig(n=16, sparsity_levels=(2,), m=4096, tau_grid=(0.0, 0.5),
                          schemes=("po",), trials=320, master_seed=3)  # 2 cells x 10 ranges
        serial = render_csv(run_sweep(cfg))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Executor)
        assert render_csv(run_sweep(cfg, workers=500)) == serial
        assert asked == [2]


class TestTauSweep:
    def test_basic_run(self):
        cfg = SweepConfig(
            n=32, sparsity_levels=(3,), m=16, tau_grid=(0.0, 0.5),
            schemes=("po",), trials=25, master_seed=11,
        )
        result = run_sweep(cfg)
        assert [c.tau for c in result.cells] == [0.0, 0.5]
        assert all(c.m == 16 for c in result.cells)
        assert render_csv(result) == render_csv(run_sweep(cfg))

    def test_saturation_onset_at_tau_pi(self):
        # reference value 1.414 +/- 0.05 at (n, s, m) = (256, 10, 64)
        cfg = SweepConfig(
            n=256, sparsity_levels=(10,), m=64, tau_grid=(math.pi,),
            schemes=("po",), trials=1000, master_seed=17,
        )
        cell = run_sweep(cfg).cells[0]
        assert abs(cell.mean_error - 1.414) <= 0.05

    def test_error_grows_with_noise_up_to_pi(self):
        cfg = SweepConfig(
            n=64, sparsity_levels=(4,), m=32,
            tau_grid=(0.0, 0.25 * math.pi, 0.5 * math.pi, 0.75 * math.pi, math.pi),
            schemes=("po",), trials=400, master_seed=13,
        )
        cells = run_sweep(cfg).cells
        for lo, hi in zip(cells, cells[1:]):
            slack = 2.0 * (lo.stderr_error + hi.stderr_error)
            assert hi.mean_error >= lo.mean_error - slack

    @pytest.mark.parametrize(
        "patch,field",
        [
            # m comes from exactly one of m and log2_m_over_n: neither here
            (dict(m=None), "m"),
            # both: a ratio grid beside the fixed m
            (dict(log2_m_over_n=(0.0,)), "m"),
        ],
    )
    def test_config_errors(self, patch, field):
        # the table in TestMSweep starts from a ratio grid; these start from a fixed m
        cfg = SweepConfig(
            n=32, sparsity_levels=(3,), m=16, tau_grid=(0.0,),
            schemes=("po",), trials=5, master_seed=1,
        )
        cfg = dataclasses.replace(cfg, **patch)
        with pytest.raises(ConfigError) as err:
            run_sweep(cfg)
        assert str(err.value).startswith(f"{field}:")


class TestCsvContract:
    HEADER = "scheme,s,m,tau,trials,failures,mean_error,mean_error_db,stderr_error"

    def test_header_and_shape(self):
        text = render_csv(run_sweep(TINY))
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
        assert raw.decode("utf-8") == render_csv(run_sweep(TINY))

    def test_roundtrip_csv_and_json(self, tmp_path):
        result = run_sweep(TINY)
        csv_path, json_path = tmp_path / "r.csv", tmp_path / "r.json"
        csv_path.write_text(render_csv(result), encoding="utf-8", newline="")
        json_path.write_text(render_json(result), encoding="utf-8", newline="")
        # CSV carries 10 significant digits; re-rendering the load is lossless
        from_csv, _ = load_sweep_cells(str(csv_path))
        assert render_csv(SweepResult(config=TINY, cells=from_csv)) == csv_path.read_text()
        assert [(c.scheme, c.s, c.m) for c in from_csv] == [
            (c.scheme, c.s, c.m) for c in result.cells
        ]
        # JSON round-trips exactly
        assert load_sweep_cells(str(json_path)) == (result.cells, TINY.n)

    def test_csv_load_leaves_unknown_config_none(self, tmp_path):
        # a CSV holds cells only: its n is unknown
        path = tmp_path / "r.csv"
        path.write_text(render_csv(run_sweep(TINY)), encoding="utf-8", newline="")
        cells, n = load_sweep_cells(str(path))
        assert n is None
        assert [(c.scheme, c.s, c.trials) for c in cells] == [("po", 2, 20)] * 2 + [("cs", 2, 20)] * 2

    def test_json_echoes_the_engine(self):
        payload = json.loads(render_json(run_sweep(TINY)))
        assert payload["engine"] == ENGINE

    def test_json_text_is_deterministic(self):
        assert render_json(run_sweep(TINY)) == render_json(run_sweep(TINY))

    def test_json_config_echoes_any_sequence_as_a_list(self):
        config = dataclasses.replace(TINY, sparsity_levels=range(2, 4), schemes=["po"])
        echo = json.loads(render_json(run_sweep(config)))["config"]
        assert (echo["sparsity_levels"], echo["schemes"]) == ([2, 3], ["po"])
        # numpy grids and values echo as plain JSON, and run as the plain config does
        plain = dataclasses.replace(TINY, sparsity_levels=[2, 3], log2_m_over_n=None, m=8)
        arrays = dataclasses.replace(plain, sparsity_levels=np.array([2, 3]), m=np.int64(8))
        ints = dataclasses.replace(plain, n=np.int64(16), sparsity_levels=[np.int64(2), np.int64(3)],
                                   m=np.int64(8), trials=np.int64(20), master_seed=np.int64(7))
        ratios = dataclasses.replace(TINY, log2_m_over_n=np.array([-1.0, 0.0]))
        for config, like in ((arrays, plain), (ints, plain), (ratios, TINY)):
            result, expected = run_sweep(config), run_sweep(like)
            assert render_csv(result) == render_csv(expected)
            assert render_json(result) == render_json(expected)


class TestZeroSignHits:
    CFG = SweepConfig(
        n=16, sparsity_levels=(2,), m=8, tau_grid=(0.0, 0.5),
        schemes=("po",), trials=40, master_seed=3,
    )

    def test_json_cells_carry_the_count_and_csv_does_not(self):
        result = run_sweep(self.CFG)
        payload = json.loads(render_json(result))
        assert [c["zero_sign_hits"] for c in payload["cells"]] == [0, 0]
        assert "zero_sign" not in render_csv(result)

    def test_json_without_the_field_still_loads(self, tmp_path):
        payload = json.loads(render_json(run_sweep(self.CFG)))
        for cell in payload["cells"]:
            del cell["zero_sign_hits"]
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload))
        assert all(c.zero_sign_hits == 0 for c in load_sweep_cells(str(path))[0])

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched draw reaches worker processes only when they are forked",
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_counts_from_every_worker_are_summed_per_cell(self, monkeypatch, workers):
        draw = pocs.experiments._draw_chunk

        def two_zeros_per_trial(*args):  # args end in the chunk's row count
            *draws, _ = draw(*args)
            return *draws, 2 * args[-1]

        plain = render_csv(run_sweep(self.CFG))
        monkeypatch.setattr(pocs.experiments, "_draw_chunk", two_zeros_per_trial)
        result = run_sweep(self.CFG, workers=workers)
        assert [c.zero_sign_hits for c in result.cells] == [2 * self.CFG.trials] * 2
        assert render_csv(result) == plain

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched generator reaches worker processes only when they are forked",
    )
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_zero_measurements_reach_the_json(self, monkeypatch, tmp_path, workers):
        # nothing that counts is patched: the stream itself yields three exact
        # zero moduli |y_i| in every trial
        wrap_generators(monkeypatch, FirstModuliZero, 3)
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


def synthetic_power_law(exponent, coeff=0.9):
    """Cells of a po, s = 2 sweep at n = 64 whose mean error is coeff m^exponent."""
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
    return tuple(cells)


# reference n=256 sweep values (dB of mean error) used to pin the rate fit
REFERENCE_PO_S2_DB = {0.0: -10.6256988444573, 2.0: -14.28000096159, 4.0: -17.6637072106488}


class TestFitRate:
    def test_exact_inverse_sqrt_law(self):
        slope = fit_rate(synthetic_power_law(-0.5), "po", 2, 64)
        assert slope == pytest.approx(-0.5, abs=1e-9)

    def test_exact_quarter_law(self):
        slope = fit_rate(synthetic_power_law(-0.25), "po", 2, 64)
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
        slope = fit_rate(cells, "po", 2, n)
        # three equally spaced points: least squares reduces to the endpoint slope
        xs = sorted((math.log10(c.m), math.log10(c.mean_error)) for c in cells)
        endpoint = (xs[-1][1] - xs[0][1]) / (xs[-1][0] - xs[0][0])
        assert slope == pytest.approx(endpoint, abs=1e-9)
        assert slope == pytest.approx(-0.58, abs=0.01)

    def test_ratio_filter(self):
        cells = synthetic_power_law(-0.5)
        assert fit_rate(cells, "po", 2, 64, min_log2_ratio=1.0) == pytest.approx(-0.5, abs=1e-9)
        with pytest.raises(ValueError):
            fit_rate(cells, "po", 2, 64, min_log2_ratio=2.0)  # only 2 points remain
        for ratio in (math.nan, "0", True):
            with pytest.raises(ValueError, match="^min_log2_ratio:"):
                fit_rate(cells, "po", 2, 64, min_log2_ratio=ratio)

    def test_dimension_past_the_float_range(self):
        # m / n underflows to 0.0 at n = 10^400; the ratio is taken in log2
        cells = synthetic_power_law(-0.5)
        assert fit_rate(cells, "po", 2, 10**400) == pytest.approx(-0.5, abs=1e-9)
        with pytest.raises(ValueError, match="needs at least 3 grid points, found 0"):
            fit_rate(cells, "po", 2, 10**400, min_log2_ratio=0)

    def test_zero_mean_names_the_cell(self):
        cells = list(synthetic_power_law(-0.5))
        cells[1] = dataclasses.replace(cells[1], mean_error=0.0, mean_error_db=float("-inf"))
        with pytest.raises(ValueError) as err:
            fit_rate(cells, "po", 2, 64)
        assert f"m={cells[1].m}" in str(err.value)

    @pytest.mark.parametrize("s", [2.0, True, "2"])
    def test_rejects_an_s_that_is_not_an_integer(self, s):
        # True == 1 and 2.0 == 2 would select the s = 1 and s = 2 cells
        with pytest.raises(ConfigError, match="^s:"):
            fit_rate(synthetic_power_law(-0.5), "po", s, 64)

    def test_rejects_an_unknown_scheme(self):
        with pytest.raises(ConfigError, match="^scheme:"):
            fit_rate(synthetic_power_law(-0.5), "xx", 2, 64)
        slope = fit_rate(synthetic_power_law(-0.5), VarianceConvention.PHASE_ONLY, 2, 64)
        assert slope == pytest.approx(-0.5, abs=1e-9)

    def test_needs_dimension_for_csv_loads(self, tmp_path):
        path = tmp_path / "r.csv"
        result = SweepResult(config=TINY, cells=synthetic_power_law(-0.5))
        path.write_text(render_csv(result), encoding="utf-8", newline="")
        cells, n = load_sweep_cells(str(path))
        with pytest.raises(ValueError, match="signal dimension n unknown"):
            fit_rate(cells, "po", 2, n)
        assert fit_rate(cells, "po", 2, 64) == pytest.approx(-0.5, abs=1e-9)


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
