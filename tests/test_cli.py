import json

import numpy as np
import pytest

from cellsoc import EkfConfig, run_filter
from cellsoc.cli import main
from cellsoc.traceio import (
    load_cell_parameters,
    load_trace,
    save_cell_parameters,
    save_trace,
)
from helpers import identification_trace, make_cell


@pytest.fixture()
def cell_files(tmp_path):
    cell = make_cell()
    params_path = tmp_path / "cell.json"
    save_cell_parameters(cell, params_path)
    return cell, params_path


def write_spec(tmp_path, **fields):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(fields))
    return path


class TestBudget:
    def test_paper_point_prints_25(self, capsys):
        assert main(["budget", "2", "0.01"]) == 0
        assert capsys.readouterr().out.strip() == "25"

    @pytest.mark.parametrize("f_max,t_slot,expected", [("0.5", "1", "1"), ("2", "0.021", "11")])
    def test_hand_evaluated_budgets(self, capsys, f_max, t_slot, expected):
        assert main(["budget", f_max, t_slot]) == 0
        assert capsys.readouterr().out.strip() == expected

    def test_usage_error_exit_1(self, capsys):
        assert main(["budget", "2"]) == 1
        assert main(["bogus-command"]) == 1

    def test_parser_carries_no_state_between_calls(self, capsys):
        # The parser is built once per process; a failed parse must not leak
        # into the next call.
        assert main(["budget", "2"]) == 1
        capsys.readouterr()
        assert main(["budget", "0.5", "1"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_bad_value_is_data_error(self, capsys):
        assert main(["budget", "0", "0.01"]) == 2


class TestSimulate:
    def test_constant_profile_flat_voltage(self, cell_files, tmp_path, capsys):
        cell, params_path = cell_files
        spec = write_spec(tmp_path, kind="constant", amplitude_a=0.0, duration_s=60.0,
                          sample_period_s=1.0)
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--params", str(params_path), "--spec", str(spec),
                     "--initial-soc", "0.5", "--out", str(out)]) == 0
        trace = load_trace(out)
        assert np.allclose(np.diff(trace.voltage), 0.0, atol=1e-12)
        assert (tmp_path / "trace.csv.manifest.json").exists()

    def test_missing_file_exit_2_no_partial_output(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(["simulate", "--params", str(tmp_path / "nope.json"),
                     "--spec", str(tmp_path / "nope2.json"), "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_determinism_byte_identical(self, cell_files, tmp_path):
        cell, params_path = cell_files
        spec = write_spec(tmp_path, kind="us06-like", us06_duration_s=60.0,
                          us06_sample_period_s=0.1, peak_a=10.0)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            assert main(["simulate", "--params", str(params_path), "--spec", str(spec),
                         "--seed", "11", "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_validation_profile_duration(self, cell_files, tmp_path):
        cell, params_path = cell_files
        spec = write_spec(tmp_path, kind="validation", sample_period_s=60.0,
                          us06_sample_period_s=0.25, bandwidth_hz=1.5)
        out = tmp_path / "v.csv"
        assert main(["simulate", "--params", str(params_path), "--spec", str(spec),
                     "--initial-soc", "1.0", "--out", str(out)]) == 0
        trace = load_trace(out)
        assert abs(trace.timestamps[-1] - 37 * 3600.0) <= 60.0

    def test_energy_bookkeeping_vs_coulomb_count(self, cell_files, tmp_path):
        from cellsoc import Trace, coulomb_count, soc_from_vqst

        cell, params_path = cell_files
        # Discharge then a long rest; the rested terminal voltage IS v_qst.
        t = 4.0 * np.arange(3601)
        current = np.where((t > 0.0) & (t <= 7200.0), -0.4, 0.0)
        profile_path = tmp_path / "profile.csv"
        save_trace(Trace(t, current), profile_path)
        out = tmp_path / "t.csv"
        assert main(["simulate", "--params", str(params_path), "--profile", str(profile_path),
                     "--initial-soc", "0.9", "--out", str(out)]) == 0
        trace = load_trace(out)
        soc_ref = coulomb_count(trace, cell.delta_q, 0.9)
        soc_model = soc_from_vqst(cell, float(trace.voltage[-1]))
        assert soc_model == pytest.approx(soc_ref[-1], abs=1e-3)


class TestIdentify:
    def test_round_trip_within_module_tolerances(self, tmp_path, capsys):
        cell = make_cell()
        trace, _ = identification_trace(cell, sample_period=4.0)
        trace_path = tmp_path / "id.csv"
        save_trace(trace, trace_path)
        params_out = tmp_path / "fit.json"
        report_out = tmp_path / "report.txt"
        assert main(["identify", str(trace_path), "--out-params", str(params_out),
                     "--out-report", str(report_out)]) == 0
        got = load_cell_parameters(params_out)
        assert sum(g.r for g in got.rc_groups) == pytest.approx(
            sum(g.r for g in cell.rc_groups), rel=0.05
        )
        assert "rc-fit" in report_out.read_text()

    def test_missing_trace_exit_2(self, tmp_path):
        assert main(["identify", str(tmp_path / "none.csv"), "--out-params",
                     str(tmp_path / "p.json"), "--out-report", str(tmp_path / "r.txt")]) == 2
        assert not (tmp_path / "p.json").exists()

    def test_config_file_loaded(self, tmp_path):
        cell = make_cell()
        trace, _ = identification_trace(cell, sample_period=4.0)
        trace_path = tmp_path / "id.csv"
        save_trace(trace, trace_path)
        cfg_path = tmp_path / "idcfg.json"
        cfg_path.write_text(json.dumps({"n_rc": 2, "capacitance_grid_size": 64,
                                        "smoothing_halfwidth": 1}))
        params_out = tmp_path / "fit.json"
        assert main(["identify", str(trace_path), "--config", str(cfg_path),
                     "--out-params", str(params_out),
                     "--out-report", str(tmp_path / "r.txt")]) == 0
        got = load_cell_parameters(params_out)
        assert got.capacitance.grid.size == 64

    @pytest.mark.parametrize("doc,expected", [
        ({"n_rc": 2, "bogus": 1}, "bogus"),
        ({"settle_hold_s": 120.0}, "settle_hold_s"),
        ([2], "JSON object"),
        ({"n_rc": "2"}, "n_rc must be int"),
        ({"capacitance_grid_size": 40.5}, "capacitance_grid_size must be int"),
    ])
    def test_bad_config_document_exit_2(self, tmp_path, capsys, doc, expected):
        trace_path = tmp_path / "id.csv"
        trace_path.write_text("t_s,current_a,voltage_v\n0.0,0.0,3.3\n1.0,0.0,3.3\n")
        cfg_path = tmp_path / "idcfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["identify", str(trace_path), "--config", str(cfg_path),
                     "--out-params", str(tmp_path / "p.json"),
                     "--out-report", str(tmp_path / "r.txt")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and expected in err
        assert not (tmp_path / "p.json").exists()

    def test_n_rc_1_on_two_exponential_data_succeeds_with_note(self, tmp_path, capsys):
        cell = make_cell()  # two RC groups in truth
        trace, _ = identification_trace(cell, sample_period=4.0)
        trace_path = tmp_path / "id.csv"
        save_trace(trace, trace_path)
        report1 = tmp_path / "r1.txt"
        assert main(["identify", str(trace_path), "--n-rc", "1",
                     "--out-params", str(tmp_path / "p1.json"),
                     "--out-report", str(report1)]) == 0
        err = capsys.readouterr().err
        assert "more RC groups" in err  # underfit warning surfaced on stderr
        # Oracle: the single-exponential fit leaves a much larger residual.
        report2 = tmp_path / "r2.txt"
        assert main(["identify", str(trace_path),
                     "--out-params", str(tmp_path / "p2.json"),
                     "--out-report", str(report2)]) == 0

        def rc_residual(text):
            lines = text.splitlines()
            idx = lines.index("stage: rc-fit")
            return float(lines[idx + 1].split(":")[1])

        assert rc_residual(report1.read_text()) > 50.0 * rc_residual(report2.read_text())


class TestEstimate:
    def test_equivalence_to_library_run(self, cell_files, tmp_path):
        cell, params_path = cell_files
        trace, _ = identification_trace(cell, sample_period=4.0)
        trace_path = tmp_path / "t.csv"
        save_trace(trace, trace_path)
        out = tmp_path / "soc.csv"
        assert main(["estimate", "--params", str(params_path), "--trace", str(trace_path),
                     "--initial-soc", "0.4", "--ref-soc0", "0.0",
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "t_s,cell_id,soc_est,soc_ref,v_innov"
        got = np.array([[float(x) for x in (r.split(",")[0], r.split(",")[2])]
                        for r in rows[1:]])
        cfg = EkfConfig.default(cell, initial_soc=0.4)
        ref = run_filter(cell, trace, cfg)
        assert np.allclose(got[:, 1], ref.soc, atol=1e-12)

    def test_perfect_init_noiseless_zero_innovation(self, cell_files, tmp_path):
        cell, params_path = cell_files
        from cellsoc import CellState, Trace, simulate
        from cellsoc.traceio import save_ekf_config

        t = np.arange(0.0, 600.0, 4.0)
        res = simulate(cell, Trace(t, np.full(t.size, -1.0)), CellState(3.3, np.zeros(2)))
        trace_path = tmp_path / "t.csv"
        save_trace(res.trace, trace_path)
        cfg = EkfConfig(
            process_noise_q=1e-8 * np.eye(3),
            measurement_noise_r=1e-4,
            initial_covariance_p0=np.diag([0.04, 1e-4, 1e-4]),
            initial_state=CellState(3.3, np.zeros(2)),
        )
        cfg_path = tmp_path / "ekf.json"
        save_ekf_config(cfg, cfg_path)
        out = tmp_path / "soc.csv"
        assert main(["estimate", "--params", str(params_path), "--trace", str(trace_path),
                     "--ekf-config", str(cfg_path), "--out", str(out)]) == 0
        innov = np.array([float(r.split(",")[4]) for r in out.read_text().splitlines()[1:]])
        assert np.max(np.abs(innov)) < 1e-12


class TestMulticell:
    def make_pack(self, tmp_path, n_cells, t_slot, f_max):
        from cellsoc import CellState, Trace, simulate, vqst_from_soc

        cells = {}
        doc = {"t_slot_s": t_slot, "f_max_hz": f_max, "cells": []}
        for i in range(n_cells):
            cid = f"c{i:02d}"
            cell = make_cell()
            cells[cid] = cell
            p = tmp_path / f"{cid}.json"
            save_cell_parameters(cell, p)
            period = n_cells * t_slot
            t = (i + 1) * t_slot + period * np.arange(200)
            profile = Trace(t, -1.0 * np.ones(t.size))
            initial = CellState.rest(vqst_from_soc(cell, 1.0), cell.n_rc)
            trace = simulate(cell, profile, initial).trace
            tp = tmp_path / f"{cid}.csv"
            save_trace(trace, tp)
            doc["cells"].append({"id": cid, "params": f"{cid}.json", "trace": f"{cid}.csv",
                                 "initial_soc": 0.8, "ref_soc0": 1.0})
        cfg_path = tmp_path / "pack.json"
        cfg_path.write_text(json.dumps(doc))
        return cfg_path, cells

    def test_single_cell_matches_estimate(self, tmp_path):
        cfg_path, cells = self.make_pack(tmp_path, 1, 1.0, 0.4)
        outdir = tmp_path / "out"
        assert main(["multicell", "--config", str(cfg_path), "--out-dir", str(outdir)]) == 0
        rows = (outdir / "soc_c00.csv").read_text().splitlines()[1:]
        soc_mc = np.array([float(r.split(",")[2]) for r in rows])

        cell = cells["c00"]
        trace = load_trace(tmp_path / "c00.csv")
        cfg = EkfConfig.default(cell, initial_soc=0.8)
        # tick semantics: predict over one revolution then correct, every sample
        from cellsoc import correct, estimate_soc, make_filter, predict

        state = make_filter(cfg)
        expected = []
        for k in range(soc_mc.size):
            state = predict(state, cell, float(trace.current[k]), 1.0, cfg)
            state = correct(state, cell, float(trace.voltage[k]), float(trace.current[k]), cfg)
            expected.append(estimate_soc(state, cell))
        assert np.allclose(soc_mc, expected, atol=1e-12)
        assert (outdir / "manifest.json").exists()

    def test_26_cells_refused(self, tmp_path):
        cfg_path, _ = self.make_pack(tmp_path, 26, 0.01, 2.0)
        code = main(["multicell", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")])
        assert code == 2

    def test_pack_runs_and_writes_per_cell_files(self, tmp_path):
        cfg_path, cells = self.make_pack(tmp_path, 3, 0.25, 0.5)
        outdir = tmp_path / "out"
        assert main(["multicell", "--config", str(cfg_path), "--out-dir", str(outdir)]) == 0
        for cid in cells:
            assert (outdir / f"soc_{cid}.csv").exists()

    def test_eighteen_cell_pack_completes(self, tmp_path):
        cfg_path, cells = self.make_pack(tmp_path, 18, 0.1, 0.25)
        outdir = tmp_path / "out"
        assert main(["multicell", "--config", str(cfg_path), "--out-dir", str(outdir)]) == 0
        assert len(list(outdir.glob("soc_*.csv"))) == 18
