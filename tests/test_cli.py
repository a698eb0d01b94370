import json
import math

import numpy as np
import pytest

from cellsoc import EkfConfig, run_filter
from cellsoc.cli import main
from cellsoc.traceio import (
    ekf_config_to_dict,
    load_cell_parameters,
    load_trace,
    save_cell_parameters,
    save_trace,
)
from helpers import identification_trace, make_cell, oracle_soc_text

BAD_CELL_IDS = ["a,b", "a\nb", "", 'a"b', "a/b", "a\\b", "a\tb"]


def rest_trace(cell):
    """Discharge, rest, charge, rest at 10 s: the rests repeat values in
    every SoC column."""
    from cellsoc import CellState, Trace, simulate, vqst_from_soc

    t = 10.0 * np.arange(2161)
    h = 3600.0
    current = np.where(t < h, -4.0, 0.0) + np.where((t >= 3 * h) & (t < 4 * h), 4.0, 0.0)
    initial = CellState.rest(vqst_from_soc(cell, 0.9), cell.n_rc)
    return simulate(cell, Trace(t, current), initial).trace


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

    @pytest.mark.parametrize("doc,expected", [
        ([1], "profile spec must be a JSON object"),
        ({"amplitude_a": 1.0, "duration_s": 10.0}, "missing config field 'kind'"),
        ({"kind": "constant", "amplitude_a": 1.0, "duration_s": 10.0, "bogus": 1, "x": 2},
         "unknown profile spec fields: bogus, x"),
        ({"kind": "constant", "amplitude_a": "x", "duration_s": 10.0},
         "amplitude_a must be a number"),
        ({"kind": "constant", "amplitude_a": 1.0, "duration_s": 10.0, "sample_period_s": None},
         "sample_period_s must be a number"),
        ({"kind": "identification", "charge_amplitudes_a": ["a"], "delta_q_c": 1.0},
         "charge_amplitudes_a must be an array of numbers"),
        ({"kind": "identification", "charge_amplitudes_a": 2.0, "delta_q_c": 1.0},
         "charge_amplitudes_a must be a list, got 2.0"),
        ({"kind": "us06-like", "peak_a": True}, "peak_a must be a number, got True"),
        ({"kind": "constant", "amplitude_a": 1.0, "duration_s": "nan"},
         "duration_s must be a number, got 'nan'"),
        ({"kind": "us06-like", "f_low_hz": 1.5, "bandwidth_hz": 1.0},
         "band [1.5, 1.0] Hz holds no frequency bin"),
        ({"kind": "us06-like", "us06_duration_s": 0.04}, "duration shorter than one sample"),
    ])
    def test_malformed_spec_exit_2(self, cell_files, tmp_path, capsys, doc, expected):
        _, params_path = cell_files
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--params", str(params_path), "--spec", str(spec),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and expected in err
        assert not out.exists()

    @pytest.mark.parametrize("kind,field", [
        ("constant", "amplitude_a"), ("constant", "duration_s"), ("constant", "sample_period_s"),
        ("identification", "charge_amplitudes_a"), ("identification", "delta_q_c"),
        ("identification", "t_empty_s"), ("identification", "rest1_s"),
        ("identification", "rest2_s"), ("identification", "sample_period_s"),
        ("us06-like", "us06_duration_s"), ("us06-like", "us06_sample_period_s"),
        ("us06-like", "peak_a"), ("us06-like", "bandwidth_hz"), ("us06-like", "f_low_hz"),
        ("validation", "sample_period_s"), ("identification", "expected_tau_max_s"),
    ])
    def test_nan_spec_field_exit_2(self, cell_files, tmp_path, capsys, kind, field):
        """json.load reads NaN; no positivity check may let it through."""
        _, params_path = cell_files
        doc = {
            "constant": {"amplitude_a": 1.0, "duration_s": 10.0},
            "identification": {"charge_amplitudes_a": [1.0, 2.0], "delta_q_c": 100.0,
                               "t_empty_s": 100.0, "rest1_s": 50.0, "rest2_s": 50.0},
            "us06-like": {"us06_duration_s": 60.0},
            "validation": {"sample_period_s": 600.0, "us06_duration_s": 60.0},
        }[kind]
        nan = [math.nan] if field == "charge_amplitudes_a" else math.nan
        doc = dict(doc, kind=kind, **{field: nan})
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--params", str(params_path), "--spec", str(spec),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("data error:")
        assert not out.exists()

    def test_null_optional_spec_field_is_absent(self, cell_files, tmp_path):
        _, params_path = cell_files
        outs = []
        for extra in ({}, {"expected_tau_max_s": None, "charge_amplitudes_a": None}):
            spec = write_spec(tmp_path, kind="constant", amplitude_a=-1, duration_s=30,
                              **extra)
            outs.append(tmp_path / f"trace{len(outs)}.csv")
            assert main(["simulate", "--params", str(params_path), "--spec", str(spec),
                         "--out", str(outs[-1])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


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


    @pytest.mark.parametrize("ref_soc0", [None, "0.9"])
    def test_writes_the_oracle_bytes(self, cell_files, tmp_path, ref_soc0):
        from cellsoc import coulomb_count

        cell, params_path = cell_files
        trace = rest_trace(cell)
        trace_path = tmp_path / "t.csv"
        save_trace(trace, trace_path)
        out = tmp_path / "soc.csv"
        argv = ["estimate", "--params", str(params_path), "--trace", str(trace_path),
                "--initial-soc", "0.6", "--cell-id", "pack1-c07", "--out", str(out)]
        assert main(argv + (["--ref-soc0", ref_soc0] if ref_soc0 else [])) == 0
        run = run_filter(cell, trace, EkfConfig.default(cell, initial_soc=0.6))
        if ref_soc0 is None:
            ref = np.full(len(trace), np.nan)
        else:
            ref = coulomb_count(trace, cell.nominal_capacity_c_n, 0.9)
        assert np.mean(run.soc[1:] == run.soc[:-1]) > 0.5  # long runs of equal values
        expected = oracle_soc_text("pack1-c07", run.times, run.soc, ref, run.innovations)
        assert out.read_bytes() == expected.encode()

    @pytest.mark.parametrize("cell_id", BAD_CELL_IDS)
    def test_bad_cell_id_usage_exit_1(self, cell_files, tmp_path, capsys, cell_id):
        _, params_path = cell_files
        trace_path = tmp_path / "t.csv"
        trace_path.write_text("t_s,current_a,voltage_v\n0.0,0.0,3.3\n1.0,0.0,3.3\n")
        outdir = tmp_path / "out"
        outdir.mkdir()
        assert main(["estimate", "--params", str(params_path), "--trace", str(trace_path),
                     "--cell-id", cell_id, "--out", str(outdir / "soc.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "cell id must be" in err
        assert list(outdir.iterdir()) == []

    @pytest.mark.parametrize("field,value,expected", [
        (None, [1], "cell parameters must be a JSON object"),
        ("v_min", "low", "v_min must be a number"),
        ("delta_q", None, "delta_q must be a number"),
        ("capacitance", [1, 2], "capacitance must be a JSON object"),
        ("resistor", {"grid": "x", "values": [0.0, 1.0]},
         "resistor field grid must be an array of numbers"),
        ("rc_groups", 2, "rc_groups must be a list"),
        ("rc_groups", [[0.01, 60.0]], "rc group must be a JSON object"),
        ("rc_groups", [{"r": "x", "tau": 60.0}], "rc group field r must be a number"),
    ])
    def test_malformed_cell_parameters_exit_2(self, cell_files, tmp_path, capsys, field,
                                              value, expected):
        _, params_path = cell_files
        doc = json.loads(params_path.read_text())
        doc = value if field is None else dict(doc, **{field: value})
        params_path.write_text(json.dumps(doc))
        trace_path = tmp_path / "t.csv"
        trace_path.write_text("t_s,current_a,voltage_v\n0.0,0.0,3.3\n1.0,0.0,3.3\n")
        out = tmp_path / "soc.csv"
        assert main(["estimate", "--params", str(params_path), "--trace", str(trace_path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and expected in err
        assert not out.exists()

    @pytest.mark.parametrize("field,value,expected", [
        (None, [1, 2], "EKF config must be a JSON object"),
        ("initial_state", 3.3, "initial_state must be a JSON object"),
        ("measurement_noise_r", "low", "measurement_noise_r must be a number"),
        ("process_noise_q", "x", "process_noise_q must be an array of numbers"),
        ("initial_covariance_p0", [[1.0, 0.0], [0.0]],
         "initial_covariance_p0 must be an array of numbers"),
    ])
    def test_malformed_ekf_config_exit_2(self, cell_files, tmp_path, capsys, field, value,
                                         expected):
        cell, params_path = cell_files
        trace_path = tmp_path / "t.csv"
        trace_path.write_text("t_s,current_a,voltage_v\n0.0,0.0,3.3\n1.0,0.0,3.3\n")
        doc = ekf_config_to_dict(EkfConfig.default(cell))
        doc = value if field is None else dict(doc, **{field: value})
        cfg_path = tmp_path / "ekf.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "soc.csv"
        assert main(["estimate", "--params", str(params_path), "--trace", str(trace_path),
                     "--ekf-config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and expected in err
        assert not out.exists()


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

    def test_two_cells_write_the_oracle_bytes(self, tmp_path):
        from cellsoc import MultiCellEkf, SchedulerConfig

        cfg_path, cells = self.make_pack(tmp_path, 2, 0.5, 0.5)
        outdir = tmp_path / "out"
        assert main(["multicell", "--config", str(cfg_path), "--out-dir", str(outdir)]) == 0
        sched = SchedulerConfig(t_slot=0.5, cells=tuple(cells), f_max=0.5)
        setups = {cid: (cell, EkfConfig.default(cell, initial_soc=0.8))
                  for cid, cell in cells.items()}
        traces = {cid: load_trace(tmp_path / f"{cid}.csv") for cid in cells}
        series = MultiCellEkf(sched, setups).run(traces, ref_soc0=dict.fromkeys(cells, 1.0))
        for cid, s in series.items():
            expected = oracle_soc_text(cid, s.times, s.soc_est, s.soc_ref, s.innovations)
            assert (outdir / f"soc_{cid}.csv").read_bytes() == expected.encode()

    @pytest.mark.parametrize("cell_id", [*BAD_CELL_IDS, 7, None, [1]])
    def test_bad_cell_id_exit_2(self, tmp_path, capsys, cell_id):
        cfg_path, _ = self.make_pack(tmp_path, 2, 0.5, 0.5)
        doc = json.loads(cfg_path.read_text())
        doc["cells"][1]["id"] = cell_id
        cfg_path.write_text(json.dumps(doc))
        outdir = tmp_path / "out"
        assert main(["multicell", "--config", str(cfg_path), "--out-dir", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: multicell config cell id must be")
        assert not outdir.exists() or list(outdir.iterdir()) == []

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

    @pytest.mark.parametrize("where,field,value,expected", [
        ("doc", None, [1, 2], "multicell config must be a JSON object"),
        ("doc", "t_slot_s", "fast", "t_slot_s must be a number"),
        ("doc", "f_max_hz", [0.4], "f_max_hz must be a number"),
        ("doc", "start_time_s", None, "start_time_s must be a number"),
        ("doc", "cells", {"c00": {}}, "cells must be a list"),
        ("cell", None, "c00", "multicell config cell must be a JSON object"),
        ("cell", "initial_soc", "high", "initial_soc must be a number"),
        ("cell", "ref_soc0", None, "ref_soc0 must be a number"),
        ("cell", "ekf", "ekf.json", "EKF config must be a JSON object"),
        ("doc", "t_slot_s", "0.01", "t_slot_s must be a number, got '0.01'"),
    ])
    def test_malformed_config_exit_2(self, tmp_path, capsys, where, field, value, expected):
        cfg_path, _ = self.make_pack(tmp_path, 1, 1.0, 0.4)
        (tmp_path / "ekf.json").write_text("[1, 2]")
        doc = json.loads(cfg_path.read_text())
        if where == "cell":
            cell = doc["cells"][0]
            doc["cells"][0] = value if field is None else dict(cell, **{field: value})
        else:
            doc = value if field is None else dict(doc, **{field: value})
        cfg_path.write_text(json.dumps(doc))
        outdir = tmp_path / "out"
        assert main(["multicell", "--config", str(cfg_path), "--out-dir", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and expected in err
        assert not outdir.exists()
