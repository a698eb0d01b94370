import contextlib
import copy
import io
import json
import math
import shutil
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cellsoc import EkfConfig, run_filter
from cellsoc.cli import RunManifest, main
from cellsoc.errors import CellSocWarning
from cellsoc.traceio import (
    ekf_config_to_dict,
    load_cell_parameters,
    load_trace,
    save_cell_parameters,
    save_trace,
)
from helpers import identification_trace, make_cell, oracle_service_soc, oracle_soc_text

BAD_CELL_IDS = ["a,b", "a\nb", "", 'a"b', "a/b", "a\\b", "a\tb"]
# RC groups of EKF configs sized for one and for three groups, against make_cell's two.
OTHER_RC = [((0.012, 60.0),), ((0.01, 10.0), (0.012, 60.0), (0.02, 700.0))]
PULSE = {"kind": "identification", "charge_amplitudes_a": [1.0], "delta_q_c": 100.0,
         "t_empty_s": 100.0, "rest1_s": 50.0, "rest2_s": 50.0}


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


def test_manifest_bytes(tmp_path):
    """A manifest is indented JSON with sorted keys and a closing newline; an
    input whose option was not given is left out."""
    RunManifest("estimate", inputs={"trace": "t.csv", "ekf_config": None},
                outputs={"soc": "s.csv"}, seed=3).write(tmp_path / "m.json")
    assert (tmp_path / "m.json").read_text(encoding="utf-8") == (
        '{\n  "command": "estimate",\n  "inputs": {\n    "trace": "t.csv"\n  },\n'
        '  "outputs": {\n    "soc": "s.csv"\n  },\n  "seed": 3\n}\n')


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

    def test_budget_that_overflows_is_data_error(self, capsys):
        # 2 * f_max * t_slot is subnormal, and its reciprocal overflows.
        assert main(["budget", "1e-320", "0.01"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("data error:")
        assert "is not finite" in captured.err


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

    def test_neither_profile_nor_spec_exit_2(self, cell_files, tmp_path, capsys):
        _, params_path = cell_files
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--params", str(params_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "data error: one of --profile or --spec is required\n"
        assert not out.exists()

    def test_profile_and_spec_together_usage_exit_1(self, cell_files, tmp_path, capsys):
        """A spec given beside a profile would be ignored."""
        _, params_path = cell_files
        spec = write_spec(tmp_path, kind="constant", amplitude_a=0.0, duration_s=60.0,
                          sample_period_s=1.0)
        profile = tmp_path / "profile.csv"
        profile.write_text("t_s,current_a\n0.0,0.0\n1.0,0.0\n")
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--params", str(params_path), "--profile", str(profile),
                     "--spec", str(spec), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "not allowed with argument" in err
        assert not out.exists() and not (tmp_path / "trace.csv.manifest.json").exists()

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
        # Sample counts no array can hold.
        ({"kind": "constant", "amplitude_a": 1.0, "duration_s": 1e300},
         "sample count 1e+300 / 1.0 is more than one array holds"),
        ({"kind": "constant", "amplitude_a": 1.0, "duration_s": 10.0, "sample_period_s": 1e-320},
         "sample count 10.0 / 1e-320 is more than one array holds"),
        ({"kind": "us06-like", "us06_duration_s": 1e300},
         "sample count 1e+300 / 0.1 is more than one array holds"),
        (dict(PULSE, t_empty_s=1e300), "sample count 1e+300 / 1.0 is more than one array holds"),
        (dict(PULSE, sample_period_s=1e-320),
         "sample count 50.0 / 1e-320 is more than one array holds"),
        (dict(PULSE, charge_amplitudes_a=[1e-310], sample_period_s=1e-15),
         "sample count 100.0 / 0.0 is more than one array holds"),
        ({"kind": "validation", "us06_duration_s": 60.0, "sample_period_s": 1e-320},
         "sample count 21600.0 / 1e-320 is more than one array holds"),
        # Periods that leave a 6 h phase of the validation profile without a sample.
        *(({"kind": "validation", "sample_period_s": period},
           f"sample period {period} s leaves a 6 h phase without a sample")
          for period in (1e300, 86401.0, 50000.0)),
        # json reads an integer of any size; float() of this one overflows.
        pytest.param({"kind": "constant", "amplitude_a": 1.0, "duration_s": 10**400},
                     "profile spec field duration_s is beyond the float range", id="huge-int"),
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

    def test_out_of_memory_exit_2(self, cell_files, tmp_path, capsys, monkeypatch):
        """A spec whose arrays do not fit in memory is a data error. The
        allocation is simulated: a real one could succeed under overcommit."""
        def build_profile(spec, seed):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr("cellsoc.cli.build_profile", build_profile)
        _, params_path = cell_files
        spec = write_spec(tmp_path, kind="constant", amplitude_a=-1, duration_s=30)
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--params", str(params_path), "--spec", str(spec),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "data error: out of memory: Unable to allocate 7.28 TiB\n"
        assert not out.exists() and not (tmp_path / "trace.csv.manifest.json").exists()

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

    def test_missing_input_prints_the_os_error(self, tmp_path, capsys):
        missing = tmp_path / "none.json"
        assert main(["identify", str(tmp_path / "none.csv"), "--config", str(missing),
                     "--out-params", str(tmp_path / "p.json"),
                     "--out-report", str(tmp_path / "r.txt")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: [Errno 2] No such file or directory")
        assert str(missing) in err
        assert list(tmp_path.iterdir()) == []

    def test_config_file_loaded(self, tmp_path):
        cell = make_cell()
        trace, _ = identification_trace(cell, sample_period=4.0)
        trace_path = tmp_path / "id.csv"
        save_trace(trace, trace_path)
        cfg_path = tmp_path / "idcfg.json"
        cfg_path.write_text(json.dumps({"n_rc": 2, "capacitance_grid_size": 64}))
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
        *(({"current_zero_threshold": x},
           f"current-zero threshold must be positive and finite, got {x}")
          for x in (math.nan, math.inf, -math.inf)),
        pytest.param({"current_zero_threshold": 10**400},
                     "identification config field current_zero_threshold is beyond the float "
                     "range", id="huge-int"),
        pytest.param({"capacitance_grid_size": 10**400},
                     "capacitance_grid_size is more than one array holds", id="huge-grid"),
        pytest.param({"smoothing_halfwidth": 1},
                     "unknown identification config fields: smoothing_halfwidth",
                     id="smoothing-halfwidth"),
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

    @pytest.mark.parametrize("ref_soc0", ["2", "-0.5", "nan"])
    def test_a_bad_ref_soc0_exits_before_the_filter_runs(self, cell_files, tmp_path, capsys,
                                                         monkeypatch, ref_soc0):
        import cellsoc.cli

        filtered = []
        monkeypatch.setattr(cellsoc.cli, "run_filter", lambda *args: filtered.append(args))
        _, params_path = cell_files
        trace_path = tmp_path / "t.csv"
        trace_path.write_text("t_s,current_a,voltage_v\n0.0,0.0,3.3\n1.0,0.0,3.3\n")
        out = tmp_path / "soc.csv"
        assert main(["estimate", "--params", str(params_path), "--trace", str(trace_path),
                     "--ref-soc0", ref_soc0, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: initial SoC must be within [0, 1]")
        assert filtered == [] and not out.exists()

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
        pytest.param("v_min", 10**400, "cell parameters field v_min is beyond the float range",
                     id="huge-int"),
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
        pytest.param("process_noise_q", [[1.0, 0.0, 0.0], [0.0, 10**400, 0.0], [0.0, 0.0, 1.0]],
                     "EKF config field process_noise_q is beyond the float range", id="huge-int"),
        *(pytest.param(None, ekf_config_to_dict(EkfConfig.default(make_cell(rc=rc))),
                       f"EKF config has {len(rc)} RC components, parameters define 2",
                       id=f"{len(rc)}-rc") for rc in OTHER_RC),
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
        assert not out.exists() and not (tmp_path / "soc.csv.manifest.json").exists()

    @pytest.mark.parametrize("r", ["Infinity", "1e400"])
    def test_infinite_measurement_noise_exit_2(self, cell_files, tmp_path, capsys, r):
        """An infinite r is the filter's no-correction switch: accepted, it
        would run every sample uncorrected and exit 0."""
        cell, params_path = cell_files
        trace_path = tmp_path / "t.csv"
        trace_path.write_text("t_s,current_a,voltage_v\n0.0,0.0,3.3\n1.0,0.0,3.3\n")
        doc = dict(ekf_config_to_dict(EkfConfig.default(cell)), measurement_noise_r="R")
        cfg_path = tmp_path / "ekf.json"
        cfg_path.write_text(json.dumps(doc).replace('"R"', r))
        out = tmp_path / "soc.csv"
        assert main(["estimate", "--params", str(params_path), "--trace", str(trace_path),
                     "--ekf-config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "data error: measurement noise variance must be finite and > 0, got inf\n")
        assert not out.exists()

    def test_ekf_config_and_initial_soc_together_usage_exit_1(self, cell_files, tmp_path,
                                                              capsys):
        """--initial-soc seeds only the default EKF config, so beside a config
        it would be ignored."""
        cell, params_path = cell_files
        trace_path = tmp_path / "t.csv"
        trace_path.write_text("t_s,current_a,voltage_v\n0.0,0.0,3.3\n1.0,0.0,3.3\n")
        cfg_path = tmp_path / "ekf.json"
        cfg_path.write_text(json.dumps(ekf_config_to_dict(EkfConfig.default(cell))))
        out = tmp_path / "soc.csv"
        assert main(["estimate", "--params", str(params_path), "--trace", str(trace_path),
                     "--ekf-config", str(cfg_path), "--initial-soc", "0.2",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "not allowed with argument" in err
        assert not out.exists()

    def test_initial_soc_defaults_to_one_half(self, cell_files, tmp_path):
        cell, params_path = cell_files
        trace = rest_trace(cell)
        trace_path = tmp_path / "t.csv"
        save_trace(trace, trace_path)
        out = tmp_path / "soc.csv"
        assert main(["estimate", "--params", str(params_path), "--trace", str(trace_path),
                     "--out", str(out)]) == 0
        run = run_filter(cell, trace, EkfConfig.default(cell, initial_soc=0.5))
        ref = np.full(len(trace), np.nan)
        expected = oracle_soc_text("cell0", run.times, run.soc, ref, run.innovations)
        assert out.read_bytes() == expected.encode()

    def test_process_noise_at_the_float_limit_is_a_numerical_failure(self, cell_files,
                                                                    tmp_path, capsys):
        """Q's diagonal at the largest float: accepted, and its first predict
        overflows."""
        cell, params_path = cell_files
        trace_path = tmp_path / "t.csv"
        trace_path.write_text("t_s,current_a,voltage_v\n0.0,0.0,3.3\n1.0,0.0,3.3\n")
        doc = ekf_config_to_dict(EkfConfig.default(cell))
        doc["process_noise_q"] = (1.7976931348623157e308 * np.eye(3)).tolist()
        cfg_path = tmp_path / "ekf.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "soc.csv"
        assert main(["estimate", "--params", str(params_path), "--trace", str(trace_path),
                     "--ekf-config", str(cfg_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: predicted covariance")
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
        n = soc_mc.size
        expected = oracle_service_soc(cell, cfg, trace.current[:n], trace.voltage[:n], 1.0)
        assert np.allclose(soc_mc, expected, atol=1e-12)
        assert (outdir / "manifest.json").exists()

    def test_two_cells_write_the_oracle_bytes(self, tmp_path):
        from cellsoc import MultiCellEkf, SchedulerConfig, coulomb_count

        cfg_path, cells = self.make_pack(tmp_path, 2, 0.5, 0.5)
        outdir = tmp_path / "out"
        assert main(["multicell", "--config", str(cfg_path), "--out-dir", str(outdir)]) == 0
        sched = SchedulerConfig(t_slot=0.5, cells=tuple(cells), f_max=0.5)
        setups = {cid: (cell, EkfConfig.default(cell, initial_soc=0.8))
                  for cid, cell in cells.items()}
        traces = {cid: load_trace(tmp_path / f"{cid}.csv") for cid in cells}
        series = MultiCellEkf(sched, setups).run(traces)
        for cid, s in series.items():
            ref = coulomb_count(traces[cid], cells[cid].nominal_capacity_c_n, 1.0)
            expected = oracle_soc_text(cid, s.times, s.soc_est, ref[s.sample_index],
                                       s.innovations)
            assert (outdir / f"soc_{cid}.csv").read_bytes() == expected.encode()

    @pytest.mark.parametrize("ref_soc0", [2.0, -0.5])
    def test_a_bad_ref_soc0_exits_before_the_engine_runs(self, tmp_path, capsys, monkeypatch,
                                                         ref_soc0):
        from cellsoc import MultiCellEkf

        ran = []
        monkeypatch.setattr(MultiCellEkf, "run", lambda self, traces: ran.append(traces))
        cfg_path, _ = self.make_pack(tmp_path, 2, 0.5, 0.5)
        doc = json.loads(cfg_path.read_text())
        doc["cells"][1]["ref_soc0"] = ref_soc0
        cfg_path.write_text(json.dumps(doc))
        outdir = tmp_path / "out"
        assert main(["multicell", "--config", str(cfg_path), "--out-dir", str(outdir)]) == 2
        assert capsys.readouterr().err.startswith("data error: initial SoC must be within [0, 1]")
        assert ran == [] and not outdir.exists()

    def test_a_cell_without_ref_soc0_has_a_nan_reference(self, tmp_path):
        """An absent ``ref_soc0`` means no reference, as for ``estimate``
        without ``--ref-soc0``; the other cell keeps its coulomb count."""
        cfg_path, _ = self.make_pack(tmp_path, 2, 0.5, 0.5)
        doc = json.loads(cfg_path.read_text())
        del doc["cells"][1]["ref_soc0"]
        cfg_path.write_text(json.dumps(doc))
        outdir = tmp_path / "out"
        assert main(["multicell", "--config", str(cfg_path), "--out-dir", str(outdir)]) == 0

        def soc_ref(cid):
            rows = (outdir / f"soc_{cid}.csv").read_text().splitlines()[1:]
            return [float(r.split(",")[3]) for r in rows]

        assert soc_ref("c01") and all(math.isnan(x) for x in soc_ref("c01"))
        assert soc_ref("c00") and all(math.isfinite(x) for x in soc_ref("c00"))

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

    def test_ekf_with_initial_soc_refused(self, tmp_path, capsys):
        """``initial_soc`` seeds only the default EKF config, so a cell that
        also names an EKF config is refused rather than run on that file."""
        cfg_path, cells = self.make_pack(tmp_path, 1, 1.0, 0.4)  # initial_soc 0.8
        (tmp_path / "ekf.json").write_text(
            json.dumps(ekf_config_to_dict(EkfConfig.default(cells["c00"], initial_soc=0.3))))
        doc = json.loads(cfg_path.read_text())
        doc["cells"][0]["ekf"] = "ekf.json"
        cfg_path.write_text(json.dumps(doc))
        outdir = tmp_path / "out"
        assert main(["multicell", "--config", str(cfg_path), "--out-dir", str(outdir)]) == 2
        assert capsys.readouterr().err == (
            "data error: multicell config cell c00 sets both ekf and initial_soc; "
            "initial_soc only seeds the default EKF config\n")
        assert not outdir.exists()

    @pytest.mark.parametrize("rc", OTHER_RC, ids=["1-rc", "3-rc"])
    def test_ekf_for_another_rc_count_exit_2(self, tmp_path, capsys, rc):
        cfg_path, _ = self.make_pack(tmp_path, 2, 0.5, 0.4)
        (tmp_path / "ekf.json").write_text(
            json.dumps(ekf_config_to_dict(EkfConfig.default(make_cell(rc=rc)))))
        doc = json.loads(cfg_path.read_text())
        del doc["cells"][1]["initial_soc"]
        doc["cells"][1]["ekf"] = "ekf.json"
        cfg_path.write_text(json.dumps(doc))
        outdir = tmp_path / "out"
        assert main(["multicell", "--config", str(cfg_path), "--out-dir", str(outdir)]) == 2
        assert capsys.readouterr().err == (
            f"data error: EKF config has {len(rc)} RC components, parameters define 2\n")
        assert not outdir.exists()

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
        ("doc", "f_max_hz", 1e-320, "cell budget 1 / (2 * 1e-320 Hz * 1.0 s) is not finite"),
        *(("cell", key, value, f"cell field {key} must be a path string, got {value!r}")
          for key in ("params", "trace", "ekf") for value in (None, 7, ["c00.json"])),
        *(("doc", "start_time_s", value, f"start time must be finite, got {value}")
          for value in (math.nan, math.inf, -math.inf)),
        # Services from a start this far back: too many to count.
        ("doc", "start_time_s", -1e300, "more than one array holds"),
        pytest.param("doc", "t_slot_s", 10**400,
                     "multicell config field t_slot_s is beyond the float range", id="huge-int"),
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


# Fuzzing: 1-3 random mutations of a valid input document or trace body must
# end in exit 0, 2 (data error) or 3 (numerical failure), never in a
# traceback, and a failed command must leave no output behind.
#
# Every value is drawn from a fixed pool. The fields that set how many
# samples, services or grid points a command makes (SIZE_KEYS) draw only the
# document's own value halved or doubled, a small integer, or a value that
# leaves the count at most 1 or is refused before anything is allocated (a
# non-number, a non-positive or non-finite number, 1e-320 or ±1e300). So no
# draw allocates more than a few times what the valid input does, and none
# starts a process.

BIG = 1.7976931348623157e308
POOL = [None, True, False, "x", "", [], {}, [1.0], [[1.0]], {"bogus": 1}, 0, -1, 2, 0.0, -0.0,
        5e-324, 1e-320, 0.5, 1.0, 3.3, 60.0, 1e300, -1e300, BIG, -BIG,
        math.nan, math.inf, -math.inf]
SIZE_POOL = [None, True, "x", [], 0.0, -0.0, -1.0, 1e-320, 1e300, -1e300,
             math.nan, math.inf, -math.inf]
SIZE_KEYS = {"sample_period_s", "duration_s", "delta_q_c", "t_empty_s", "rest1_s", "rest2_s",
             "charge_amplitudes_a", "us06_duration_s", "us06_sample_period_s",
             "t_slot_s", "start_time_s", "n_rc", "capacitance_grid_size"}
INT_POOL = [-1, 0, 1, 2, 3, 15, 16, 17, 64, 200, 2.5, "2"]
TOKENS = ["nan", "inf", "-inf", "", " ", "x", "1e999", "-0.0", "5e-324", "1e300", "-1e300",
          "0", "1_0", "0x10", "3.3"]


def json_paths(doc, path=()):
    """The path of keys and indices to every node of a JSON document, the root's () first."""
    yield path
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        children = ()
    for key, child in children:
        yield from json_paths(child, (*path, key))


def sized(path):
    """Whether the node at ``path`` is, or lies inside, a field in SIZE_KEYS."""
    return any(key in SIZE_KEYS for key in path if isinstance(key, str))


def pick(pool):
    """A copy of a value from ``pool``, so a later mutation cannot change the pool."""
    return st.sampled_from(pool).map(copy.deepcopy)


@st.composite
def replacement(draw, path, old):
    """A value for the node at ``path`` that holds ``old``; half the time, for
    a number, the number scaled."""
    if not sized(path):
        if type(old) in (int, float) and draw(st.booleans()):
            return draw(st.sampled_from([-1.0, 1e-6, 0.5, 2.0, 1e6])) * old
        return draw(pick(POOL))
    if path[-1] in ("n_rc", "capacitance_grid_size"):
        return draw(pick(INT_POOL + SIZE_POOL))
    halved = [old * 0.5, old * 2.0] if type(old) in (int, float) else []
    return draw(pick(SIZE_POOL + halved))


@st.composite
def mutated(draw, doc):
    """``doc`` with 1-3 nodes below its root replaced, deleted or given an
    unknown field. (A document that is not an object has its own tests.)"""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(json_paths(doc))[1:]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]]
        op = draw(st.sampled_from(["replace", "replace", "delete", "add"]))
        if op == "add" and isinstance(node, dict):
            node["bogus"] = draw(pick(POOL))
        elif op == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(replacement(path, node))
    return doc


@st.composite
def mutated_body(draw, text):
    """A trace CSV body with 1-3 fields replaced, dropped or added, or rows
    dropped, repeated or swapped."""
    lines = text.splitlines()  # 41 lines, so dropping three leaves some
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["field", "field", "drop field", "add field", "drop row",
                                   "repeat row", "swap rows"]))
        if op.endswith("field"):
            fields = lines[k].split(",")
            j = draw(st.integers(0, len(fields) - 1))
            if op == "field":
                fields[j] = draw(st.sampled_from(TOKENS))
            elif op == "drop field":
                del fields[j]
            else:
                fields.insert(j, draw(st.sampled_from(TOKENS)))
            lines[k] = ",".join(fields)
        elif op == "drop row":
            del lines[k]
        elif op == "repeat row":
            lines.insert(k, lines[k])
        else:
            j = draw(st.integers(0, len(lines) - 1))
            lines[k], lines[j] = lines[j], lines[k]
    return "\n".join(lines) + "\n"


def fuzz_inputs(root):
    """The valid documents and trace bodies the fuzz cases mutate."""
    from cellsoc import CellState, Trace, simulate, vqst_from_soc
    from cellsoc.traceio import cell_parameters_to_dict

    cell = make_cell()
    t = 1.0 + np.arange(40.0)
    current = np.where(t < 20.0, -2.0, 0.0)
    start = CellState.rest(vqst_from_soc(cell, 0.9), cell.n_rc)
    trace = simulate(cell, Trace(t, current), start).trace
    save_trace(trace, root / "trace.csv")
    pulse, _ = identification_trace(cell, sample_period=10.0, rest=3000.0, t_empty=7200.0)
    save_trace(pulse, root / "pulse.csv")
    return {
        "cell": cell_parameters_to_dict(cell),
        "ekf": ekf_config_to_dict(EkfConfig.default(cell, initial_soc=0.7)),
        "multicell": {"t_slot_s": 0.5, "f_max_hz": 0.5, "start_time_s": 1.0, "cells": [
            {"id": "a", "params": "cell.json", "trace": "trace.csv", "initial_soc": 0.8,
             "ref_soc0": 0.9},
            {"id": "b", "params": "cell.json", "trace": "trace.csv", "ekf": "ekf.json"}]},
        "spec": [{"kind": "constant", "amplitude_a": -1.0, "duration_s": 30.0},
                 dict(PULSE, expected_tau_max_s=10.0),
                 {"kind": "us06-like", "us06_duration_s": 20.0, "us06_sample_period_s": 0.5},
                 {"kind": "validation", "sample_period_s": 600.0, "us06_duration_s": 20.0,
                  "us06_sample_period_s": 0.5}],
        "identify": {"n_rc": 2, "capacitance_grid_size": 32, "current_zero_threshold": 0.01},
        "trace": (root / "trace.csv").read_text(),
    }


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz-base")
    return root, fuzz_inputs(root)


def run_fuzzed(root, base, kind, doc):
    """Write ``doc`` in place of the ``kind`` input, run its command on a fresh
    copy of the inputs and return (exit code, stderr, outputs left behind).
    A ``doc`` given as bytes is written as it is."""
    inputs = {"cell.json": base["cell"], "ekf.json": base["ekf"]}
    files = {"trace.csv": base["trace"], "pulse.csv": (root / "pulse.csv").read_text()}
    if kind == "trace":
        files["trace.csv"] = doc
    else:
        inputs[{"cell": "cell.json", "ekf": "ekf.json", "multicell": "pack.json",
                "spec": "spec.json", "identify": "id.json"}[kind]] = doc
    work = root / "run"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    texts = {name: value if isinstance(value, bytes) else json.dumps(value)
             for name, value in inputs.items()}
    for name, data in {**texts, **files}.items():
        if isinstance(data, bytes):
            (work / name).write_bytes(data)
        else:
            (work / name).write_text(data)
    w = {name: str(work / name) for name in (*inputs, *files, "out", "sim.csv", "fit.json",
                                             "fit.txt", "soc.csv")}
    if kind == "multicell":
        argv, outs = ["multicell", "--config", w["pack.json"], "--out-dir", w["out"]], ["out"]
    elif kind == "spec":
        argv, outs = ["simulate", "--params", w["cell.json"], "--spec", w["spec.json"],
                      "--out", w["sim.csv"]], ["sim.csv", "sim.csv.manifest.json"]
    elif kind == "identify":
        argv = ["identify", w["pulse.csv"], "--config", w["id.json"],
                "--out-params", w["fit.json"], "--out-report", w["fit.txt"]]
        outs = ["fit.json", "fit.txt", "fit.json.manifest.json"]
    else:
        argv = ["estimate", "--params", w["cell.json"], "--trace", w["trace.csv"],
                "--ekf-config", w["ekf.json"], "--ref-soc0", "0.9", "--out", w["soc.csv"]]
        outs = ["soc.csv", "soc.csv.manifest.json"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", CellSocWarning)
        code = main(argv)
    left = [name for name in outs if (work / name).exists()
            and not ((work / name).is_dir() and not any((work / name).iterdir()))]
    return code, err.getvalue(), left


def assert_clean_exit(code, err, left):
    assert code in (0, 2, 3), err
    if code:
        assert err.startswith(("data error:", "numerical failure:")), err
        assert left == []


FUZZ = settings(max_examples=100, deadline=None, derandomize=True)


class TestFuzz:
    def test_unmutated_multicell_document_runs(self, fuzz_base):
        """The document the multicell draws mutate reaches the engine."""
        root, base = fuzz_base
        code, err, left = run_fuzzed(root, base, "multicell", base["multicell"])
        assert (code, err, left) == (0, "", ["out"])
        assert sorted(p.name for p in (root / "run" / "out").iterdir()) == [
            "manifest.json", "soc_a.csv", "soc_b.csv"]

    @pytest.mark.parametrize("kind", ["cell", "ekf", "multicell", "identify"])
    @FUZZ
    @given(data=st.data())
    def test_mutated_document_exits_cleanly(self, fuzz_base, kind, data):
        root, base = fuzz_base
        doc = data.draw(mutated(base[kind]), label=kind)
        assert_clean_exit(*run_fuzzed(root, base, kind, doc))

    @FUZZ
    @given(data=st.data())
    def test_mutated_profile_spec_exits_cleanly(self, fuzz_base, data):
        root, base = fuzz_base
        spec = data.draw(st.sampled_from(base["spec"]))
        assert_clean_exit(*run_fuzzed(root, base, "spec", data.draw(mutated(spec))))

    @FUZZ
    @given(data=st.data())
    def test_mutated_trace_body_exits_cleanly(self, fuzz_base, data):
        root, base = fuzz_base
        body = data.draw(mutated_body(base["trace"]))
        assert_clean_exit(*run_fuzzed(root, base, "trace", body))


# Each input document, and each object nested in it, refuses a field it does
# not know: (document, path to the object, the name the error gives it).
UNKNOWN_FIELD_CASES = [
    ("cell", (), "cell parameters"),
    ("cell", ("capacitance",), "cell parameters capacitance"),
    ("cell", ("resistor",), "cell parameters resistor"),
    ("cell", ("rc_groups", 1), "cell parameters rc group"),
    ("ekf", (), "EKF config"),
    ("ekf", ("initial_state",), "EKF config initial_state"),
    ("multicell", (), "multicell config"),
    ("multicell", ("cells", 1), "multicell config cell"),
    ("spec", (), "profile spec"),
    ("identify", (), "identification config"),
]


class TestUnknownFields:
    @pytest.mark.parametrize("kind,path,what", UNKNOWN_FIELD_CASES,
                             ids=[f"{k}-{'.'.join(map(str, p)) or 'root'}"
                                  for k, p, _ in UNKNOWN_FIELD_CASES])
    def test_unknown_field_exit_2(self, fuzz_base, kind, path, what):
        root, base = fuzz_base
        doc = copy.deepcopy(base[kind][0] if kind == "spec" else base[kind])
        node = doc
        for key in path:
            node = node[key]
        node["bogus"] = 1
        code, err, left = run_fuzzed(root, base, kind, doc)
        assert code == 2
        assert err == f"data error: unknown {what} fields: bogus\n"
        inputs = {"cell.json", "ekf.json", "trace.csv", "pulse.csv", "pack.json", "spec.json",
                  "id.json"}
        assert left == [] and {p.name for p in (root / "run").iterdir()} <= inputs


# Each input with a byte that is not UTF-8: (input, the file the command
# names). A text file is decoded 8 KiB at a time, so the body's byte is put
# past a long blank line: the header then decodes, and the body reader meets
# the byte.
NOT_UTF8_CASES = [("trace-header", "trace.csv"), ("trace-body", "trace.csv"),
                  ("cell", "cell.json"), ("ekf", "ekf.json"), ("multicell", "pack.json"),
                  ("spec", "spec.json"), ("identify", "id.json")]


class TestNotUtf8:
    @pytest.mark.parametrize("case,name", NOT_UTF8_CASES, ids=[c for c, _ in NOT_UTF8_CASES])
    def test_byte_that_is_not_utf8_is_a_data_error(self, fuzz_base, case, name):
        root, base = fuzz_base
        if case == "trace-header":
            kind, doc = "trace", base["trace"].encode().replace(b"current_a", b"current_\xff", 1)
        elif case == "trace-body":
            header, body = base["trace"].encode().split(b"\n", 1)
            kind, doc = "trace", header + b"\n" + b" " * 9000 + b"\n" + body[:-2] + b"\xff\n"
        else:
            kind = case
            text = json.dumps(base[kind][0] if kind == "spec" else base[kind])
            doc = text.encode().replace(b'"', b'"\xff', 1)
        code, err, left = run_fuzzed(root, base, kind, doc)
        path = root / "run" / name
        assert (code, err, left) == (
            2, f"data error: {path}: not UTF-8 text: byte 0xff (invalid start byte)\n", [])
