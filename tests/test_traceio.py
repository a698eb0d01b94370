import tracemalloc

import numpy as np
import pytest

from cellsoc import ConfigurationError, EkfConfig, InvalidInputError, Trace, TraceParseError
from cellsoc import traceio
from cellsoc.traceio import (
    load_cell_parameters,
    load_ekf_config,
    load_trace,
    save_cell_parameters,
    save_ekf_config,
    save_soc_rows,
    save_trace,
)
from helpers import make_cell, oracle_soc_text, oracle_trace_text


def test_trace_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    t = np.cumsum(rng.uniform(0.5, 2.0, 500))
    trace = Trace(t, rng.normal(size=500), rng.normal(3.3, 0.1, 500))
    path = tmp_path / "trace.csv"
    save_trace(trace, path)
    again = load_trace(path)
    assert np.array_equal(trace.timestamps, again.timestamps)
    assert np.array_equal(trace.current, again.current)
    assert np.array_equal(trace.voltage, again.voltage)
    # save -> load -> save produces identical bytes
    path2 = tmp_path / "trace2.csv"
    save_trace(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_profile_round_trip_without_voltage(tmp_path):
    trace = Trace(np.arange(10.0), np.linspace(-1.0, 1.0, 10))
    path = tmp_path / "profile.csv"
    save_trace(trace, path)
    again = load_trace(path)
    assert again.voltage is None
    assert np.array_equal(trace.current, again.current)


def test_header_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,current,volts\n0,0,3\n1,0,3\n")
    with pytest.raises(TraceParseError, match="line 1"):
        load_trace(path)


def test_malformed_row_reports_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t_s,current_a,voltage_v\n0.0,0.0,3.3\n1.0,oops,3.3\n")
    with pytest.raises(TraceParseError, match="line 3"):
        load_trace(path)


def test_wrong_field_count_reports_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t_s,current_a,voltage_v\n0.0,0.0,3.3\n1.0,0.0\n")
    with pytest.raises(TraceParseError, match="line 3"):
        load_trace(path)


def test_non_monotone_timestamps_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t_s,current_a,voltage_v\n0.0,0.0,3.3\n0.0,0.0,3.3\n")
    with pytest.raises(TraceParseError):
        load_trace(path)


def test_large_file_round_trip(tmp_path):
    n = 1_000_000
    t = np.arange(float(n))
    trace = Trace(t, np.sin(t * 1e-3))
    path = tmp_path / "big.csv"
    save_trace(trace, path)
    again = load_trace(path)
    assert len(again) == n
    assert np.array_equal(again.timestamps, t)


def test_cell_parameters_round_trip(tmp_path):
    cell = make_cell()
    path = tmp_path / "cell.json"
    save_cell_parameters(cell, path)
    again = load_cell_parameters(path)  # invariants re-checked on load
    assert again.delta_q == cell.delta_q
    assert again.nominal_voltage_v_n == cell.nominal_voltage_v_n
    assert np.array_equal(again.capacitance.values, cell.capacitance.values)
    assert again.rc_groups == cell.rc_groups


def test_ekf_config_round_trip(tmp_path):
    cell = make_cell()
    cfg = EkfConfig.default(cell, initial_soc=0.8)
    path = tmp_path / "ekf.json"
    save_ekf_config(cfg, path)
    again = load_ekf_config(path)
    assert np.array_equal(again.process_noise_q, cfg.process_noise_q)
    assert again.measurement_noise_r == cfg.measurement_noise_r
    assert again.initial_state.v_qst == cfg.initial_state.v_qst


def test_atomic_write_leaves_no_partial_output(tmp_path, monkeypatch):
    import os

    target = tmp_path / "out.csv"
    trace = Trace(np.arange(3.0), np.zeros(3))
    save_trace(trace, target)
    before = target.read_bytes()

    def exploding_replace(src, dst):
        raise Boom()

    monkeypatch.setattr(traceio.os, "replace", exploding_replace)
    with pytest.raises(Boom):
        save_trace(Trace(np.arange(4.0), np.ones(4)), target)
    monkeypatch.undo()
    # The original file is untouched and no temp litter remains.
    assert target.read_bytes() == before
    assert list(tmp_path.glob("*.tmp")) == []
    assert os.path.exists(target)


class Boom(RuntimeError):
    pass


@pytest.mark.parametrize("writer", ["soc", "trace"])
def test_a_failure_in_a_later_block_leaves_no_output(tmp_path, monkeypatch, writer):
    """The writers stream: the header and the first block have gone to the temp
    file when formatting the second block fails, and neither the temp file
    nor the target is left."""
    monkeypatch.setattr(traceio, "_BLOCK_ROWS", 3)
    n_columns = 4 if writer == "soc" else 3
    float_texts, calls = traceio._float_texts, []

    def failing_in_the_second_block(column):
        calls.append(len(column))
        if len(calls) > n_columns:
            raise Boom()
        return float_texts(column)

    monkeypatch.setattr(traceio, "_float_texts", failing_in_the_second_block)
    target = tmp_path / "out.csv"
    t = np.arange(7.0)
    with pytest.raises(Boom):
        if writer == "soc":
            save_soc_rows("c0", target, t, t, t, t)
        else:
            save_trace(Trace(t, t, t), target)
    assert calls == [3] * (n_columns + 1)
    assert list(tmp_path.iterdir()) == []


def from_bits(pattern: int) -> float:
    return float(np.array([pattern], dtype=np.uint64).view(np.float64)[0])


# The module's own block size, then blocks of a few rows, so that the rows of
# a small file fall into several blocks.
BLOCK_SIZES = (traceio._BLOCK_ROWS, 2, 3)


def test_soc_rows_exact_bytes(tmp_path, monkeypatch):
    """Runs, both zeros, NaN payloads, infinities and subnormals, written out,
    at each of BLOCK_SIZES; with 2-row blocks the runs of -0.0 and inf cross a
    block boundary."""
    columns = ([0.0, 1.0, 2.0, 3.0, 4.5],
               [0.5, 0.5, 0.0, -0.0, -0.0],
               [np.nan, from_bits(0x7FF8000000000001), from_bits(0xFFF8000000000000),
                np.inf, np.inf],
               [5e-324, 5e-324, -1e-310, 2.2250738585072014e-308, -np.inf])
    path = tmp_path / "soc.csv"
    expected = (b"t_s,cell_id,soc_est,soc_ref,v_innov\n"
                b"0.0,c-7,0.5,nan,5e-324\n"
                b"1.0,c-7,0.5,nan,5e-324\n"
                b"2.0,c-7,0.0,nan,-1e-310\n"
                b"3.0,c-7,-0.0,inf,2.2250738585072014e-308\n"
                b"4.5,c-7,-0.0,inf,-inf\n")
    for block_rows in BLOCK_SIZES:
        monkeypatch.setattr(traceio, "_BLOCK_ROWS", block_rows)
        save_soc_rows("c-7", path, *columns)
        assert path.read_bytes() == expected
    assert oracle_soc_text("c-7", *columns).encode() == expected


def test_trace_exact_bytes(tmp_path, monkeypatch):
    """Exact trace and profile bytes at each of BLOCK_SIZES."""
    trace = Trace(np.array([-0.0, 0.1, 0.2, 1e16]),
                  np.array([0.0, 0.0, -0.0, 1.7976931348623157e308]),
                  np.array([3.3, 3.3, 3.3, 5e-324]))
    profile = Trace(np.array([0.0, 1.0, 2.0]), np.array([-2.5, -2.5, 1e-310]))
    expected = {
        "trace.csv": (b"t_s,current_a,voltage_v\n-0.0,0.0,3.3\n0.1,0.0,3.3\n0.2,-0.0,3.3\n"
                      b"1e+16,1.7976931348623157e+308,5e-324\n"),
        "profile.csv": b"t_s,current_a\n0.0,-2.5\n1.0,-2.5\n2.0,1e-310\n",
    }
    for name, tr in (("trace.csv", trace), ("profile.csv", profile)):
        for block_rows in BLOCK_SIZES:
            monkeypatch.setattr(traceio, "_BLOCK_ROWS", block_rows)
            save_trace(tr, tmp_path / name)
            assert (tmp_path / name).read_bytes() == expected[name]
        assert oracle_trace_text(tr).encode() == expected[name]


def test_empty_soc_rows_is_the_header(tmp_path, monkeypatch):
    for block_rows in BLOCK_SIZES:
        monkeypatch.setattr(traceio, "_BLOCK_ROWS", block_rows)
        save_soc_rows("c0", tmp_path / "soc.csv", [], [], [], [])
        assert (tmp_path / "soc.csv").read_bytes() == b"t_s,cell_id,soc_est,soc_ref,v_innov\n"


# Seven rows, cut by 3-row blocks after rows 3 and 6: a run through both
# boundaries, distinct values that come back in later blocks, and runs of
# 3.0 and of 5e-324 that each cross one boundary.
STRADDLING = {
    "t": [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0],
    "run": [2.5] * 7,
    "recurring": [0.1, -0.0, 0.1, -0.0, 0.0, 0.1, -0.0],
    "crossing": [1.0, 2.0, 3.0, 3.0, 3.0, 5e-324, 5e-324],
}


@pytest.mark.parametrize("n", [0, 1, 3, 4, 7])
def test_soc_rows_across_block_boundaries_are_the_oracle_bytes(tmp_path, monkeypatch, n):
    monkeypatch.setattr(traceio, "_BLOCK_ROWS", 3)
    c = {key: np.array(col[:n]) for key, col in STRADDLING.items()}
    columns = (c["t"], c["recurring"], np.full(n, np.nan), c["crossing"])
    save_soc_rows("c0", tmp_path / "soc.csv", *columns)
    assert (tmp_path / "soc.csv").read_bytes() == oracle_soc_text("c0", *columns).encode()
    save_soc_rows("c1", tmp_path / "soc.csv", c["t"], c["run"], c["crossing"], c["recurring"])
    assert (tmp_path / "soc.csv").read_bytes() == oracle_soc_text(
        "c1", c["t"], c["run"], c["crossing"], c["recurring"]).encode()


@pytest.mark.parametrize("n", [2, 3, 4, 7])  # a Trace holds at least two samples
def test_traces_across_block_boundaries_are_the_oracle_bytes(tmp_path, monkeypatch, n):
    monkeypatch.setattr(traceio, "_BLOCK_ROWS", 3)
    c = {key: np.array(col[:n]) for key, col in STRADDLING.items()}
    for trace in (Trace(c["t"], c["recurring"], c["crossing"]),
                  Trace(c["t"], c["crossing"], c["run"]), Trace(c["t"], c["run"])):
        save_trace(trace, tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_bytes() == oracle_trace_text(trace).encode()


def test_soc_rows_refuse_unequal_columns(tmp_path):
    with pytest.raises(InvalidInputError,
                       match="^SoC columns must have equal lengths, got times 3, soc_est 1, "
                             "soc_ref 2, innovations 2$"):
        save_soc_rows("c0", tmp_path / "soc.csv", [0.0, 1.0, 2.0], [0.5], [0.5, 0.4], [0.0, 0.1])
    assert list(tmp_path.iterdir()) == []


def test_soc_writer_memory_does_not_grow_with_rows(tmp_path):
    """The SoC writer holds one block's text: writing 100k and 400k rows of
    distinct values peaks below the same 8 MB (tracemalloc), where holding
    the whole file's text took about 37 MB for 100k rows."""
    rng = np.random.default_rng(3)
    peaks = []
    for n in (100_000, 400_000):
        columns = (np.arange(n) * 0.5, rng.uniform(0.0, 1.0, n), np.full(n, np.nan),
                   rng.normal(0.0, 1e-3, n))
        tracemalloc.start()
        try:
            save_soc_rows("c0", tmp_path / "soc.csv", *columns)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 8_000_000, peaks


@pytest.mark.parametrize("cell_id", ["a,b", "a\nb", "", 'a"b', "a/b", "a\\b", 7, None, [1]])
def test_soc_rows_refuse_bad_cell_id(tmp_path, cell_id):
    with pytest.raises(ConfigurationError, match="cell id must be"):
        save_soc_rows(cell_id, tmp_path / "soc.csv", [0.0], [0.5], [0.5], [0.0])
    assert list(tmp_path.iterdir()) == []
