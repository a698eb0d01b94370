"""File formats: trace CSV, parameter/config JSON, atomic writes.

Every input document is read here: cell parameters, EKF config, multicell
config, profile spec and identification config. One rule checks them all:
a document, and each object nested in it, is a JSON object whose fields all
come from a known list (``config_object``). An unknown field, or a value of
the wrong type, raises ConfigurationError naming the document and the field;
a missing required field raises KeyError.

Trace CSV schema: header ``t_s,current_a,voltage_v`` (or ``t_s,current_a``
for voltage-less profiles), one sample per row, UTF-8, '.' decimal separator.
SoC CSV schema: header ``t_s,cell_id,soc_est,soc_ref,v_innov``, one row per
filtered sample or service.

Every float is written with repr, so a save/load round-trip is bit-exact.
The CSV writers stream: they format and write ``_BLOCK_ROWS`` rows at a
time, so the text they hold is one block's, whatever the row count. repr
depends only on a float's 64 bits, so they format each distinct bit pattern
of a block once and repeat its text (``_float_texts``).

Trace bodies are read in bulk by ``np.loadtxt`` from the file's path, which
numpy reads in chunks with its C reader; handed an open file instead, numpy
iterates it one Python str per line. Its float parser accepts a subset of
what ``float()`` accepts and gives the same bits. Any body it rejects or
shapes differently, and any file it fails to open as text (numpy picks a
decompressor by file suffix, so a plain-text ``x.csv.gz`` fails there), is
re-read by the line parser, which decides what is accepted and names the
failing line.

Every input is read as UTF-8; a byte that is not UTF-8 raises
TraceParseError (traces) or ConfigurationError (JSON documents) naming the
file.
"""

from __future__ import annotations

import json
import numbers
import os
import tempfile
import warnings
from contextlib import contextmanager
from dataclasses import fields
from itertools import repeat
from pathlib import Path

import numpy as np

from .curves import MonotoneCurve
from .errors import ConfigurationError, InvalidInputError, TraceParseError
from .estimator import EkfConfig
from .identification import IdentificationConfig
from .model import CellParameters, CellState, RcGroup, Trace
from .multicell import MultiCellEkf, SchedulerConfig, check_cell_id
from .profiles import ProfileSpec

TRACE_HEADER = "t_s,current_a,voltage_v"
PROFILE_HEADER = "t_s,current_a"
SOC_HEADER = "t_s,cell_id,soc_est,soc_ref,v_innov"

# Rows a CSV writer formats and writes at a time.
_BLOCK_ROWS = 4096


def atomic_write_chunks(path, chunks) -> None:
    """Write the text chunks of an iterable, in order, into one temp file, then
    rename it into place. A failure, in any chunk included, leaves neither the
    file nor the temp file; a file already at ``path`` is kept as it was."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or ".", prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write a file via temp-then-rename so failures leave no partial output."""
    atomic_write_chunks(path, (text,))


def _float_texts(column) -> list[str]:
    """``[repr(x) for x in np.asarray(column, dtype=float).tolist()]`` for a
    1-D column, calling repr once per distinct bit pattern.

    The column is cut into runs of equal bits; one sort of the run heads
    counts the heads that recur. A repeat saves a repr (0.5–1.2 µs) and
    ``np.unique`` costs up to 90 ns per head (2-core VM, numpy 2.4), so it maps
    heads to distinct values only once repeats exceed a sixth of the heads.
    Bits, not ``==``, decide equality, so -0.0 and 0.0 stay apart and each
    NaN payload is its own value (all of them print as ``'nan'``).
    """
    values = np.ascontiguousarray(column, dtype=np.float64)
    bits = values.view(np.int64)
    heads = np.ones(bits.size, dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=heads[1:])
    starts = np.flatnonzero(heads)
    head_bits = bits[starts]
    ordered = np.sort(head_bits)
    if 6 * np.count_nonzero(ordered[1:] == ordered[:-1]) > head_bits.size:
        distinct, which = np.unique(head_bits, return_inverse=True)
        texts = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
        texts = texts[which]
    else:
        texts = list(map(repr, values[starts].tolist()))
        if len(texts) == values.size:
            return texts
        texts = np.array(texts, dtype=object)
    return np.repeat(texts, np.diff(starts, append=values.size)).tolist()


def _csv_chunks(header: str, parts: list):
    """A CSV's text in chunks: the header line, then the rows ``_BLOCK_ROWS`` at a
    time, every line ending in a newline. ``parts`` holds a row's fields in
    order: a column of floats, written as repr per value (``_float_texts`` of
    the block's slice), or a str that every row repeats. The columns have
    equal lengths."""
    yield header + "\n"
    n = next(len(part) for part in parts if not isinstance(part, str))
    for start in range(0, n, _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        texts = [repeat(part) if isinstance(part, str) else _float_texts(part[start:stop])
                 for part in parts]
        yield "\n".join([*map(",".join, zip(*texts)), ""])


def save_trace(trace: Trace, path) -> None:
    """Write a trace CSV, streamed ``_BLOCK_ROWS`` rows at a time. Each float is
    written as its repr, formatted once per distinct bit pattern in its
    column's block (``_float_texts``)."""
    columns = [trace.timestamps, trace.current]
    header = PROFILE_HEADER
    if trace.voltage is not None:
        columns.append(trace.voltage)
        header = TRACE_HEADER
    atomic_write_chunks(path, _csv_chunks(header, columns))


@contextmanager
def _open_utf8(path, error):
    """Open ``path`` as UTF-8 text; a byte that is not UTF-8, met anywhere in
    the ``with`` body, raises ``error`` naming the file and the byte."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: byte {exc.object[exc.start]:#04x} "
                    f"({exc.reason})") from None


def _read_header(fh, path) -> int:
    """Consume the header line; return the number of columns it declares."""
    header = fh.readline().strip()
    if header == TRACE_HEADER:
        return 3
    if header == PROFILE_HEADER:
        return 2
    raise TraceParseError(
        f"{path}: line 1: expected header {TRACE_HEADER!r} or {PROFILE_HEADER!r}, "
        f"got {header!r}"
    )


def _trace_from_columns(path, cols) -> Trace:
    try:
        return Trace(cols[0], cols[1], cols[2] if len(cols) == 3 else None)
    except Exception as exc:
        raise TraceParseError(f"{path}: {exc}") from exc


def _parse_trace_lines(path) -> Trace:
    """Line-by-line trace parser: the reference for what ``load_trace`` accepts."""
    with _open_utf8(path, TraceParseError) as fh:
        n_cols = _read_header(fh, path)
        cols: list[list[float]] = [[] for _ in range(n_cols)]
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != n_cols:
                raise TraceParseError(f"{path}: line {lineno}: expected {n_cols} fields, got {len(parts)}")
            try:
                for col, part in zip(cols, parts):
                    col.append(float(part))
            except ValueError as exc:
                raise TraceParseError(f"{path}: line {lineno}: {exc}") from exc
    return _trace_from_columns(path, [np.array(col) for col in cols])


def load_trace(path) -> Trace:
    """Parse a trace CSV; malformed rows raise with their line number.

    The header is checked on a handle of its own. The body is then read in one
    ``np.loadtxt`` call on the file's absolute path, so numpy's chunked C
    reader reads it (an absolute path is never taken for a URL). Its result
    is kept only when it has at least one row and exactly the header's
    columns. Otherwise, or when that call raises anything at all, the file is
    re-read by the line parser, which returns the same trace or raises the
    ``TraceParseError`` that names the failing line.
    """
    path = Path(path)
    with _open_utf8(path, TraceParseError) as fh:
        n_cols = _read_header(fh, path)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty input
            data = np.loadtxt(os.path.abspath(path), delimiter=",", comments=None, skiprows=1,
                              ndmin=2, dtype=float, encoding="utf-8")
    except Exception:  # not only ValueError: a suffix such as .gz picks a decompressor
        data = None
    if data is None or data.shape[0] == 0 or data.shape[1] != n_cols:
        return _parse_trace_lines(path)
    return _trace_from_columns(path, np.ascontiguousarray(data.T))


def config_object(doc, what: str, known) -> dict:
    """``doc`` if it is a JSON object whose fields all appear in ``known``;
    else ConfigurationError naming ``what`` (and the unknown fields)."""
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{what} must be a JSON object, got {doc!r}")
    unknown = sorted(set(doc).difference(known))
    if unknown:
        raise ConfigurationError(f"unknown {what} fields: {', '.join(unknown)}")
    return doc


def config_field(doc: dict, key: str, what: str, kind, description: str, default=None):
    """``doc[key]``, or ``default`` when one is given and the key is absent.

    A missing required key raises KeyError; a value that is not a ``kind``
    (a boolean never is) raises ConfigurationError naming the field.
    """
    value = doc[key] if default is None else doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigurationError(f"{what} field {key} must be {description}, got {value!r}")
    return value


def config_float(doc: dict, key: str, what: str, default: float | None = None) -> float:
    value = config_field(doc, key, what, numbers.Real, "a number", default)
    try:
        return float(value)
    except OverflowError:  # json reads an integer of any size
        raise ConfigurationError(f"{what} field {key} is beyond the float range") from None


def config_int(doc: dict, key: str, what: str) -> int:
    return config_field(doc, key, what, int, "int")


def config_path(doc: dict, key: str, what: str) -> Path:
    return Path(config_field(doc, key, what, str, "a path string"))


def config_array(doc: dict, key: str, what: str) -> np.ndarray:
    """``doc[key]`` as a float array; a missing key raises KeyError, a value
    that is not a regular array of numbers in the float range raises ConfigurationError."""
    value = doc[key]
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{what} field {key} must be an array of numbers, "
                                 f"got {value!r}") from None
    except OverflowError:
        raise ConfigurationError(f"{what} field {key} is beyond the float range") from None


def _load_json(path):
    with _open_utf8(path, ConfigurationError) as fh:
        return json.load(fh)


def _save_json(doc: dict, path) -> None:
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _curve_to_dict(curve: MonotoneCurve) -> dict:
    return {"grid": curve.grid.tolist(), "values": curve.values.tolist()}


def _curve_from_dict(doc: dict, key: str, what: str) -> MonotoneCurve:
    what = f"{what} {key}"
    curve = config_object(doc[key], what, ("grid", "values"))
    return MonotoneCurve(*(config_array(curve, k, what) for k in ("grid", "values")))


def cell_parameters_to_dict(params: CellParameters) -> dict:
    return {
        "v_min": params.v_min,
        "v_max": params.v_max,
        "capacitance": _curve_to_dict(params.capacitance),
        "rc_groups": [{"r": g.r, "tau": g.tau} for g in params.rc_groups],
        "resistor": _curve_to_dict(params.resistor),
        "delta_q": params.delta_q,
        "nominal_capacity_c_n": params.nominal_capacity_c_n,
        "nominal_voltage_v_n": params.nominal_voltage_v_n,
    }


def cell_parameters_from_dict(d) -> CellParameters:
    what, group = "cell parameters", "cell parameters rc group"
    d = config_object(d, what, ("v_min", "v_max", "capacitance", "rc_groups", "resistor",
                                "delta_q", "nominal_capacity_c_n", "nominal_voltage_v_n"))
    groups = [config_object(g, group, ("r", "tau"))
              for g in config_field(d, "rc_groups", what, list, "a list")]
    return CellParameters(
        v_min=config_float(d, "v_min", what),
        v_max=config_float(d, "v_max", what),
        capacitance=_curve_from_dict(d, "capacitance", what),
        rc_groups=tuple(RcGroup(config_float(g, "r", group), config_float(g, "tau", group))
                        for g in groups),
        resistor=_curve_from_dict(d, "resistor", what),
        delta_q=config_float(d, "delta_q", what),
        nominal_capacity_c_n=config_float(d, "nominal_capacity_c_n", what),
        nominal_voltage_v_n=config_float(d, "nominal_voltage_v_n", what),
    )


def save_cell_parameters(params: CellParameters, path) -> None:
    _save_json(cell_parameters_to_dict(params), path)


def load_cell_parameters(path) -> CellParameters:
    return cell_parameters_from_dict(_load_json(path))


def ekf_config_to_dict(cfg: EkfConfig) -> dict:
    return {
        "process_noise_q": np.asarray(cfg.process_noise_q).tolist(),
        "measurement_noise_r": cfg.measurement_noise_r,
        "initial_covariance_p0": np.asarray(cfg.initial_covariance_p0).tolist(),
        "initial_state": {
            "v_qst": cfg.initial_state.v_qst,
            "v_dyn_components": cfg.initial_state.v_dyn_components.tolist(),
        },
    }


def ekf_config_from_dict(d) -> EkfConfig:
    what, state = "EKF config", "EKF config initial_state"
    d = config_object(d, what, ("process_noise_q", "measurement_noise_r",
                                "initial_covariance_p0", "initial_state"))
    st = config_object(d["initial_state"], state, ("v_qst", "v_dyn_components"))
    return EkfConfig(
        process_noise_q=config_array(d, "process_noise_q", what),
        measurement_noise_r=config_float(d, "measurement_noise_r", what),
        initial_covariance_p0=config_array(d, "initial_covariance_p0", what),
        initial_state=CellState(config_float(st, "v_qst", state),
                                config_array(st, "v_dyn_components", state)),
    )


def save_ekf_config(cfg: EkfConfig, path) -> None:
    _save_json(ekf_config_to_dict(cfg), path)


def load_ekf_config(path) -> EkfConfig:
    return ekf_config_from_dict(_load_json(path))


def profile_spec_from_dict(doc) -> ProfileSpec:
    """Spec from a parsed JSON document; a field that defaults to none may be null."""
    what = "profile spec"
    defaults = {f.name: f.default for f in fields(ProfileSpec)}
    doc = config_object(doc, what, defaults)
    spec = {"kind": doc["kind"]}
    for name, value in doc.items():
        if name == "kind" or (value is None and defaults[name] is None):  # null = absent
            continue
        if name == "charge_amplitudes_a":
            amps = config_array(doc, name, what)
            if amps.ndim != 1:
                raise ConfigurationError(f"{what} field {name} must be a list, got {value!r}")
            spec[name] = tuple(amps.tolist())
        else:
            spec[name] = config_float(doc, name, what)
    return ProfileSpec(**spec)


def load_profile_spec(path) -> ProfileSpec:
    return profile_spec_from_dict(_load_json(path))


def identification_config_from_dict(doc) -> IdentificationConfig:
    """Config from a parsed JSON document; every field is optional, and a
    field whose default is an int must be a JSON integer."""
    what = "identification config"
    defaults = {f.name: f.default for f in fields(IdentificationConfig)}
    doc = config_object(doc, what, defaults)
    return IdentificationConfig(**{
        key: (config_int if isinstance(defaults[key], int) else config_float)(doc, key, what)
        for key in doc
    })


def load_identification_config(path) -> IdentificationConfig:
    return identification_config_from_dict(_load_json(path))


def load_multicell_config(path) -> tuple[MultiCellEkf, dict[str, Trace],
                                          dict[str, float | None]]:
    """The engine a multicell config describes, with the traces and reference
    initial SoCs to run it on: ``(engine, traces, ref_soc0)``. Each cell's
    parameters, trace and EKF config are read from the files it names; a
    relative path names a file beside the config. A cell without ``ref_soc0``
    has no reference: its ``ref_soc0`` entry is None.

    A cell without ``ekf`` gets the default EKF config at its ``initial_soc``
    (0.5 when absent). A cell may not set both: ``initial_soc`` would be
    ignored. That check runs once the cell's EKF config has been read.
    """
    what, cell_what = "multicell config", "multicell config cell"
    doc = config_object(_load_json(path), what, ("t_slot_s", "f_max_hz", "start_time_s", "cells"))
    cells = [config_object(c, cell_what, ("id", "params", "trace", "ekf", "initial_soc",
                                          "ref_soc0"))
             for c in config_field(doc, "cells", what, list, "a list")]
    scheduler = SchedulerConfig(
        t_slot=config_float(doc, "t_slot_s", what),
        cells=tuple(check_cell_id(c["id"], f"{cell_what} id") for c in cells),
        f_max=config_float(doc, "f_max_hz", what),
    )
    base = Path(path).parent
    setups, traces, refs = {}, {}, {}
    for cid, cell in zip(scheduler.cells, cells):
        params = load_cell_parameters(base / config_path(cell, "params", cell_what))
        traces[cid] = load_trace(base / config_path(cell, "trace", cell_what))
        if "ekf" in cell:
            cfg = load_ekf_config(base / config_path(cell, "ekf", cell_what))
            if "initial_soc" in cell:
                raise ConfigurationError(f"{cell_what} {cid} sets both ekf and initial_soc; "
                                         "initial_soc only seeds the default EKF config")
        else:
            initial_soc = config_float(cell, "initial_soc", cell_what, 0.5)
            cfg = EkfConfig.default(params, initial_soc=initial_soc)
        setups[cid] = (params, cfg)
        # config_float without a default requires the key; a JSON null is refused.
        refs[cid] = config_float(cell, "ref_soc0", cell_what) if "ref_soc0" in cell else None
    start_time = config_float(doc, "start_time_s", what, 0.0)
    return MultiCellEkf(scheduler, setups, start_time=start_time), traces, refs


def save_soc_rows(cell_id: str, path, times, soc_est, soc_ref, innovations) -> None:
    """Write one cell's per-sample estimates as a SoC CSV, one row per entry
    of the columns, streamed ``_BLOCK_ROWS`` rows at a time. Each float is
    written as its repr, formatted once per distinct bit pattern in its
    column's block (``_float_texts``). A cell id that
    ``multicell.check_cell_id`` refuses raises ConfigurationError, and columns
    of unequal lengths raise InvalidInputError, before anything is written."""
    check_cell_id(cell_id)
    columns = {"times": times, "soc_est": soc_est, "soc_ref": soc_ref,
               "innovations": innovations}
    lengths = {name: len(c) for name, c in columns.items()}
    if len(set(lengths.values())) > 1:
        raise InvalidInputError("SoC columns must have equal lengths, got "
                                + ", ".join(f"{name} {n}" for name, n in lengths.items()))
    atomic_write_chunks(path, _csv_chunks(SOC_HEADER, [times, cell_id, soc_est, soc_ref,
                                                       innovations]))
