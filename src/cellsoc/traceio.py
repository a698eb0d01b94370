"""File formats: trace CSV, parameter/config JSON, atomic writes.

Trace CSV schema: header ``t_s,current_a,voltage_v`` (or ``t_s,current_a``
for voltage-less profiles), one sample per row, UTF-8, '.' decimal separator.
SoC CSV schema: header ``t_s,cell_id,soc_est,soc_ref,v_innov``, one row per
filtered sample or service.

Every float is written with repr, so a save/load round-trip is bit-exact.
repr depends only on a float's 64 bits, so the writers format each distinct
bit pattern of a column once and repeat its text (``_float_texts``).

Trace bodies are read in bulk by ``np.loadtxt``, whose float parser accepts
a subset of what ``float()`` accepts and gives the same bits. Any body it
rejects or shapes differently is re-read by the line parser, which decides
what is accepted and names the failing line.
"""

from __future__ import annotations

import json
import numbers
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np

from .curves import MonotoneCurve
from .errors import ConfigurationError, TraceParseError
from .estimator import EkfConfig
from .model import CellParameters, CellState, RcGroup, Trace
from .profiles import ProfileSpec

TRACE_HEADER = "t_s,current_a,voltage_v"
PROFILE_HEADER = "t_s,current_a"
SOC_HEADER = "t_s,cell_id,soc_est,soc_ref,v_innov"


def atomic_write_text(path, text: str) -> None:
    """Write a file via temp-then-rename so failures leave no partial output."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or ".", prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _float_texts(column) -> list[str]:
    """``[repr(x) for x in np.asarray(column, dtype=float).tolist()]`` for a
    1-D column, calling repr once per distinct bit pattern.

    The column is cut into runs of entries with equal bits, and the runs'
    heads are deduplicated by bits. One sort of the head bits finds whether
    any head recurs; only then does ``np.unique`` map heads to distinct
    values, so a column without repeats (timestamps, simulated voltages) pays
    that one sort. Bits, not ``==``, decide equality, so -0.0 and 0.0 stay
    apart and each NaN payload is its own value (all of them print as
    ``'nan'``).
    """
    values = np.ascontiguousarray(column, dtype=np.float64)
    bits = values.view(np.int64)
    heads = np.ones(bits.size, dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=heads[1:])
    starts = np.flatnonzero(heads)
    head_bits = bits[starts]
    ordered = np.sort(head_bits)
    if np.any(ordered[1:] == ordered[:-1]):
        distinct, which = np.unique(head_bits, return_inverse=True)
        texts = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
        texts = texts[which]
    else:
        texts = list(map(repr, values[starts].tolist()))
        if len(texts) == values.size:
            return texts
        texts = np.array(texts, dtype=object)
    return np.repeat(texts, np.diff(starts, append=values.size)).tolist()


def save_trace(trace: Trace, path) -> None:
    """Write a trace CSV. Each float is written as its repr, formatted once per
    distinct bit pattern in its column (``_float_texts``)."""
    columns = [trace.timestamps, trace.current]
    header = PROFILE_HEADER
    if trace.voltage is not None:
        columns.append(trace.voltage)
        header = TRACE_HEADER
    lines = [header, *map(",".join, zip(*map(_float_texts, columns))), ""]
    atomic_write_text(path, "\n".join(lines))


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
    with open(path, "r", encoding="utf-8") as fh:
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

    The body is read in one ``np.loadtxt`` call. Its result is kept only when
    it has at least one row and exactly the header's columns; otherwise the
    file is re-read by the line parser, which returns the same trace or raises
    the ``TraceParseError`` that names the failing line.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        n_cols = _read_header(fh, path)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # empty input
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, dtype=float)
        except ValueError:
            data = None
    if data is None or data.shape[0] == 0 or data.shape[1] != n_cols:
        return _parse_trace_lines(path)
    return _trace_from_columns(path, np.ascontiguousarray(data.T))


def _curve_to_dict(curve: MonotoneCurve) -> dict:
    return {"grid": curve.grid.tolist(), "values": curve.values.tolist()}


def _curve_from_dict(doc: dict, key: str, what: str) -> MonotoneCurve:
    curve = config_object(doc[key], f"{what} field {key}")
    return MonotoneCurve(*(config_array(curve, k, f"{what} {key}") for k in ("grid", "values")))


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
    what = "cell parameters"
    d = config_object(d, what)
    groups, group = d["rc_groups"], f"{what} rc group"
    if not isinstance(groups, list):
        raise ConfigurationError(f"{what} field rc_groups must be a list, got {groups!r}")
    groups = [config_object(g, group) for g in groups]
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
    atomic_write_text(path, json.dumps(cell_parameters_to_dict(params), indent=2, sort_keys=True) + "\n")


def load_cell_parameters(path) -> CellParameters:
    with open(path, "r", encoding="utf-8") as fh:
        return cell_parameters_from_dict(json.load(fh))


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


def config_object(doc, what: str) -> dict:
    """``doc`` if it is a JSON object, else ConfigurationError naming ``what``."""
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{what} must be a JSON object, got {doc!r}")
    return doc


def config_float(doc: dict, key: str, what: str, default: float | None = None) -> float:
    """``float(doc[key])``, or ``default`` when one is given and the key is absent.

    A missing required key raises KeyError; a value that is not a number (a
    string, a boolean, null, ...) raises ConfigurationError naming the field.
    """
    value = doc[key] if default is None else doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{what} field {key} must be a number, got {value!r}")
    return float(value)


def config_path(doc: dict, key: str, what: str) -> Path:
    """``Path(doc[key])``; a missing key raises KeyError, a value that is not a
    string (null, a number, a list, ...) raises ConfigurationError naming the field."""
    value = doc[key]
    if not isinstance(value, str):
        raise ConfigurationError(f"{what} field {key} must be a path string, got {value!r}")
    return Path(value)


def config_array(doc: dict, key: str, what: str) -> np.ndarray:
    """``doc[key]`` as a float array; a missing key raises KeyError, a value
    that is not a regular array of numbers raises ConfigurationError."""
    value = doc[key]
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{what} field {key} must be an array of numbers, "
                                 f"got {value!r}") from None


def ekf_config_from_dict(d: dict) -> EkfConfig:
    what = "EKF config"
    d = config_object(d, what)
    st = config_object(d["initial_state"], f"{what} field initial_state")
    return EkfConfig(
        process_noise_q=config_array(d, "process_noise_q", what),
        measurement_noise_r=config_float(d, "measurement_noise_r", what),
        initial_covariance_p0=config_array(d, "initial_covariance_p0", what),
        initial_state=CellState(config_float(st, "v_qst", f"{what} initial_state"),
                                config_array(st, "v_dyn_components", f"{what} initial_state")),
    )


def save_ekf_config(cfg: EkfConfig, path) -> None:
    atomic_write_text(path, json.dumps(ekf_config_to_dict(cfg), indent=2, sort_keys=True) + "\n")


def load_ekf_config(path) -> EkfConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return ekf_config_from_dict(json.load(fh))


def load_profile_spec(path) -> ProfileSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return ProfileSpec.from_dict(json.load(fh))


def check_cell_id(cell_id, what: str = "cell id") -> str:
    """``cell_id`` if it is a non-empty printable string free of ``,`` ``"``
    ``/`` and ``\\``, so it fits one SoC CSV field and one file name; else
    ConfigurationError naming ``what``."""
    if not (isinstance(cell_id, str) and cell_id and cell_id.isprintable()
            and not any(c in cell_id for c in ',"/\\')):
        raise ConfigurationError(f"{what} must be a non-empty printable string without "
                                 f"',', '\"', '/' or '\\', got {cell_id!r}")
    return cell_id


def save_soc_rows(cell_id: str, path, times, soc_est, soc_ref, innovations) -> None:
    """Write one cell's per-sample estimates as a SoC CSV, one row per entry
    of the columns. Each float is written as its repr, formatted once per
    distinct bit pattern in its column (``_float_texts``). A cell id that
    ``check_cell_id`` refuses raises ConfigurationError before anything is
    written."""
    check_cell_id(cell_id)
    t, soc, ref, innov = map(_float_texts, (times, soc_est, soc_ref, innovations))
    rows = [f"{a},{cell_id},{b},{c},{d}" for a, b, c, d in zip(t, soc, ref, innov)]
    atomic_write_text(path, "\n".join([SOC_HEADER, *rows, ""]))
