"""File formats: trace CSV, parameter/config JSON, atomic writes.

Trace CSV schema: header ``t_s,current_a,voltage_v`` (or ``t_s,current_a``
for voltage-less profiles), one sample per row, UTF-8, '.' decimal separator.
Floats are written with repr so a save/load round-trip is bit-exact.

Trace bodies are read in bulk by ``np.loadtxt``, whose float parser accepts
a subset of what ``float()`` accepts and gives the same bits. Any body it
rejects or shapes differently is re-read by the line parser, which decides
what is accepted and names the failing line.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np

from .curves import MonotoneCurve
from .errors import TraceParseError
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


def save_trace(trace: Trace, path) -> None:
    lines = []
    if trace.voltage is None:
        lines.append(PROFILE_HEADER)
        for t, i in zip(trace.timestamps.tolist(), trace.current.tolist()):
            lines.append(f"{t!r},{i!r}")
    else:
        lines.append(TRACE_HEADER)
        for t, i, v in zip(
            trace.timestamps.tolist(), trace.current.tolist(), trace.voltage.tolist()
        ):
            lines.append(f"{t!r},{i!r},{v!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")


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


def _curve_from_dict(d: dict) -> MonotoneCurve:
    return MonotoneCurve(np.array(d["grid"]), np.array(d["values"]))


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


def cell_parameters_from_dict(d: dict) -> CellParameters:
    return CellParameters(
        v_min=float(d["v_min"]),
        v_max=float(d["v_max"]),
        capacitance=_curve_from_dict(d["capacitance"]),
        rc_groups=tuple(RcGroup(float(g["r"]), float(g["tau"])) for g in d["rc_groups"]),
        resistor=_curve_from_dict(d["resistor"]),
        delta_q=float(d["delta_q"]),
        nominal_capacity_c_n=float(d["nominal_capacity_c_n"]),
        nominal_voltage_v_n=float(d["nominal_voltage_v_n"]),
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


def ekf_config_from_dict(d: dict) -> EkfConfig:
    st = d["initial_state"]
    return EkfConfig(
        process_noise_q=np.array(d["process_noise_q"]),
        measurement_noise_r=float(d["measurement_noise_r"]),
        initial_covariance_p0=np.array(d["initial_covariance_p0"]),
        initial_state=CellState(float(st["v_qst"]), np.array(st["v_dyn_components"])),
    )


def save_ekf_config(cfg: EkfConfig, path) -> None:
    atomic_write_text(path, json.dumps(ekf_config_to_dict(cfg), indent=2, sort_keys=True) + "\n")


def load_ekf_config(path) -> EkfConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return ekf_config_from_dict(json.load(fh))


def load_profile_spec(path) -> ProfileSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return ProfileSpec.from_dict(json.load(fh))


def save_soc_rows(rows, path) -> None:
    """Write per-tick estimation rows: (t, cell_id, soc_est, soc_ref, innovation)."""
    lines = [SOC_HEADER]
    for t, cell_id, soc_est, soc_ref, innov in rows:
        lines.append(f"{float(t)!r},{cell_id},{float(soc_est)!r},{float(soc_ref)!r},{float(innov)!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")
