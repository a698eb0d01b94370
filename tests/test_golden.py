"""Golden output hashes: small fixed runs through ``cellsoc.cli.main`` and the
engine, with the sha256 of every byte they write pinned in ``golden.json``.

The runs are a one-hour ``estimate``, a three-cell ``multicell``, ``identify``
then ``simulate`` of one cell, and 200 ticks of a three-cell engine, whose
(time, SoC, innovation) bits are hashed as one float64 array. Run manifests
are left out, as they hold absolute paths. The pins are kept per numpy major
version; a major without pins of its own is held to numpy 2's.

A change that moves a number on purpose re-pins with
``PYTHONPATH=src:tests python tests/test_golden.py`` and names the re-pinned
outputs in CHANGES.md.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from cellsoc import (
    CellState, EkfConfig, Measurement, MultiCellEkf, SchedulerConfig, Trace, simulate,
    vqst_from_soc)
from cellsoc.cli import main
from cellsoc.traceio import save_cell_parameters, save_trace
from helpers import identification_trace, make_cell

GOLDEN = Path(__file__).with_name("golden.json")

PACK = {"a": make_cell(), "b": make_cell(base=4500.0, r0=0.04),
        "c": make_cell(rc=((0.012, 20.0), (0.02, 100.0)))}


def drive(t, phase=0.0):
    """A discharge that swings between -0.25 A and -1.75 A."""
    return -1.0 + 0.75 * np.sin(2.0 * np.pi * t / 600.0 + phase)


def measured(cell, t, soc0, phase=0.0):
    """The trace ``simulate`` gives ``cell`` on ``drive`` from rest at ``soc0``."""
    initial = CellState.rest(vqst_from_soc(cell, soc0), cell.n_rc)
    return simulate(cell, Trace(t, drive(t, phase)), initial).trace


def write_outputs(d: Path) -> None:
    """Every CLI run, writing into ``d``."""
    cell = make_cell()
    save_cell_parameters(cell, d / "cell.json")
    save_trace(measured(cell, np.arange(3601.0), 0.9), d / "hour.csv")
    assert main(["estimate", "--params", str(d / "cell.json"), "--trace", str(d / "hour.csv"),
                 "--initial-soc", "0.7", "--ref-soc0", "0.9", "--out", str(d / "soc.csv")]) == 0

    t_slot, doc = 0.5, {"t_slot_s": 0.5, "f_max_hz": 0.25, "cells": []}
    for j, (cid, params) in enumerate(PACK.items()):
        save_cell_parameters(params, d / f"{cid}.json")
        t = (j + 1) * t_slot + len(PACK) * t_slot * np.arange(400.0)
        save_trace(measured(params, t, 0.8, phase=j), d / f"{cid}.csv")
        doc["cells"].append({"id": cid, "params": f"{cid}.json", "trace": f"{cid}.csv",
                             "initial_soc": 0.6 + 0.1 * j, "ref_soc0": 0.8})
    (d / "pack.json").write_text(json.dumps(doc))
    assert main(["multicell", "--config", str(d / "pack.json"), "--out-dir", str(d / "pack")]) == 0

    save_trace(identification_trace(cell, sample_period=8.0)[0], d / "pulse.csv")
    assert main(["identify", str(d / "pulse.csv"), "--out-params", str(d / "fit.json"),
                 "--out-report", str(d / "fit.txt")]) == 0
    (d / "spec.json").write_text(json.dumps(
        {"kind": "constant", "amplitude_a": 1.5, "duration_s": 600.0, "sample_period_s": 1.0}))
    assert main(["simulate", "--params", str(d / "fit.json"), "--spec", str(d / "spec.json"),
                 "--initial-soc", "0.2", "--out", str(d / "sim.csv")]) == 0


def ticked_bits() -> bytes:
    """(time, SoC, innovation) of 200 ticks of a three-cell engine, as float64 bytes."""
    t_slot = 0.5
    sched = SchedulerConfig(t_slot=t_slot, cells=tuple(PACK), f_max=0.25)
    engine = MultiCellEkf(sched, {cid: (params, EkfConfig.default(params, 0.6 + 0.1 * j))
                                  for j, (cid, params) in enumerate(PACK.items())})
    rows = []
    for k in range(200):
        now = (k + 1) * t_slot
        i = float(drive(now))
        out = engine.tick(now, Measurement(engine.due_cell, i, 3.25 + 0.002 * (k % 7)))
        rows.append((out.time, out.soc, out.innovation))
    return np.array(rows, dtype=np.float64).tobytes()


def hashes(d: Path) -> dict[str, str]:
    write_outputs(d)
    got = {path.relative_to(d).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
           for path in sorted(d.rglob("*"))
           if path.is_file() and not path.name.endswith("manifest.json")}
    got["ticks"] = hashlib.sha256(ticked_bits()).hexdigest()
    return got


def pins() -> dict[str, str]:
    golden = json.loads(GOLDEN.read_text())
    return golden.get(np.__version__.split(".")[0], golden["2"])


def test_every_output_byte_is_pinned(tmp_path):
    got = hashes(tmp_path)
    assert got == pins(), "actual hashes:\n" + json.dumps(got, indent=1, sort_keys=True)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        got = hashes(Path(d))
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden[np.__version__.split(".")[0]] = got
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(got)} hashes for numpy {np.__version__}", file=sys.stderr)
