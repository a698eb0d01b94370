"""The benchmark's workloads: input generation, one timed pass, output checks.

Each workload generates its inputs from the seed in ``setup`` and hands them
to the program only as CSV/JSON files or ``Measurement`` objects. ``run_pass``
is the timed unit; it returns (attempted, failed, samples). ``check_pass``
runs outside the timed region and returns how many of the pass's operations
produced output that violates a correctness check. The runner sets ``clock``
(a ``refclock.RefClock``) on each workload before set-up.

Import this module only after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import json
import math
import time
import traceback
from pathlib import Path

import numpy as np

import cellsoc.cli
from cellsoc import profiles
from cellsoc import (
    CellParameters,
    CellSocError,
    CellState,
    EkfConfig,
    Measurement,
    MonotoneCurve,
    MultiCellEkf,
    ProfileSpec,
    RcGroup,
    SchedulerConfig,
    correct,
    estimate_soc,
    make_filter,
    predict,
    simulate,
    vqst_from_soc,
)
from cellsoc.traceio import save_cell_parameters, save_trace

T_SLOT = 0.01          # s, the paper's slot: 25 cells at 2 Hz
PACK_CELLS = 25
PACK_CYCLE_S = 120.0   # drive-cycle period: 12,000 ticks per pass
PACK_PEAK_A = 20.0
ORACLE_CELLS = 3
FLEET_CELLS = 16
EXACT = 1e-10           # criterion 2: batch == online == oracle


# ---------------------------------------------------------------------------
# Synthetic cells (A123-like magnitudes, two RC groups).
# ---------------------------------------------------------------------------

def _cell(v_min, v_max, base, bump, center, width, rc, r0) -> CellParameters:
    grid = np.linspace(v_min, v_max, 256)
    cap = base + bump * np.exp(-0.5 * ((grid - center) / width) ** 2)
    i_grid = np.linspace(-50.0, 50.0, 129)
    return CellParameters.from_curves(
        v_min, v_max, MonotoneCurve(grid, cap),
        tuple(RcGroup(r, tau) for r, tau in rc), MonotoneCurve(i_grid, r0 * i_grid),
    )


def fixed_cell() -> CellParameters:
    """The validation cell: 2.9-3.6 V window, capacitance peak at 3.3 V."""
    return _cell(2.9, 3.6, 4000.0, 30000.0, 3.3, 0.08, ((0.012, 60.0), (0.02, 700.0)), 0.03)


def random_cell(rng: np.random.Generator) -> CellParameters:
    v_min = rng.uniform(2.7, 3.0)
    v_max = v_min + rng.uniform(0.5, 0.9)
    tau1 = rng.uniform(50.0, 120.0)
    tau2 = rng.uniform(450.0, 1500.0)
    return _cell(
        v_min, v_max,
        base=rng.uniform(2500.0, 6000.0),
        bump=rng.uniform(12000.0, 40000.0),
        center=rng.uniform(v_min + 0.25 * (v_max - v_min), v_min + 0.75 * (v_max - v_min)),
        width=rng.uniform(0.05, 0.15),
        rc=((rng.uniform(0.006, 0.02), tau1), (rng.uniform(0.01, 0.03), tau2)),
        r0=rng.uniform(0.01, 0.05),
    )


def true_soc(cell: CellParameters, v_qst: np.ndarray) -> np.ndarray:
    """SoC by the paper's definition, vectorised independently of the program."""
    g, c = cell.capacitance.grid, cell.capacitance.values
    knots = np.concatenate(([0.0], np.cumsum(0.5 * (c[1:] + c[:-1]) * np.diff(g))))
    x = np.clip(np.asarray(v_qst, dtype=float), g[0], g[-1])
    idx = np.clip(np.searchsorted(g, x, side="right") - 1, 0, g.size - 2)
    y = c[idx] + (c[idx + 1] - c[idx]) * (x - g[idx]) / (g[idx + 1] - g[idx])
    return (knots[idx] + 0.5 * (c[idx] + y) * (x - g[idx])) / knots[-1]


def coulomb_reference(t: np.ndarray, i: np.ndarray, c_n: float, soc0: float) -> np.ndarray:
    inc = 0.5 * (i[1:] + i[:-1]) * np.diff(t)
    return soc0 + np.concatenate(([0.0], np.cumsum(inc))) / c_n


def read_soc_csv(path) -> dict:
    """Columns of a SoC CSV (t_s,cell_id,soc_est,soc_ref,v_innov) as arrays."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    cols = list(zip(*rows)) if rows else [()] * len(header)
    out = {}
    for name, col in zip(header, cols):
        out[name] = list(col) if name == "cell_id" else np.array(col, dtype=float)
    return out


def read_trace_csv(path) -> tuple[np.ndarray, ...]:
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        data = [line.split(",") for line in fh if line.strip()]
    return tuple(np.array(col, dtype=float) for col in zip(*data))


def _cli(argv) -> int:
    """One in-process CLI call; looked up at call time so tracing sees it."""
    try:
        return cellsoc.cli.main(argv)
    except Exception:  # any escape from the CLI is a failed operation
        traceback.print_exc()
        return -1


# ---------------------------------------------------------------------------
# estimate_37h
# ---------------------------------------------------------------------------

class Estimate37h:
    """`cellsoc estimate` on the paper's 37 h validation trace (133,201 rows at 1 s)."""

    name = "estimate_37h"
    initial_soc = 0.8
    soc_rms_err = math.nan

    def setup(self, seed: int, workdir: Path) -> None:
        self.dir = workdir
        self.cell = fixed_cell()
        spec = ProfileSpec(kind="validation", sample_period_s=1.0, peak_a=44.0,
                           bandwidth_hz=0.4, f_low_hz=0.01, us06_duration_s=600.0,
                           us06_sample_period_s=1.0)
        profile = profiles.build_profile(spec, seed=seed)
        initial = CellState.rest(vqst_from_soc(self.cell, 1.0), self.cell.n_rc)
        truth = simulate(self.cell, profile, initial)
        self.t = truth.trace.timestamps
        self.i = truth.trace.current
        self.soc_true = true_soc(self.cell, truth.v_qst)
        self.params = workdir / "cell.json"
        self.trace = workdir / "validation.csv"
        self.out = workdir / "soc.csv"
        save_cell_parameters(self.cell, self.params)
        save_trace(truth.trace, self.trace)
        warm = workdir / "warm.csv"
        save_trace(truth.trace.slice(0, 2000), warm)
        _cli(self._argv(warm, workdir / "warm_soc.csv"))

    def _argv(self, trace, out):
        return ["estimate", "--params", str(self.params), "--trace", str(trace),
                "--initial-soc", str(self.initial_soc), "--ref-soc0", "1.0",
                "--out", str(out)]

    def run_pass(self):
        if self.out.exists():
            self.out.unlink()
        rc = _cli(self._argv(self.trace, self.out))
        return 1, int(rc != 0), self.t.size

    def check_pass(self) -> int:
        """Criterion 3 against the simulated truth, plus the reference column."""
        if not self.out.exists():
            return 1
        got = read_soc_csv(self.out)
        if got["t_s"].shape != self.t.shape or not np.array_equal(got["t_s"], self.t):
            return 1
        ref = coulomb_reference(self.t, self.i, self.cell.nominal_capacity_c_n, 1.0)
        err = np.abs(got["soc_est"] - self.soc_true)
        self.soc_rms_err = float(np.sqrt(np.mean(err ** 2)))
        h = 3600.0
        rests = ((self.t > 6 * h) & (self.t < 18 * h)) | ((self.t > 24 * h) & (self.t < 36 * h))
        ok = (
            np.max(np.abs(got["soc_ref"] - ref)) <= 1e-9
            and err[self.t <= 6 * h][-1] < 0.02
            and np.max(err[rests]) < 0.01
            and np.max(err[self.t > 36 * h]) < 0.10
            and Path(str(self.out) + ".manifest.json").exists()
        )
        return int(not ok)

    def quality(self) -> dict:
        return {"soc_rms_err": (self.soc_rms_err, "SoC")}


# ---------------------------------------------------------------------------
# The 25-cell pack, shared by pack25_batch and pack25_online.
# ---------------------------------------------------------------------------

class Pack:
    """25 distinct cells, each with its own band-limited drive-cycle trace."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.ids = tuple(f"c{j:02d}" for j in range(PACK_CELLS))
        self.cells, self.traces, self.soc0, self.init_soc, self.v_qst = {}, {}, {}, {}, {}
        f_max = 0.0
        spec = ProfileSpec(kind="us06-like", us06_duration_s=PACK_CYCLE_S,
                           us06_sample_period_s=0.1, bandwidth_hz=2.0, peak_a=PACK_PEAK_A)
        for j, cid in enumerate(self.ids):
            cell = random_cell(rng)
            soc0 = float(rng.uniform(0.4, 0.6))
            profile = profiles.build_profile(spec, seed=seed * 1000 + j)
            # The spectrum is taken over exactly one period: the closing sample
            # repeats the first, and with it energy leaks past the 2 Hz band edge.
            f_max = max(f_max, profiles.max_frequency(profile.slice(0, len(profile) - 1)))
            truth = simulate(cell, profile, CellState.rest(vqst_from_soc(cell, soc0), cell.n_rc))
            self.cells[cid] = cell
            self.traces[cid] = truth.trace
            self.v_qst[cid] = truth.v_qst
            self.soc0[cid] = soc0
            self.init_soc[cid] = soc0 + (0.1 if j % 2 else -0.1)
        self.f_max = f_max
        self.sched = SchedulerConfig(t_slot=T_SLOT, cells=self.ids, f_max=f_max)
        self.cfgs = {cid: EkfConfig.default(self.cells[cid], initial_soc=self.init_soc[cid])
                     for cid in self.ids}
        # The BMS loop: tick k services cell k mod N at (k+1) t_slot with the
        # latest sample of that cell (zero-order hold), as MultiCellEkf.run does.
        horizon = min(float(tr.timestamps[-1]) for tr in self.traces.values())
        self.schedule = []   # (now, Measurement)
        self.sample_idx = []  # trace index fed at each tick
        k = 0
        while True:
            now = (k + 1) * T_SLOT
            if now > horizon:
                break
            cid = self.ids[k % PACK_CELLS]
            tr = self.traces[cid]
            idx = int(np.searchsorted(tr.timestamps, now + 1e-9 * T_SLOT, side="right")) - 1
            self.schedule.append((now, Measurement(cid, float(tr.current[idx]),
                                                   float(tr.voltage[idx]))))
            self.sample_idx.append(idx)
            k += 1
        self.oracle_ids = tuple(rng.choice(self.ids, size=ORACLE_CELLS, replace=False))
        self._batch_ref = self._online_ref = None

    def engine(self) -> MultiCellEkf:
        return MultiCellEkf(self.sched, {c: (self.cells[c], self.cfgs[c]) for c in self.ids})

    def cell_ticks(self, cid: str) -> np.ndarray:
        return np.arange(self.ids.index(cid), len(self.schedule), PACK_CELLS)

    def online_reference(self) -> np.ndarray:
        """SoC after every tick from an in-process engine fed the schedule."""
        if self._online_ref is None:
            eng = self.engine()
            self._online_ref = np.array([eng.tick(now, m).soc for now, m in self.schedule])
        return self._online_ref

    def batch_reference(self) -> np.ndarray:
        """SoC after every tick from an in-process MultiCellEkf.run."""
        if self._batch_ref is None:
            series = self.engine().run(dict(self.traces))
            out = np.empty(len(self.schedule))
            for cid in self.ids:
                out[self.cell_ticks(cid)] = series[cid].soc_est
            self._batch_ref = out
        return self._batch_ref

    def oracle_violations(self, soc: np.ndarray) -> np.ndarray:
        """Per tick: True where a sampled cell disagrees with a lone single-cell EKF."""
        bad = np.zeros(len(self.schedule), dtype=bool)
        period = PACK_CELLS * T_SLOT
        for cid in self.oracle_ids:
            cell, cfg = self.cells[cid], self.cfgs[cid]
            state = make_filter(cfg)
            ticks = self.cell_ticks(cid)
            expect = np.empty(ticks.size)
            for n, k in enumerate(ticks):
                m = self.schedule[k][1]
                state = predict(state, cell, m.current, period, cfg)
                state = correct(state, cell, m.voltage, m.current, cfg)
                expect[n] = estimate_soc(state, cell)
            bad[ticks] = ~(np.abs(soc[ticks] - expect) <= EXACT)
        return bad

    def soc_rms_err(self, soc: np.ndarray) -> float:
        err = np.empty(len(self.schedule))
        idx = np.array(self.sample_idx)
        for cid in self.ids:
            ticks = self.cell_ticks(cid)
            err[ticks] = soc[ticks] - true_soc(self.cells[cid], self.v_qst[cid][idx[ticks]])
        return float(np.sqrt(np.mean(err ** 2)))


class Pack25Batch:
    """`cellsoc multicell` on the 25-cell pack at (f_max <= 2 Hz, t_slot = 10 ms)."""

    name = "pack25_batch"
    soc_rms_err = math.nan

    def setup(self, seed: int, workdir: Path) -> None:
        self.pack = pack = Pack(seed)
        cells = []
        for cid in pack.ids:
            save_cell_parameters(pack.cells[cid], workdir / f"cell_{cid}.json")
            save_trace(pack.traces[cid], workdir / f"trace_{cid}.csv")
            cells.append({"id": cid, "params": f"cell_{cid}.json", "trace": f"trace_{cid}.csv",
                          "initial_soc": pack.init_soc[cid], "ref_soc0": pack.soc0[cid]})
        doc = {"t_slot_s": T_SLOT, "f_max_hz": pack.f_max, "cells": cells}
        self.config = workdir / "pack.json"
        self.config.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        self.out = workdir / "out"
        # Warm-up: the first two cells over the first 2 s of their traces.
        for cid in pack.ids[:2]:
            save_trace(pack.traces[cid].slice(0, 21), workdir / f"warm_{cid}.csv")
        warm = dict(doc, cells=[dict(c, trace=f"warm_{c['id']}.csv") for c in cells[:2]])
        warm_cfg = workdir / "warm.json"
        warm_cfg.write_text(json.dumps(warm) + "\n", encoding="utf-8")
        _cli(["multicell", "--config", str(warm_cfg), "--out-dir", str(workdir / "warm_out")])

    def run_pass(self):
        for f in self.out.glob("*") if self.out.exists() else ():
            f.unlink()
        rc = _cli(["multicell", "--config", str(self.config), "--out-dir", str(self.out)])
        return 1, int(rc != 0), len(self.pack.schedule)

    def check_pass(self) -> int:
        """Every cell's batch SoC equals its online SoC; sampled cells match the oracle."""
        pack = self.pack
        soc = np.full(len(pack.schedule), np.nan)
        idx = np.array(pack.sample_idx)
        ok = (self.out / "manifest.json").exists()
        for cid in pack.ids:
            path = self.out / f"soc_{cid}.csv"
            if not path.exists():
                return 1
            got = read_soc_csv(path)
            ticks = pack.cell_ticks(cid)
            if got["soc_est"].size != ticks.size:
                return 1
            soc[ticks] = got["soc_est"]
            tr = pack.traces[cid]
            ref = coulomb_reference(tr.timestamps, tr.current,
                                    pack.cells[cid].nominal_capacity_c_n, pack.soc0[cid])
            times = np.array([pack.schedule[k][0] for k in ticks])
            ok = ok and np.array_equal(got["t_s"], times) and bool(
                np.max(np.abs(got["soc_ref"] - ref[idx[ticks]])) <= 1e-9)
        ok = ok and bool(np.all(np.abs(soc - pack.online_reference()) <= EXACT))
        ok = ok and not pack.oracle_violations(soc).any()
        self.soc_rms_err = pack.soc_rms_err(soc)
        return int(not ok)

    def quality(self) -> dict:
        return {"soc_rms_err": (self.soc_rms_err, "SoC")}


class Pack25Online:
    """The same pack driven tick by tick from memory, as a BMS loop would."""

    name = "pack25_online"
    soc_rms_err = math.nan

    def setup(self, seed: int, workdir: Path) -> None:
        self.pack = Pack(seed)
        self.latencies_ns: list[int] = []
        warm = self.pack.engine()
        for now, m in self.pack.schedule[:2 * PACK_CELLS]:
            warm.tick(now, m)

    def run_pass(self):
        ns = time.perf_counter_ns
        ref = self.clock
        engine = self.pack.engine()
        lat = []
        soc = np.full(len(self.pack.schedule), np.nan)
        failed = 0
        for k, (now, m) in enumerate(self.pack.schedule):
            spent = ref.spent
            t0 = ns()
            try:
                soc[k] = engine.tick(now, m).soc
            except Exception:  # a raising tick is a failed operation
                if not failed:
                    traceback.print_exc()
                failed += 1
            # A reference-kernel sample that landed inside the tick is not the tick's.
            lat.append(ns() - t0 - round((ref.spent - spent) * 1e9))
        self.latencies_ns += lat
        self._soc = soc
        return len(soc), failed, len(soc)

    def check_pass(self) -> int:
        """Per tick: online SoC equals the batch engine's and the oracle's."""
        pack = self.pack
        bad = ~(np.abs(self._soc - pack.batch_reference()) <= EXACT)
        bad |= pack.oracle_violations(self._soc)
        self.soc_rms_err = pack.soc_rms_err(self._soc)
        return int(np.count_nonzero(bad))

    def quality(self) -> dict:
        lat_us = np.array(self.latencies_ns, dtype=float) / 1e3
        p50 = float(np.percentile(lat_us, 50))
        p99 = float(np.percentile(lat_us, 99))
        return {
            "soc_rms_err": (self.soc_rms_err, "SoC"),
            "tick_p50_us": (p50, "us"),
            "tick_p99_us": (p99, "us"),
            # The paper's budget with the measured tick as the smallest t_slot.
            "cells_at_2hz": (math.floor(1e6 / (2.0 * 2.0 * p99)), "cells"),
            "tick_samples": (lat_us.size, "count"),
        }


# ---------------------------------------------------------------------------
# identify_fleet
# ---------------------------------------------------------------------------

class IdentifyFleet:
    """`cellsoc identify` then `cellsoc simulate` for each of 16 distinct cells."""

    name = "identify_fleet"
    fit_v_rms_mv = math.nan

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.cells, self.meas, self.files = [], [], []
        for j in range(FLEET_CELLS):
            cell = random_cell(rng)
            spec = ProfileSpec(kind="identification", sample_period_s=4.0,
                               charge_amplitudes_a=(2.0,), delta_q_c=cell.delta_q,
                               t_empty_s=21600.0, rest1_s=9000.0, rest2_s=9000.0)
            profile = profiles.build_profile(spec, seed=seed)
            truth = simulate(cell, profile, CellState.rest(cell.v_min, cell.n_rc))
            files = {k: workdir / f"{k}_{j}.{ext}" for k, ext in
                     (("pulse", "csv"), ("profile", "csv"), ("params", "json"),
                      ("report", "txt"), ("sim", "csv"))}
            save_trace(truth.trace, files["pulse"])
            save_trace(profile, files["profile"])
            self.cells.append(cell)
            self.meas.append(truth.trace)
            self.files.append(files)
        f = self.files[0]
        _cli(["identify", str(f["pulse"]), "--out-params", str(f["params"]),
              "--out-report", str(f["report"])])
        _cli(["simulate", "--params", str(f["params"]), "--profile", str(f["profile"]),
              "--initial-soc", "0.0", "--out", str(f["sim"])])

    def run_pass(self):
        failed = 0
        for f in self.files:
            for key in ("params", "sim"):
                if f[key].exists():
                    f[key].unlink()
            failed += _cli(["identify", str(f["pulse"]), "--out-params", str(f["params"]),
                            "--out-report", str(f["report"])]) != 0
            failed += _cli(["simulate", "--params", str(f["params"]), "--profile",
                            str(f["profile"]), "--initial-soc", "0.0",
                            "--out", str(f["sim"])]) != 0
        return 2 * len(self.files), failed, sum(len(tr) for tr in self.meas)

    def check_pass(self) -> int:
        """Criterion 4 per identified cell; each re-simulation aligned and finite."""
        from cellsoc.traceio import load_cell_parameters

        bad = 0
        rms = []
        for cell, meas, f in zip(self.cells, self.meas, self.files):
            try:
                got = load_cell_parameters(f["params"])
            except (OSError, ValueError, KeyError, CellSocError):
                bad += 2
                continue
            bad += int(not _criterion_4(cell, got))
            if not f["sim"].exists():
                bad += 1
                continue
            t, _, v = read_trace_csv(f["sim"])
            aligned = np.array_equal(t, meas.timestamps) and np.all(np.isfinite(v))
            bad += int(not aligned)
            if aligned:
                rms.append(float(np.sqrt(np.mean((v - meas.voltage) ** 2))) * 1e3)
        self.fit_v_rms_mv = float(np.median(rms)) if rms else math.nan
        return bad

    def quality(self) -> dict:
        return {"fit_v_rms_mv": (self.fit_v_rms_mv, "mV")}


def _criterion_4(truth: CellParameters, got: CellParameters) -> bool:
    """Two RC groups, sum R within 5 %, each tau within 10 %, C(v) RMS < 3 %, v_n within a cell."""
    if len(got.rc_groups) != 2:
        return False
    sum_true = sum(g.r for g in truth.rc_groups)
    sum_est = sum(g.r for g in got.rc_groups)
    if abs(sum_est - sum_true) > 0.05 * sum_true:
        return False
    for est, true in zip(got.rc_groups, truth.rc_groups):
        if abs(est.tau - true.tau) > 0.10 * true.tau:
            return False
    common = np.linspace(got.v_min, got.v_max, 96)
    est_c = got.capacitance.eval(common)
    true_c = truth.capacitance.eval(common)
    rms = np.sqrt(np.mean((est_c - true_c) ** 2)) / np.sqrt(np.mean(true_c ** 2))
    width = (got.v_max - got.v_min) / 95
    return bool(rms < 0.03 and abs(got.nominal_voltage_v_n - truth.nominal_voltage_v_n) <= width)


WORKLOADS = {w.name: w for w in (Estimate37h, Pack25Batch, Pack25Online, IdentifyFleet)}
