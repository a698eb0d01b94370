"""Command-line front end: identify | simulate | estimate | multicell | budget.

Exit codes: 0 success, 1 usage, 2 data error, 3 numerical failure. Outputs are
written atomically (temp-then-rename); a failed command leaves no partial
files. Every data-producing command drops a small run manifest next to its
output so runs are reproducible.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import traceio
from .errors import (
    CellSocError,
    ConfigurationError,
    FitConvergenceError,
    InvalidInputError,
    NumericalFailureError,
)
from .estimator import EkfConfig, run_filter
from .identification import IdentificationConfig, identify
from .model import CellState, coulomb_count, simulate, vqst_from_soc
from .multicell import check_cell_id, max_cells
from .profiles import build_profile

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

_NUMERICAL_ERRORS = (NumericalFailureError, FitConvergenceError)
# Every other package error, and any file or JSON syntax error, is a data error.
_DATA_ERRORS = (CellSocError, OSError, json.JSONDecodeError)


class _UsageExit(SystemExit):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise _UsageExit(EXIT_USAGE)


@dataclass
class RunManifest:
    """What a command ran with; written beside its outputs. An input whose
    option was not given is left out."""

    command: str
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    seed: int | None = None

    def write(self, path) -> None:
        doc = {
            "command": self.command,
            "inputs": {name: path for name, path in sorted(self.inputs.items()) if path},
            "outputs": dict(sorted(self.outputs.items())),
            "seed": self.seed,
        }
        traceio.atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _manifest_path(primary_output) -> Path:
    p = Path(primary_output)
    return p.with_name(p.name + ".manifest.json")


def cmd_identify(args) -> int:
    manifest = RunManifest("identify", inputs={"trace": args.trace, "config": args.config})
    cfg = IdentificationConfig()
    if args.config is not None:
        cfg = traceio.load_identification_config(args.config)
    if args.n_rc is not None:
        cfg = dataclasses.replace(cfg, n_rc=args.n_rc)
    trace = traceio.load_trace(args.trace)
    result = identify(trace, cfg)
    for stage in result.report.stages:
        for note in stage.notes:
            print(f"note [{stage.stage}]: {note}", file=sys.stderr)
    traceio.save_cell_parameters(result.params, args.out_params)
    traceio.atomic_write_text(args.out_report, result.report.to_text())
    manifest.outputs = {"params": str(args.out_params), "report": str(args.out_report)}
    manifest.write(_manifest_path(args.out_params))
    print(f"identified {result.params.n_rc} RC groups, "
          f"window [{result.params.v_min:.4f}, {result.params.v_max:.4f}] V, "
          f"delta_q {result.params.delta_q:.1f} C")
    return EXIT_OK


def cmd_simulate(args) -> int:
    manifest = RunManifest("simulate", seed=args.seed, inputs={
        "params": args.params, "profile": args.profile, "spec": args.spec})
    params = traceio.load_cell_parameters(args.params)
    if args.profile:
        profile = traceio.load_trace(args.profile)
    elif args.spec:
        profile = build_profile(traceio.load_profile_spec(args.spec), seed=args.seed)
    else:
        raise InvalidInputError("one of --profile or --spec is required")
    initial = CellState.rest(vqst_from_soc(params, args.initial_soc), params.n_rc)
    result = simulate(params, profile, initial)
    traceio.save_trace(result.trace, args.out)
    manifest.outputs["trace"] = str(args.out)
    manifest.write(_manifest_path(args.out))
    if result.saturation_events:
        print(f"{len(result.saturation_events)} saturation events (state clamped)",
              file=sys.stderr)
    print(f"simulated {len(result.trace)} samples over "
          f"{result.trace.timestamps[-1] - result.trace.timestamps[0]:.1f} s")
    return EXIT_OK


def cmd_estimate(args) -> int:
    manifest = RunManifest("estimate", inputs={
        "params": args.params, "trace": args.trace, "ekf_config": args.ekf_config})
    params = traceio.load_cell_parameters(args.params)
    trace = traceio.load_trace(args.trace)
    if args.ekf_config:
        cfg = traceio.load_ekf_config(args.ekf_config)
    else:
        cfg = EkfConfig.default(params, initial_soc=args.initial_soc)
    run = run_filter(params, trace, cfg)
    if args.ref_soc0 is not None:
        ref = coulomb_count(trace, params.nominal_capacity_c_n, args.ref_soc0)
    else:
        ref = np.full(len(trace), np.nan)
    traceio.save_soc_rows(args.cell_id, args.out, run.times, run.soc, ref, run.innovations)
    manifest.outputs["soc"] = str(args.out)
    manifest.write(_manifest_path(args.out))
    print(f"estimated {run.times.size} samples; final SoC {run.soc[-1]:.4f}")
    return EXIT_OK


def cmd_multicell(args) -> int:
    manifest = RunManifest("multicell", inputs={"config": args.config})
    engine, traces, refs = traceio.load_multicell_config(args.config)
    series = engine.run(traces, ref_soc0=refs)
    cell_ids = engine.config.cells
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for cid in cell_ids:
        s = series[cid]
        out = outdir / f"soc_{cid}.csv"
        traceio.save_soc_rows(cid, out, s.times, s.soc_est, s.soc_ref, s.innovations)
        manifest.outputs[cid] = str(out)
    manifest.write(outdir / "manifest.json")
    print(f"estimated {len(cell_ids)} cells, "
          f"{sum(series[c].times.size for c in cell_ids)} ticks total")
    return EXIT_OK


def cmd_budget(args) -> int:
    print(max_cells(args.f_max, args.t_slot))
    return EXIT_OK


def _cell_id_arg(text: str) -> str:
    try:
        return check_cell_id(text)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache  # parse_args keeps no state on the parser
def _build_parser() -> _Parser:
    parser = _Parser(prog="cellsoc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identify", help="fit cell parameters from a pulse-test trace")
    p.add_argument("trace", help="measured trace CSV (t_s,current_a,voltage_v)")
    p.add_argument("--config", help="identification config JSON")
    p.add_argument("--n-rc", type=int, default=None, help="override the number of RC groups")
    p.add_argument("--out-params", required=True, help="output cell parameters JSON")
    p.add_argument("--out-report", required=True, help="output fit report (text)")
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("simulate", help="integrate a cell model along a current profile")
    p.add_argument("--params", required=True, help="cell parameters JSON")
    p.add_argument("--profile", help="current profile CSV (t_s,current_a)")
    p.add_argument("--spec", help="profile spec JSON (alternative to --profile)")
    p.add_argument("--initial-soc", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0, help="seed for synthetic profile segments")
    p.add_argument("--out", required=True, help="output trace CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="run the EKF over a measured trace")
    p.add_argument("--params", required=True, help="cell parameters JSON")
    p.add_argument("--trace", required=True, help="measured trace CSV")
    p.add_argument("--ekf-config", help="EKF config JSON (default: derived from the params)")
    p.add_argument("--initial-soc", type=float, default=0.5,
                   help="initial SoC estimate when no EKF config is given")
    p.add_argument("--ref-soc0", type=float, default=None,
                   help="true initial SoC for the coulomb-counting reference column")
    p.add_argument("--cell-id", type=_cell_id_arg, default="cell0",
                   help="cell id written in every row (printable, no , \" / or \\)")
    p.add_argument("--out", required=True, help="output SoC CSV")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("multicell", help="round-robin multi-cell estimation")
    p.add_argument("--config", required=True, help="scheduler config JSON")
    p.add_argument("--out-dir", required=True, help="directory for per-cell SoC CSVs")
    p.set_defaults(func=cmd_multicell)

    p = sub.add_parser("budget", help="maximum cells one engine can serve")
    p.add_argument("f_max", type=float, help="maximum signal frequency (Hz)")
    p.add_argument("t_slot", type=float, help="round-robin slice length (s)")
    p.set_defaults(func=cmd_budget)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageExit as exc:
        return int(exc.code)
    try:
        return args.func(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except KeyError as exc:
        print(f"data error: missing config field {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:  # a size field larger than this machine can hold
        print(f"data error: out of memory: {exc}", file=sys.stderr)
        return EXIT_DATA
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
