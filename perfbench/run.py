"""cellsoc benchmark: one workload per invocation, closed loop, one thread.

    python3 perfbench/run.py --workload estimate_37h --seed 1 --seconds 10 --trace 0

Run from the root of a cellsoc checkout; the package is imported from its
``src`` directory. Inputs are generated from ``--seed`` during set-up. The
timed region repeats whole passes of the workload back to back until
``--seconds`` of pass time have elapsed (always at least one pass). Every
pass's outputs are checked outside the timed region.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs untraced
passes for half the time, then one pass with span tracing installed, and
prints the per-layer metrics. The last stdout line is one JSON object with
keys correct, attempted, failed and metrics. A run record with the raw
samples is written to perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

SETUP_REPEATS = 3
HERE = Path(__file__).resolve().parent


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _git_state(root: Path) -> dict:
    """HEAD and a dirty flag when root is itself a git work tree, else nulls."""
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != root.resolve():
            raise ValueError("not the top of a work tree")
        return {"head": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}
    except (OSError, ValueError, subprocess.SubprocessError):
        return {"head": None, "dirty": None}


def _summary(values) -> dict:
    """Median, p99 (nearest rank) and sample count of raw samples."""
    xs = sorted(values)
    rank = max(1, -(-99 * len(xs) // 100))
    return {"median": statistics.median(xs), "p99": xs[rank - 1], "n": len(xs)}


def _timed_passes(wl, clock, seconds: float, log: dict) -> None:
    """Closed loop: the next pass starts when the previous one (and its check) is done."""
    spent = 0.0
    while not log["raw_s"] or spent < seconds:
        with clock.measure() as region:
            attempted, failed, samples = wl.run_pass()
        spent += region.raw_s
        bad = _checked(wl, attempted)
        log["raw_s"].append(region.raw_s)
        log["ref_s"].append(region.scaled_s)
        log["samples"].append(samples)
        log["attempted"] += attempted
        log["failed"] += min(attempted, failed + bad)


def _checked(wl, attempted: int) -> int:
    """Violations found by the workload's checks; a check that raises fails the pass."""
    try:
        return wl.check_pass()
    except Exception:  # a malformed output must count, not abort the run
        traceback.print_exc()
        return attempted


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = _parse(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "cellsoc" / "__init__.py").is_file():
        print(f"error: no cellsoc source under {src}; run from a cellsoc checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np
    import cellsoc

    if Path(cellsoc.__file__).resolve().parent != (src / "cellsoc").resolve():
        print(f"error: cellsoc imported from {cellsoc.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    import_s = time.perf_counter() - t_start
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = HERE / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        record = _run(args, workloads.WORKLOADS[args.workload], work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        nproc=os.cpu_count(), python=platform.python_version(), numpy=np.__version__,
        git=_git_state(root),
    )
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for metric, m in record["report"].items():
        extra = f" (p99 {m['p99']:.6g}, n={m['n']})" if "n" in m else ""
        print(f"{args.workload} {metric} = {m['value']:.6g} {m['unit']}{extra}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


def _run(args, wl_cls, work: Path, import_s: float) -> dict:
    import tracing
    from refclock import NOMINAL_KERNEL_S, RefClock

    log = {"raw_s": [], "ref_s": [], "samples": [], "attempted": 0, "failed": 0}
    traced = bool(args.trace)
    tracer = tracing.Tracer() if traced else None
    clock = RefClock()

    setups = []
    for _ in range(1 if traced else SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        wl = wl_cls()
        wl.clock = clock
        if tracer:
            tracer.install()
        try:
            with clock.measure() as region:
                wl.setup(args.seed, work)
        finally:
            if tracer:
                tracer.uninstall()
        setups.append(region)

    _timed_passes(wl, clock, args.seconds / 2 if traced else args.seconds, log)
    # Workload-specific figures come from the untraced passes only.
    report = {key: {"value": value, "unit": unit} for key, (value, unit) in wl.quality().items()}
    # The import ran before numpy could sample; scale it by the first set-up's speed.
    import_ref_s = import_s * NOMINAL_KERNEL_S / setups[0].kernel_mean_s
    setup_ref = [import_ref_s + r.scaled_s for r in setups]
    setup_raw = [import_s + r.raw_s for r in setups]
    record = {"setup_s": {"import_raw_s": import_s, "raw_s": setup_raw, "ref_s": setup_ref,
                          "kernel_mean_s": [r.kernel_mean_s for r in setups]},
              "passes": log, "tick_latency_ns": list(getattr(wl, "latencies_ns", ()))}
    if traced:
        untraced = statistics.median(log["raw_s"])
        tracer.begin_measure()
        tracer.install()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                with tracer.span(tracing.PASS_SPAN):
                    t0 = time.perf_counter()
                    attempted, failed, samples = wl.run_pass()
                    traced_wall = time.perf_counter() - t0
            finally:
                tracer.uninstall()
        bad = _checked(wl, attempted)
        log["attempted"] += attempted
        log["failed"] += min(attempted, failed + bad)
        record["traced_pass"] = {"raw_s": traced_wall, "samples": samples}
        tracer.save(HERE / "out" / f"{args.workload}.spans.npz")
        metrics = _layer_metrics(tracer, caught, samples, traced_wall, untraced)
    else:
        ref_s, raw_s, samples = log["ref_s"], log["raw_s"], log["samples"]
        ref_rates = [n / t for n, t in zip(samples, ref_s)]
        raw_rates = [n / t for n, t in zip(samples, raw_s)]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        e2e = {
            "wall_ref_s": dict(value=statistics.median(ref_s), unit="s", **_summary(ref_s)),
            "samples_per_ref_s": dict(value=statistics.median(ref_rates), unit="1/s",
                                      **_summary(ref_rates)),
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "setup_s": dict(value=statistics.median(setup_ref), unit="s",
                            **_summary(setup_ref)),
        }
        metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in e2e.items()}
        report = {
            **e2e,
            "wall_s": dict(value=statistics.median(raw_s), unit="s", **_summary(raw_s)),
            "samples_per_s": dict(value=statistics.median(raw_rates), unit="1/s",
                                  **_summary(raw_rates)),
            "setup_raw_s": dict(value=statistics.median(setup_raw), unit="s",
                                **_summary(setup_raw)),
            **report,
        }
    report["error_rate"] = {"value": log["failed"] / max(1, log["attempted"]), "unit": "ratio"}
    record.update(report=report, metrics=metrics,
                  attempted=log["attempted"], failed=log["failed"])
    return record


def _layer_metrics(tracer, caught, samples, traced_wall, untraced_wall) -> dict:
    import tracing
    from cellsoc.errors import OutOfRangeWarning, SaturationWarning, SchedulingWarning

    stats = tracer.layer_stats()
    metrics = {}
    for name, s in stats.items():
        metrics[f"{name}.calls"] = {"value": s["calls"], "unit": "count"}
        metrics[f"{name}.self_us"] = {"value": s["self_us"], "unit": "us"}
        metrics[f"{name}.total_s"] = {"value": s["total_s"], "unit": "s"}

    def warned(cat):
        return sum(1 for w in caught if issubclass(w.category, cat))

    counters = dict(tracer.counters)
    counters["model.output_voltage.calls_per_sample"] = (
        stats["model.output_voltage"]["calls"] / samples)
    counters["multicell.stale_services"] = warned(SchedulingWarning)
    counters["model.out_of_range_warnings"] = warned(OutOfRangeWarning)
    counters["model.saturation_warnings"] = warned(SaturationWarning)
    counters["tracing.overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1.0)
    for name, unit in tracing.COUNTERS:
        metrics[name] = {"value": counters[name], "unit": unit}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
