"""Opt-in report: wall time of each acceptance criterion against its budget.

    python3 perfbench/acceptance.py

Run from the root of a cellsoc checkout. It runs the unmodified
tests/test_acceptance.py under pytest, reads the ``ACCEPTANCE n`` lines the
suite prints and the ``budget_s`` each criterion declares, prints one row per
criterion and writes perfbench/out/acceptance.json. It is not a workload and
gates nothing; the exit code is pytest's.
"""

from __future__ import annotations

import ast
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

from run import _git_state

# pytest's progress dots can precede a line on the same row, so no ^ anchor.
LINE = re.compile(r"ACCEPTANCE (\d+) \[(PASS|FAIL)\] (.*) \(([\d.]+)s\)$", re.M)


def declared_budgets(test_file: Path) -> dict[int, float]:
    """criterion number -> budget_s, read from the ``criterion(...)`` calls."""
    budgets = {}
    for node in ast.walk(ast.parse(test_file.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "criterion"
                and node.args and isinstance(node.args[0], ast.Constant)):
            for kw in node.keywords:
                if kw.arg == "budget_s" and isinstance(kw.value, ast.Constant):
                    budgets[int(node.args[0].value)] = float(kw.value.value)
    return budgets


def main() -> int:
    root = Path.cwd()
    test_file = root / "tests" / "test_acceptance.py"
    if not test_file.is_file():
        print(f"error: {test_file} not found; run from a cellsoc checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider", str(test_file)],
        cwd=root, env=env, capture_output=True, text=True, timeout=3600,
    )
    budgets = declared_budgets(test_file)
    rows = []
    for m in LINE.finditer(proc.stdout):
        n, wall = int(m.group(1)), float(m.group(4))
        budget = budgets.get(n)
        rows.append({"criterion": n, "status": m.group(2), "title": m.group(3),
                     "wall_s": wall, "budget_s": budget,
                     "share_of_budget": wall / budget if budget else None,
                     "within_budget": wall < budget if budget else None})
    print(f"{'n':>2}  {'status':6} {'wall_s':>8} {'budget_s':>9} {'share':>6}  title")
    for r in rows:
        share = f"{r['share_of_budget']:.0%}" if r["share_of_budget"] is not None else "n/a"
        print(f"{r['criterion']:>2}  {r['status']:6} {r['wall_s']:>8.1f} "
              f"{r['budget_s'] or float('nan'):>9.1f} {share:>6}  {r['title']}")
    out = Path(__file__).resolve().parent / "out"
    out.mkdir(exist_ok=True)
    record = {"criteria": rows, "pytest_exit": proc.returncode, "nproc": os.cpu_count(),
              "python": platform.python_version(), "git": _git_state(root)}
    (out / "acceptance.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if proc.returncode != 0:
        print(proc.stdout[-4000:], proc.stderr[-2000:], sep="\n", file=sys.stderr)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
