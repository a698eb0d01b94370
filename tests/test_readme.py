"""The README's ``CellFilter`` BMS-loop example, run as written."""

import re
import textwrap
from pathlib import Path

import numpy as np

from cellsoc import EkfConfig, correct, estimate_soc, make_filter, predict
from helpers import make_cell

README = Path(__file__).resolve().parents[1] / "README.md"


def bms_loop_example() -> str:
    """The README's one ```python block, dedented."""
    (block,) = re.findall(r"^( *)```python\n(.*?)^\1```$", README.read_text(),
                          flags=re.DOTALL | re.MULTILINE)
    return textwrap.dedent(block[1])


def test_the_bms_loop_example_publishes_the_free_function_chain():
    """Two cells read in turns: every SoC the example publishes equals, bit for
    bit, a chain of the free predict, correct and estimate_soc on that cell."""
    cells = {"a": make_cell(), "b": make_cell(base=4500.0, r0=0.04)}
    rng = np.random.default_rng(7)
    readings = [(0.25 * (k + 1), "ab"[k % 2], float(rng.uniform(-3.0, 1.0)),
                 float(rng.uniform(3.2, 3.4))) for k in range(60)]
    published = []
    exec(bms_loop_example(), {"cells": cells, "readings": readings,
                              "publish": lambda cid, soc: published.append((cid, soc))})

    states, last_t, want = {}, {}, []
    for t, cid, current, voltage in readings:
        cell = cells[cid]
        cfg = EkfConfig.default(cell, initial_soc=0.5)
        state = states.get(cid, make_filter(cfg))
        if cid in last_t:
            state = predict(state, cell, current, t - last_t[cid], cfg)
        states[cid] = state = correct(state, cell, voltage, current, cfg)
        last_t[cid] = t
        want.append((cid, estimate_soc(state, cell)))
    assert len(published) == len(readings)
    assert [(cid, np.float64(soc).view(np.int64)) for cid, soc in published] == [
        (cid, np.float64(soc).view(np.int64)) for cid, soc in want]
