"""The batch kernel adds left to right, whatever the interpreter's sum() does.

Python's ``sum()`` of floats adds left to right up to 3.11 and is compensated
(Neumaier) from 3.12 on. ``run_filter``, and so ``MultiCellEkf.run``, must
give the same bits under either, so each run here is repeated with
``builtins.sum`` replaced by the 3.12 algorithm and compared through
``.view(np.int64)``.
"""

import builtins
import math
import warnings

import numpy as np

from cellsoc import (
    CellState,
    EkfConfig,
    Trace,
    run_filter,
    simulate,
    vqst_from_soc,
)
from helpers import random_cell

BUILTIN_SUM = builtins.sum


def neumaier(terms):
    """CPython's sum() of floats from 3.12 on, transcribed."""
    f, c = 0 + terms[0], 0.0
    for x in terms[1:]:
        t = f + x
        if abs(f) >= abs(x):
            c += (f - t) + x
        else:
            c += (x - t) + f
        f = t
    if c and math.isfinite(c):
        f += c
    return f


def compensated_sum(iterable, /, start=0):
    """sum() as Python 3.12 computes it on floats; the builtin on anything else."""
    terms = list(iterable)
    if type(start) is int and start == 0 and terms and all(type(x) is float for x in terms):
        return neumaier(terms)
    return BUILTIN_SUM(terms, start)


def test_compensated_sum_compensates_floats_only():
    assert compensated_sum([1e16, 1.0, -1e16]) == 1.0
    assert compensated_sum([1, 2]) == 3 and compensated_sum([[1]], []) == [1]


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64).tolist()


def both_ways(monkeypatch, fn):
    """fn() with the builtin sum(), then with the compensated one."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        plain = fn()
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "sum", compensated_sum)
            compensated = fn()
    return plain, compensated


def filter_bits(soc, innovations, vqst, final):
    return [bits(soc), bits(innovations), bits(vqst), bits(final.mean.v_qst),
            bits(final.mean.v_dyn_components), bits(final.covariance)]


def noisy_trace(cell, seed, period=0.5, seconds=120.0):
    rng = np.random.default_rng(seed)
    t = np.arange(0.0, seconds, period)
    current = 3.0 * np.sin(2 * np.pi * t / rng.uniform(5.0, 20.0))
    start = CellState.rest(vqst_from_soc(cell, 0.6), cell.n_rc)
    trace = simulate(cell, Trace(t, current), start).trace
    return Trace(t, current, trace.voltage + 1e-3 * rng.standard_normal(t.size))


def test_run_filter_does_not_depend_on_sum(monkeypatch):
    for seed in range(3):
        cell = random_cell(np.random.default_rng(seed))
        trace = noisy_trace(cell, seed)
        cfg = EkfConfig.default(cell, initial_soc=0.5)
        plain, compensated = both_ways(monkeypatch, lambda: run_filter(cell, trace, cfg))
        assert (filter_bits(plain.soc, plain.innovations, plain.v_qst, plain.final)
                == filter_bits(compensated.soc, compensated.innovations, compensated.v_qst,
                               compensated.final))

