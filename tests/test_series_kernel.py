"""The generated sample loop of ``_filter_series`` against its list form, bit for bit.

``estimator._series_kernel(m)`` is the whole loop as straight-line code, with
the charge map of ``model._charge_map_lines`` inlined and a covariance step
that is reused at rest. It must return exactly what ``helpers.list_filter_series``
returns (``charge_map``, ``math.exp`` decays, ``list_predict`` and
``list_correct``, no reuse), with the same clamp counts, the same error and
the same warnings in the same order. Bits are compared through
``.view(np.int64)``, so a zero's sign and a NaN count.
"""

import math
import warnings
from bisect import bisect_right

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from cellsoc import (  # noqa: E402
    CellState,
    EkfConfig,
    EkfState,
    InvalidInputError,
    MonotoneCurve,
    NumericalFailureError,
    vqst_from_soc,
)
from cellsoc import estimator  # noqa: E402
from cellsoc.model import _charge_map_lines, charge_map  # noqa: E402
from helpers import list_filter_series, make_cell  # noqa: E402

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64).tolist()


def outcome(fn):
    """fn()'s result or error as (type, message), and every warning, in order, as
    (category, message, file it is attributed to)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result, error = fn(), None
        except (NumericalFailureError, InvalidInputError) as exc:
            result, error = None, (type(exc), str(exc))
    return result, error, [(w.category, str(w.message), w.filename) for w in caught]


def series_case(seed, n_rc, phases, q_rate, r, p0_kind, first_is_correction):
    """(ekf, params, cfg, voltage, current, dt, i_pred) for ``_filter_series``.

    ``phases`` holds (kind, samples, dt): a drive of random currents, some past
    the resistor grid (±50 A); a rest at 0 A; or a charge of 60 A that drives
    v_qst past the guard above the window. Voltages sit around the window and
    past it. P0 is the default diagonal, an asymmetric matrix, or a diagonal
    with signed-zero off-diagonals.
    """
    rng = np.random.default_rng(seed)
    taus = np.sort(rng.uniform(2.0, 30.0, n_rc))
    cell = make_cell(rc=tuple(zip(rng.uniform(0.005, 0.03, n_rc).tolist(), taus.tolist())))
    current, dt = [], []
    for kind, n, h in phases:
        if kind == "drive":
            current.append(rng.uniform(-70.0, 70.0, n))
        else:
            current.append(np.full(n, 0.0 if kind == "rest" else 60.0))
        dt.append(np.full(n, h))
    current, dt = np.concatenate(current), np.concatenate(dt)
    level = rng.uniform(cell.v_min - 0.1, cell.v_max + 0.1, current.size)
    voltage = level + 0.03 * current + 1e-3 * rng.standard_normal(current.size)
    base = EkfConfig.default(cell, initial_soc=float(rng.uniform(0.05, 0.95)), q_rate=q_rate)
    cfg = EkfConfig(base.process_noise_q, r, base.initial_covariance_p0, base.initial_state)
    p0 = base.initial_covariance_p0.copy()
    m = n_rc + 1
    if p0_kind == "asymmetric":
        p0 = p0 + 1e-6 * rng.standard_normal((m, m))
    elif p0_kind == "signed zeros":
        p0 = np.where(np.eye(m, dtype=bool), p0, -0.0)
    ekf = EkfState(base.initial_state.copy(), p0)
    i_pred = np.concatenate((0.5 * (current[1:] + current[:-1]), current[-1:]))
    if first_is_correction:
        dt, i_pred = dt[1:], i_pred[:-1]
    return ekf, cell, cfg, voltage, current, dt, i_pred


def reuse_count(case):
    """_filter_series(*case) against list_filter_series(*case), bit for bit, with
    the same clamp counts, error and warnings; returns how many samples reused
    the step."""
    got, got_error, got_warnings = outcome(lambda: estimator._filter_series(*case))
    want, want_error, want_warnings = outcome(lambda: list_filter_series(*case))
    assert got_error == want_error
    assert [w[:2] for w in got_warnings] == [w[:2] for w in want_warnings]
    if want is None:
        return 0
    for a, b in zip(got[:3], want[:3]):
        assert bits(a) == bits(b)
    assert bits(got[3].mean.v_qst) == bits(want[3].mean.v_qst)
    assert bits(got[3].mean.v_dyn_components) == bits(want[3].mean.v_dyn_components)
    assert bits(got[3].covariance) == bits(want[3].covariance)
    current_clamps, soc_clamps, reused = got[4]
    assert (current_clamps, soc_clamps) == want[4]
    return reused


phase = st.tuples(st.sampled_from(["drive", "rest", "rest", "charge"]),
                  st.integers(1, 300), st.sampled_from([0.5, 1.0, 2.0]))


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.lists(phase, min_size=1, max_size=5),
       st.sampled_from([0.0, 1e-8, 1e-6]), st.sampled_from([1e-4, 1e-2, 1e-8, math.inf]),
       st.sampled_from(["default", "asymmetric", "signed zeros"]), st.booleans())
@example(3, 2, [("charge", 200, 2.0), ("rest", 300, 1.0)], 1e-6, 1e-4, "default", True)
@example(3, 2, [("charge", 200, 2.0), ("rest", 300, 1.0)], 1e-6, math.inf, "default", False)
def test_generated_loop_is_the_list_form_bit_for_bit(seed, n_rc, phases, q_rate, r, p0_kind,
                                                     first):
    reuse_count(series_case(seed, n_rc, phases, q_rate, r, p0_kind, first))


@pytest.mark.parametrize("n_rc", [1, 2, 3])
@pytest.mark.parametrize("p0_kind", ["default", "asymmetric", "signed zeros"])
def test_settled_rests_reuse_the_step_bit_for_bit(n_rc, p0_kind):
    """A drive, a rest long enough for P to settle, a dt change, a rest again. With
    Q = 0 P shrinks for ever and never settles, so Q is 1e-6 per second here."""
    phases = [("drive", 100, 1.0), ("rest", 1500, 1.0), ("rest", 50, 2.0), ("drive", 20, 0.5),
              ("rest", 1500, 2.0)]
    for seed, first in ((11, True), (12, False)):
        assert reuse_count(series_case(seed, n_rc, phases, 1e-6, 1e-4, p0_kind, first)) > 1500


def test_warnings_name_the_caller_of_filter_series():
    """The loop only counts; ``_filter_series`` warns, naming its caller."""
    case = series_case(5, 2, [("charge", 40, 2.0)], 1e-6, 1e-4, "default", True)
    _, error, caught = outcome(lambda: estimator._filter_series(*case))
    assert error is None and caught
    assert {filename for *_, filename in caught} == {__file__}


def compiled_charge_map():
    """``_charge_map_lines`` compiled as ``cm(v, charge, cg, cc, ck) -> (v1, f0)``."""
    body = "".join(f"    {line}\n" for line in _charge_map_lines())
    namespace = {"bisect_right": bisect_right, "sqrt": math.sqrt}
    exec(f"def cm(v, charge, cg, cc, ck):\n{body}    return v, f0\n", namespace)
    return namespace["cm"]


CHARGE_MAP = compiled_charge_map()


@st.composite
def charge_map_cases(draw):
    """(curve, v0, charge): a random positive curve, a start voltage inside it, on
    a knot or on either end segment, and a charge of ±0.0, a small one, or one
    that crosses the window or leaves it."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = np.cumsum(rng.uniform(0.01, 1.0, n)) + rng.uniform(-5.0, 5.0)
    scale = 10.0 ** rng.uniform(-3, 5)
    values = scale * rng.uniform(0.01, 1.0, n)
    if draw(st.booleans()):
        values[rng.integers(n - 1) + np.arange(2)] = values[0]  # a flat segment
    curve = MonotoneCurve(grid, values)
    span = grid[-1] - grid[0]
    v0 = draw(st.one_of(st.floats(float(grid[0] - span), float(grid[-1] + span)),
                        st.sampled_from(grid.tolist())))
    total = curve._tables[2][-1]  # the integral over the window
    charge = draw(st.one_of(st.sampled_from([0.0, -0.0]),
                            st.floats(-0.01 * total, 0.01 * total),
                            st.floats(-3.0 * total, 3.0 * total)))
    return curve, v0, charge


@settings(max_examples=400, deadline=None, derandomize=True)
@given(charge_map_cases())
def test_charge_map_lines_are_charge_map_bit_for_bit(case):
    curve, v0, charge = case
    assert bits(CHARGE_MAP(v0, charge, *curve._tables)) == bits(
        charge_map(curve, v0, charge))


def test_state_of_another_size_is_refused():
    cell = make_cell()  # two RC groups
    cfg = EkfConfig.default(cell)
    ekf = EkfState(CellState.rest(vqst_from_soc(cell, 0.5), 1), cfg.initial_covariance_p0)
    with pytest.raises(InvalidInputError, match="state has 1 RC components"):
        estimator._filter_series(ekf, cell, cfg, np.array([3.3]), np.array([0.0]),
                                 np.array([]), np.array([]))
