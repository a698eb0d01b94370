"""The generated sample loop of ``CellFilter.series`` against its list form, bit for bit.

``estimator._source(m)`` holds the whole loop as straight-line code, with
the charge map of ``model._charge_map_lines`` inlined and a covariance step
that is reused at rest. It must return exactly what ``helpers.list_filter_series``
returns (``charge_map``, ``math.exp`` decays, ``list_predict`` and
``list_correct``, no reuse), with the same clamp counts, the same error and
the same warnings in the same order. The one-sample step that the per-step
API calls, written from the same sample body into the same source, must give
one sample of the loop bit for bit, with its clamp counts, and given no
voltage the list form's predict (r infinite). Bits are compared through
``.view(np.int64)``, so a zero's sign and a NaN count.
"""

import ast
import math
import re
import warnings
from bisect import bisect_right
from types import SimpleNamespace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from cellsoc import (  # noqa: E402
    CellFilter,
    CellState,
    ConfigurationError,
    EkfConfig,
    EkfState,
    InvalidInputError,
    MonotoneCurve,
    NumericalFailureError,
    Trace,
    correct,
    interval_currents,
    make_filter,
    predict,
    simulate,
    vqst_from_soc,
)
from cellsoc import estimator  # noqa: E402
from cellsoc.model import (  # noqa: E402
    DEFAULT_VQST_GUARD,
    _charge_map_lines,
    charge_map,
)
from helpers import (  # noqa: E402
    assert_run_filter_matches_step_chain,
    held_series,
    list_filter_series,
    make_cell,
    step_chain,
    warning_counts,
)

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
    """(ekf, params, cfg, voltage, current, dt, i_pred) for ``helpers.held_series``.

    ``phases`` holds (kind, samples, dt): a drive of random currents, some past
    the resistor grid (±50 A); a rest at 0 A; or a charge of 60 A that drives
    v_qst past the guard above the window. Voltages sit around the window and
    past it. P0 is the default diagonal, a dense symmetric matrix (the
    default plus the symmetric part of 1e-6 noise), or a diagonal with
    signed-zero off-diagonals. ``first_is_correction`` makes the first step
    zero-length, as ``run_filter``'s is.
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
    base = EkfConfig.default(cell, initial_soc=float(rng.uniform(0.05, 0.95)))
    m = n_rc + 1
    cfg = EkfConfig(q_rate * np.eye(m), r, base.initial_covariance_p0, base.initial_state)
    p0 = base.initial_covariance_p0.copy()
    if p0_kind == "dense":
        noise = 1e-6 * rng.standard_normal((m, m))
        p0 = p0 + 0.5 * (noise + noise.T)
    elif p0_kind == "signed zeros":
        p0 = np.where(np.eye(m, dtype=bool), p0, -0.0)
    ekf = EkfState(base.initial_state.copy(), p0)
    i_pred = np.concatenate((0.5 * (current[1:] + current[:-1]), current[-1:]))
    if first_is_correction:
        dt[0] = 0.0
    return ekf, cell, cfg, voltage, current, dt, i_pred


def reuse_count(case):
    """held_series(*case) against list_filter_series(*case), bit for bit, with
    the same clamp counts, error and warnings; returns how many samples reused
    the step."""
    got, got_error, got_warnings = outcome(lambda: held_series(*case))
    want, want_error, want_warnings = outcome(lambda: list_filter_series(*case))
    assert got_error == want_error
    assert [w[:2] for w in got_warnings] == [w[:2] for w in want_warnings]
    if want is None:
        return 0
    for a, b in zip(got[:2], want[:2]):
        assert bits(a) == bits(b)
    assert bits(got[2].mean.v_qst) == bits(want[2].mean.v_qst)
    assert bits(got[2].mean.v_dyn_components) == bits(want[2].mean.v_dyn_components)
    assert bits(got[2].covariance) == bits(want[2].covariance)
    current_clamps, soc_clamps, reused = got[3]
    assert (current_clamps, soc_clamps) == want[3]
    return reused


phase = st.tuples(st.sampled_from(["drive", "rest", "rest", "charge"]),
                  st.integers(1, 300), st.sampled_from([0.5, 1.0, 2.0]))


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.lists(phase, min_size=1, max_size=5),
       st.sampled_from([0.0, 1e-8, 1e-6]), st.sampled_from([1e-4, 1e-2, 1e-8]),
       st.sampled_from(["default", "dense", "signed zeros"]), st.booleans())
@example(3, 2, [("charge", 200, 2.0), ("rest", 300, 1.0)], 1e-6, 1e-4, "default", True)
def test_generated_loop_is_the_list_form_bit_for_bit(seed, n_rc, phases, q_rate, r, p0_kind,
                                                     first):
    reuse_count(series_case(seed, n_rc, phases, q_rate, r, p0_kind, first))


@pytest.mark.parametrize("n_rc", [1, 2, 3])
@pytest.mark.parametrize("p0_kind", ["default", "dense", "signed zeros"])
def test_settled_rests_reuse_the_step_bit_for_bit(n_rc, p0_kind):
    """A drive, a rest long enough for P to settle, a dt change, a rest again. With
    Q = 0 P shrinks for ever and never settles, so Q is 1e-6 per second here."""
    phases = [("drive", 100, 1.0), ("rest", 1500, 1.0), ("rest", 50, 2.0), ("drive", 20, 0.5),
              ("rest", 1500, 2.0)]
    for seed, first in ((11, True), (12, False)):
        assert reuse_count(series_case(seed, n_rc, phases, 1e-6, 1e-4, p0_kind, first)) > 1500


PREDICTED = (NumericalFailureError, "predicted covariance lost positive semidefiniteness")


def failing_case(seed, n_rc, kind, first):
    """A 20-sample drive of ``series_case`` at 2 s made extreme so that one check
    of the loop fails, and the error it must raise.

    "predicted": Q = 1e308 per second, so Q*dt overflows at the first predict.
    "indefinite": P0 = -I, so the predicted diagonal is negative, also after a
    zero-length first step. "huge": P0 is all 1e308, so the predicted row
    sums overflow. "state": P0 = u u' +
    I/100 with u = (2, -1, 0, ...), a gain on v_qst near 2, and a voltage
    glitch of 1.7e308 V on the first sample, so v_qst overflows; "rc state":
    u = (-1, 2, 0, ...), so the first RC state overflows instead.
    """
    ekf, cell, cfg, voltage, current, dt, i_pred = series_case(
        seed, n_rc, [("drive", 20, 2.0)], 1e-6, 1e-4, "default", first)
    m = n_rc + 1
    q, p0 = cfg.process_noise_q, ekf.covariance
    if kind == "predicted":
        q, error = 1e308 * np.eye(m), (NumericalFailureError,
                                       "process noise Q * dt is not finite (dt = 2.0)")
    elif kind == "indefinite":
        p0, error = -np.eye(m), PREDICTED
    elif kind == "huge":
        p0, error = np.full((m, m), 1e308), PREDICTED
    else:
        u = np.zeros(m)
        u[:2] = (2.0, -1.0) if kind == "state" else (-1.0, 2.0)
        p0 = np.outer(u, u) + 0.01 * np.eye(m)
        voltage = voltage.copy()
        voltage[0] = 1.7e308
        error = (InvalidInputError, "cell state must be finite")
    cfg = EkfConfig(q, cfg.measurement_noise_r, cfg.initial_covariance_p0, cfg.initial_state)
    return (EkfState(ekf.mean, p0), cell, cfg, voltage, current, dt, i_pred), error


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(1, 3),
       st.sampled_from(["predicted", "indefinite", "huge", "state", "rc state"]), st.booleans())
@example(1, 2, "predicted", False)
@example(1, 2, "predicted", True)
@example(2, 1, "indefinite", True)
@example(2, 3, "indefinite", False)
@example(3, 2, "huge", True)
@example(3, 2, "huge", False)
@example(4, 2, "state", True)
@example(4, 3, "state", False)
@example(5, 1, "rc state", True)
@example(5, 3, "rc state", False)
def test_failing_checks_raise_as_the_list_form(seed, n_rc, kind, first):
    """Each check of the loop, written as a comparison, raises where the list
    form's ``isfinite``, ``min`` and ``<=`` checks do, with the same message."""
    case, error = failing_case(seed, n_rc, kind, first)
    reuse_count(case)
    assert outcome(lambda: held_series(*case))[1] == error


def generated_function(m, name):
    """The definition of ``name`` in ``estimator._source(m)``."""
    return next(node for node in ast.walk(ast.parse(estimator._source(m)))
                if isinstance(node, ast.FunctionDef) and node.name == name)


def call_name(call: ast.Call) -> str:
    """The callee of ``call`` as source, with ``f(...).tobytes`` for a call's bytes."""
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Call):
        return f"{ast.unparse(func.value.func)}(...).{func.attr}"
    return ast.unparse(func)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_sample_loops_call_only_what_they_must(m):
    """There is one sample loop, a correction-only sample being a zero-length
    step. Per sample, it calls the curve lookups, roots and decays, the settled
    check's bytes and the error constructors, and nothing else: a check written
    with ``isfinite``, ``min`` or ``max`` again fails here. The one-sample
    step has no loop and calls the same, bar the settled check's bytes."""
    loops = [node for node in ast.walk(generated_function(m, "filter_series"))
             if isinstance(node, ast.For)]
    assert len(loops) == 1
    calls = {call_name(node) for statement in loops[0].body
             for node in ast.walk(statement) if isinstance(node, ast.Call)}
    assert calls == {"bisect_right", "sqrt", "exp", "np.array", "np.array(...).tobytes",
                     "NumericalFailureError", "InvalidInputError"}
    step = generated_function(m, "filter_step")
    assert not [node for node in ast.walk(step) if isinstance(node, (ast.For, ast.While))]
    calls = {call_name(node) for node in ast.walk(step) if isinstance(node, ast.Call)}
    assert calls == {"bisect_right", "sqrt", "exp", "NumericalFailureError", "InvalidInputError"}


@pytest.mark.parametrize("m", [2, 3, 4])
def test_generated_code_holds_the_upper_triangle_of_p(m):
    """The source holds no symmetry check: ``CellFilter.ekf`` refuses an
    asymmetric P where a state enters a filter. Past the unpacking of P, the
    loop and the step name no entry of P, Q*h or the previous P below the
    diagonal, and the loop copies the m(m+1)/2 entries of the upper triangle
    of P before a predict."""
    assert "covariance must be symmetric" not in estimator._source(m)
    for name in ("filter_series", "filter_step"):
        body = generated_function(m, name).body
        unpack = next(k for k, node in enumerate(body)
                      if isinstance(node, ast.Assign) and ast.unparse(node.value) == "p")
        nodes = [node for statement in body[unpack + 1:] for node in ast.walk(statement)]
        entries = (re.fullmatch(r"(?:prev_)?[pq]_(\d+)_(\d+)", node.id)
                   for node in nodes if isinstance(node, ast.Name))
        assert not [e[0] for e in entries if e and int(e[1]) > int(e[2])]
        copies = [target.id for node in nodes if isinstance(node, ast.Assign)
                  for target in node.targets
                  if isinstance(target, ast.Name) and target.id.startswith("prev_")]
        upper = [f"prev_p_{a}_{b}" for a in range(m) for b in range(a, m)]
        assert sorted(copies) == (sorted(upper) if name == "filter_series" else [])


@st.composite
def one_sample_cases(draw):
    """(m, cell, constants, (v, dyn, p), (h, u, z, i)): one sample of a size-m
    state. v_qst lies in the window or past the guard on either side; P is
    dense, indefinite (-I), all 1e308, or u u' + I/100 with u = (2, -1, 0,
    ...), a gain near 2 on v_qst (P is symmetric, as a filter's state must
    be: ``CellFilter.ekf`` refuses one that is not); Q is 0, 1e-6 or 1e308
    per second and r 1e-4, 1e-8 or infinite (a correction raises on it); dt is 0 or
    up to an hour; both currents reach 80 A, past the resistor curve's 50 A,
    and the measured one may sit on a grid point of that curve or next to
    one, where the branches of the step's drop lookup meet; the voltage lies
    around the window or is 1.7e308 V."""
    m = draw(st.sampled_from([2, 3, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    taus = np.sort(rng.uniform(2.0, 30.0, m - 1))
    cell = make_cell(rc=tuple(zip(rng.uniform(0.005, 0.03, m - 1).tolist(), taus.tolist())))
    v = {"inside": rng.uniform(cell.v_min, cell.v_max),
         "below": cell.v_min - DEFAULT_VQST_GUARD - rng.uniform(0.0, 1.0),
         "above": cell.v_max + DEFAULT_VQST_GUARD + rng.uniform(0.0, 1.0),
         }[draw(st.sampled_from(["inside", "below", "above"]))]
    a = rng.standard_normal((m, m))
    p = 1e-4 * (a @ a.T) + np.diag([0.04] + [1e-4] * (m - 1))
    kind = draw(st.sampled_from(["dense", "dense", "indefinite", "huge", "gain"]))
    if kind == "indefinite":
        p = -np.eye(m)
    elif kind == "huge":
        p = np.full((m, m), 1e308)
    elif kind == "gain":
        u = np.zeros(m)
        u[:2] = 2.0, -1.0
        p = np.outer(u, u) + 0.01 * np.eye(m)
    q, r = draw(st.sampled_from([0.0, 1e-6, 1e308])), draw(st.sampled_from([1e-4, 1e-8, math.inf]))
    constants = estimator._Constants.of(cell, EkfConfig.default(cell))._replace(
        q_rate=(q * np.eye(m)).ravel().tolist(), r=r)
    h = draw(st.one_of(st.just(0.0), st.floats(1e-3, 3600.0)))
    u = draw(st.floats(-80.0, 80.0))
    knots = [x for g in cell.resistor.grid.tolist()
             for x in (math.nextafter(g, -math.inf), g, math.nextafter(g, math.inf))]
    i = draw(st.one_of(st.just(u), st.floats(-80.0, 80.0), st.sampled_from(knots)))
    z = draw(st.one_of(st.floats(cell.v_min - 1.0, cell.v_max + 1.0), st.just(1.7e308)))
    state = (v, rng.normal(0.0, 0.05, m - 1).tolist(), p.ravel().tolist())
    return m, cell, constants, state, (h, u, z, i)


def overflowing_q_case():
    """``one_sample_cases``' form of ``make_cell`` with Q = 1e300 I and one sample
    over 1e10 s at 1,000 A, far past the resistor curve's ±50 A: Q*dt is not
    finite, which raises before the measurement, so nothing counts the current."""
    cell = make_cell()
    cfg = EkfConfig.default(cell)
    constants = estimator._Constants.of(cell, cfg)._replace(
        q_rate=(1e300 * np.eye(3)).ravel().tolist())
    start = make_filter(cfg)
    state = (start.mean.v_qst, start.mean.v_dyn_components.tolist(),
             start.covariance.ravel().tolist())
    return 3, cell, constants, state, (1e10, 1000.0, 3.3, 1000.0)


OVERFLOWING_Q = overflowing_q_case()


def list_predict_only(cell, q_rate, v, dyn, p, h, u):
    """The state bits and error of ``list_filter_series`` with r infinite, which
    predicts only, on one sample over h seconds at the current u."""
    m = len(dyn) + 1
    p = np.array(p).reshape(m, m)
    off = SimpleNamespace(process_noise_q=np.array(q_rate).reshape(m, m),
                          measurement_noise_r=math.inf)
    ekf = EkfState(CellState(v, np.array(dyn)), p)
    run, error, _ = outcome(lambda: list_filter_series(
        ekf, cell, off, np.array([0.0]), np.array([u]), np.array([h]), np.array([u])))
    return (None if run is None else state_bits(run[2])), error


@settings(max_examples=300, deadline=None, derandomize=True)
@given(one_sample_cases())
@example(OVERFLOWING_Q)
def test_the_bound_step_is_one_sample_of_the_loop_bit_for_bit(case):
    """The step gives the loop's state and innovation bits on one sample, or its
    error, and the loop's clamp counts, also when it raises. The same step
    given no voltage gives the state bits or error of the list form with r
    infinite, a NaN innovation and no counts."""
    m, cell, constants, (v, dyn, p), (h, u, z, i) = case
    drop = cell.resistor.eval(i)
    counts, innovation, v_qst = [0, 0, 0], [0.0], [0.0]
    filter_series, filter_step = estimator._binder(m)(*constants)
    want, want_error, _ = outcome(lambda: filter_series(
        v, dyn, p, counts, (h,), (u,), (z,), (i,), (drop,), innovation, v_qst))
    step_counts = [None, None]
    got, got_error, _ = outcome(lambda: filter_step(v, dyn, p, step_counts, h, u, z, i))
    assert got_error == want_error
    assert step_counts == counts[:2]
    step_counts = [None, None]
    predicted, predicted_error, _ = outcome(
        lambda: filter_step(v, dyn, p, step_counts, h, u, None, i))
    assert step_counts == [0, 0]
    want_predicted, want_predicted_error = list_predict_only(cell, constants.q_rate, v, dyn, p,
                                                             h, u)
    assert predicted_error == want_predicted_error
    if predicted is not None:
        v2, dyn2, p2, innovation2 = predicted
        assert bits([v2, *dyn2, *p2]) == want_predicted
        assert math.isnan(innovation2)
    if got_error is not None:
        return
    i_lo, i_hi, _, _, soc_lo, soc_hi = constants.bounds
    v1, dyn1, p1, innovation1 = got
    assert (bits([v1, *dyn1, *p1, innovation1])
            == bits([want[0], *want[1], *want[2], innovation[0]]))
    assert bits(v_qst) == bits([v1])
    assert counts[:2] == [int(i < i_lo or i > i_hi), int(v1 < soc_lo or v1 > soc_hi)]


@st.composite
def held_filter_cases(draw):
    """``one_sample_cases``' cell, constants and state, its config, and one to
    six calls of ``CellFilter`` (predict, correct or service), the first on
    that case's sample and the rest on samples drawn the same way."""
    m, cell, constants, (v, dyn, p), sample = draw(one_sample_cases())
    samples = st.tuples(st.one_of(st.just(0.0), st.floats(1e-3, 3600.0)),
                        st.floats(-80.0, 80.0),
                        st.one_of(st.floats(cell.v_min - 1.0, cell.v_max + 1.0), st.just(1.7e308)),
                        st.floats(-80.0, 80.0))
    kinds = draw(st.lists(st.sampled_from(["predict", "correct", "service"]), min_size=1,
                          max_size=6))
    more = draw(st.lists(samples, min_size=len(kinds) - 1, max_size=len(kinds) - 1))
    q = np.array(constants.q_rate).reshape(m, m)
    if math.isinf(constants.r):  # EkfConfig refuses it, and a correction raises on it
        cfg = SimpleNamespace(process_noise_q=q, measurement_noise_r=constants.r)
    else:
        base = EkfConfig.default(cell)
        cfg = EkfConfig(q, constants.r, base.initial_covariance_p0, base.initial_state)
    ekf = EkfState(CellState(v, np.array(dyn)), np.array(p).reshape(m, m))
    return cell, cfg, ekf, list(zip(kinds, [sample, *more]))


def overflowing_q_calls():
    """``held_filter_cases``' form of ``OVERFLOWING_Q``: a service of its sample,
    which raises, then a correct at its current, which warns of the clamp."""
    m, cell, _, _, sample = OVERFLOWING_Q
    base = EkfConfig.default(cell)
    cfg = EkfConfig(1e300 * np.eye(m), base.measurement_noise_r, base.initial_covariance_p0,
                    base.initial_state)
    return cell, cfg, make_filter(cfg), [("service", sample), ("correct", sample)]


def held_outcome(fn):
    """``outcome`` of fn, with predict's ``ConfigurationError`` among the errors."""
    def guarded():
        try:
            return fn()
        except ConfigurationError as exc:
            return exc
    result, error, caught = outcome(guarded)
    if isinstance(result, ConfigurationError):
        result, error = None, (type(result), str(result))
    return result, error, caught


def held_call(held, kind, h, u, z, i):
    if kind == "predict":
        return held.predict(u, h)
    if kind == "correct":
        return held.correct(z, i)
    return held.service(h, i, z)


def state_bits(ekf):
    return bits([ekf.mean.v_qst, *ekf.mean.v_dyn_components, *ekf.covariance.ravel()])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(held_filter_cases())
@example(overflowing_q_calls())
def test_a_held_filter_is_the_free_functions_and_the_loop_bit_for_bit(case):
    """A held ``CellFilter`` runs any interleaving of predict, correct and
    service. Each call gives the state, innovation, error and warnings (with
    the file they name) of the free ``predict`` or ``correct`` on the same
    state. A correct or a service gives the state, innovation, error and
    warnings of ``CellFilter.series`` on that one sample (over 0 s for a
    correct), and a predict the state and error of the list form with r
    infinite. A call that raises changes nothing."""
    cell, cfg, ekf, calls = case
    held = CellFilter(cell, cfg, ekf)
    for kind, (h, u, z, i) in calls:
        got, error, caught = held_outcome(lambda: held_call(held, kind, h, u, z, i))
        if kind == "predict":
            want, want_error, want_caught = held_outcome(lambda: predict(ekf, cell, u, h, cfg))
            assert (got, error, caught) == (None, want_error, want_caught)
            if h > 0.0:  # the list form, with the measurement switched off
                listed, listed_error = list_predict_only(
                    cell, cfg.process_noise_q.ravel().tolist(), ekf.mean.v_qst,
                    ekf.mean.v_dyn_components.tolist(), ekf.covariance.ravel().tolist(), h, u)
                assert listed_error == error
                assert want is None or state_bits(want) == listed
        else:
            dt = h if kind == "service" else 0.0  # a correct is a service over 0 s
            run, want_error, want_caught = outcome(lambda: held_series(
                ekf, cell, cfg, np.array([z]), np.array([i]), np.array([dt]), np.array([i])))
            assert (error, caught) == (want_error, want_caught)
            want = None if run is None else run[2]
            if run is not None:
                assert bits(got) == bits(run[0][0])
            if kind == "correct":
                free, free_error, free_caught = outcome(lambda: correct(ekf, cell, z, i, cfg))
                assert (free_error, free_caught) == (error, caught)
                assert free is None or state_bits(free) == state_bits(want)
        if error is None:
            ekf = want
        assert state_bits(held.ekf) == state_bits(ekf)


@pytest.mark.parametrize("m", range(2, 8))
def test_loop_and_step_hold_to_the_numpy_oracle_at_every_state_size(m):
    """For m - 1 = 1 to 6 RC groups (``--n-rc`` has no upper bound), the loop
    (``run_filter``) and the step (``predict`` then ``correct``) agree with the
    numpy oracle's step chain within 1e-12 on a 300-sample drive with gaps up
    to an hour and currents past the resistor curve, and warn as it does."""
    rng = np.random.default_rng(m)
    taus = np.sort(rng.uniform(5.0, 900.0, m - 1))
    cell = make_cell(rc=tuple(zip(rng.uniform(0.003, 0.02, m - 1).tolist(), taus.tolist())))
    gaps = np.where(rng.random(299) < 0.02, rng.uniform(600.0, 3600.0, 299),
                    rng.uniform(0.5, 10.0, 299))
    t = np.concatenate(([0.0], np.cumsum(gaps)))
    current = rng.uniform(-60.0, 60.0, t.size) * (rng.random(t.size) < 0.7)
    start = CellState.rest(vqst_from_soc(cell, 0.6), cell.n_rc)
    truth = simulate(cell, Trace(t, current), start).trace
    trace = Trace(t, truth.current, truth.voltage + 1e-3 * rng.standard_normal(t.size))
    cfg = EkfConfig.default(cell, initial_soc=0.5)
    assert_run_filter_matches_step_chain(cell, trace, cfg)

    def per_step():
        i_eff, state, v_qst = interval_currents(trace.current), make_filter(cfg), []
        for k in range(t.size):
            if k:
                state = predict(state, cell, i_eff[k - 1], float(t[k] - t[k - 1]), cfg)
            state = correct(state, cell, float(trace.voltage[k]), float(trace.current[k]), cfg)
            v_qst.append(state.mean.v_qst)
        return np.array(v_qst), state

    (v_qst, final), got = warning_counts(per_step)
    (_, _, want_v_qst, want_final), want = warning_counts(step_chain, cell, trace, cfg)
    assert got == want
    assert np.max(np.abs(v_qst - want_v_qst)) <= 1e-12
    assert np.max(np.abs(final.mean.v_dyn_components - want_final.mean.v_dyn_components)) <= 1e-12
    assert np.max(np.abs(final.covariance - want_final.covariance)) <= 1e-12


def test_warnings_name_the_caller_of_filter_series():
    """The loop only counts; ``CellFilter.series`` warns, naming the caller of
    its caller (``helpers.held_series``)."""
    case = series_case(5, 2, [("charge", 40, 2.0)], 1e-6, 1e-4, "default", True)
    _, error, caught = outcome(lambda: held_series(*case))
    assert error is None and caught
    assert {filename for *_, filename in caught} == {__file__}


def compiled_charge_map():
    """``_charge_map_lines`` compiled as ``cm(v, charge, cg, cc, ck) -> (v1, f0)``:
    its setup lines, then its body."""
    setup, lines = _charge_map_lines()
    body = "".join(f"    {line}\n" for line in [*setup, *lines])
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


def value_or_error(fn):
    """The bits of fn()'s result, or None and its error as (type, message)."""
    try:
        return bits(fn()), None
    except ZeroDivisionError as exc:
        return None, (type(exc), str(exc))


# A curve falling to 1e-12 of its start, and the charge one ulp below its
# integral: the radicand c0*c0 + 2*slope*dq rounds to -2.2e-16, is set to 0.0,
# and C(v1) = 0 fails the division by it.
SINKING = MonotoneCurve([0.0, 0.447488222510825],
                        [1.0201056859227466, 1.0201056859227466 * 1e-12])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(charge_map_cases())
@example((SINKING, 0.0, 0.22824264008360612))
def test_charge_map_lines_are_charge_map_bit_for_bit(case):
    curve, v0, charge = case
    assert value_or_error(lambda: CHARGE_MAP(v0, charge, *curve._tables)) == value_or_error(
        lambda: charge_map(curve, v0, charge))


def test_state_of_another_size_is_refused():
    """A state of another size is refused, and so are columns of unequal lengths,
    before the loop runs: the filter's state stays as it was, and nothing warns."""
    cell = make_cell()  # two RC groups
    cfg = EkfConfig.default(cell)
    ekf = EkfState(CellState.rest(vqst_from_soc(cell, 0.5), 1), cfg.initial_covariance_p0)
    with pytest.raises(InvalidInputError, match="state has 1 RC components"):
        held_series(ekf, cell, cfg, np.array([3.3]), np.array([0.0]),
                                 np.array([0.0]), np.array([0.0]))
    held = CellFilter(cell, cfg)
    before = state_bits(held.ekf)
    # The drive current of 80 A lies past the resistor curve, so a loop that ran would warn.
    for lengths in ((3, 6, 6, 6), (6, 6, 6, 5), (6, 6, 0, 6)):
        dt, i_pred, voltage, current = (np.full(n, x) for n, x in zip(lengths, (1.0, 80.0, 3.3,
                                                                                80.0)))
        _, error, caught = outcome(lambda: held.series(dt, i_pred, voltage, current))
        assert error == (InvalidInputError, "dt, i_pred, voltage and current must have one "
                         f"length, got {', '.join(map(str, lengths))}")
        assert caught == []
        assert state_bits(held.ekf) == before


@pytest.mark.parametrize("column, value, message", [
    (0, math.nan, "dt[1] must be finite and >= 0, got nan"),
    (0, math.inf, "dt[1] must be finite and >= 0, got inf"),
    (0, -5.0, "dt[1] must be finite and >= 0, got -5.0"),
    (0, -1e6, "dt[1] must be finite and >= 0, got -1000000.0"),
    (1, math.nan, "i_pred[1] must be finite, got nan"),
    (1, -math.inf, "i_pred[1] must be finite, got -inf"),
    (2, math.nan, "voltage[1] must be finite, got nan"),
    (2, math.inf, "voltage[1] must be finite, got inf"),
    (3, math.nan, "current[1] must be finite, got nan"),
    (3, -math.inf, "current[1] must be finite, got -inf"),
])
def test_series_refuses_an_entry_that_is_not_finite_or_a_negative_dt(column, value, message):
    """A column entry that is not finite, or a negative dt, is refused before the
    loop runs, with an error naming its column and sample: the filter's state
    stays as it was, and nothing warns."""
    cell = make_cell()
    held = CellFilter(cell, EkfConfig.default(cell))
    before = state_bits(held.ekf)
    # The drive current of 80 A lies past the resistor curve, so a loop that ran would warn.
    columns = [np.full(3, x) for x in (1.0, 80.0, 3.3, 80.0)]
    columns[column][1] = value
    _, error, caught = outcome(lambda: held.series(*columns))
    assert (error, caught) == ((InvalidInputError, message), [])
    assert state_bits(held.ekf) == before
