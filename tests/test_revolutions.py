"""The stacked multi-cell kernel against the scalar one, bit for bit.

``_filter_revolutions`` must return, for every cell, exactly what
``_filter_series`` returns for it alone, with the same warnings in the same
order and the same errors. Bits are compared through ``.view(np.int64)``.
"""

import math
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cellsoc import (  # noqa: E402
    CellParameters,
    CellState,
    EkfConfig,
    EkfState,
    InvalidInputError,
    MonotoneCurve,
    MultiCellEkf,
    NumericalFailureError,
    RcGroup,
    SchedulerConfig,
    Trace,
    simulate,
    vqst_from_soc,
)
from cellsoc import estimator  # noqa: E402
from cellsoc.estimator import (  # noqa: E402
    _filter_revolutions,
    _filter_series,
    _psd_mask,
)
from helpers import (  # noqa: E402
    OPENBLAS_ACCEPTED, _is_psd, make_cell, make_resistor, random_cell)

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True)


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def outcome(fn):
    """fn()'s result or error, and every warning it raised, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result, error = fn(), None
        except (NumericalFailureError, InvalidInputError) as exc:
            result, error = None, (type(exc), str(exc))
    return result, error, [(w.category, str(w.message)) for w in caught]


def one_by_one(cells):
    return [_filter_series(ekf, prm, cfg, v, i, dt, i) for ekf, prm, cfg, v, i, dt in cells]


def assert_same_as_one_by_one(cells):
    """_filter_revolutions(cells) gives the scalar kernel's bits, warnings and errors."""
    want, want_error, want_warnings = outcome(lambda: one_by_one(cells))
    got, got_error, got_warnings = outcome(lambda: _filter_revolutions(cells))
    assert got_error == want_error
    assert got_warnings == want_warnings
    if want is None:
        return
    for (soc, innov, vqst, final), (w_soc, w_innov, w_vqst, w_final) in zip(got, want):
        for a, b in ((soc, w_soc), (innov, w_innov), (vqst, w_vqst),
                     (final.mean.v_qst, w_final.mean.v_qst),
                     (final.mean.v_dyn_components, w_final.mean.v_dyn_components),
                     (final.covariance, w_final.covariance)):
            assert np.array_equal(bits(a), bits(b))


@st.composite
def pack_cells(draw, r_values=(1e-4, 1e-2, math.inf), broken_p0=True):
    """1-6 cells with 1-3 RC groups, 2-12 knot tables, uneven service counts,
    zero and out-of-curve currents, gaps long enough to cross the whole window,
    and voltages that drive the state past both ends of it."""
    n_cells = draw(st.integers(1, 6))
    services = draw(st.integers(0, 24))
    cells = []
    for _ in range(n_cells):
        size = draw(st.integers(2, 12))
        v_min = draw(st.floats(2.5, 3.2))
        widths = draw(st.lists(st.floats(0.01, 0.2), min_size=size - 1, max_size=size - 1))
        values = draw(st.lists(st.floats(500.0, 40000.0), min_size=size, max_size=size))
        grid = v_min + np.concatenate(([0.0], np.cumsum(widths)))
        taus = np.cumsum(draw(st.lists(st.floats(1.0, 2000.0), min_size=1, max_size=3)))
        groups = [RcGroup(draw(st.floats(0.001, 0.05)), float(tau)) for tau in taus]
        i_max = draw(st.sampled_from([5.0, 50.0]))
        prm = CellParameters.from_curves(
            float(grid[0]), float(grid[-1]), MonotoneCurve(grid, values), groups,
            make_resistor(0.03, i_max=i_max),
        )
        k = services + draw(st.integers(0, 2))
        base = draw(st.sampled_from([0.25, 1.0, 30.0, 5e3]))
        jitter = draw(st.lists(st.sampled_from([0.0, 2.0**-52, -(2.0**-52), 1.0]),
                               min_size=k, max_size=k))
        dt = base * (1.0 + np.array(jitter))
        current = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(-80.0, 80.0)),
                                         min_size=k, max_size=k)))
        span = prm.v_max - prm.v_min
        voltage = np.array(draw(st.lists(
            st.floats(prm.v_min - 0.5 * span, prm.v_max + 0.5 * span), min_size=k, max_size=k)))
        r = draw(st.sampled_from(r_values))
        n = prm.n_rc + 1
        q = draw(st.floats(1e-10, 1e-4)) * np.eye(n)
        p0 = np.diag(draw(st.lists(st.floats(1e-8, 0.1), min_size=n, max_size=n)))
        v0 = prm.v_min + draw(st.floats(-0.2, 1.2)) * span
        start = CellState(v0, draw(st.lists(st.floats(-0.1, 0.1), min_size=n - 1,
                                            max_size=n - 1)))
        cfg = EkfConfig(q, r, p0, CellState.rest(prm.v_min, prm.n_rc))
        if broken_p0 and draw(st.integers(0, 5)) == 3:
            p0 = p0.copy()
            p0[-1, -1] = -1e-3  # indefinite: both kernels must raise alike
        cells.append((EkfState(start, p0), prm, cfg, voltage, current, dt))
    return cells


@PROPERTY
@given(pack_cells())
def test_revolutions_match_the_scalar_kernel(cells):
    assert_same_as_one_by_one(cells)


def stacked_count(monkeypatch):
    """Counts the stacked-core runs that returned results instead of handing over."""
    runs = []
    core = estimator._revolutions

    def counted(*args):
        out = core(*args)
        runs.append(out is not None)
        return out

    monkeypatch.setattr(estimator, "_revolutions", counted)
    return runs


def pinned_cells(v0s, services=12, r=1e-4):
    """Cells that differ only in their start state, on a fixed drive cycle."""
    rng = np.random.default_rng(8)
    out = []
    for j, v0 in enumerate(v0s):
        prm = random_cell(np.random.default_rng(100 + j))
        cfg = EkfConfig.default(prm)
        cfg = EkfConfig(cfg.process_noise_q, r, cfg.initial_covariance_p0, cfg.initial_state)
        start = EkfState(CellState(v0(prm), np.zeros(prm.n_rc)), cfg.initial_covariance_p0)
        current = rng.uniform(-3.0, 3.0, services)
        voltage = np.full(services, 0.5 * (prm.v_min + prm.v_max))
        dt = np.full(services, 0.25)
        out.append((start, prm, cfg, voltage, current, dt))
    return out


def test_queries_on_and_beside_knots(monkeypatch):
    """The segment search breaks ties like bisect_right, in every row of the stack."""
    runs = stacked_count(monkeypatch)

    def knot(j, direction=None):
        def v0(prm):
            g = prm.capacitance.grid[j]
            return float(g if direction is None else np.nextafter(g, direction))
        return v0

    v0s = [knot(0), knot(40), knot(40, -np.inf), knot(40, np.inf), knot(-1),
           knot(-1, -np.inf), knot(0, np.inf), knot(128, -np.inf)]
    assert_same_as_one_by_one(pinned_cells(v0s))
    assert runs == [True]


def test_every_path_at_once(monkeypatch):
    """Stacked cells, an r = inf cell, a lone n_rc, a tail and an empty series."""
    runs = stacked_count(monkeypatch)
    mid = [lambda prm: 0.5 * (prm.v_min + prm.v_max)] * 4
    cells = pinned_cells(mid, services=9)
    cells[1] = pinned_cells(mid[:1], services=10)[0]  # one service more
    cells[2] = pinned_cells(mid[:1], services=9, r=math.inf)[0]
    lone = make_cell(rc=((0.01, 30.0),))
    cfg = EkfConfig.default(lone)
    cells.append((EkfState(cfg.initial_state, cfg.initial_covariance_p0), lone, cfg,
                  np.full(9, 3.3), np.full(9, -1.0), np.full(9, 0.25)))
    cells.append(pinned_cells(mid[:1], services=0)[0])
    assert_same_as_one_by_one(cells)
    assert runs == [True]


def test_single_cell_is_the_scalar_kernel(monkeypatch):
    runs = stacked_count(monkeypatch)
    assert_same_as_one_by_one(pinned_cells([lambda prm: prm.v_min + 0.1]))
    assert runs == []


def test_a_failing_check_hands_every_cell_to_the_scalar_kernel(monkeypatch):
    """An indefinite covariance in the second cell: the first cell's warnings
    come first, then the second cell's error, as one call per cell gives."""
    runs = stacked_count(monkeypatch)
    cells = pinned_cells([lambda prm: prm.v_min - 0.01] * 3)
    start, prm, cfg, voltage, current, dt = cells[1]
    broken = start.covariance.copy()
    broken[1, 1] = -1e-3
    cells[1] = (EkfState(start.mean, broken), prm, cfg, voltage, current, dt)
    assert_same_as_one_by_one(cells)
    assert runs == [False]
    with pytest.raises(NumericalFailureError, match="positive semidefiniteness"):
        _filter_revolutions(cells)


@PROPERTY
@given(pack_cells(r_values=(1e-4, 1e-2), broken_p0=False))
def test_final_covariance_is_symmetric_and_psd(cells):
    """Both kernels leave P exactly symmetric and provably PSD, whatever they measured."""
    _, error, _ = outcome(lambda: one_by_one(cells))
    if error is not None:
        return
    for run in (one_by_one, _filter_revolutions):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            finals = [out[3] for out in run(cells)]
        for final in finals:
            p = final.covariance
            assert np.array_equal(bits(p), bits(p.T))
            assert _is_psd(p.tolist())


@st.composite
def perturbed_packs(draw):
    n_cells = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    victim = draw(st.integers(0, n_cells - 1))
    glitch = draw(st.lists(st.one_of(st.floats(-0.5, 0.5), st.sampled_from([5.0, 1e9])),
                           min_size=1, max_size=5))
    return n_cells, seed, victim, glitch


@settings(max_examples=40, deadline=None, derandomize=True)
@given(perturbed_packs())
def test_slot_isolation_under_a_perturbed_stream(case):
    """Glitching one cell's voltages changes no bit of any other cell's run or slot."""
    n_cells, seed, victim, glitch = case
    rng = np.random.default_rng(seed)
    ids = tuple(f"c{j}" for j in range(n_cells))
    cells = {cid: random_cell(rng) for cid in ids}
    t_slot = 0.5 / n_cells
    sched = SchedulerConfig(t_slot=t_slot, cells=ids, f_max=1.0)
    setups = {cid: (cells[cid], EkfConfig.default(cells[cid], initial_soc=0.7)) for cid in ids}
    t = np.arange(0.0, 30.0, 0.1)
    traces = {}
    for cid in ids:
        current = 3.0 * np.sin(2 * np.pi * t / rng.uniform(5.0, 20.0))
        start = CellState.rest(vqst_from_soc(cells[cid], 0.6), cells[cid].n_rc)
        traces[cid] = simulate(cells[cid], Trace(t, current), start).trace
    bad = dict(traces)
    trace = traces[ids[victim]]
    voltage = trace.voltage.copy()
    where = rng.choice(t.size, size=len(glitch), replace=False)
    voltage[where] += glitch
    bad[ids[victim]] = Trace(trace.timestamps, trace.current, voltage)

    def run(traces):
        engine = MultiCellEkf(sched, setups)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return engine, engine.run(traces)

    (clean, clean_series), (glitched, glitched_series) = run(traces), run(bad)
    for cid in ids:
        if cid == ids[victim]:
            continue
        a, b = clean_series[cid], glitched_series[cid]
        assert np.array_equal(bits(a.soc_est), bits(b.soc_est))
        assert np.array_equal(bits(a.innovations), bits(b.innovations))
        sa, sb = clean.slots[cid], glitched.slots[cid]
        assert sa.last_serviced_t == sb.last_serviced_t
        assert np.array_equal(bits(sa.ekf.mean.v_qst), bits(sb.ekf.mean.v_qst))
        assert np.array_equal(bits(sa.ekf.mean.v_dyn_components),
                              bits(sb.ekf.mean.v_dyn_components))
        assert np.array_equal(bits(sa.ekf.covariance), bits(sb.ekf.covariance))


def test_psd_mask_is_is_psd_matrix_by_matrix():
    """On the draws that pin _is_psd to LAPACK, including the near-singular ones."""
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 4):
        stack = []
        for k in range(600):
            basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
            eig = rng.uniform(1e-3, 1.0, n) * 10.0 ** rng.uniform(-4, 1)
            if k % 3 == 1:
                eig[0] = rng.choice([0.0, 1e-13, -1e-13, -1e-10, -1.0001e-10])
            elif k % 3 == 2:
                eig[0] = -(10.0 ** rng.uniform(-9.7, 0.0))
            p = basis @ np.diag(eig) @ basis.T
            stack.append(0.5 * (p + p.T))
        if n == 3:
            # LAPACK accepted these; the stacked path must follow _is_psd.
            stack += OPENBLAS_ACCEPTED
        stack = np.array(stack)
        want = [_is_psd(p.tolist()) for p in stack]
        with np.errstate(invalid="ignore"):
            assert _psd_mask(stack.transpose(1, 2, 0)).tolist() == want
        assert 100 < sum(want) < 500
        assert n != 3 or want[-2:] == [False, False]
