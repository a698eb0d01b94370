"""The generated covariance step against its list form, bit for bit.

``helpers.covariance_steps(m)`` compiles the covariance predict and
correction that ``CellFilter.series`` inlines as straight-line code. They must
return exactly what the list form in ``helpers`` returns, and raise the same
error with the same message where a check fails. Bits are compared through
``.view(np.int64)``, so a zero's sign and a NaN count.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from cellsoc import (  # noqa: E402
    CellFilter, EkfConfig, EkfState, InvalidInputError, MultiCellEkf, NumericalFailureError,
    SchedulerConfig, correct, predict)
from cellsoc.estimator import make_filter  # noqa: E402
from helpers import (  # noqa: E402
    OPENBLAS_ACCEPTED, _is_psd, covariance_steps, held_series, left_to_right, list_correct,
    list_predict, make_cell, near_boundary_draws)

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64).tolist()


def flat(rows):
    return tuple(x for row in rows for x in row)


def rows(entries, m):
    return [list(entries[a:a + m]) for a in range(0, m * m, m)]


def mirror(rows):
    """``rows`` with each entry (b, a) below the diagonal set to (a, b)."""
    return [[rows[min(a, b)][max(a, b)] for b in range(len(rows))] for a in range(len(rows))]


def outcome(fn):
    """fn()'s result, or None and its error as (type, message)."""
    try:
        return fn(), None
    except NumericalFailureError as exc:
        return None, (type(exc), str(exc))


@st.composite
def covariance_cases(draw):
    """(m, P, f, Q*dt, r) with P and Q*dt as symmetric lists of rows.

    P is PSD, indefinite, not finite, made of signed zeros, or arbitrary
    floats; f0 is 1 or not; Q*dt is zero, signed zeros, a rate times a gap,
    or huge; r reaches down to the smallest subnormal. Each is drawn as a
    matrix whose upper triangle is then mirrored, as the kernel reads it.
    """
    m = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    entries = m * m
    kind = draw(st.sampled_from(
        ["symmetric", "indefinite", "non-finite", "zeros", "raw"]))
    if kind == "zeros":
        p = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=entries, max_size=entries))
    elif kind == "raw":
        p = draw(st.lists(st.floats(), min_size=entries, max_size=entries))
    else:
        basis, _ = np.linalg.qr(rng.standard_normal((m, m)))
        eig = rng.uniform(1e-3, 1.0, m) * 10.0 ** rng.uniform(-12, 3)
        if kind == "indefinite":
            eig[0] = -(10.0 ** rng.uniform(-12, 0))
        p = basis @ np.diag(eig) @ basis.T
        p = 0.5 * (p + p.T)
        if kind == "non-finite":  # on or above the diagonal, so that mirroring keeps it
            a, b = sorted((rng.integers(m), rng.integers(m)))
            p[a, b] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        p = p.ravel().tolist()
    f0 = draw(st.one_of(st.just(1.0), st.floats(1e-3, 1e3)))
    f = [f0] + draw(st.lists(st.floats(0.0, 1.0), min_size=m - 1, max_size=m - 1))
    q_kind = draw(st.sampled_from(["zero", "signed zeros", "rate", "huge"]))
    if q_kind == "zero":
        q = [0.0] * entries
    elif q_kind == "signed zeros":
        q = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=entries, max_size=entries))
    else:
        a = rng.standard_normal((m, m))
        h = draw(st.floats(1e-3, 1e6)) if q_kind == "rate" else 10.0 ** rng.uniform(250, 308)
        q = ((1e-8 * a @ a.T) * h).ravel().tolist()
    r = draw(st.one_of(st.sampled_from([1e-4, 1e-2, 1e-300, 5e-324]), st.floats(5e-324, 1.0)))
    return m, mirror(rows(p, m)), f, mirror(rows(q, m)), r


NEGATIVE_ZEROS = [[-0.0] * 3] * 3
# Rows that add to 0.0 left to right and to 1.0 compensated, as Python 3.12's
# sum() adds them: both sides must add left to right.
CANCELLING = [[1e16, 1.0, -1e16], [1.0, 2.0, 0.5], [-1e16, 0.5, 1e16]]
ZEROS = [[0.0] * 2] * 2


@PROPERTY
@given(covariance_cases())
@example((3, NEGATIVE_ZEROS, [0.5, 0.9, 0.1], NEGATIVE_ZEROS, 1e-4))
@example((3, CANCELLING, [1.0, 1.0, 1.0], [[0.0] * 3] * 3, 1e-4))
# Each check written as a comparison, failing. Q*dt overflows the predicted P,
# or is infinite itself:
@example((2, [[1e308, 0.0], [0.0, 1.0]], [1.0, 1.0], [[1e308, 0.0], [0.0, 0.0]], 1e-4))
@example((2, [[1.0, 0.0], [0.0, 1.0]], [1.0, 0.5], [[math.inf, 0.0], [0.0, math.inf]], 1e-4))
# a negative diagonal entry last in the or-chain, alone and beside a NaN:
@example((3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]], [1.0, 1.0, 1.0],
          [[0.0] * 3] * 3, 1e-4))
@example((2, [[math.nan, 0.0], [0.0, -1.0]], [1.0, 1.0], ZEROS, 1e-4))
# s negative, NaN and infinite:
@example((1, [[-1.0]], [1.0], [[0.0]], 1e-4))
@example((2, [[math.nan, 0.0], [0.0, 1.0]], [1.0, 1.0], ZEROS, 1e-4))
@example((2, [[1e308, 1e308], [1e308, 1e308]], [1.0, 1.0], ZEROS, 1e-4))
def test_generated_step_is_the_list_form_bit_for_bit(case):
    """Predict, then correct; and correct alone, on the drawn P."""
    m, p, f, q_dt, r = case
    predict_p, correct_p = covariance_steps(m)
    got, got_error = outcome(lambda: predict_p(flat(p), tuple(f), flat(q_dt)))
    want, want_error = outcome(lambda: list_predict(p, f, q_dt))
    assert got_error == want_error
    corrections = [p]
    if want is not None:
        p_pred, t = got
        assert bits(p_pred) == bits(flat(want))
        assert bits(t) == bits([left_to_right(row) for row in want])
        corrections.append(want)
    for start in corrections:
        t = tuple(left_to_right(row) for row in start)
        got, got_error = outcome(lambda: correct_p(flat(start), t, r))
        want, want_error = outcome(lambda: list_correct(start, r))
        assert got_error == want_error
        if want is not None:
            assert bits(got[0]) == bits(flat(want[0]))
            assert bits(got[1]) == bits(want[1])


def proves_psd(p) -> bool:
    """Whether the generated correction proves p PSD. With zero row sums and
    r = 1 the gain is zero and the Joseph update leaves p as it is."""
    m = len(p)
    out, error = outcome(lambda: covariance_steps(m)[1](flat(p), (0.0,) * m, 1.0))
    assert error in (None, (NumericalFailureError,
                            "corrected covariance lost positive semidefiniteness"))
    assert out is None or out[0] == flat(p)
    return error is None


def test_psd_proof_is_is_psd():
    """On the 3,000 draws that pin _is_psd to LAPACK, and on two near-singular
    matrices that OpenBLAS 0.3.31's Cholesky accepted and _is_psd rejects."""
    verdicts = {True: 0, False: 0}
    for kind, eig, p in near_boundary_draws():
        p = p.tolist()
        verdict = _is_psd(p)
        assert proves_psd(p) == verdict, (kind, eig)
        verdicts[verdict] += 1
    assert min(verdicts.values()) >= 900
    for p in OPENBLAS_ACCEPTED:
        assert not _is_psd(p)
        assert not proves_psd(p)


def test_covariance_of_another_size_is_refused():
    cell = make_cell()  # m = 3
    cfg = EkfConfig.default(cell)
    start = make_filter(cfg)
    ekf = EkfState(start.mean, start.covariance[:2, :2])
    with pytest.raises(InvalidInputError, match="covariance must be 3x3"):
        held_series(ekf, cell, cfg, np.array([3.3]), np.array([0.0]), np.array([0.0]),
                    np.array([0.0]))


def refusals(ekf, cell, cfg):
    """What predict, correct and a two-sample ``CellFilter.series`` make of ``ekf``."""
    return [outcome_or_refusal(fn) for fn in (
        lambda: predict(ekf, cell, -1.0, 1.0, cfg),
        lambda: correct(ekf, cell, 3.3, -1.0, cfg),
        lambda: held_series(ekf, cell, cfg, np.array([3.3, 3.3]), np.array([-1.0, -1.0]),
                               np.array([0.0, 1.0]), np.array([-1.0, -1.0]))[2])]


def outcome_or_refusal(fn):
    """The bits of fn()'s covariance, or its InvalidInputError's message."""
    try:
        return bits(fn().covariance)
    except InvalidInputError as exc:
        return str(exc)


@pytest.mark.parametrize("value", [1e-9, 2.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", [(1, 0), (0, 2), (2, 1)])
def test_asymmetric_covariance_is_refused(entry, value):
    """An entry (b, a) that is not == to (a, b) is refused by every filter path;
    one that is NaN or inf is refused first as not finite."""
    cell = make_cell()  # m = 3
    cfg = EkfConfig.default(cell)
    start = make_filter(cfg)
    covariance = start.covariance.copy()
    covariance[entry] = value
    assert refusals(EkfState(start.mean, covariance), cell, cfg) == [
        "covariance must " + ("be symmetric" if math.isfinite(value) else "be finite")] * 3


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", [(0, 0), (2, 2), (0, 2), None], ids=str)
def test_non_finite_covariance_is_refused(entry, value):
    """A covariance entry that is not finite, on the diagonal, off it (as a
    symmetric pair) or everywhere (``None``), is refused where it enters: by
    predict, correct and the constructor, and by assigning it to a filter or
    to an engine's slot, which then hold what they held."""
    cell = make_cell()  # m = 3
    cfg = EkfConfig.default(cell)
    start = make_filter(cfg)
    covariance = start.covariance.copy()
    if entry is None:
        covariance[:] = value
    else:
        covariance[entry] = covariance[entry[::-1]] = value
    ekf = EkfState(start.mean, covariance)
    assert refusals(ekf, cell, cfg) == ["covariance must be finite"] * 3
    engine = MultiCellEkf(SchedulerConfig(1.0, ("a",), 0.5), {"a": (cell, cfg)})
    for held in (CellFilter(cell, cfg), engine.slots["a"]):
        held.predict(-1.0, 2.0)
        before = held.ekf
        with pytest.raises(InvalidInputError, match="^covariance must be finite$"):
            held.ekf = ekf
        after = held.ekf
        assert bits(after.covariance) == bits(before.covariance)
        assert bits([after.mean.v_qst, *after.mean.v_dyn_components]) == bits(
            [before.mean.v_qst, *before.mean.v_dyn_components])


def test_signed_zero_pair_is_read_as_its_upper_entry():
    """-0.0 == 0.0, so a pair of signed zeros is accepted, and only its upper
    entry is read. With -0.0 off the diagonal of Q the predict keeps P's zero
    sign there, so the sign that was read shows."""
    cell = make_cell()
    base = EkfConfig.default(cell)
    q = np.where(np.eye(3, dtype=bool), base.process_noise_q, -0.0)
    cfg = EkfConfig(q, base.measurement_noise_r, base.initial_covariance_p0, base.initial_state)
    start = make_filter(cfg)

    def covariance(upper, lower):
        p = start.covariance.copy()
        p[0, 1], p[1, 0] = upper, lower
        return EkfState(start.mean, p)

    for upper, lower in ((0.0, -0.0), (-0.0, 0.0)):
        got = refusals(covariance(upper, lower), cell, cfg)
        assert got == refusals(covariance(upper, upper), cell, cfg)
        assert got[0] != refusals(covariance(lower, lower), cell, cfg)[0]
