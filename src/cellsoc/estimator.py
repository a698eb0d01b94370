"""Extended Kalman filter over the cell state (v_qst, v_1..v_N).

Prediction advances the mean with the cell model and the covariance with the
state-transition Jacobian; correction incorporates one terminal-voltage
measurement through the Joseph-form update.

One generated sample body runs every EKF step, on plain floats. F is
diagonal and H is a row of ones, so with t = P*1 and s = 1'P1 + r the Joseph
update is the rank-1 form P - K t' - t K' + s K K'. One emitter,
``_sample_lines``, writes that body twice into one source per state size
(``_source``): as the sample loop of the batch kernel, straight-line code
with the state and the m(m+1)/2 entries of P's upper triangle as locals (P
is symmetric: a filter refuses one that is not), and as a one-sample step
with no loop and no reuse. Both inline the charge map
(``model._charge_map_lines``) and the covariance step (``_predict_lines``
and ``_update_lines``), and the step the resistor-drop lookup
(``curves._interp_lines``). Each sample is one predict and one correction;
a correction-only sample is a step over dt = 0, which only clamps v_qst
into the guarded window, and the step given no voltage predicts only. Every
sum adds its terms left to right from the first, whatever the builtin
``sum`` does. The decay products are formed only when dt changes, and each
check is a comparison rather than a call. At rest the loop reuses a
covariance step that settled on a bitwise fixed point (see ``_sample_lines``).

The source defines one ``bind``, compiled once per state size by
``_binder``, which unpacks one cell's constants and returns the loop and the
step as closures over them. ``CellFilter`` is one cell's filter on Python
floats and calls ``bind`` once, when it is made: ``series`` runs the loop
over a whole series, and ``predict``, ``correct`` and ``service`` run the
step. ``run_filter`` is one filter's ``series`` over one trace. Each
``MultiCellEkf`` slot is one filter: ``run`` calls its ``series`` and
``tick`` its ``service``. The free ``predict`` and ``correct`` wrap its
methods as pure functions from filter state to filter state.

One rule decides whether a covariance is PSD: P + PSD_TOLERANCE * I has a
Cholesky factor, by the proof that ``_proof_lines`` writes. ``EkfConfig`` and
the kernel run it, so no BLAS decides a verdict.

The sample body, loop and step alike, counts the samples it clamps: every
``CellFilter.series`` or ``service`` call warns from its counts at most once
per kind (current outside the resistor curve, v_qst outside the window), and
``FilterRun`` carries them. That P is finite and symmetric is checked where
a state enters a filter, in ``CellFilter.ekf``."""

from __future__ import annotations

import functools
import math
import sys
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .curves import _interp_lines
from .errors import (
    ConfigurationError,
    InvalidInputError,
    InvalidParametersError,
    NumericalFailureError,
    OutOfRangeWarning,
)
from .model import (
    CellParameters,
    CellState,
    DEFAULT_VQST_GUARD,
    Trace,
    _charge_map_lines,
    _check_finite,
    _current_clamp_message,
    _soc_clamp_message,
    _soc_from_vqst,
    interval_currents,
    vqst_from_soc,
)

PSD_TOLERANCE = 1e-10


def _check_psd(matrix: np.ndarray, name: str) -> np.ndarray:
    """``matrix`` symmetrized, if it is square, finite, symmetric to rounding and
    PSD by the filters' own proof (``_psd_proof``); else InvalidParametersError."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidParametersError(f"{name} must be a square matrix")
    if not np.all(np.isfinite(m)):
        raise InvalidParametersError(f"{name} must be finite")
    scale = float(np.max(np.abs(m)))
    if scale <= 0.5 * sys.float_info.max:
        asymmetry, sym = float(np.max(np.abs(m - m.T))), 0.5 * (m + m.T)
    else:  # a sum or difference of two entries can overflow; halve them first
        half = 0.5 * m
        asymmetry, sym = 2.0 * float(np.max(np.abs(half - half.T))), half + half.T
    if asymmetry > 1e-12 * max(1.0, scale):
        raise InvalidParametersError(f"{name} must be symmetric")
    if not _psd_proof(m.shape[0])(sym.ravel().tolist()):
        raise InvalidParametersError(f"{name} must be positive semidefinite")
    return sym


@dataclass(frozen=True, eq=False)
class EkfConfig:
    """Noise and initialization choices for one filter instance.

    process_noise_q is a rate (variance per second); prediction adds Q * dt.
    Q and P0 are stored as read-only symmetrized copies; measurement_noise_r
    must be finite and > 0.
    """

    process_noise_q: np.ndarray
    measurement_noise_r: float
    initial_covariance_p0: np.ndarray
    initial_state: CellState

    def __post_init__(self):
        q = _check_psd(self.process_noise_q, "process noise Q")
        p0 = _check_psd(self.initial_covariance_p0, "initial covariance P0")
        n = self.initial_state.v_dyn_components.size + 1
        if q.shape != (n, n) or p0.shape != (n, n):
            raise InvalidParametersError(
                f"noise matrices must be {n}x{n} for a state with {n - 1} RC components"
            )
        r = self.measurement_noise_r
        if not (math.isfinite(r) and r > 0.0):
            raise InvalidParametersError(f"measurement noise variance must be finite and > 0, "
                                         f"got {r}")
        q.setflags(write=False)
        p0.setflags(write=False)
        object.__setattr__(self, "process_noise_q", q)
        object.__setattr__(self, "initial_covariance_p0", p0)

    @classmethod
    def default(cls, params: CellParameters, initial_soc: float = 0.5) -> "EkfConfig":
        """The config sized for ``params``, starting at rest at ``initial_soc``.

        Q is 1e-8 V²/s on every state, r is 1e-4 V², and P0 is 0.04 V² on
        v_qst and 1e-4 V² on each RC voltage, all uncorrelated.
        """
        n = params.n_rc + 1
        return cls(
            process_noise_q=1e-8 * np.eye(n),
            measurement_noise_r=1e-4,
            initial_covariance_p0=np.diag([0.04] + [1e-4] * params.n_rc),
            initial_state=CellState.rest(vqst_from_soc(params, initial_soc), params.n_rc),
        )


@dataclass(eq=False)
class EkfState:
    """Filter mean and covariance. The covariance is finite and symmetric, each
    entry (b, a) == to (a, b); ``CellFilter.ekf`` refuses one that is not."""

    mean: CellState
    covariance: np.ndarray

    def __post_init__(self):
        self.covariance = np.asarray(self.covariance, dtype=float)


def make_filter(cfg: EkfConfig) -> EkfState:
    return EkfState(cfg.initial_state.copy(), np.array(cfg.initial_covariance_p0))


def predict(ekf: EkfState, params: CellParameters, current: float, dt: float,
            cfg: EkfConfig) -> EkfState:
    """A-priori estimate after ``dt`` seconds at the given current:
    ``CellFilter.predict`` on a filter that holds ``ekf``. It warns about nothing."""
    _check_finite(current=current, dt=dt)  # refused before a state of the wrong size
    if dt <= 0.0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    held = CellFilter(params, cfg, ekf)
    held.predict(current, dt)
    return held.ekf


def correct(ekf: EkfState, params: CellParameters, measured_v: float, current: float,
            cfg: EkfConfig) -> EkfState:
    """A-posteriori estimate after one terminal-voltage measurement:
    ``CellFilter.correct`` on a filter that holds ``ekf``. The output map is
    the sum of the states plus the (input-only) instantaneous drop, so H is a
    row of ones; the Joseph form keeps P PSD. Its warnings name the caller."""
    _check_finite(measured_v=measured_v, current=current)
    held = CellFilter(params, cfg, ekf)
    held.service(0.0, current, measured_v)  # held.correct's call; warns our caller
    return held.ekf


def estimate_soc(ekf: EkfState, params: CellParameters) -> float:
    """State of charge implied by the filter mean; its clamp warning names the caller."""
    return _soc_from_vqst(params, ekf.mean.v_qst, 3)


@dataclass(eq=False)
class FilterRun:
    """Per-sample log of a single-cell estimation run, and its counts: the
    samples whose current was clamped to the resistor curve, those whose
    v_qst was clamped to [v_min, v_max] for its SoC, and those that reused a
    settled covariance step."""

    times: np.ndarray
    soc: np.ndarray
    innovations: np.ndarray
    v_qst: np.ndarray
    final: EkfState
    current_clamps: int = 0
    soc_clamps: int = 0
    reused_steps: int = 0


def _tuple(names) -> str:
    """A tuple display of ``names``: ``(a, b)``, or ``(a,)`` for one name."""
    return f"({', '.join(names)}{',' if len(names) == 1 else ''})"


def _indent(lines: list[str], depth: int) -> list[str]:
    """``lines``, written from indentation 0, indented by ``depth`` levels."""
    return ["    " * depth + line for line in lines]


def _entries(m: int, name: str = "p", upper: bool = False) -> list[str]:
    """An m*m matrix's entries ``{name}_a_b``, row-major; ``upper`` names (b, a) as (a, b)."""
    return [f"{name}_{min(a, b) if upper else a}_{max(a, b) if upper else b}"
            for a in range(m) for b in range(m)]


def _decay_product_lines(m: int) -> list[str]:
    """The products ff_a_b = f{a} * f{b} of the RC decays, 1 <= a <= b < m,
    which scale P's RC block in F P F'."""
    return [f"ff_{a}_{b} = f{a} * f{b}" for a in range(1, m) for b in range(a, m)]


def _predict_lines(m: int) -> list[str]:
    """F P F' + Q*dt on the entries p_a_b, for the diagonal f0.. of F, the decay
    products ff_a_b and the entries q_a_b of Q*dt, all a <= b, then its row
    sums t0.. (each added in index order) and its check. Only the products
    with f0 are formed here. A finite total of the row sums means every entry
    is finite, so the diagonal is then checked with an or-chain."""
    idx, p = range(m), _entries(m, upper=True)
    return [
        *(f"ff_0_{b} = f0 * f{b}" for b in idx),
        *(f"p_{a}_{b} = ff_{a}_{b} * p_{a}_{b} + q_{a}_{b}" for a in idx for b in range(a, m)),
        *(f"t{a} = {' + '.join(p[a * m:a * m + m])}" for a in idx),
        "# Scaling by a diagonal and adding PSD noise preserves",
        "# semidefiniteness, so finiteness and the diagonal suffice here.",
        f"if not -inf < {' + '.join(f't{a}' for a in idx)} < inf"
        f" or {' or '.join(f'p_{a}_{a} < -PSD_TOLERANCE' for a in idx)}:",
        '    raise NumericalFailureError("predicted covariance lost positive semidefiniteness")',
    ]


def _update_lines(m: int) -> list[str]:
    """From the upper entries p_a_b, a <= b, their row sums t0.. and r: s = 1'P1
    + r, the gain k0.. = t / s, the Joseph update of p_a_b and its PSD proof.
    Entry (b, a) would be formed from the same terms with the operands
    swapped, which leaves its bits those of (a, b)."""
    idx = range(m)
    return [
        f"s = {' + '.join(f't{a}' for a in idx)} + r",
        "if not 0.0 < s < inf:",
        '    raise NumericalFailureError(f"innovation variance is not positive ({s})")',
        *(f"k{a} = t{a} / s" for a in idx),
        "# Joseph form with H = 1': P - K t' - t K' + s K K'.",
        *(f"p_{a}_{b} = p_{a}_{b} - (k{a} * t{b} + t{a} * k{b}) + k{a} * k{b} * s"
          for a in idx for b in range(a, m)),
        *_proof_lines(m, ["if not d > 0.0:", '    raise NumericalFailureError('
                          '"corrected covariance lost positive semidefiniteness")']),
    ]


def _proof_lines(m: int, check: list[str]) -> list[str]:
    """The PSD proof on the upper entries p_a_b of a symmetric size-m P: each pivot d
    of the Cholesky factor of P + PSD_TOLERANCE * I, row by row, then ``check``,
    the lines that must fail a pivot that is not ``> 0.0``."""
    lines = ["# Cholesky factor of P + PSD_TOLERANCE * I, row by row; a pivot that is",
             "# not strictly positive (or is NaN) fails, as in LAPACK."]
    for i in range(m):
        for j in range(i):
            dots = " + ".join(f"l_{i}_{c} * l_{j}_{c}" for c in range(j))
            x = f"(p_{j}_{i} - ({dots}))" if j else f"p_{j}_{i}"
            lines.append(f"l_{i}_{j} = {x} / l_{j}_{j}")
        squares = " + ".join(f"l_{i}_{c} * l_{i}_{c}" for c in range(i))
        minus = f" - ({squares})" if i else ""
        lines += [f"d = p_{i}_{i} + PSD_TOLERANCE{minus}", *check]
        if i < m - 1:
            lines.append(f"l_{i}_{i} = sqrt(d)")
    return lines


def _compiled(source: str, filename: str) -> dict:
    """The namespace ``source`` ran in, reported as ``filename``: the globals
    generated code reads (what its lines call and raise) and what it defines."""
    namespace = {
        "__name__": __name__,
        "inf": math.inf,
        "nan": math.nan,
        "sqrt": math.sqrt,
        "exp": math.exp,
        "np": np,
        "bisect_right": bisect_right,
        "PSD_TOLERANCE": PSD_TOLERANCE,
        "InvalidInputError": InvalidInputError,
        "NumericalFailureError": NumericalFailureError,
    }
    exec(compile(source, filename, "exec"), namespace)
    return namespace


@functools.cache
def _psd_proof(m: int):
    """``_proof_lines`` for size m as ``is_psd(p) -> bool``, on a symmetric P as
    a flat row-major sequence of floats, of which it reads the upper triangle."""
    source = "\n".join([
        "def is_psd(p):",
        *_indent([f"{_tuple(_entries(m))} = p",
                  *_proof_lines(m, ["if not d > 0.0:", "    return False"]), "return True"], 1),
    ]) + "\n"
    return _compiled(source, f"<PSD proof, m={m}>")["is_psd"]


def _state_lines(m: int) -> list[str]:
    """Unpacking of the state arguments ``dyn`` and ``p`` into y0.. and p_a_b;
    ``CellFilter.ekf`` has refused a P that is not symmetric."""
    return [f"{_tuple([f'y{j}' for j in range(m - 1)])} = dyn", f"{_tuple(_entries(m))} = p"]


def _constant_lines(m: int) -> list[str]:
    """Unpacking of the ``_Constants`` arguments into the locals the sample
    body reads, and the ends of the capacitance tables."""
    return [
        f"{_tuple(_entries(m, 'qr'))} = q_rate",
        f"{_tuple([f'tau{j}' for j in range(m - 1)])} = taus",
        f"{_tuple([f'rd{j}' for j in range(m - 1)])} = r_dyn",
        "cg, cc, ck = tables",
        "rg, rv = resistor",
        *_charge_map_lines()[0],
        "i_lo, i_hi, v_lo, v_hi, soc_lo, soc_hi = bounds",
    ]


def _state_display(m: int) -> str:
    """The state as the generated functions return it: v, the RC states and
    P's m*m entries row-major, each (b, a) read as (a, b)."""
    return f"v, {_tuple([f'y{j}' for j in range(m - 1)])}, {_tuple(_entries(m, upper=True))}"


def _decay_lines(m: int) -> list[str]:
    """The assignments made when h changes: h_prev, the decays f1.., the fills
    fill0.., their products ff_a_b and Q*h (q_a_b, a <= b, from the rates
    qr_a_b); each line is ``name = expression``."""
    idx = range(m)
    return [
        "h_prev = h",
        *(f"f{j + 1} = exp(-h / tau{j})" for j in range(m - 1)),
        *(f"fill{j} = 1.0 - f{j + 1}" for j in range(m - 1)),
        *_decay_product_lines(m),
        *(f"q_{a}_{b} = qr_{a}_{b} * h" for a in idx for b in range(a, m)),
    ]


def _sample_lines(m: int, loop: bool) -> list[str]:
    """One sample's body, from indentation 0: the charge map, the clamp into
    the guarded window, the decays and Q*h when h changes (``_decay_lines``),
    the RC states, the covariance predict, the count n_cur of a current i
    outside [i_lo, i_hi], the innovation, the correction and the count n_soc
    of a v outside [soc_lo, soc_hi].

    ``loop`` writes it for ``filter_series``: it records the innovation and
    v_qst of sample n and reuses a settled covariance step. Else it is
    ``filter_step``'s body, with its returns: the state and the innovation,
    or after the predict, before the counts and drop, a NaN one if z is None;
    as its decays outlive the call, a failed Q*h check resets h_prev.
    """
    idx = range(m)
    ys = [f"y{j}" for j in range(m - 1)]
    entries = [f"p_{a}_{b}" for a in idx for b in range(a, m)]
    dyn_sum = " + ".join(ys)
    fail = ['raise NumericalFailureError(f"process noise Q * dt is not finite (dt = {h})")']
    head = [
        "charge = u * h",
        *_charge_map_lines()[1],
        "if v < v_lo:",
        "    v = v_lo",
        "elif v > v_hi:",
        "    v = v_hi",
        "if h != h_prev:",
        *_indent(_decay_lines(m), 1),
        # Q is PSD, so a finite diagonal bounds every entry of Q*h.
        f"    if {' or '.join(f'not -inf < q_{a}_{a} < inf' for a in idx)}:",
        *_indent(fail if loop else ["h_prev = nan", *fail], 2),
        *(f"y{j} = y{j} * f{j + 1} + rd{j} * u * fill{j}" for j in range(m - 1)),
    ]
    innovation = f"innovation = z - (v + ({dyn_sum}) + drop)"
    gain = [
        "v += k0 * innovation",
        *(f"y{j} = y{j} + k{j + 1} * innovation" for j in range(m - 1)),
        f"if not -inf < v < inf or not -inf < {dyn_sum} < inf:",
        '    raise InvalidInputError("cell state must be finite")',
        "if v < soc_lo or v > soc_hi:",
        "    n_soc += 1",
    ]
    count_current = ["if i < i_lo or i > i_hi:", "    n_cur += 1"]
    if not loop:
        return [*head, *_predict_lines(m), "if z is None:", f"    return {_state_display(m)}, nan",
                *count_current, *_interp_lines("i", "drop", "rg", "rv"), innovation,
                *_update_lines(m), *gain,
                f"return {_state_display(m)}, innovation"]
    # The covariance step reads only P, f0, h (through the decays and Q*h) and
    # r. At rest f0 and h repeat and P settles on a fixed point, so the step
    # would reproduce the P and gain it holds; they passed every check when
    # first made. f0 (a capacitance ratio) and h are positive, so == on them is
    # bit equality; on P a zero may change its sign, so the bits decide after ==.
    settled = " and ".join(f"{x} == prev_{x}" for x in entries)
    bits = (f"np.array({_tuple(entries)}).tobytes()"
            f" == np.array({_tuple(['prev_' + x for x in entries])}).tobytes()")
    return [
        *head,
        "reuse = f0 == f_steady and h == h_steady",
        "if reuse:",
        "    reused += 1",
        "else:",
        *_indent([*(f"prev_{x} = {x}" for x in entries), *_predict_lines(m)], 1),
        *count_current,
        innovation,
        "if not reuse:",
        *_indent(_update_lines(m), 1),
        f"    if {settled} and {bits}:",
        "        f_steady, h_steady = f0, h",
        "    else:",
        "        f_steady = nan",
        *gain,
        "innov_out[n] = innovation",
        "vqst_out[n] = v",
    ]


def _source(m: int) -> str:
    """Source of ``bind(q_rate, taus, r_dyn, r, tables, resistor, bounds) ->
    (filter_series, filter_step)`` for a state of size m: it unpacks one
    cell's ``_Constants`` once and returns the sample loop of
    ``CellFilter.series`` and the one-sample step of its other methods as
    closures over them. Neither warns or checks P's symmetry; both return
    the state as (v, dyn, p), dyn and p as tuples, P flat and row-major,
    and store in the list ``counts``, when they return or raise,
    the samples whose current lies outside [i_lo, i_hi] and those whose
    v_qst lies outside [soc_lo, soc_hi].

    ``filter_series(v, dyn, p, counts, dt, i_pred, voltage, current, drops,
    innov_out, vqst_out)`` filters the columns, writes each sample's
    innovation and v_qst into the outputs and counts as third the samples
    that reused a settled covariance step; ``drops`` is ``np.interp`` of
    ``current`` on the resistor. ``filter_step(v, dyn, p, counts, h, u, z,
    i)`` is one sample of the loop, with its bits, errors and counts, and
    also returns the innovation: a predict over h seconds at the current u,
    then a correction with the voltage z read at the current i, whose drop
    it looks up on the resistor's lists. Given z None it only predicts.

    The state is the float v and the RC states y0..; P is the m(m+1)/2
    locals p_a_b, a <= b; a cell has an RC group, so m >= 2. The RC group j
    decays by f{j+1} = exp(-h / tau_j) and fills by fill{j} = 1 - f{j+1};
    these, their products ff_a_b and Q*h (q_a_b, from the rate entries
    qr_a_b) are formed again only when h changes, when a diagonal entry of
    Q*h that is not finite raises. f0 is the charge-map slope. Each check is
    a chain of comparisons with the verdict ``math.isfinite``, ``min`` or
    ``max`` would give; the loop calls only ``bisect_right``, ``sqrt``,
    ``exp``, the settled check's ``np.array(...).tobytes()`` and the error
    constructors. Every sum is a ``+`` chain in index order, added left to
    right. The loop keeps its decays for one call; the step's are the
    closure's, shared by every call of one binding. A round-robin slot's
    interval repeats bit for bit on most services (on 97.8 % of the ticks of
    ``perfbench``'s 25-cell schedule), so most calls reuse them.
    """
    cache = [line.partition(" = ")[0] for line in _decay_lines(m)]
    lines = [
        "def bind(q_rate, taus, r_dyn, r, tables, resistor, bounds):",
        *_indent([
            *_constant_lines(m),
            f"{' = '.join(cache)} = nan",
            "def filter_series(v, dyn, p, counts, dt, i_pred, voltage, current, drops,",
            "                  innov_out, vqst_out):",
            *_indent([
                *_state_lines(m),
                "h_prev = f_steady = h_steady = nan",
                "n_cur = n_soc = reused = 0",
                "try:",
                "    for n, (h, u, z, i, drop) in enumerate(zip(dt, i_pred, voltage, current,"
                " drops)):",
                *_indent(_sample_lines(m, loop=True), 2),
                "finally:",
                "    counts[:] = n_cur, n_soc, reused",
                f"return {_state_display(m)}",
            ], 1),
            "def filter_step(v, dyn, p, counts, h, u, z, i):",
            *_indent([
                f"nonlocal {', '.join(cache)}",
                *_state_lines(m),
                "n_cur = n_soc = 0",
                "try:",
                *_indent(_sample_lines(m, loop=False), 1),
                "finally:",
                "    counts[0], counts[1] = n_cur, n_soc",
            ], 1),
            "return filter_series, filter_step",
        ], 1),
    ]
    return "\n".join(lines) + "\n"


@functools.cache
def _binder(m: int):
    """``_source(m)``'s ``bind``, compiled once per state size m."""
    return _compiled(_source(m), f"<filter, m={m}>")["bind"]


class _Constants(NamedTuple):
    """What ``bind`` takes of one cell's parameters and filter config, as
    Python floats and lists in its argument order: Q's rates row-major, the
    taus, the RC resistances, r, the capacitance's ``_tables``, the resistor's
    ``_lists`` and the clamp bounds (i_lo, i_hi, v_lo, v_hi, soc_lo, soc_hi)."""

    q_rate: list[float]
    taus: list[float]
    r_dyn: list[float]
    r: float
    tables: tuple[list[float], list[float], list[float]]
    resistor: tuple[list[float], list[float]]
    bounds: tuple[float, float, float, float, float, float]

    @classmethod
    def of(cls, params: CellParameters, cfg: EkfConfig) -> _Constants:
        if (n := len(cfg.process_noise_q) - 1) != params.n_rc:
            raise InvalidParametersError(f"EKF config has {n} RC components, "
                                         f"parameters define {params.n_rc}")
        res = params.resistor
        return cls(cfg.process_noise_q.ravel().tolist(), params.taus.tolist(),
                   params.rs.tolist(), cfg.measurement_noise_r, params.capacitance._tables,
                   res._lists, (res.x_min, res.x_max, params.v_min - DEFAULT_VQST_GUARD,
                    params.v_max + DEFAULT_VQST_GUARD, params.v_min, params.v_max))


def _warn_clamps(params: CellParameters, counts: list[int], stacklevel: int) -> None:
    """One ``OutOfRangeWarning`` per kind of clamp whose count, current clamps
    then v_qst clamps at the head of ``counts``, is not zero, attributed
    ``stacklevel`` frames up from here."""
    if counts[0]:
        warnings.warn(_current_clamp_message(params.resistor), OutOfRangeWarning,
                      stacklevel=stacklevel)
    if counts[1]:
        warnings.warn(_soc_clamp_message(params), OutOfRangeWarning, stacklevel=stacklevel)


def _soc_column(params: CellParameters, v_qst: np.ndarray) -> np.ndarray:
    """``soc_from_vqst`` over a v_qst column of ``CellFilter.series``, which has
    already warned about the samples it clamps."""
    # np.clip's bits, ties of signed zeros included, without its dispatch cost.
    v_qst = np.minimum(params.v_max, np.maximum(params.v_min, v_qst))
    return params.capacitance.integral_array(v_qst) / params.delta_q


class CellFilter:
    """One cell's EKF on Python floats: the filter a BMS holds per cell, and a
    ``MultiCellEkf`` memory slot.

    It keeps its state as v_qst, the RC voltages and P flat and row-major,
    and one binding of the generated kernel to the cell's constants
    (``_Constants``), made once here: ``series`` hands the state as it is to
    the whole-series loop, the other calls to the one-sample step, with the
    loop's bits and errors. A call that raises changes nothing. The
    parameters and config (sized alike) are fixed. ``ekf`` is a view: reading
    it builds a new ``EkfState``, and assigning one stores its floats.
    """

    def __init__(self, params: CellParameters, cfg: EkfConfig, ekf: EkfState | None = None):
        self._params = params
        self._series, self._step = _binder(params.n_rc + 1)(*_Constants.of(params, cfg))
        self.ekf = make_filter(cfg) if ekf is None else ekf

    @property
    def params(self) -> CellParameters:
        return self._params

    @property
    def ekf(self) -> EkfState:
        v, dyn, p = self._state
        m = len(dyn) + 1
        return EkfState(CellState(v, dyn), np.array(p).reshape(m, m))

    @ekf.setter
    def ekf(self, ekf: EkfState) -> None:
        m, dyn = self._params.n_rc + 1, ekf.mean.v_dyn_components.tolist()
        if len(dyn) != m - 1:
            raise InvalidInputError(f"state has {len(dyn)} RC components, "
                                    f"parameters define {m - 1}")
        if ekf.covariance.shape != (m, m):
            raise InvalidInputError(f"covariance must be {m}x{m}, got {ekf.covariance.shape}")
        p = ekf.covariance.ravel().tolist()
        if not all(map(math.isfinite, p)):
            raise InvalidInputError("covariance must be finite")
        if any(p[a * m + b] != p[b * m + a] for a in range(m) for b in range(a)):
            raise InvalidInputError("covariance must be symmetric")
        self._state = float(ekf.mean.v_qst), dyn, p

    @property
    def soc(self) -> float:
        """The SoC of v_qst, clamped into the window with no warning of its own."""
        return float(_soc_column(self._params, [self._state[0]])[0])

    def series(self, dt, i_pred, voltage, current) -> tuple[
            np.ndarray, np.ndarray, np.ndarray, tuple[int, int, int]]:
        """Filter a whole series with the generated loop and return its
        SoC, innovation and v_qst columns and its counts: the samples whose
        current lies outside the resistor curve, those whose v_qst lies outside
        [v_min, v_max], and those that reused a settled covariance step.

        The four columns have one entry per sample; columns of unequal
        lengths, an entry that is not finite and a negative dt are refused
        before the loop runs. Each sample is predicted over its entry of
        ``dt`` at its entry of ``i_pred``, then corrected with its
        ``voltage`` measured at its ``current``. A correction-only sample is
        a step over ``dt = 0.0``: f0 = 1, the decays are 1, Q*0 = 0 and the
        charge is zero, so it leaves the mean and P as they are, bar a -0.0
        that may become +0.0, except that v_qst is clamped into the guarded
        window as before every correction. The loop only counts; once it has
        returned or raised, this warns at most once per kind of clamp, the
        current's first, naming the caller of its caller as ``service`` does,
        so a series that raises still reports the clamps it made. The state is
        stored only when the loop returns.
        """
        params = self._params
        columns = [np.asarray(a, dtype=float) for a in (dt, i_pred, voltage, current)]
        n = len(columns[0])
        if any(len(a) != n for a in columns):
            raise InvalidInputError("dt, i_pred, voltage and current must have one length, got "
                                    + ", ".join(str(len(a)) for a in columns))
        valid = ((columns[0] >= 0.0) & (columns[0] < math.inf), *map(np.isfinite, columns[1:]))
        for name, a, ok in zip(("dt", "i_pred", "voltage", "current"), columns, valid):
            if not ok.all():
                k = int(np.argmin(ok))
                raise InvalidInputError(f"{name}[{k}] must be finite"
                                        f"{' and >= 0' * (name == 'dt')}, got {a[k]}")
        innov_out, vqst_out = np.empty(n), np.empty(n)
        columns.append(params.resistor.eval(columns[3]))
        counts = [0, 0, 0]
        try:
            state = self._series(*self._state, counts, *map(memoryview, columns),
                                 memoryview(innov_out), memoryview(vqst_out))
        finally:
            _warn_clamps(params, counts, 4)
        self._state = state
        return _soc_column(params, vqst_out), innov_out, vqst_out, tuple(counts)

    def predict(self, current: float, dt: float) -> None:
        """Advance ``dt`` > 0 seconds at the given current in one exact step,
        however long: the step with no voltage, which skips the correction."""
        _check_finite(current=current, dt=dt)
        if dt <= 0.0:
            raise ConfigurationError(f"dt must be positive, got {dt}")
        self._state = self._step(*self._state, [0, 0], float(dt), float(current), None, 0.0)[:3]

    def correct(self, measured_v: float, current: float) -> float:
        """Correct with one terminal-voltage measurement, a ``service`` over zero
        seconds, and return the innovation; its warnings name the caller."""
        _check_finite(measured_v=measured_v, current=current)
        return self.service(0.0, current, measured_v)

    def service(self, dt: float, i: float, z: float) -> float:
        """Predict over ``dt`` >= 0 seconds at the current ``i``, correct with the
        voltage ``z`` measured at ``i`` and return the innovation, in one call
        of the step; the callers check that the inputs are finite. It warns
        from the step's counts as ``series`` does from the loop's, naming the
        caller of its caller."""
        i, counts = float(i), [0, 0]
        try:
            v, dyn, p, innovation = self._step(*self._state, counts, float(dt), i, float(z), i)
        finally:
            _warn_clamps(self._params, counts, 4)
        self._state = v, dyn, p
        return innovation


def run_filter(
    params: CellParameters,
    trace: Trace,
    cfg: EkfConfig,
) -> FilterRun:
    """Filter a measured trace sample by sample: one new ``CellFilter``'s
    ``series``.

    Every sample predicts over the elapsed interval with the
    trapezoid-consistent interval current (the same convention the simulator
    uses) and then corrects; the first sample's interval is empty, so its
    step only clamps v_qst into the guarded window. Each kind of clamp warns
    once per call, naming the caller, however many samples it clamped; the
    counts are in the returned ``FilterRun``.
    """
    voltage, t, i = trace.require_voltage(), trace.timestamps, trace.current
    held = CellFilter(params, cfg)
    soc, innov, v_qst, counts = held.series(
        np.diff(t, prepend=t[0]), np.concatenate((i[:1], interval_currents(i))), voltage, i)
    return FilterRun(t.copy(), soc, innov, v_qst, held.ekf, *counts)
