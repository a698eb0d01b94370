"""Property tests of the trace CSV format.

``save_trace``/``load_trace`` must round-trip every finite float bit for bit,
and ``load_trace``'s bulk reader must decide every body exactly as the line
parser does: the same arrays, or the same exception and message.
"""

import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from cellsoc import Trace  # noqa: E402
from cellsoc import traceio  # noqa: E402
from cellsoc.traceio import PROFILE_HEADER, TRACE_HEADER, load_trace, save_trace  # noqa: E402

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)

BIG = 1.7976931348623157e308
SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -1.5e-310,
            2.2250738585072014e-308, 1e308, -1e308, BIG, -BIG]

values = st.one_of(st.sampled_from(SPECIALS), st.floats(allow_nan=False, allow_infinity=False))
# Bounded so consecutive differences cannot overflow to inf.
stamp_values = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 8e307, -8e307]),
    st.floats(min_value=-8e307, max_value=8e307),
)


@st.composite
def traces(draw):
    # unique=True keys by equality, so 0.0 and -0.0 never both appear.
    t = sorted(draw(st.lists(stamp_values, min_size=2, max_size=30, unique=True)))
    n = len(t)
    current = draw(st.lists(values, min_size=n, max_size=n))
    voltage = draw(st.none() | st.lists(values, min_size=n, max_size=n))
    return Trace(np.array(t), np.array(current), None if voltage is None else np.array(voltage))


def bits(a):
    return a.view(np.int64)


@PROPERTY
@given(traces())
def test_csv_round_trip_is_bit_exact(tmp_path_factory, trace):
    path = tmp_path_factory.mktemp("rt") / "trace.csv"
    save_trace(trace, path)
    again = load_trace(path)
    assert np.array_equal(bits(again.timestamps), bits(trace.timestamps))
    assert np.array_equal(bits(again.current), bits(trace.current))
    if trace.voltage is None:
        assert again.voltage is None
    else:
        assert np.array_equal(bits(again.voltage), bits(trace.voltage))
    path2 = path.with_name("again.csv")
    save_trace(again, path2)
    assert path2.read_bytes() == path.read_bytes()


FIELDS = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["inf", "-inf", "nan", "1_0", "1e999", "-0.0", "4.9e-324", "", " ",
                     "oops", "#", "1#x", "0x10", "１", "1 2", "'1'", "1\x00", "\xa02\xa0"]),
)
PADDING = st.sampled_from(["", " ", "\t", "  "])
BLANKS = st.sampled_from(["", " ", "\t", "  \t ", "\x0c", "\xa0"])
ENDINGS = st.sampled_from(["\n", "\r\n"])


@st.composite
def csv_texts(draw):
    n_cols = draw(st.sampled_from([2, 3]))
    lines = [TRACE_HEADER if n_cols == 3 else PROFILE_HEADER]
    # Now and then every row has the other schema's width.
    width = draw(st.sampled_from([n_cols, n_cols, n_cols, 5 - n_cols]))
    stamp = 0
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row", "row", "row", "row", "blank", "comment", "bad"]))
        if kind == "row":
            stamp += 1
            fields = [str(stamp), *(repr(draw(values)) for _ in range(width - 1))]
            fields = [draw(PADDING) + f + draw(PADDING) for f in fields]
            lines.append(",".join(fields))
        elif kind == "blank":
            lines.append(draw(BLANKS))
        elif kind == "comment":
            lines.append(draw(st.sampled_from(["# note", "#", f"{stamp + 1},1,2 # note"])))
        else:
            count = draw(st.sampled_from([n_cols - 1, n_cols, n_cols, n_cols + 1]))
            lines.append(",".join(draw(FIELDS) for _ in range(count)))
    text = "".join(line + draw(ENDINGS) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


def outcome(load, path):
    try:
        trace = load(path)
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    cols = [trace.timestamps, trace.current]
    if trace.voltage is not None:
        cols.append(trace.voltage)
    return ("trace", [bits(c).tolist() for c in cols])


@PROPERTY
@given(csv_texts())
@example(TRACE_HEADER + "\n")
@example(PROFILE_HEADER + "\r\n")
@example(TRACE_HEADER + "\n0,1,3.5\n")
@example(PROFILE_HEADER + "\n0,1\n1_0,2\n")
@example(PROFILE_HEADER + "\n0,1,3.5\n1,2,3.5\n")
@example(TRACE_HEADER + "\n0,1\n1,2\n")
@example(PROFILE_HEADER + "\n0,1\n\n   \n2,inf\n")
def test_bulk_reader_decides_like_the_line_parser(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "body.csv"
    path.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(load_trace, path)
    assert got == outcome(traceio._parse_trace_lines, path)


def test_clean_file_is_read_without_the_line_parser(tmp_path, monkeypatch):
    trace = Trace(np.arange(50.0), np.linspace(-2.0, 2.0, 50), np.full(50, 3.3))
    path = tmp_path / "trace.csv"
    save_trace(trace, path)

    def refuse(path):
        raise AssertionError("line parser used for a clean file")

    monkeypatch.setattr(traceio, "_parse_trace_lines", refuse)
    again = load_trace(path)
    assert np.array_equal(again.voltage, trace.voltage)


# Bit patterns the formatter must keep apart or treat alike: both zeros,
# both infinities, NaNs with different signs and payloads, subnormals.
SPECIAL_BITS = [0x0, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
                0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                0x7FFFFFFFFFFFFFFF, 0x7FF4000000000000, 0x1, 0x800FFFFFFFFFFFFF,
                0x000FFFFFFFFFFFFF]
bit_patterns = st.one_of(st.sampled_from(SPECIAL_BITS), st.integers(0, 2**64 - 1))


def floats_from_bits(patterns):
    return np.array(patterns, dtype=np.uint64).view(np.float64)


@st.composite
def float_columns(draw):
    """A column with forced runs, in one of the forms callers hand in."""
    kind = draw(st.sampled_from(["runs", "zeros", "ints"]))
    if kind == "zeros":
        col = np.array([-0.0 if b else 0.0 for b in draw(st.lists(st.booleans(), max_size=12))])
    elif kind == "ints":
        runs = draw(st.lists(st.tuples(st.integers(-2**62, 2**62), st.integers(1, 4)),
                             max_size=10))
        col = np.array([v for v, n in runs for _ in range(n)], dtype=np.int64)
    else:
        runs = draw(st.lists(st.tuples(bit_patterns, st.integers(1, 4)), max_size=10))
        col = floats_from_bits([b for b, n in runs for _ in range(n)])
    form = draw(st.sampled_from(["array", "strided", "list"]))
    if form == "strided":
        wide = np.zeros((col.size, 2), dtype=col.dtype)
        wide[:, 0] = col
        return wide[:, 0]
    return col.tolist() if form == "list" else col


@settings(max_examples=200, deadline=None, derandomize=True)
@given(float_columns())
@example([])
@example(np.array([0.0]))
@example(floats_from_bits([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000]))
@example(np.array([0.0, -0.0, 0.0, -0.0, -0.0]))
@example(np.arange(5))
def test_float_texts_is_repr_of_each_value(col):
    expected = [repr(x) for x in np.asarray(col, dtype=float).tolist()]
    assert traceio._float_texts(col) == expected
