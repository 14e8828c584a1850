"""Event stream and annotation format tests."""
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import events_of
from evtraj.io import (
    NOISE_ID,
    EventStream,
    FormatError,
    SensorGeometry,
    format_associations,
    format_box_annotations,
    parse_stream,
    read_associations,
    read_box_annotations,
    serialize_stream,
    write_associations,
)

GEOM = SensorGeometry(240, 180)


def test_parse_single_event():
    stream = parse_stream(b"0.000100 120 85 1", GEOM)
    assert len(stream) == 1
    assert events_of(stream) == [(0.0001, 120, 85, 1)]


def test_parse_rejects_timestamp_regression():
    with pytest.raises(FormatError, match="line 2"):
        parse_stream(b"0.5 10 10 0\n0.4 11 11 1", GEOM)


def test_parse_empty_input():
    stream = parse_stream(b"", GEOM)
    assert len(stream) == 0


def test_parse_skips_comments_and_blank_lines():
    text = b"# header\n\n0.1 1 2 0\n  # trailing comment\n0.2 3 4 1\n"
    stream = parse_stream(text, GEOM)
    assert len(stream) == 2
    assert events_of(stream)[1] == (0.2, 3, 4, 1)


def test_parse_allows_equal_timestamps():
    stream = parse_stream(b"0.5 1 1 0\n0.5 2 2 1", GEOM)
    assert len(stream) == 2


def test_parse_keeps_duplicate_events():
    stream = parse_stream(b"0.5 1 1 0\n0.5 1 1 0", GEOM)
    assert len(stream) == 2


@pytest.mark.parametrize(
    "line",
    [
        b"0.1 240 0 0",  # u out of bounds
        b"0.1 0 180 0",  # v out of bounds
        b"0.1 -1 0 0",  # negative coordinate
        b"0.1 0 0 2",  # bad polarity
        b"-0.1 0 0 0",  # negative timestamp
        b"nan 0 0 0",  # non-finite timestamp
        b"0.1 0 0",  # missing field
        b"0.1 a 0 0",  # non-numeric field
        b"0.1 0 0 0 # x",  # inline comment
        b"0.1 1.5 0 0",  # non-integral coordinate
        b"0.1 0 0 0 0",  # extra field
        b"0.1 99999999999 0 0",  # coordinate past int32
    ],
)
def test_parse_rejects_malformed_lines(line):
    with pytest.raises(FormatError, match="line 1"):
        parse_stream(line, GEOM)


def test_parse_error_counts_comment_and_blank_lines():
    with pytest.raises(FormatError, match="line 4"):
        parse_stream(b"# h\n\n0.1 0 0 0\n0.2 0 0 5", GEOM)


def test_parse_comment_only_input():
    assert len(parse_stream(b"# header\n  # more\n\n", GEOM)) == 0


def _float_parsing_loadtxt(real):
    """np.loadtxt as NumPy releases since 1.23 that still accept ``1.5`` in an integer field."""

    def loadtxt(fname, dtype, **kwargs):
        try:
            return real(fname, dtype=dtype, **kwargs)
        except ValueError:
            try:
                warnings.warn("Parsing an integer via a float is deprecated.", DeprecationWarning)
            except DeprecationWarning as exc:  # loadtxt chains a raised warning
                raise ValueError("could not convert") from exc
            if hasattr(fname, "seek"):
                fname.seek(0)
            as_float = [(name, "f8") for name, _ in dtype]
            return real(fname, dtype=as_float, **kwargs).astype(dtype)

    return loadtxt


@pytest.mark.parametrize("float_parsing_numpy", [False, True], ids=["numpy", "float_parsing_numpy"])
@pytest.mark.parametrize(
    "read, payload, line",
    [
        (lambda s: parse_stream(s, GEOM), b"0.1 1.5 0 0", 1),
        (lambda s: parse_stream(s, GEOM), b"0.1 1e3 0 0", 1),
        (lambda s: parse_stream(s, GEOM), b"0.1 0 0 0\n0.2 1.5 0 0\n0.3 0 0 0", 2),
        (read_associations, b"0.5 0\n", 1),
        (read_associations, b"0 1\n1 0.5\n", 2),
    ],
    ids=["u_1.5", "u_1e3", "u_1.5_on_line_2", "index_0.5", "id_0.5_on_line_2"],
)
def test_integer_fields_reject_non_integral_tokens(monkeypatch, float_parsing_numpy, read,
                                                   payload, line):
    # Runs under Python's default warning filters, which hide library
    # DeprecationWarnings, so the suite-wide error filter cannot do the rejecting.
    if float_parsing_numpy:
        monkeypatch.setattr(np, "loadtxt", _float_parsing_loadtxt(np.loadtxt))
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        with pytest.raises(FormatError, match=f"line {line}:"):
            read(payload)


@pytest.mark.parametrize(
    "u, p",
    [
        (np.array([0, 2**32], dtype=np.int64), [0, 0]),  # would wrap to 0 in int32
        ([0, 0], [0, 256]),  # would wrap to 0 in uint8
        ([0, 0], [0, 1.7]),  # would truncate to 1
        ([0, 5.9], [0, 0]),  # would truncate to 5
    ],
    ids=["u_2**32", "p_256", "p_1.7", "u_5.9"],
)
def test_stream_rejects_fields_before_narrowing(u, p):
    with pytest.raises(FormatError, match="event 1"):
        EventStream(GEOM, [0.1, 0.2], u, [0, 0], p)


def test_stream_is_immutable():
    stream = parse_stream(b"0.1 1 2 0", GEOM)
    with pytest.raises(AttributeError):
        stream.t = np.zeros(1)
    with pytest.raises(ValueError):
        stream.t[0] = 5.0


def test_stream_equality_and_fields():
    a = parse_stream(b"0.1 1 2 0\n0.2 3 4 1", GEOM)
    b = parse_stream(b"0.1 1 2 0\n0.2 3 4 1", GEOM)
    c = parse_stream(b"0.1 1 2 0\n0.2 3 4 0", GEOM)
    assert a == b
    assert a != c
    assert events_of(a) == [(0.1, 1, 2, 0), (0.2, 3, 4, 1)]
    assert (a.t.dtype, a.u.dtype, a.v.dtype, a.p.dtype) == (np.float64, np.int32, np.int32,
                                                          np.uint8)


def test_geometry_validation():
    with pytest.raises(ValueError):
        SensorGeometry(0, 10)
    with pytest.raises(ValueError):
        SensorGeometry(10, -1)


@st.composite
def streams(draw):
    n = draw(st.integers(min_value=0, max_value=50))
    ts = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
    )
    us = draw(st.lists(st.integers(0, GEOM.width - 1), min_size=n, max_size=n))
    vs = draw(st.lists(st.integers(0, GEOM.height - 1), min_size=n, max_size=n))
    ps = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return EventStream(
        GEOM,
        np.array(ts, dtype=np.float64),
        np.array(us, dtype=np.int32),
        np.array(vs, dtype=np.int32),
        np.array(ps, dtype=np.uint8),
    )


@given(streams())
def test_round_trip_identity(stream):
    assert parse_stream(serialize_stream(stream), GEOM) == stream


@given(streams(), st.randoms())
def test_parse_rejects_order_violations(stream, rng):
    if len(stream) < 2:
        return
    lines = serialize_stream(stream).decode().splitlines()
    rng.shuffle(lines)
    shuffled = "\n".join(lines)
    ts = [float(l.split()[0]) for l in lines]
    if all(a <= b for a, b in zip(ts, ts[1:])):
        # equal-timestamp events may swap places, so compare as multisets
        parsed = parse_stream(shuffled, GEOM)
        assert sorted(events_of(parsed)) == sorted(events_of(stream))
    else:
        with pytest.raises(FormatError):
            parse_stream(shuffled, GEOM)


def test_associations_empty():
    assert format_associations(np.array([], dtype=np.int64)) == b"# event_index trajectory_id\n"


def test_associations_all_one_trajectory():
    payload = format_associations(np.zeros(3, dtype=np.int64))
    lines = payload.decode().splitlines()
    assert lines[1:] == ["0 0", "1 0", "2 0"]


def test_associations_noise_sentinel():
    payload = format_associations(np.array([0, NOISE_ID]))
    assert payload.decode().splitlines()[2] == f"1 {NOISE_ID}"


@given(st.lists(st.integers(-1, 20), max_size=40))
def test_associations_round_trip(labels):
    arr = np.array(labels, dtype=np.int64)
    assert np.array_equal(read_associations(format_associations(arr)), arr)


def test_write_associations_to_path(tmp_path):
    path = tmp_path / "assoc.txt"
    write_associations(np.array([2, NOISE_ID, 0]), str(path))
    assert np.array_equal(read_associations(path.read_bytes()), [2, NOISE_ID, 0])


def test_read_associations_rejects_bad_index():
    with pytest.raises(FormatError):
        read_associations(b"5 0\n")


@pytest.mark.parametrize("payload", [b"0 1\n0 2\n", b"1 0\n1 0\n", b"0 1\n2 2\n"])
def test_read_associations_rejects_duplicate_or_missing_index(payload):
    with pytest.raises(FormatError):
        read_associations(payload)


def test_read_associations_accepts_any_row_order():
    assert read_associations(b"1 5\n0 -1\n").tolist() == [NOISE_ID, 5]


def test_box_annotations_round_trip():
    rows = np.array([[0.0, 1.5, 2.5, 10.0, 20.0], [0.5, 2.0, 3.0, 10.0, 20.0]])
    assert np.array_equal(read_box_annotations(format_box_annotations(rows)), rows)


def test_box_annotations_reject_degenerate_box():
    with pytest.raises(FormatError):
        read_box_annotations(b"0.0 1 1 0 5\n")


@pytest.mark.parametrize("payload", [b"0.0 nan 1 5 5\n", b"0.0 1 1 5 inf\n"])
def test_box_annotations_reject_non_finite_field(payload):
    with pytest.raises(FormatError, match="line 1"):
        read_box_annotations(payload)


def test_box_annotations_reject_bad_field_count():
    with pytest.raises(FormatError, match="line 1"):
        read_box_annotations(b"0.0 1 1 5\n")


# --- the per-line formatters that the one-%-per-file writers replaced ------

def per_line_serialize(stream):
    return "".join(f"{t!r} {u} {v} {p}\n" for t, u, v, p in zip(
        stream.t.tolist(), stream.u.tolist(), stream.v.tolist(), stream.p.tolist())).encode()


def per_line_associations(assignment):
    lines = ["# event_index trajectory_id"]
    lines += [f"{i} {int(label)}" for i, label in enumerate(np.asarray(assignment).tolist())]
    return ("\n".join(lines) + "\n").encode()


def per_line_boxes(rows):
    return "".join(f"{t!r} {x!r} {y!r} {w!r} {h!r}\n"
                   for t, x, y, w, h in np.asarray(rows, dtype=float).tolist()).encode()


# floats whose shortest repr is not the obvious decimal
ODD_FLOATS = [1e-05, 0.30000000000000004, 123456.789, 1e16, 5e-324, 2.0 ** 53 + 2, 0.1 + 0.7]


@st.composite
def odd_streams(draw):
    n = draw(st.integers(min_value=0, max_value=60))
    ts = sorted(draw(st.lists(st.one_of(st.sampled_from(ODD_FLOATS),
                                        st.floats(min_value=0.0, max_value=1e17)),
                              min_size=n, max_size=n)))
    us = draw(st.lists(st.integers(0, GEOM.width - 1), min_size=n, max_size=n))
    vs = draw(st.lists(st.integers(0, GEOM.height - 1), min_size=n, max_size=n))
    ps = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return EventStream(GEOM, np.array(ts, dtype=np.float64), np.array(us, dtype=np.int32),
                       np.array(vs, dtype=np.int32), np.array(ps, dtype=np.uint8))


@given(odd_streams())
def test_serialize_matches_per_line_formatter(stream):
    assert serialize_stream(stream) == per_line_serialize(stream)


@given(st.lists(st.integers(-1, 2 ** 63 - 1), max_size=60))
def test_format_associations_matches_per_line_formatter(labels):
    arr = np.array(labels, dtype=np.int64)
    assert format_associations(arr) == per_line_associations(arr)


@given(st.lists(st.lists(st.one_of(st.sampled_from(ODD_FLOATS + [-0.0, -2.5]), st.floats()),
                         min_size=5, max_size=5), max_size=30))
def test_format_box_annotations_matches_per_line_formatter(rows):
    table = np.array(rows, dtype=float).reshape(-1, 5)
    assert format_box_annotations(table) == per_line_boxes(table)
