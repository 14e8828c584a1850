"""Event stream and annotation format tests."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from evtraj.io import (
    NOISE_ID,
    Event,
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
    assert stream[0] == Event(t=0.0001, u=120, v=85, p=1)


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
    assert stream[1] == Event(0.2, 3, 4, 1)


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
    ],
)
def test_parse_rejects_malformed_lines(line):
    with pytest.raises(FormatError, match="line 1"):
        parse_stream(line, GEOM)


def test_stream_is_immutable():
    stream = parse_stream(b"0.1 1 2 0", GEOM)
    with pytest.raises(AttributeError):
        stream.t = np.zeros(1)
    with pytest.raises(ValueError):
        stream.t[0] = 5.0


def test_stream_equality_and_iteration():
    a = parse_stream(b"0.1 1 2 0\n0.2 3 4 1", GEOM)
    b = parse_stream(b"0.1 1 2 0\n0.2 3 4 1", GEOM)
    c = parse_stream(b"0.1 1 2 0\n0.2 3 4 0", GEOM)
    assert a == b
    assert a != c
    assert list(a) == [Event(0.1, 1, 2, 0), Event(0.2, 3, 4, 1)]


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
        assert sorted((e.t, e.u, e.v, e.p) for e in parsed) == sorted(
            (e.t, e.u, e.v, e.p) for e in stream
        )
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


def test_box_annotations_reject_bad_field_count():
    with pytest.raises(FormatError, match="line 1"):
        read_box_annotations(b"0.0 1 1 5\n")
