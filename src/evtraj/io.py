"""Parsing, validation, and serialization of event streams and annotations.

File formats (all UTF-8 text, blank lines and `#`-prefixed comment lines skipped):

* event file:        ``t u v p`` per line, t in decimal seconds, p in {0, 1}
* association file:  ``event_index trajectory_id`` per line, -1 = noise
* box file:          ``frame_timestamp x y w h`` per line, axis-aligned pixels
"""
from __future__ import annotations

import io as _stdio
import re
import warnings
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

NOISE_ID = -1


class FormatError(ValueError):
    """Malformed or inconsistent input data."""


class _InvalidRow(FormatError):
    """Row ``index`` of an event stream or table is invalid; readers name its line."""

    def __init__(self, index: int, reason: str) -> None:
        super().__init__(f"event {index}: {reason}")
        self.index, self.reason = index, reason


@dataclass(frozen=True)
class SensorGeometry:
    """Pixel resolution of the emitting sensor."""

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"degenerate sensor geometry {self.width}x{self.height}")


def _first_failure(checks) -> None:
    """Raise :class:`_InvalidRow` for the lowest flagged row; ties go to the earlier check."""
    failures = [(int(bad.argmax()), k) for k, (bad, _) in enumerate(checks) if bad.any()]
    if failures:
        i, k = min(failures)
        raise _InvalidRow(i, checks[k][1](i))


class EventStream:
    """An immutable, time-ordered sequence of events with a fixed geometry.

    Events are stored as parallel read-only numpy arrays that the stream owns:
    each field is copied, so the caller's arrays stay writeable and later
    writes to them do not reach the stream. Every event is validated before
    any field is narrowed to its stored dtype.
    """

    __slots__ = ("geometry", "t", "u", "v", "p")

    def __init__(
        self,
        geometry: SensorGeometry,
        t: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        p: np.ndarray,
    ) -> None:
        t = np.array(t, dtype=np.float64, order="C")
        u, v, p = np.asarray(u), np.asarray(v), np.asarray(p)
        if not (u.size == v.size == p.size == t.size):
            raise ValueError("event field arrays must have equal length")
        w, h = geometry.width, geometry.height
        pixel = (u >= 0) & (u < w) & (v >= 0) & (v < h) & (u == np.trunc(u)) & (v == np.trunc(v))
        _first_failure((
            (~np.isfinite(t) | (t < 0), lambda i: f"invalid timestamp {t[i]}"),
            (np.r_[False, t[1:] < t[:-1]],
             lambda i: f"timestamp regression ({t[i]} < {t[i - 1]})"),
            (~pixel,
             lambda i: f"coordinate ({u[i]}, {v[i]}) is not a pixel of the {w}x{h} sensor"),
            ((p != 0) & (p != 1), lambda i: f"polarity must be 0 or 1, got {p[i]}"),
        ))
        u = np.array(u, dtype=np.int32, order="C")
        v = np.array(v, dtype=np.int32, order="C")
        p = np.array(p, dtype=np.uint8, order="C")
        for a in (t, u, v, p):
            a.setflags(write=False)
        object.__setattr__(self, "geometry", geometry)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("EventStream is immutable")

    def __len__(self) -> int:
        return int(self.t.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        return (
            self.geometry == other.geometry
            and np.array_equal(self.t, other.t)
            and np.array_equal(self.u, other.u)
            and np.array_equal(self.v, other.v)
            and np.array_equal(self.p, other.p)
        )


_COMMENT_LINE = re.compile(r"\n[^\S\n]*#[^\n]*")
# besides "\n", the ASCII characters that end a line for str.splitlines, and "#"
_SPECIAL = "#\r\x0b\x0c\x1c\x1d\x1e"


def _table_text(text: str) -> str:
    """``text`` with its lines ended where ``str.splitlines`` ends them, comment lines blank.

    Comment lines are blanked, not removed, so line numbers hold; np.loadtxt
    skips blank lines. ASCII text without a ``_SPECIAL`` character has no
    other line ends than ``"\n"`` and no comment, so it is returned as it is:
    rebuilt, it would hold the same lines, at most one trailing newline shorter.
    """
    if text.isascii() and not any(c in text for c in _SPECIAL):
        return text
    return _COMMENT_LINE.sub("\n", "\n" + "\n".join(text.splitlines()))[1:]


def _loadtxt(lines, dtype: list) -> np.ndarray:
    """``np.loadtxt`` that rejects ``1.5`` or ``1e3`` in an integer field; blank input is quiet.

    NumPy releases since 1.23 that still read such a token truncate it and only
    warn with a :class:`DeprecationWarning`, which is an error here.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:  # comments=None: an inline `#` after data is a field-count error
            return np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1)
        except DeprecationWarning as exc:
            raise ValueError(exc) from exc


def _read_table(source: Union[bytes, str], dtype: list, build: Callable[[np.ndarray], object]):
    """Parse one row of numbers, one per ``dtype`` field, per non-comment line into ``build``.

    Every :class:`FormatError`, including an :class:`_InvalidRow` from ``build``, names its line.
    """
    text = _table_text(source.decode("utf-8") if isinstance(source, bytes) else source)
    try:
        rows = _loadtxt(_stdio.StringIO(text), dtype)
    except ValueError:
        raise FormatError(_unreadable_line(text, dtype)) from None
    try:
        return build(rows)
    except _InvalidRow as exc:
        rows_at = [n for n, line in enumerate(text.split("\n"), start=1) if line.strip()]
        raise FormatError(f"line {rows_at[exc.index]}: {exc.reason}") from None


def _unreadable_line(text: str, dtype: list) -> str:
    """Name the first line np.loadtxt rejects; runs only after it rejected ``text``."""
    lines = text.split("\n")
    lo, hi = 0, len(lines)  # rows load independently: lines[:lo] load, lines[:hi] do not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _loadtxt(lines[lo:mid], dtype)
            lo = mid
        except ValueError:
            hi = mid
    names = " ".join(name for name, _ in dtype)
    return f"line {hi}: expected {len(dtype)} numbers `{names}`, got {lines[lo].strip()!r}"


def parse_stream(source: Union[bytes, str], geometry: SensorGeometry) -> EventStream:
    """Parse a `t u v p` event file. Out-of-order input is rejected, not sorted."""
    return _read_table(source, [("t", "f8"), ("u", "i8"), ("v", "i8"), ("p", "i8")],
                       lambda r: EventStream(geometry, r["t"], r["u"], r["v"], r["p"]))


def format_rows(row_format: str, *columns: np.ndarray) -> bytes:
    """UTF-8 text of ``row_format`` once per row, filled from one element of each column.

    One ``%`` over the interleaved column values formats the whole table.
    """
    n = len(columns[0]) if columns else 0
    values = [None] * (n * len(columns))
    for k, column in enumerate(columns):
        values[k::len(columns)] = column.tolist()
    return ((row_format * n) % tuple(values)).encode("utf-8")


# 10**1 .. 10**19: a uint64 has one digit more than the number of these it reaches
_POW10 = 10 ** np.arange(1, 20, dtype=np.uint64)
# rows per pass of format_int_rows, which bounds its temporaries
_INT_ROWS = 4096


def format_int_rows(*columns) -> bytes:
    """UTF-8 text of integer columns, one space-separated row per line, each value as ``"%d"``.

    The columns are integer arrays of any dtype, or sequences that numpy
    reads as such, all of one length. Each pass over ``_INT_ROWS`` rows
    writes the digits into a byte table by integer division, every value
    right-aligned in a field as wide as its column's widest in the pass, and
    one mask drops the padding.
    """
    columns = [np.asarray(c) for c in columns]
    for c in columns:
        if c.size and c.dtype.kind not in "biu":
            raise TypeError(f"integer column expected, got dtype {c.dtype}")
    n = len(columns[0]) if columns else 0
    return b"".join(_int_rows([c[lo:lo + _INT_ROWS] for c in columns])
                    for lo in range(0, n, _INT_ROWS))


def _int_rows(columns) -> bytes:
    fields, width = [], 0
    for c in columns:
        mag = c.astype(np.uint64)  # a negative value wraps to 2**64 - |x|, even -2**63
        neg = np.flatnonzero(c < 0)
        mag[neg] = -mag[neg]
        digits = len(str(int(mag.max())))
        neg_digits = np.searchsorted(_POW10, mag[neg], side="right") + 1
        width += max(digits, int(neg_digits.max()) + 1) if neg.size else digits
        fields.append((mag, neg, neg_digits, digits, width))  # width: the separator's column
        width += 1
    n = len(columns[0])
    table = np.empty((n, width), np.uint8)
    keep = np.zeros((n, width), bool)
    q, r = np.empty(n, np.uint64), np.empty(n, np.uint64)
    for mag, _, _, digits, end in fields:
        keep[:, end - 1] = True
        for d in range(digits):  # digit d of every value goes to column end - 1 - d
            if d:
                np.not_equal(mag, 0, out=keep[:, end - 1 - d])
            np.floor_divide(mag, 10, out=q)
            table[:, end - 1 - d] = np.subtract(mag, np.multiply(q, 10, out=r), out=r)
            mag, q = q, mag
    table += ord("0")
    for _, neg, neg_digits, _, end in fields:
        table[neg, end - 1 - neg_digits] = ord("-")
        keep[neg, end - 1 - neg_digits] = True
        table[:, end], keep[:, end] = ord(" "), True
    table[:, -1] = ord("\n")
    return table[keep].tobytes()


def serialize_stream(stream: EventStream) -> bytes:
    """Inverse of :func:`parse_stream`; timestamps keep full double precision."""
    return format_rows("%r %d %d %d\n", stream.t, stream.u, stream.v, stream.p)


ASSOCIATION_HEADER = "# event_index trajectory_id"


def format_associations(assignment: np.ndarray) -> bytes:
    """Render a per-event trajectory assignment (noise = -1) as text."""
    labels = np.asarray(assignment)
    return (ASSOCIATION_HEADER + "\n").encode("utf-8") + format_int_rows(
        np.arange(labels.size), labels)


def write_associations(assignment: np.ndarray, path) -> None:
    """Write a per-event trajectory assignment to the file at ``path``."""
    with open(path, "wb") as fh:
        fh.write(format_associations(assignment))


def _assignment(rows: np.ndarray) -> np.ndarray:
    idx, n = rows["event_index"], rows.size
    _first_failure([((idx < 0) | (idx >= n), lambda i: f"event index {idx[i]} out of range")])
    counts = np.bincount(idx, minlength=n)  # all in range, so a missing index means a repeat
    _first_failure([(counts[idx] > 1, lambda i: f"event index {idx[i]} listed more than once")])
    assignment = np.empty(n, dtype=np.int64)
    assignment[idx] = rows["trajectory_id"]
    return assignment


def read_associations(source: Union[bytes, str]) -> np.ndarray:
    """Read back :func:`format_associations` output; returns the assignment array.

    Every index in ``[0, rows)`` must appear exactly once.
    """
    return _read_table(source, [("event_index", "i8"), ("trajectory_id", "i8")], _assignment)


def _boxes(rows: np.ndarray) -> np.ndarray:
    boxes = rows.view(np.float64).reshape(-1, 5)
    t = boxes[:, 0]
    ok = np.isfinite(boxes).all(axis=1) & (boxes[:, 3] > 0) & (boxes[:, 4] > 0)
    _first_failure([(~ok, lambda i: "box fields must be finite, with positive w and h"),
                    (np.r_[False, t[1:] <= t[:-1]],
                     lambda i: f"frame timestamps must increase ({t[i]} after {t[i - 1]})")])
    return boxes


def read_box_annotations(source: Union[bytes, str]) -> np.ndarray:
    """Read `frame_timestamp x y w h` ground-truth boxes as an (n, 5) float array."""
    return _read_table(source, [(f, "f8") for f in ("frame_timestamp", "x", "y", "w", "h")], _boxes)


def format_box_annotations(rows: np.ndarray) -> bytes:
    return format_rows("%r %r %r %r %r\n", *np.asarray(rows, dtype=float).T)
