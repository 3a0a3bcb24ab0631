"""Rate summaries shared by the analytic models and the event simulator;
`open_output`, the one opener of the files muxsim writes; and muxsim's one
CSV layer: `write_csv`, which writes every table, and `read_csv`, which
reads the observation and spectrum tables.

`write_csv` writes the bytes that csv.writer would write over cells
formatted one by one ("%.10g" for a float, empty for NaN).  A large table
has its float cells formatted in blocks by a numpy kernel, `_float_cells`:
it derives the ten significant digits of each value with one correctly
rounded scaling and lays out %g's three forms in fixed byte slots, NUL
where a form has no byte.  A value whose digits the kernel cannot prove (a
near tie, an exponent outside -13..31, zero, inf, NaN) goes through
"%.10g" itself, and so does every cell of a small table."""

import csv
import functools
import io
import os
import stat
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Type

import numpy as np


@dataclass(frozen=True)
class RateReport:
    """Trigger / coincidence / accidental rates in Hz, and their CAR.

    Standard errors are populated only for Monte Carlo derived reports;
    analytic reports leave them as None.
    """

    r_trig_hz: float
    r_coincidence_hz: float
    r_accidental_hz: float
    r_trig_err_hz: Optional[float] = None
    r_coincidence_err_hz: Optional[float] = None
    r_accidental_err_hz: Optional[float] = None

    def __post_init__(self):
        for name in ("r_trig_hz", "r_coincidence_hz", "r_accidental_hz"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def car(self) -> Optional[float]:
        """Coincidence-to-accidental ratio; None (undefined) when r_a = 0."""
        r_a = self.r_accidental_hz
        return self.r_coincidence_hz / r_a if r_a > 0.0 else None


def open_output(path, mode: str = "w", **kwargs):
    """`open(path, mode, **kwargs)` for writing, with an existing regular
    file of one link replaced by a new file rather than truncated.

    On ext4 mounted with `discard` (2-vCPU VM), rewriting the previous 23 MB
    `trace.csv` in 250 KB writes spent 14.5-17.5 ms in an O_TRUNC open and
    1.3 ms in close, against 1.4-2.0 ms to unlink and create it and 0.02 ms
    to close; `EventTrace.to_csv` of 1e6 cycles fell from 36 ms to 15-19 ms.
    Writing and closing a 300 B file took 43 us instead of 108 us, and a
    600 KB file 195 us instead of 635 us.  The bytes written are the same
    either way.

    A replaced file gets a new inode and the mode the umask gives, a reader
    that holds the old file open keeps the old bytes, and a read-only file
    in a writable directory is replaced.  Anything else is opened as plain
    `open` would: a missing path, a symlink (written through), a file with
    other hard links (rewritten in place, so every name sees the new
    bytes), a device such as /dev/null, a FIFO, or a file whose lstat or
    unlink fails.
    """
    try:
        st = os.lstat(path)
        if stat.S_ISREG(st.st_mode) and st.st_nlink == 1:
            os.unlink(path)
    except OSError:
        pass
    return open(path, mode, **kwargs)


_CSV_BLOCK_CELLS = 2**12
# Below this many cells a table is formatted value by value: the kernel's
# fixed cost per block, about 0.3 ms, outweighs it (break-even near 1000).
_KERNEL_MIN_CELLS = 2**10


def _quoted(cell: str) -> str:
    """A string cell as csv.writer writes it beside other cells: a cell
    without a comma, a quote or a line break as it is, any other through
    the csv module, whose quoting rules vary between Python versions."""
    if "," in cell or '"' in cell or "\n" in cell or "\r" in cell:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([cell, ""])
        return buf.getvalue()[: -len(",\n")]
    return cell


def _string_cells(values, encoding: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(bytes, kept, codes) of a column of strings: each distinct cell once,
    quoted where it needs it and encoded, as a row of bytes padded with NUL
    to the widest and a row of which of those bytes are the cell's (a cell
    may hold NUL), and the row of each cell of the column."""
    index = dict.fromkeys(values)
    for code, cell in enumerate(index):
        index[cell] = code
    codes = np.fromiter(map(index.__getitem__, values), np.intp, len(values))
    encoded = [_quoted(cell).encode(encoding) for cell in index]
    width = max(map(len, encoded), default=0)
    table = np.frombuffer(b"".join(cell.ljust(width, b"\0") for cell in encoded), np.uint8)
    lengths = np.array([len(cell) for cell in encoded], dtype=np.intp)
    kept = lengths[:, None] > np.arange(width)
    return table.reshape(len(encoded), width), kept, codes


def _float_text(v: float) -> str:
    """A float cell formatted on its own: "%.10g", NaN as an empty cell."""
    return "" if v != v else "%.10g" % v


_FLOAT_SLOTS = 17


@functools.lru_cache(maxsize=None)
def _powers_of_ten() -> np.ndarray:
    """10^0..10^22, every power of ten that a float holds exactly; one
    read-only array that every call shares."""
    tens = np.array([float(10**k) for k in range(23)])
    tens.flags.writeable = False
    return tens


def _float_cells(values: np.ndarray) -> np.ndarray:
    """The "%.10g" bytes of each of n floats as a (_FLOAT_SLOTS, n) uint8
    matrix, one column per value, NUL in every slot the text does not use;
    NaN is an empty cell, all NUL.

    A value |x| = d.ddddddddd x 10^e with e = floor(log10 |x|) in -13..31
    is scaled by one exact power of ten, 10^0..10^22, to s = |x| 10^(9-e),
    so s carries one rounding (<= 0.5 ulp, under 1e-6) and rounds to the
    ten-digit mantissa of the correctly rounded %g.  Slot 0 holds the sign
    and slots 1-16 one of %g's three forms, with trailing fraction zeros
    and a bare point as NUL:

        e in 0..9      ten digits, the point after digit e
        e in -4..-1    "0.", -1-e zeros and ten digits
        otherwise      one digit, the point, nine digits, "e", the
                       exponent's sign, a hundreds slot and two digits

    Values the kernel cannot prove are formatted by "%.10g" one by one and
    laid out from slot 0 (only they use the hundreds slot):
    those whose s lies within 1e-4 of a half-integer, where the one
    rounding could decide the tie; a log10 off by one (s outside
    [1e9, 1e10)) or a mantissa that carries to 1e10; an exponent outside
    -13..31 (no exact power of ten scales it); zero, infinities and NaN.
    """
    x = np.asarray(values, dtype=float).ravel()
    a = np.abs(x)
    with np.errstate(all="ignore"):
        e = np.floor(np.log10(a))
        provable = (e >= -13.0) & (e <= 31.0)
        e[~provable] = 0.0
        e = e.astype(np.int8)
        tens = _powers_of_ten()
        s = a * tens[np.maximum(9 - e, 0).astype(np.intp)]
        big = np.flatnonzero(e > 9)
        s[big] = a[big] / tens[e[big] - 9]
        m = np.rint(s)
        provable &= (s >= 1e9) & (m < 1e10) & (np.abs(s - m) < 0.4999)
    m[~provable] = 1e9  # a placeholder until the fallback below
    # Ten digits from two halves of five, in the narrowest integers, then
    # their characters; row 10 stays NUL for the shift below.
    high = np.floor(m / 1e5)
    halves = np.empty((2, x.size), np.uint32)
    halves[0] = high
    halves[1] = m - high * 1e5
    chars = np.empty((11, x.size), np.uint8)
    chars[10] = 0
    digits = chars[:10].reshape(2, 5, x.size)
    for i in range(4, -1, -1):
        tenth = halves // np.uint32(10)
        digits[:, i] = halves - tenth * np.uint32(10)
        halves = tenth
    # Trailing zeros after the point are NUL; d0 is never zero.
    zero_tail = chars[:10] == 0
    for i in range(8, -1, -1):
        zero_tail[i] &= zero_tail[i + 1]
    places = np.arange(11, dtype=np.int8)[:, None]
    point_at = e * ((e >= 0) & (e <= 9))  # digits before the point, less one
    point = np.uint8(46) * (zero_tail.sum(axis=0, dtype=np.int8) + point_at < 9)
    zero_tail &= places[:10] > point_at
    chars[:10] += np.uint8(48)
    chars[:10] *= ~zero_tail

    out = np.empty((_FLOAT_SLOTS, x.size), np.uint8)
    out[0] = np.uint8(45) * (x < 0.0)
    out[1] = chars[0]
    # Slot 1 + j holds digit j before the point, the point, digit j - 1 after.
    j = places[1:]
    region = out[2:12]
    np.multiply(chars[1:], point_at >= j, out=region)
    region += point * (point_at == j - 1)
    region += chars[:10] * (point_at < j - 1)
    out[12:] = 0
    exponent = np.flatnonzero((e > 9) | (e < -4))
    if exponent.size:
        e_x = e[exponent]
        magnitude = np.abs(e_x)
        out[12, exponent] = 101
        out[13, exponent] = 43 + 2 * (e_x < 0)
        out[15, exponent] = 48 + magnitude // 10
        out[16, exponent] = 48 + magnitude % 10
    small = np.flatnonzero(provable & (e < 0) & (e >= -4))
    if small.size:
        zeros = -1 - e[small]
        out[1, small] = 48
        out[2, small] = 46
        out[3:6, small] = np.uint8(48) * (places[:3] < zeros)
        out[6:16, small] = chars[:10, small]
    bad = np.flatnonzero(~provable)
    if bad.size:
        texts = [_float_text(v).encode("ascii") for v in x[bad].tolist()]
        padded = b"".join(text.ljust(_FLOAT_SLOTS, b"\0") for text in texts)
        out[:, bad] = np.frombuffer(padded, np.uint8).reshape(bad.size, _FLOAT_SLOTS).T
    return out


def _rows(columns: Sequence, start: int, stop: int) -> np.ndarray:
    """The CSV bytes of rows start..stop of columns, each a float array or
    the (bytes, kept, codes) of _string_cells.

    One _float_cells call formats the block's float cells; the slots that
    none of them uses are dropped.  Every cell then takes the same slots in
    one (rows, columns, slots + 1) uint8 matrix, NUL where the cell has no
    byte, ',' or '\n' in its last slot, and one compress joins the bytes."""
    n = stop - start
    floats, strings = [], []
    for i, column in enumerate(columns):
        if isinstance(column, np.ndarray):
            floats.append(i)
        else:
            bytes_, kept, codes = column
            rows = codes[start:stop]
            strings.append((i, bytes_[rows], kept[rows]))
    slots = np.zeros((0, len(floats), n), np.uint8)
    if floats:
        slots = _float_cells(np.stack([columns[i][start:stop] for i in floats]))
        slots = slots[slots.any(axis=1)].reshape(-1, len(floats), n)
    width = max([len(slots), *(cells.shape[1] for _, cells, _ in strings)])
    buf = np.zeros((n, len(columns), width + 1), np.uint8)
    buf[:, :, width] = ord(",")
    buf[:, -1, width] = ord("\n")
    buf[:, floats, : len(slots)] = slots.transpose(2, 1, 0)
    for i, cells, _ in strings:
        buf[:, i, : cells.shape[1]] = cells
    keep = buf != 0
    for i, cells, kept in strings:
        keep[:, i, : cells.shape[1]] = kept
    return buf[keep]


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """A CSV of two or more equal-length columns, each a sequence of strings
    or a float array: the bytes csv.writer writes through a text handle
    over cells formatted one by one, floats by _float_text.  A table of
    _KERNEL_MIN_CELLS cells or more is written in blocks of about
    _CSV_BLOCK_CELLS cells by _rows and the _float_cells kernel.  Columns of
    unequal length raise ValueError."""
    lengths = [len(column) for column in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns of unequal length: {lengths}")
    with open_output(path, "w", newline="") as fh:
        fh.write(",".join(map(_quoted, header)) + "\n")
        if lengths[0] * len(columns) < _KERNEL_MIN_CELLS:
            cells = [
                map(_float_text, column.tolist()) if isinstance(column, np.ndarray)
                else map(_quoted, column)
                for column in columns
            ]
            fh.writelines([",".join(row) + "\n" for row in zip(*cells)])
            return
        # The rows go as bytes to the binary buffer under the text handle.
        fh.flush()
        encoding, out = fh.encoding, fh.buffer
        columns = [
            column if isinstance(column, np.ndarray) else _string_cells(column, encoding)
            for column in columns
        ]
        block_rows = max(1, _CSV_BLOCK_CELLS // len(columns))
        for start in range(0, lengths[0], block_rows):
            out.write(_rows(columns, start, min(start + block_rows, lengths[0])))


def read_csv(
    path,
    required: Sequence[str],
    optional: Sequence[str],
    error: Type[Exception],
) -> Iterator[Tuple[int, List[Optional[str]]]]:
    """(line number, cells) of each row of the CSV at path, the cells those
    of the required and then the optional columns, as csv.DictReader gives
    them: blank lines are skipped, the last of repeated column names wins,
    a short row's missing cells read None, and so does an absent optional
    column.  The line number is that of the row's last line.  The file is
    read as UTF-8, a leading byte-order mark dropped, as spreadsheets write
    one.  An empty file or a missing required column raises error naming
    the file and line 1."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise error(f"{path}: empty file (line 1)")
        column = {name: i for i, name in enumerate(header)}
        missing = [name for name in required if name not in column]
        if missing:
            raise error(f"{path}: missing columns {missing} (line 1)")
        at = [column.get(name) for name in (*required, *optional)]
        for row in reader:
            if row:
                yield reader.line_num, [
                    None if i is None or i >= len(row) else row[i] for i in at
                ]
