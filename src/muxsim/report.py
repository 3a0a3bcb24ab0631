"""Rate summaries shared by the analytic models and the event simulator;
`open_output`, the one opener of the files muxsim writes; and muxsim's one
CSV layer: `write_csv`, which writes every table, and `read_csv`, which
reads the observation and spectrum tables."""

import csv
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


_CSV_BLOCK_ROWS = 256


def _quoted(cell: str) -> str:
    """A string cell as csv.writer writes it beside other cells: a cell
    without a comma, a quote or a line break as it is, any other through
    the csv module, whose quoting rules vary between Python versions."""
    if "," in cell or '"' in cell or "\n" in cell or "\r" in cell:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([cell, ""])
        return buf.getvalue()[: -len(",\n")]
    return cell


def _cells(values) -> Sequence[str]:
    """CSV cells of a column block: strings quoted where they need it, each
    distinct string once, floats as %.10g, NaN as an empty cell."""
    if not isinstance(values, np.ndarray):
        quoted = {cell: _quoted(cell) for cell in set(values)}
        return [quoted[cell] for cell in values]
    # One % over the whole block: the same bytes as "%.10g" % v per cell.
    cells = (("%.10g\n" * values.size) % tuple(values.tolist())).split("\n")[:-1]
    for i in np.flatnonzero(np.isnan(values)).tolist():
        cells[i] = ""
    return cells


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """A CSV of two or more equal-length columns, each a sequence of strings
    or a float array, written in blocks of _CSV_BLOCK_ROWS rows.  Formatted
    numbers never need quoting, so the cells are joined directly."""
    n_rows = len(columns[0])
    with open_output(path, "w", newline="") as fh:
        fh.write(",".join(_cells(header)) + "\n")
        for start in range(0, n_rows, _CSV_BLOCK_ROWS):
            block = slice(start, start + _CSV_BLOCK_ROWS)
            rows = zip(*(_cells(column[block]) for column in columns))
            fh.writelines([",".join(row) + "\n" for row in rows])


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
    column.  The line number is that of the row's last line.  An empty file
    or a missing required column raises error naming the file and line 1."""
    with open(path, newline="") as fh:
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
