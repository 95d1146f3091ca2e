"""Binary snapshot format for spectral fields (magic "ADMF", version 1),
atomic writes, and the stamped CSV tables.

Layout, all little-endian:

    4s  magic   b"ADMF"
    u32 version 1
    u32 n       grid points per axis
    f64 L       box size
    u8  flags   bit 0 = divergence-free
    payload     3 components x n^3 coefficients, complex128 as (re, im)
                f64 pairs, C order over mode axes (m1, m2, m3), each axis in
                FFT order 0..n/2-1, -n/2..-1.

A CSV table is a `# config=<sha256>` stamp line, a header line and one
line per row, floats written with repr() so they re-read bit for bit.  It
is formatted one column at a time: a float64 array column takes one
float.__repr__ call per cell on its Python floats, with no per-cell type
lookup; a column of mixed types looks up each cell's formatter by type.
csv_columns_text takes the columns a caller already holds, and csv_text
takes rows and transposes them, so both forms give the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

from .spectral import SpectralField, WaveLattice

MAGIC = b"ADMF"
VERSION = 1
_HEADER = struct.Struct("<4sIIdB")

__all__ = [
    "save_field",
    "load_field",
    "write_atomic",
    "sha256_token",
    "csv_text",
    "csv_columns_text",
    "write_csv",
    "write_csv_columns",
    "read_csv",
    "read_columns",
    "SnapshotFormatError",
    "MAGIC",
    "VERSION",
]


class SnapshotFormatError(ValueError):
    """Raised when a snapshot file does not parse as ADMF version 1."""


def write_atomic(path, data) -> None:
    """Write data to path through a temporary file in the same directory
    and os.replace.  data is a str (written as UTF-8), bytes, or a
    sequence of bytes-like parts written one after another from their own
    buffers (a C-contiguous numpy array is one such part).

    A reader sees the previous file or the complete new one, never a
    partial one; if the write fails, a part that is not bytes-like
    included, the previous file is left as it was and the temporary file
    is removed.  An OSError names path, not the temporary file.  There is
    no fsync, so this guards against a failing or interrupted writer, not
    against power loss.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    parts = (data,) if isinstance(data, bytes) else data
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException as e:
        tmp.unlink(missing_ok=True)
        if isinstance(e, OSError):
            raise OSError(e.errno, e.strerror, str(path)) from e
        raise


def save_field(f: SpectralField, path) -> None:
    """Write f as an ADMF snapshot, the payload straight from the buffer
    of its coefficients (no copy for a C-contiguous complex128 array on a
    little-endian machine)."""
    flags = 1 if f.divergence_free else 0
    header = _HEADER.pack(MAGIC, VERSION, f.lattice.n, f.lattice.L, flags)
    write_atomic(path, (header, np.ascontiguousarray(f.coeffs, dtype="<c16")))


def load_field(path) -> SpectralField:
    """Read an ADMF snapshot: the header, then the payload into one new
    array.  The payload length is checked against the file's size before
    the array is allocated."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise SnapshotFormatError(f"{path}: truncated header")
        magic, version, n, L, flags = _HEADER.unpack(head)
        if magic != MAGIC:
            raise SnapshotFormatError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise SnapshotFormatError(f"{path}: unsupported version {version}")
        try:
            lattice = WaveLattice(n=n, L=L)
        except ValueError as exc:
            raise SnapshotFormatError(f"{path}: bad header: {exc}") from exc
        expected = 3 * n ** 3 * 16
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size == expected:
            coeffs = np.empty((3, n, n, n), "<c16")
            size = fh.readinto(coeffs)  # less if the file shrank meanwhile
        if size != expected:
            raise SnapshotFormatError(
                f"{path}: payload is {size} bytes, expected {expected}")
    return SpectralField(lattice, coeffs.astype(np.complex128, copy=False),
                         divergence_free=bool(flags & 1))


def _float_text(value) -> str:
    return repr(float(value))


# CSV cell text by exact type, for a column of mixed type.  Floats are
# written with repr(), which round-trips; np.float64 subclasses float, so
# float.__repr__ serves it, and the other numpy floats are unwrapped first.
# Every other type is written with str(), which for numpy ints and bools
# gives the text of the Python int or bool.
_CELL_TEXT = {
    float: float.__repr__,
    np.float64: float.__repr__,
    **{np.dtype(c).type: _float_text for c in "efg"},
}


def _column_cells(col) -> list:
    """The CSV text of each cell of one column.

    A numpy float array is written with one float.__repr__ call per cell
    on its Python floats, and a bool or integer array with str(); any
    other column goes through the per-cell _CELL_TEXT lookup.  Each gives
    the text _CELL_TEXT gives the cell itself.
    """
    if isinstance(col, np.ndarray) and col.dtype.kind in "fbiu":
        fmt = float.__repr__ if col.dtype.kind == "f" else str
        return list(map(fmt, col.tolist()))
    text = _CELL_TEXT.get
    return [text(type(v), str)(v) for v in col]


def sha256_token(params: dict) -> str:
    """sha256 of the canonical JSON form of params (sorted keys, no
    whitespace): the token of every CSV's `# config=` stamp."""
    canon = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def csv_columns_text(config_token: str, header, columns) -> str:
    """CSV body: a `# config=<sha256>` first line, then header, then one
    row per element of the columns, which must have equal lengths.

    Floats are written with repr() so re-reading reproduces them exactly.
    The text is formatted one column at a time (_column_cells).
    """
    cells = [_column_cells(col) for col in columns]
    lines = [f"# config={config_token}", ",".join(header),
             *map(",".join, zip(*cells, strict=True))]
    return "\n".join(lines) + "\n"


def csv_text(config_token: str, header, rows) -> str:
    """csv_columns_text of the table given as rows of equal length."""
    return csv_columns_text(config_token, header, zip(*rows, strict=True))


def write_csv(path, config_token: str, header, rows) -> None:
    write_atomic(path, csv_text(config_token, header, rows))


def write_csv_columns(path, config_token: str, header, columns) -> None:
    write_atomic(path, csv_columns_text(config_token, header, columns))


def read_csv(path, config_token: str | None = None) -> tuple:
    """Inverse of write_csv: returns (header, rows-of-strings).

    The leading comment line must be a `# config=` stamp; when config_token
    is given, the stamped token must equal it.  A header line must follow,
    and every non-empty row must have as many fields as the header.
    """
    header, rows, _ = _read_rows(path, config_token)
    return header, rows


def read_columns(path, config_token: str | None, names) -> dict:
    """read_csv, then {name: float64 array} of each column of names.

    Every cell of the table is converted once, in one numpy array build
    (which parses each cell as float() does).  SnapshotFormatError names
    path and the first missing column of names, or the line and column of
    the first cell that does not parse as a float.
    """
    header, rows, linenos = _read_rows(path, config_token)
    missing = [name for name in names if name not in header]
    if missing:
        raise SnapshotFormatError(f"{path}: missing column {missing[0]!r}")
    try:
        table = np.array(rows, dtype=np.float64)
    except ValueError:
        _refuse_first_bad_cell(path, header, rows, linenos)
        raise
    # one contiguous row per column
    table = np.ascontiguousarray(table.reshape(len(rows), len(header)).T)
    return {name: table[header.index(name)] for name in names}


def _read_rows(path, config_token: str | None) -> tuple:
    """read_csv's (header, rows), and the file line number of each row."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("# config="):
        raise SnapshotFormatError(f"{path}: missing '# config=' stamp")
    stamp = lines[0][len("# config="):]
    if config_token is not None and stamp != config_token:
        raise SnapshotFormatError(
            f"{path}: stamped config {stamp} does not match {config_token}")
    if len(lines) < 2:
        raise SnapshotFormatError(f"{path}: no header line")
    header = lines[1].split(",")
    rows = []
    linenos = []
    for lineno, line in enumerate(lines[2:], start=3):
        if not line:
            continue
        row = line.split(",")
        if len(row) != len(header):
            raise SnapshotFormatError(
                f"{path}: line {lineno} has {len(row)} fields, the header "
                f"{len(header)}")
        rows.append(row)
        linenos.append(lineno)
    return header, rows, linenos


def _refuse_first_bad_cell(path, header, rows, linenos) -> None:
    """SnapshotFormatError naming the line and column of the first cell of
    rows that float() refuses, if any."""
    for lineno, row in zip(linenos, rows):
        for name, cell in zip(header, row):
            try:
                float(cell)
            except ValueError:
                raise SnapshotFormatError(
                    f"{path}: line {lineno}, column {name!r}: {cell!r} is "
                    f"not a number") from None
