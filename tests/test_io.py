"""Snapshot binary format, stamped-CSV round-trip and atomic-write tests."""

import builtins
import math
import errno
import io as pyio
import struct

import click
import numpy as np
import pytest

from admles import cli, io
from admles.filters import Helmholtz
from admles.solvers import SimConfig, run_experiment, write_outputs
from admles.spectral import WaveLattice, random_solenoidal, zero_field


def test_header_layout_golden(tmp_path):
    # 4s magic + u32 version + u32 n + f64 L + u8 flags = 21 bytes,
    # then 3 * n^3 complex128 values
    lat = WaveLattice(4, L=2.0 * np.pi)
    path = tmp_path / "z.admf"
    io.save_field(zero_field(lat), path)
    raw = path.read_bytes()
    assert len(raw) == 21 + 3 * 4 ** 3 * 16 == 3093
    assert raw[:4] == b"ADMF"
    version, n = struct.unpack_from("<II", raw, 4)
    (L,) = struct.unpack_from("<d", raw, 12)
    (flags,) = struct.unpack_from("<B", raw, 20)
    assert (version, n, L) == (1, 4, 2.0 * np.pi)
    assert flags == 1  # zero_field is flagged divergence-free


def test_roundtrip_exact(tmp_path):
    lat = WaveLattice(8, L=1.5)
    f = random_solenoidal(lat, decay=0.7, seed=2)
    path = tmp_path / "f.admf"
    io.save_field(f, path)
    g = io.load_field(path)
    assert g.lattice == lat
    assert g.divergence_free
    assert np.array_equal(g.coeffs, f.coeffs)  # bit-exact


def test_flags_bit(tmp_path):
    from admles.spectral import SpectralField

    lat = WaveLattice(4)
    f = SpectralField(lat, np.zeros((3, 4, 4, 4), dtype=np.complex128),
                      divergence_free=False)
    path = tmp_path / "g.admf"
    io.save_field(f, path)
    assert path.read_bytes()[20] == 0
    assert not io.load_field(path).divergence_free


def test_load_rejects_garbage(tmp_path):
    lat = WaveLattice(4)
    good = tmp_path / "good.admf"
    io.save_field(zero_field(lat), good)
    raw = bytearray(good.read_bytes())

    short = tmp_path / "short.admf"
    short.write_bytes(raw[:10])
    with pytest.raises(io.SnapshotFormatError, match="truncated"):
        io.load_field(short)

    bad_magic = tmp_path / "magic.admf"
    bad_magic.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(io.SnapshotFormatError, match="magic"):
        io.load_field(bad_magic)

    bad_version = tmp_path / "version.admf"
    mutated = bytearray(raw)
    mutated[4:8] = struct.pack("<I", 99)
    bad_version.write_bytes(bytes(mutated))
    with pytest.raises(io.SnapshotFormatError, match="version"):
        io.load_field(bad_version)

    bad_size = tmp_path / "size.admf"
    bad_size.write_bytes(bytes(raw) + b"\x00" * 8)
    with pytest.raises(io.SnapshotFormatError, match="bytes"):
        io.load_field(bad_size)


def test_csv_roundtrip(tmp_path):
    header = ["N", "t", "value"]
    rows = [[0, 0.1, 1.0 / 3.0], [1, 0.2, 1e-17], [2, 0.30000000000000004, -0.0]]
    path = tmp_path / "t.csv"
    io.write_csv(path, "deadbeef", header, rows)
    got_header, got_rows = io.read_csv(path)
    assert got_header == header
    assert path.read_text().splitlines()[0] == "# config=deadbeef"
    # repr round-trip: every float comes back bit-identical
    for row, got in zip(rows, got_rows):
        assert int(got[0]) == row[0]
        for cell, value in zip(got[1:], row[1:]):
            assert float(cell) == value
            assert struct.pack("<d", float(cell)) == struct.pack("<d", value)


def test_csv_text_formatting():
    text = io.csv_text("abc", ["a", "b"], [[True, 0.1], [7, float("inf")]])
    lines = text.splitlines()
    assert lines == ["# config=abc", "a,b", "True,0.1", "7,inf"]
    assert text.endswith("\n")


def test_csv_text_numpy_scalars_match_python_values():
    row = [np.True_, np.False_, np.int64(-3), np.uint8(200),
           np.float64(1e-300), np.float32(0.1), np.float16(0.5),
           np.longdouble(0.25), np.float64("-inf"), None]
    cells = io.csv_text("t", ["h"], [row]).splitlines()[2].split(",")
    assert cells == ["True", "False", "-3", "200", "1e-300",
                     repr(float(np.float32(0.1))), "0.5", "0.25", "-inf",
                     "None"]


def test_read_csv_requires_stamp(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(io.SnapshotFormatError, match="config"):
        io.read_csv(path)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(io.SnapshotFormatError):
        io.read_csv(empty)


@pytest.mark.parametrize("n,L", [(5, 1.0), (2, 1.0), (4, 0.0), (4, -1.0),
                                 (4, float("inf")), (4, float("nan"))])
def test_load_rejects_bad_lattice_header(tmp_path, n, L):
    # a payload of the size the header implies, so only n or L is wrong
    path = tmp_path / "lattice.admf"
    header = struct.pack("<4sIIdB", b"ADMF", 1, n, L, 0)
    path.write_bytes(header + b"\x00" * (3 * n ** 3 * 16))
    with pytest.raises(io.SnapshotFormatError, match="header"):
        io.load_field(path)


class _FailingFile:
    """A file whose write stores half the data, then fails like a full
    disk."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def close(self):
        self._fh.close()


def _write_config_json(path):
    cfg = SimConfig(n=4, nu=0.1, spec=Helmholtz(alpha=0.5), T=0.01, dt=0.01)
    write_outputs(run_experiment(cfg, progress=False), path.parent)


_WRITERS = {
    "save_field": lambda path: io.save_field(zero_field(WaveLattice(4)), path),
    "write_csv": lambda path: io.write_csv(path, "t", ["a"], [[1.0]]),
    "emit_csv": lambda path: cli._emit_csv(path, "t", ["a"], [[1.0]]),
    "config_json": _write_config_json,
}


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, writer):
    target = tmp_path / ("config.json" if writer == "config_json"
                         else "out.bin")
    target.write_bytes(b"previous contents\n")
    before = sorted(p.name for p in tmp_path.iterdir())
    real_open = builtins.open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _FailingFile(fh) if set(mode) & set("wxa") else fh

    monkeypatch.setattr(builtins, "open", failing_open)
    monkeypatch.setattr(pyio, "open", failing_open)
    # the CLI's writer turns the OSError into its one-line error
    error = click.ClickException if writer == "emit_csv" else OSError
    with pytest.raises(error, match="No space"):
        _WRITERS[writer](target)
    monkeypatch.undo()
    assert target.read_bytes() == b"previous contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_write_atomic_replaces_whole_file(tmp_path):
    target = tmp_path / "f.txt"
    target.write_text("a much longer previous body\n")
    io.write_atomic(target, "new\n")
    assert target.read_bytes() == b"new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]


@pytest.mark.parametrize("target, error", [
    ("f.csv/", IsADirectoryError),
    ("nodir/f.csv", FileNotFoundError),
])
def test_write_atomic_error_names_the_target(tmp_path, target, error):
    # the error used to name the hidden temporary file next to the target
    target = tmp_path / target
    if error is IsADirectoryError:
        target.mkdir()
    with pytest.raises(error) as err:
        io.write_atomic(target, "x\n")
    assert err.value.filename == str(target)
    assert ".tmp" not in str(err.value)
    assert not list(tmp_path.rglob("*.tmp"))


def _per_cell_columns(path, names):
    header, rows = io.read_csv(path)
    return {name: np.array([float(row[header.index(name)]) for row in rows])
            for name in names}


def test_read_columns_matches_per_cell_float(tmp_path):
    # random floats over the whole exponent range, written with repr, and
    # the special values: one array build gives float()'s bits
    rng = np.random.default_rng(11)
    n = 3000
    values = rng.standard_normal((n, 3)) \
        * 10.0 ** rng.integers(-320, 308, (n, 3))
    values[:8, 1] = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                     1.7976931348623157e308, 2.2250738585072014e-308]
    path = tmp_path / "r.csv"
    io.write_csv(path, "tok", ["N", "a", "b", "c"],
                 [[i % 5, *row] for i, row in enumerate(values.tolist())])
    names = ("a", "b", "c", "N")
    got = io.read_columns(path, "tok", names)
    want = _per_cell_columns(path, names)
    for name in names:
        assert got[name].dtype == np.float64
        assert got[name].tobytes() == want[name].tobytes(), name


def test_read_columns_names_the_bad_cell(tmp_path):
    path = tmp_path / "r.csv"
    # a blank line does not shift the line numbers
    path.write_text("# config=tok\nt,x\n0.0,1.0\n\n0.5,abc\n1.0,\n")
    with pytest.raises(io.SnapshotFormatError,
                       match=r"r\.csv: line 5, column 'x': 'abc' is not a "
                             r"number"):
        io.read_columns(path, "tok", ("t", "x"))
    with pytest.raises(io.SnapshotFormatError,
                       match=r"r\.csv: missing column 'y'"):
        io.read_columns(path, "tok", ("t", "y"))
    with pytest.raises(io.SnapshotFormatError, match="stamped config"):
        io.read_columns(path, "other", ("t",))


def test_read_columns_of_an_empty_table(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("# config=tok\nt,x\n")
    got = io.read_columns(path, "tok", ("x", "t"))
    assert [got[name].shape for name in ("x", "t")] == [(0,), (0,)]
