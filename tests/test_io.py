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


def test_load_rejects_a_short_payload(tmp_path):
    # a complete header, then one coefficient less than it promises
    lat = WaveLattice(4)
    good = tmp_path / "good.admf"
    io.save_field(zero_field(lat), good)
    short = tmp_path / "short.admf"
    short.write_bytes(good.read_bytes()[:-16])
    payload = 3 * 4 ** 3 * 16
    with pytest.raises(io.SnapshotFormatError,
                       match=f"payload is {payload - 16} bytes, "
                             f"expected {payload}"):
        io.load_field(short)


def test_save_field_bytes_are_header_then_coefficients(tmp_path):
    lat = WaveLattice(8, L=1.5)
    f = random_solenoidal(lat, decay=0.7, seed=3)
    path = tmp_path / "f.admf"
    io.save_field(f, path)
    header = struct.pack("<4sIIdB", b"ADMF", 1, 8, 1.5, 1)
    assert path.read_bytes() == header + f.coeffs.tobytes()


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


_GOLDEN_HEADER = ["f64", "f32", "i64", "bool", "mixed"]
_GOLDEN = """\
# config=tok
f64,f32,i64,bool,mixed
nan,0.10000000149011612,0,True,0.1
inf,-0.0,-3,False,0.10000000149011612
-inf,1.0000000272564224e+16,4611686018427387904,True,-3
-0.0,4.999999987376214e-07,7,True,True
5e-324,inf,1,False,False
1e+16,nan,2,False,None
1e-05,3.0,3,True,text
0.1,9.999999747378752e-06,-1,False,-0.0
"""


def _golden_columns():
    nan, inf = float("nan"), float("inf")
    return [
        np.array([nan, inf, -inf, -0.0, 5e-324, 1e16, 1e-05, 0.1]),
        np.array([0.1, -0.0, 1e16, 5e-7, inf, nan, 3.0, 1e-05], np.float32),
        np.array([0, -3, 2 ** 62, 7, 1, 2, 3, -1], np.int64),
        np.array([True, False, True, True, False, False, True, False]),
        [np.float64(0.1), np.float32(0.1), np.int64(-3), True,
         np.bool_(False), None, "text", -0.0],
    ]


def test_csv_golden_mixed_table():
    # the array columns take the one-column formatter, the mixed one the
    # per-cell lookup; the rows form (numpy scalars and Python values
    # cell by cell) and the columns form give the same bytes
    cols = _golden_columns()
    assert io.csv_columns_text("tok", _GOLDEN_HEADER, cols) == _GOLDEN
    rows = [list(row) for row in zip(*cols)]
    assert io.csv_text("tok", _GOLDEN_HEADER, rows) == _GOLDEN
    py_rows = [[v.item() if isinstance(v, np.generic) else v for v in row]
               for row in rows]
    assert io.csv_text("tok", _GOLDEN_HEADER, py_rows) == _GOLDEN
    # zero rows: the stamp and the header only
    empty = "# config=tok\na,b\n"
    assert io.csv_text("tok", ["a", "b"], []) == empty
    assert io.csv_columns_text("tok", ["a", "b"],
                               [np.array([]), []]) == empty


def test_csv_refuses_ragged_tables(tmp_path):
    with pytest.raises(ValueError):
        io.csv_text("t", ["a", "b"], [[1.0, 2.0], [3.0]])
    with pytest.raises(ValueError):
        io.write_csv_columns(tmp_path / "x.csv", "t", ["a", "b"],
                             [np.zeros(2), np.zeros(3)])
    assert not (tmp_path / "x.csv").exists()


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
    "emit_csv": lambda path: cli._emit(path,
                                       io.csv_text("t", ["a"], [[1.0]])),
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


def test_write_atomic_part_that_fails_keeps_previous_file(tmp_path):
    target = tmp_path / "f.bin"
    target.write_bytes(b"previous contents\n")
    with pytest.raises(TypeError):
        io.write_atomic(target, (b"header", object()))
    assert target.read_bytes() == b"previous contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["f.bin"]


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
