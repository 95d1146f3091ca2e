"""Binary snapshot format for spectral fields (magic "ADMF", version 1).

Layout, all little-endian:

    4s  magic   b"ADMF"
    u32 version 1
    u32 n       grid points per axis
    f64 L       box size
    u8  flags   bit 0 = divergence-free
    payload     3 components x n^3 coefficients, complex128 as (re, im)
                f64 pairs, C order over mode axes (m1, m2, m3), each axis in
                FFT order 0..n/2-1, -n/2..-1.
"""

from __future__ import annotations

import hashlib
import json
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
    "sha256_token",
    "csv_text",
    "write_csv",
    "read_csv",
    "SnapshotFormatError",
    "MAGIC",
    "VERSION",
]


class SnapshotFormatError(ValueError):
    """Raised when a snapshot file does not parse as ADMF version 1."""


def save_field(f: SpectralField, path) -> None:
    flags = 1 if f.divergence_free else 0
    header = _HEADER.pack(MAGIC, VERSION, f.lattice.n, f.lattice.L, flags)
    payload = np.ascontiguousarray(f.coeffs, dtype="<c16").tobytes()
    Path(path).write_bytes(header + payload)


def load_field(path) -> SpectralField:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise SnapshotFormatError(f"{path}: truncated header")
    magic, version, n, L, flags = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise SnapshotFormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise SnapshotFormatError(f"{path}: unsupported version {version}")
    try:
        lattice = WaveLattice(n=int(n), L=float(L))
    except ValueError as exc:
        raise SnapshotFormatError(f"{path}: bad header: {exc}") from exc
    expected = _HEADER.size + 3 * n ** 3 * 16
    if len(raw) != expected:
        raise SnapshotFormatError(
            f"{path}: payload is {len(raw) - _HEADER.size} bytes, "
            f"expected {expected - _HEADER.size}"
        )
    coeffs = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size)
    coeffs = coeffs.reshape(3, n, n, n).astype(np.complex128)
    return SpectralField(lattice, coeffs, divergence_free=bool(flags & 1))


def _cell(value) -> str:
    # repr() keeps floats round-trippable; numpy scalars are unwrapped first.
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def sha256_token(params: dict) -> str:
    """sha256 of the canonical JSON form of params (sorted keys, no
    whitespace): the token of every CSV's `# config=` stamp."""
    canon = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def csv_text(config_token: str, header, rows) -> str:
    """CSV body: a `# config=<sha256>` first line, then header, then rows.

    Floats are written with repr() so re-reading reproduces them exactly.
    """
    lines = [f"# config={config_token}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def write_csv(path, config_token: str, header, rows) -> None:
    Path(path).write_text(csv_text(config_token, header, rows))


def read_csv(path, config_token: str | None = None) -> tuple:
    """Inverse of write_csv: returns (header, rows-of-strings).

    The leading comment line must be a `# config=` stamp; when config_token
    is given, the stamped token must equal it.
    """
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("# config="):
        raise SnapshotFormatError(f"{path}: missing '# config=' stamp")
    stamp = lines[0][len("# config="):]
    if config_token is not None and stamp != config_token:
        raise SnapshotFormatError(
            f"{path}: stamped config {stamp} does not match {config_token}")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:] if line]
    return header, rows
