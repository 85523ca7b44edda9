"""Binary snapshot format and CSV emission.

Snapshot files: magic b"RWL1", then a little-endian header
(n1:u32, n2:u32, x1_min:f64, x1_max:f64, t:f64, gamma:f64, k0:f64),
then three row-major float64 planes rho, rho*v1, rho*v2.  The files hold
no ghost rows: a field read back takes its edge rows as its ghosts, not the
frozen far field of the run that wrote it.

Named-plane files share the magic and header, followed by a u32 plane
count and 16-byte ASCII name tags; used for foliation and frame fields.
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .euler2d import FlowField, Grid
from .gas import PolytropicGas

__all__ = [
    "write_snapshot",
    "read_snapshot",
    "write_planes",
    "read_planes",
    "write_csv",
]

MAGIC = b"RWL1"
_HEADER = struct.Struct("<II5d")  # n1, n2, x1_min, x1_max, t, gamma, k0


def _pack_header(grid: Grid, t: float, gas: PolytropicGas) -> bytes:
    return MAGIC + _HEADER.pack(grid.n1, grid.n2, grid.x1_min, grid.x1_max,
                                t, gas.gamma, gas.k0)


def _unpack_header(path, raw: bytes):
    if raw[:4] != MAGIC:
        raise ValueError(f"{path}: bad magic {raw[:4]!r}, expected {MAGIC!r}")
    _check_room(path, raw, 4 + _HEADER.size, "the header")
    n1, n2, x1_min, x1_max, t, gamma, k0 = _HEADER.unpack_from(raw, 4)
    return n1, n2, x1_min, x1_max, t, gamma, k0


def _check_room(path, raw: bytes, needed: int, what: str) -> None:
    """A file that ends inside a fixed-size field is cut short."""
    if len(raw) < needed:
        raise ValueError(f"{path} holds {len(raw)} bytes, fewer than the {needed} of {what}")


def _check_size(path, raw: bytes, expected: int) -> None:
    """Both formats share the header, so only the length tells them apart."""
    if len(raw) != expected:
        raise ValueError(f"{path} holds {len(raw)} bytes, its header implies {expected}")


def _write_plane(fh, plane: np.ndarray) -> None:
    """Write the row-major little-endian float64 bytes of plane from its own
    buffer; only a plane laid out otherwise is copied first."""
    fh.write(memoryview(np.ascontiguousarray(plane, dtype="<f8")).cast("B"))


def write_snapshot(field: FlowField, path) -> None:
    path = Path(path)
    with path.open("wb") as fh:
        fh.write(_pack_header(field.grid, field.time, field.gas))
        for plane in (field.rho, field.m1, field.m2):
            _write_plane(fh, plane)


def read_snapshot(path) -> FlowField:
    raw = Path(path).read_bytes()
    n1, n2, x1_min, x1_max, t, gamma, k0 = _unpack_header(path, raw)
    offset = 4 + _HEADER.size
    count = 3 * n1 * n2
    _check_size(path, raw, offset + 8 * count)
    planes = np.frombuffer(raw, dtype="<f8", count=count, offset=offset).reshape(3, n1, n2)
    gas = PolytropicGas(gamma=gamma, k0=k0)
    grid = Grid(n1=n1, n2=n2, x1_min=x1_min, x1_max=x1_max)
    return FlowField.from_planes(gas, grid, t, *planes)


def write_planes(grid: Grid, t: float, gas: PolytropicGas,
                 planes: Dict[str, np.ndarray], path) -> None:
    path = Path(path)
    with path.open("wb") as fh:
        fh.write(_pack_header(grid, t, gas))
        fh.write(struct.pack("<I", len(planes)))
        for name in planes:
            tag = name.encode("ascii")[:16].ljust(16, b"\0")
            fh.write(tag)
        for name, plane in planes.items():
            if plane.shape != (grid.n1, grid.n2):
                raise ValueError(f"plane {name!r} has shape {plane.shape}")
            _write_plane(fh, plane)


def read_planes(path):
    raw = Path(path).read_bytes()
    n1, n2, x1_min, x1_max, t, gamma, k0 = _unpack_header(path, raw)
    offset = 4 + _HEADER.size
    _check_room(path, raw, offset + 4, "the header and plane count")
    (nplanes,) = struct.unpack_from("<I", raw, offset)
    offset += 4
    count = n1 * n2
    _check_size(path, raw, offset + (16 + 8 * count) * nplanes)
    names = []
    for k in range(nplanes):
        names.append(raw[offset:offset + 16].rstrip(b"\0").decode("ascii"))
        offset += 16
    planes = {}
    for k, name in enumerate(names):
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=offset + 8 * count * k)
        planes[name] = arr.reshape(n1, n2).copy()
    meta = {"t": t, "gamma": gamma, "k0": k0, "x1_min": x1_min, "x1_max": x1_max}
    return meta, planes


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([[_fmt(v) for v in row] for row in rows])


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.17g}"
    return v
