"""Structured-grid field model, NSF1 persistence, and slice restriction.

Fields are vertex-centered: axis ``i`` carries ``dims[i]`` samples at
``x = j * extents[i] / (dims[i] - 1)``, so boundaries are sampled.  A 3D
field is restricted to a plane on the plane's section rectangle
(geometry.section_rectangle).  A Field takes its samples shaped
(ncomp, *dims) and in no other layout; flat samples in NSF1 payload order
(component-major, first grid axis fastest) become a field through
Field.from_flat only.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .geometry import BOX_REL_SLACK, SliceChart, SliceOutsideDomainError, section_rectangle

#: Relative per-axis tolerance within which a field lies on a box.
EXTENTS_REL_TOL = 1e-12


class FieldFormatError(ValueError):
    """Malformed or inconsistent NSF1 content."""


class NonFiniteSampleError(FieldFormatError):
    """A NaN or Inf sample was found on ingest."""


def _payload_axes(k: int) -> tuple[int, ...]:
    """(0, k, ..., 1): transposes (ncomp, *dims) data to payload order and back."""
    return (0,) + tuple(range(k, 0, -1))


@dataclass(frozen=True)
class Field:
    """Sampled vector field on a 2D or 3D structured grid.

    data has shape (ncomp, *dims); data[c, i, j(, k)] is component c at grid
    index (i, j(, k)) counted along the physical axes in order.
    """

    dims: tuple[int, ...]
    extents: tuple[float, ...]
    ncomp: int
    data: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        extents = tuple(float(e) for e in self.extents)
        if len(dims) not in (2, 3) or len(extents) != len(dims):
            raise FieldFormatError(f"dims/extents must both be length 2 or 3, got {dims}, {extents}")
        if any(d < 2 for d in dims):
            raise FieldFormatError(f"all dims must be >= 2, got {dims}")
        if any(e <= 0.0 for e in extents):
            raise FieldFormatError(f"all extents must be positive, got {extents}")
        if self.ncomp not in (1, 3):
            raise FieldFormatError(f"ncomp must be 1 or 3, got {self.ncomp}")
        data = np.asarray(self.data, dtype=float)
        if data.shape != (self.ncomp,) + dims:
            raise FieldFormatError(f"data shape {data.shape} != (ncomp, *dims) {(self.ncomp,) + dims}")
        if not np.all(np.isfinite(data)):
            raise NonFiniteSampleError("field contains non-finite samples")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "ncomp", int(self.ncomp))
        object.__setattr__(self, "data", data)

    @property
    def ndim_grid(self) -> int:
        return len(self.dims)

    def axis_coords(self, axis: int) -> np.ndarray:
        """Vertex coordinates along one grid axis."""
        return np.linspace(0.0, self.extents[axis], self.dims[axis])

    def spacing(self, axis: int) -> float:
        return self.extents[axis] / (self.dims[axis] - 1)

    def flat_samples(self) -> np.ndarray:
        """Flat copy in NSF1 payload order: component-major, first grid axis fastest."""
        return self.data.transpose(_payload_axes(self.ndim_grid)).ravel()

    @classmethod
    def from_flat(cls, dims, extents, ncomp, flat) -> "Field":
        """The field whose flat_samples are flat, in NSF1 payload order."""
        dims = tuple(int(d) for d in dims)
        npts = int(np.prod(dims))
        flat = np.asarray(flat, dtype=float)
        if flat.size != ncomp * npts:
            raise FieldFormatError(
                f"payload has {flat.size} samples, expected {ncomp * npts}"
            )
        data = flat.reshape((ncomp,) + dims[::-1]).transpose(_payload_axes(len(dims)))
        return cls(dims=dims, extents=tuple(extents), ncomp=ncomp, data=data)

    @classmethod
    def from_function(cls, dims, extents, ncomp, func) -> "Field":
        """Sample ``func(*coords) -> (ncomp, ...) array`` on the vertex grid."""
        axes = [np.linspace(0.0, float(e), int(d)) for d, e in zip(dims, extents)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return cls(dims=tuple(dims), extents=tuple(extents), ncomp=ncomp, data=func(*mesh))


@dataclass(frozen=True)
class TimeSeriesField:
    """Strictly increasing sample times with shape-consistent frames."""

    times: np.ndarray
    frames: tuple[Field, ...]

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        frames = tuple(self.frames)
        if t.ndim != 1 or t.size != len(frames):
            raise FieldFormatError("times and frames must have equal length")
        if t.size == 0:
            raise FieldFormatError("time series must be nonempty")
        if not np.all(np.isfinite(t)):
            raise FieldFormatError("times must be finite")
        if np.any(np.diff(t) <= 0.0):
            raise FieldFormatError("times must be strictly increasing")
        ref = frames[0]
        for f in frames[1:]:
            if f.dims != ref.dims or f.ncomp != ref.ncomp or f.extents != ref.extents:
                raise FieldFormatError("all frames must share dims, extents and ncomp")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "frames", frames)

    def __len__(self) -> int:
        return len(self.frames)


# NSF1 on-disk format:
#   line 1: "NSF1 <ndims> <dim1> ... <dimk> <ncomp> <ext1> ... <extk>"
#   line 2: "binary", the one payload mode; read_field refuses any other
#   payload: ncomp * prod(dims) little-endian IEEE-754 doubles in
#            Field.flat_samples order.

_MAGIC = "NSF1"


def write_field(fld: Field, path) -> None:
    """Write a field to a binary NSF1 file, making its directory if it is missing.

    The payload is written from the one contiguous copy that flat_samples
    makes.
    """
    k = len(fld.dims)
    header = " ".join(
        [_MAGIC, str(k)]
        + [str(d) for d in fld.dims]
        + [str(fld.ncomp)]
        + [f"{e:.17g}" for e in fld.extents]
    )
    flat = fld.flat_samples().astype("<f8", copy=False)
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write((header + "\nbinary\n").encode("ascii"))
        fh.write(flat.data)


def read_field(path) -> Field:
    """Read a binary NSF1 file; validates the header, payload size and finiteness.

    The payload is sized from the file length before anything is allocated
    and read straight into one float array.
    """
    with open(path, "rb") as fh:
        line1 = fh.readline()
        if not line1.endswith(b"\n"):
            raise FieldFormatError("missing header line")
        line2 = fh.readline()
        if not line2.endswith(b"\n"):
            raise FieldFormatError("missing payload-mode line")
        raw_header = line1[:-1]
        try:
            header = raw_header.decode("ascii").split()
            mode = line2.decode("ascii").strip()
        except UnicodeDecodeError as exc:
            raise FieldFormatError("header is not ASCII") from exc
        if not header or header[0] != _MAGIC:
            raise FieldFormatError(f"bad magic in header: {header[:1]}")
        try:
            k = int(header[1])
            dims = [int(v) for v in header[2:2 + k]]
            ncomp = int(header[2 + k])
            extents = [float(v) for v in header[3 + k:3 + 2 * k]]
        except (IndexError, ValueError) as exc:
            raise FieldFormatError(f"malformed header: {raw_header!r}") from exc
        nvals = ncomp * math.prod(dims)
        if (
            k not in (2, 3)
            or len(dims) != k
            or len(extents) != k
            or len(header) != 3 + 2 * k
            or any(d < 2 for d in dims)
            or ncomp not in (1, 3)
            or 8 * nvals > sys.maxsize
        ):
            raise FieldFormatError(f"malformed header: {raw_header!r}")
        if mode != "binary":
            raise FieldFormatError(f"unknown payload mode {mode!r}")
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != 8 * nvals:
            state = "truncated" if size < 8 * nvals else "oversized"
            raise FieldFormatError(f"{state} payload: {size} bytes, expected {8 * nvals}")
        flat = np.fromfile(fh, dtype="<f8", count=nvals)
    return Field.from_flat(dims, extents, ncomp, flat)


def trilinear_sample(fld: Field, points: np.ndarray) -> np.ndarray:
    """Trilinear interpolation of a 3D field at physical points (n, 3).

    Exact for fields affine in the coordinates.  Points must lie inside the
    field's box up to a relative slack of BOX_REL_SLACK per axis.
    """
    if fld.ndim_grid != 3:
        raise ValueError("trilinear_sample needs a 3D field")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ext = np.asarray(fld.extents)
    dims = np.asarray(fld.dims)
    slack = BOX_REL_SLACK * ext
    inside = np.all((pts >= -slack) & (pts <= ext + slack), axis=1)
    if not np.all(inside):
        bad = pts[~inside][0]
        raise SliceOutsideDomainError(
            f"point {tuple(bad.tolist())} lies outside the box [0, {tuple(ext.tolist())}]"
        )
    h = ext / (dims - 1)
    rel = np.clip(pts / h, 0.0, (dims - 1).astype(float))
    i0 = np.minimum(rel.astype(int), dims - 2)
    frac = rel - i0
    out = np.zeros((fld.ncomp, pts.shape[0]))
    for corner in range(8):
        off = np.array([(corner >> b) & 1 for b in range(3)])
        weight = np.prod(np.where(off == 1, frac, 1.0 - frac), axis=1)
        idx = i0 + off
        out += fld.data[:, idx[:, 0], idx[:, 1], idx[:, 2]] * weight
    return out


def restrict_to_slice(field3d: Field, chart: SliceChart, slice_dims) -> Field:
    """Restrict a 3D field to the chart's plane by trilinear interpolation.

    The output is a 2D field with the same component count, sampled on a
    ``slice_dims`` vertex grid over the plane's section rectangle through the
    field's box (geometry.section_rectangle), which raises
    SliceOutsideDomainError where the section is empty, degenerate or not a
    rectangle.
    """
    if field3d.ndim_grid != 3:
        raise ValueError("restrict_to_slice needs a 3D field")
    n1, n2 = (int(v) for v in slice_dims)
    (smin, smax), (tmin, tmax) = section_rectangle(field3d.extents, chart)
    s = np.linspace(smin, smax, n1)
    t = np.linspace(tmin, tmax, n2)
    ss, tt = np.meshgrid(s, t, indexing="ij")
    pts2 = np.column_stack([ss.ravel(), tt.ravel()])
    pts3 = chart.lift(pts2)
    vals = trilinear_sample(field3d, pts3)
    data = vals.reshape(field3d.ncomp, n1, n2)
    return Field(
        dims=(n1, n2),
        extents=(smax - smin, tmax - tmin),
        ncomp=field3d.ncomp,
        data=data,
    )
