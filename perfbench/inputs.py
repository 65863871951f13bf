"""Seeded input generation and an independent NSF1 reader/writer.

Every field is a short sum of separable sine modes, so it is smooth and
vanishes on every wall of its box.  The generator depends only on numpy and
the seed: the same seed gives byte-identical files, another seed gives other
amplitudes, mode numbers and phases.  The NSF1 code here is written from the
format description, not imported from the package, so reading the program's
outputs back is an independent check.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# The oblique plane (1, 0.5, 1) . x = 1.75 through the 1 x 1 x 2 box: the
# chart eliminates z, and z = 1.75 - x - 0.5 y stays inside [0.25, 1.75] over
# the whole unit square, so the section is the full square.
PLANE_NORMAL = (1.0, 0.5, 1.0)
PLANE_OFFSET = 1.75
PIPE_BOX = (1.0, 1.0, 2.0)
PIPE_DIMS = (33, 33, 65)
SLICE_DIMS = (49, 49)
POST_BOX = (1.0, 1.0, 1.0)
POST_DIMS = (64, 64, 64)
NFRAMES = 4
NMODES = 6
FORCING_GAIN = 2.0
PIPE_T_END = 0.05   # forced solve length (200 steps); the forcing series spans [0, PIPE_T_END]


def write_nsf1(path: Path, data: np.ndarray, extents) -> None:
    """Write (ncomp, *dims) samples as binary NSF1."""
    ncomp, dims = data.shape[0], data.shape[1:]
    header = " ".join(
        ["NSF1", str(len(dims))]
        + [str(d) for d in dims]
        + [str(ncomp)]
        + [f"{float(e):.17g}" for e in extents]
    )
    payload = np.concatenate([data[c].ravel(order="F") for c in range(ncomp)])
    path.write_bytes((header + "\nbinary\n").encode("ascii") + payload.astype("<f8").tobytes())


def read_nsf1(path: Path) -> tuple[np.ndarray, tuple[float, ...]]:
    """Read a binary NSF1 file into ((ncomp, *dims) samples, extents)."""
    raw = path.read_bytes()
    nl1 = raw.index(b"\n")
    nl2 = raw.index(b"\n", nl1 + 1)
    head = raw[:nl1].decode("ascii").split()
    if head[0] != "NSF1" or raw[nl1 + 1:nl2] != b"binary":
        raise ValueError(f"{path}: not a binary NSF1 file")
    k = int(head[1])
    dims = tuple(int(v) for v in head[2:2 + k])
    ncomp = int(head[2 + k])
    extents = tuple(float(v) for v in head[3 + k:3 + 2 * k])
    flat = np.frombuffer(raw[nl2 + 1:], dtype="<f8")
    npts = int(np.prod(dims))
    if flat.size != ncomp * npts:
        raise ValueError(f"{path}: payload has {flat.size} values, expected {ncomp * npts}")
    comps = [flat[c * npts:(c + 1) * npts].reshape(dims, order="F") for c in range(ncomp)]
    return np.stack(comps), extents


class ModeSet:
    """Random separable sine modes, sin(p pi x/Lx) sin(q pi y/Ly) sin(r pi z/Lz)."""

    def __init__(self, rng: np.random.Generator, box, nmodes: int = NMODES):
        self.box = tuple(float(b) for b in box)
        self.pqr = rng.integers(1, 4, size=(3, nmodes, 3))
        self.amp = rng.standard_normal((3, nmodes)) / np.sqrt(nmodes)
        self.phase = rng.uniform(0.0, 2.0 * np.pi, size=(3, nmodes))

    def _table(self, axis: int, coords: np.ndarray, comp: int) -> np.ndarray:
        return np.sin(np.pi / self.box[axis] * np.outer(self.pqr[comp, :, axis], coords))

    def on_grid(self, dims, t: float = 0.0) -> np.ndarray:
        """(3, *dims) samples on the vertex grid of the box at time t."""
        axes = [np.linspace(0.0, self.box[a], dims[a]) for a in range(3)]
        out = np.empty((3,) + tuple(dims))
        for c in range(3):
            a = self.amp[c] * (1.0 + 0.3 * np.sin(20.0 * t + self.phase[c]))
            sx, sy, sz = (self._table(ax, axes[ax], c) for ax in range(3))
            out[c] = np.einsum("k,ki,kj,kl->ijl", a, sx, sy, sz)
        return out

    def on_plane(self, dims2d) -> np.ndarray:
        """(3, *dims2d) samples on the plane section, parametrized by (x, y)."""
        s = np.linspace(0.0, 1.0, dims2d[0])
        tt = np.linspace(0.0, 1.0, dims2d[1])
        xx, yy = np.meshgrid(s, tt, indexing="ij")
        zz = (PLANE_OFFSET - PLANE_NORMAL[0] * xx - PLANE_NORMAL[1] * yy) / PLANE_NORMAL[2]
        out = np.zeros((3,) + tuple(dims2d))
        for c in range(3):
            for k in range(self.amp.shape[1]):
                p, q, r = self.pqr[c, k]
                out[c] += self.amp[c, k] * (
                    np.sin(p * np.pi * xx / self.box[0])
                    * np.sin(q * np.pi * yy / self.box[1])
                    * np.sin(r * np.pi * zz / self.box[2])
                )
        return out


def _write_series(root: Path, stem: str, frames, times, extents) -> Path:
    """Write frames as NSF1 files plus the JSON manifest the CLI reads."""
    names = []
    for i, data in enumerate(frames):
        names.append(f"{stem}_{i:04d}.nsf1")
        write_nsf1(root / names[-1], data, extents)
    manifest = root / f"{stem}.json"
    manifest.write_text(json.dumps({"times": [float(t) for t in times], "frames": names}))
    return manifest


def generate(kind: str, root: Path, seed: int) -> dict:
    """Write the inputs of one input kind under root; returns their paths.

    kind is "pipeline" (3D u0 and a forcing series on the 1x1x2 box), "slice"
    (a 2D slice of the same u0 on the oblique plane), "postproc" (a 64^3
    series and one w field) or "none".
    """
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 0x6E73])
    out: dict = {}
    if kind in ("pipeline", "slice"):
        u0_modes = ModeSet(rng, PIPE_BOX)
        if kind == "pipeline":
            out["u0"] = root / "u0.nsf1"
            write_nsf1(out["u0"], u0_modes.on_grid(PIPE_DIMS), PIPE_BOX)
            # The forcing drives the initial modes (positive work <f, u>), so the
            # energy ledger has no slack from |W| - W and its verdict does not
            # hinge on the sign of a random correlation between f and u0.
            times = np.linspace(0.0, PIPE_T_END, NFRAMES)
            frames = [FORCING_GAIN * u0_modes.on_grid(PIPE_DIMS, t) for t in times]
            out["forcing"] = _write_series(root, "forcing", frames, times, PIPE_BOX)
        else:
            out["u0_slice"] = root / "u0_slice.nsf1"
            write_nsf1(out["u0_slice"], u0_modes.on_plane(SLICE_DIMS), (1.0, 1.0))
    elif kind == "postproc":
        v_modes = ModeSet(rng, POST_BOX)
        w_modes = ModeSet(rng, POST_BOX)
        times = np.linspace(0.0, 0.1, NFRAMES)
        frames = [v_modes.on_grid(POST_DIMS, t) for t in times]
        out["v"] = _write_series(root, "v", frames, times, POST_BOX)
        out["w"] = root / "w.nsf1"
        write_nsf1(out["w"], w_modes.on_grid(POST_DIMS), POST_BOX)
    elif kind != "none":
        raise ValueError(f"unknown input kind {kind!r}")
    return out
