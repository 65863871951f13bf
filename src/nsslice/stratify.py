"""Voxel measure stratification of superlevel sets by parallel plane families.

A set of positive measure decomposes into positive-area slices over a
positive-length interval of plane offsets, and conversely; this module checks
the discrete analogue on voxel masks.  Continuous measure is approximated by
voxel counting: a mask voxel spreads its volume uniformly over the offset
interval its projection spans, so slab sums are exact for axis-aligned
families and total volume is conserved for any direction.  Thresholds stand
in for "measure greater than zero", which has no discrete meaning.  A time
series is tested through one 3D mask, the union of its frame masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fieldio import TimeSeriesField

AXIS_DIRECTIONS = (
    (1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0),
    (0.0, 0.0, 1.0),
)

#: thresholds, in voxel units: a positive slice must carry at least
#: this many voxel faces of area, a positive interval at least this many
#: slabs, a positive set more than this many voxels of volume.
AREA_TOL_FACES = 4.0
INTERVAL_TOL_SLABS = 2.0
VOLUME_TOL_VOXELS = 8.0


class StratifyInconsistencyError(RuntimeError):
    """Voxel-volume oracle and stratification verdict disagree."""


@dataclass(frozen=True)
class IndicatorGrid:
    """Boolean voxel mask on a 3D box.

    The mask is a read-only copy of the one given, so the voxel centres,
    computed once on first use, cannot go stale.  The grid does not keep
    the threshold that made the mask; a caller that reports it keeps it.
    """

    dims: tuple[int, int, int]
    extents: tuple[float, float, float]
    mask: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        extents = tuple(float(e) for e in self.extents)
        if len(dims) != 3 or len(extents) != 3:
            raise ValueError("IndicatorGrid is 3D")
        if any(d < 2 for d in dims):
            raise ValueError(f"dims must be >= 2 per axis, got {dims}")
        if any(e <= 0.0 for e in extents):
            raise ValueError(f"extents must be positive, got {extents}")
        mask = np.array(self.mask, dtype=bool)
        if mask.shape != dims:
            raise ValueError(f"mask shape {mask.shape} != dims {dims}")
        mask.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "mask", mask)

    @property
    def voxel_volume(self) -> float:
        return float(np.prod([e / d for e, d in zip(self.extents, self.dims)]))

    @property
    def spacings(self) -> tuple[float, float, float]:
        return tuple(e / d for e, d in zip(self.extents, self.dims))

    @property
    def total_volume(self) -> float:
        return float(np.count_nonzero(self.mask)) * self.voxel_volume

    @cached_property
    def voxel_centers(self) -> np.ndarray:
        """Centres (nvoxels, 3) of the mask voxels, in argwhere order; read-only."""
        centers = (np.argwhere(self.mask) + 0.5) * np.asarray(self.spacings)
        centers.flags.writeable = False
        return centers


def mask_from_field(w: TimeSeriesField, eps: float) -> IndicatorGrid:
    """Threshold |w| > eps pointwise (Euclidean norm over components).

    w is a series of 3D fields; its mask is the union over its frames: the
    voxels where |w| > eps at some sample time.
    """
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    ref = w.frames[0]
    mask = np.zeros(ref.dims, dtype=bool)
    for f in w.frames:
        mask |= np.sqrt(np.sum(f.data**2, axis=0)) > eps
    return IndicatorGrid(dims=ref.dims, extents=ref.extents, mask=mask)


def slice_measures(
    mask: IndicatorGrid, direction, nslices: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-offset slice areas of the mask against a parallel plane family.

    Offsets span the projection range of the whole box onto the unit
    direction, split into nslices slabs; each mask voxel's volume is spread
    uniformly over the offset interval it spans and slab contents are scaled
    by 1/slab-thickness to areas.  Returns (slab midpoints, measures).
    """
    d = np.asarray(direction, dtype=float)
    if d.shape != (3,) or abs(np.linalg.norm(d) - 1.0) > 1e-9:
        raise ValueError("direction must be a unit 3-vector")
    if nslices < 2:
        raise ValueError("nslices must be >= 2")
    ext = np.asarray(mask.extents)
    h = np.asarray(mask.spacings)
    beta_min = float(np.sum(np.minimum(0.0, d * ext)))
    beta_max = float(np.sum(np.maximum(0.0, d * ext)))
    dbeta = (beta_max - beta_min) / nslices
    centers = mask.voxel_centers
    measures = np.zeros(nslices)
    mids = beta_min + dbeta * (np.arange(nslices) + 0.5)
    if centers.shape[0] == 0:
        return mids, measures
    beta_c = centers @ d
    half_span = 0.5 * float(np.sum(np.abs(d) * h))
    # voxel beta-interval in slab units
    lo = (beta_c - half_span - beta_min) / dbeta
    hi = (beta_c + half_span - beta_min) / dbeta
    # measure contribution of one voxel to one slab:
    #   (voxel volume) * (overlap / full span) / (slab thickness)
    vol_per_len = mask.voxel_volume / (2.0 * half_span)
    j0 = np.maximum(np.floor(lo).astype(int), 0)
    j1 = np.minimum(np.ceil(hi).astype(int), nslices)
    for off in range(int(np.max(j1 - j0))):
        j = j0 + off
        valid = j < j1
        overlap = np.clip(np.minimum(hi, j + 1.0) - np.maximum(lo, j.astype(float)), 0.0, None)
        np.add.at(measures, j[valid], (vol_per_len * overlap)[valid])
    return mids, measures


@dataclass
class DirectionProfile:
    direction: tuple[float, float, float]
    offsets: np.ndarray
    measures: np.ndarray
    area_tol: float
    interval_tol: float
    best_run_slabs: int
    interval_length: float
    positive: bool


@dataclass
class StratifyVerdict:
    positive: bool
    oracle_positive: bool
    total_volume: float
    volume_tol: float
    profiles: list[DirectionProfile]


def _longest_run(flags: np.ndarray) -> int:
    best = cur = 0
    for f in flags:
        cur = cur + 1 if f else 0
        best = max(best, cur)
    return best


def stratification_verdict(mask: IndicatorGrid, directions=None) -> StratifyVerdict:
    """Search plane families for a positive-measure stratification.

    POSITIVE iff some tested direction has a run of consecutive slabs, of
    total offset length >= interval_tol, on which every slice measure clears
    area_tol.  The verdict is cross-checked against the voxel-volume oracle:
    total volume > volume_tol must coincide with a POSITIVE verdict along at
    least one canonical axis, the discrete form of the slicing equivalence;
    disagreement raises StratifyInconsistencyError.

    The slab count and the three thresholds come from the voxel grid: one
    slab per voxel across each direction's projection span, area_tol of
    AREA_TOL_FACES voxel sections (a voxel's volume over its span along the
    direction), interval_tol of INTERVAL_TOL_SLABS slabs and volume_tol of
    VOLUME_TOL_VOXELS voxels.

    Only finitely many directions are tested (canonical axes plus the ones
    supplied), so a POSITIVE verdict reports the best family found without
    claiming exhaustiveness.  Directions are normalized, then deduplicated,
    a direction and its opposite being one plane family: of each, the first
    met is kept, the axes first, then the supplied ones in the order given.
    A zero (or non-finite) direction raises ValueError.
    """
    unit_dirs = []
    for d in (*AXIS_DIRECTIONS, *(directions or [])):
        dv = np.asarray(d, dtype=float)
        norm = np.linalg.norm(dv)
        if not 0.0 < norm < np.inf:
            raise ValueError(f"direction {tuple(d)} is not a nonzero finite vector")
        dv = dv / norm
        if not any(np.max(np.abs(dv - s * u)) <= 1e-12 for u in unit_dirs for s in (1, -1)):
            unit_dirs.append(dv)
    h = np.asarray(mask.spacings)
    volume_tol = VOLUME_TOL_VOXELS * mask.voxel_volume
    profiles = []
    for dv in unit_dirs:
        # one slab per voxel across the projection span
        ns = max(2, int(round(np.sum(np.abs(dv) * np.asarray(mask.dims) * h)
                              / np.sum(np.abs(dv) * h))))
        at = AREA_TOL_FACES * mask.voxel_volume / float(np.sum(np.abs(dv) * h))
        offsets, measures = slice_measures(mask, tuple(dv), ns)
        dbeta = offsets[1] - offsets[0]
        it = INTERVAL_TOL_SLABS * dbeta
        run = _longest_run(measures >= at)
        length = run * dbeta
        profiles.append(
            DirectionProfile(
                direction=tuple(float(v) for v in dv),
                offsets=offsets,
                measures=measures,
                area_tol=float(at),
                interval_tol=float(it),
                best_run_slabs=run,
                interval_length=float(length),
                positive=bool(length >= it - 1e-12 * max(dbeta, 1.0) and run >= 1),
            )
        )
    positive = any(p.positive for p in profiles)
    axis_positive = any(p.positive for p in profiles[:3])
    oracle_positive = mask.total_volume > volume_tol
    if oracle_positive != axis_positive:
        raise StratifyInconsistencyError(
            f"voxel-volume oracle ({oracle_positive}, volume {mask.total_volume:.3e}) "
            f"disagrees with the axis-family verdict ({axis_positive})"
        )
    return StratifyVerdict(
        positive=positive,
        oracle_positive=oracle_positive,
        total_volume=mask.total_volume,
        volume_tol=float(volume_tol),
        profiles=profiles,
    )
