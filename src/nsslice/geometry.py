"""Slicing hyperplanes and their in-plane charts.

A hyperplane ``<normal, x> = offset`` cuts a 3D box along a planar
cross-section.  Eliminating the normal's dominant axis turns the plane into
an affine graph over the two retained coordinates; the chart records the
renamed graph coefficients and the coupling coefficients that model the
eliminated derivative as a combination of the two in-plane derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_CHART_TOL = 1e-8

_UNIT_NORM_TOL = 1e-12


class GeometryError(ValueError):
    """Invalid geometric input."""


class CoefficientOverflowError(GeometryError):
    """A nonzero renamed coefficient is too small to invert safely."""


@dataclass(frozen=True)
class Hyperplane:
    """Plane ``{x : <normal, x> = offset}`` with unit normal.

    The representation is canonical: the first nonzero normal component is
    positive, so (normal, offset) and (-normal, -offset) construct equal
    planes.
    """

    normal: tuple[float, float, float]
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        if n.shape != (3,):
            raise GeometryError(f"normal must be a 3-vector, got shape {n.shape}")
        if not np.all(np.isfinite(n)) or not np.isfinite(self.offset):
            raise GeometryError("normal and offset must be finite")
        if abs(np.linalg.norm(n) - 1.0) > _UNIT_NORM_TOL:
            raise GeometryError(
                f"normal must have unit Euclidean norm within {_UNIT_NORM_TOL}, "
                f"got |n| = {np.linalg.norm(n)!r}"
            )
        off = float(self.offset)
        nz = np.nonzero(n)[0]
        if nz.size and n[nz[0]] < 0.0:
            n = -n
            off = -off
        object.__setattr__(self, "normal", (float(n[0]), float(n[1]), float(n[2])))
        object.__setattr__(self, "offset", off)

    @classmethod
    def from_vector(cls, direction, offset: float) -> "Hyperplane":
        """Build a plane from an unnormalized direction, rescaling offset."""
        d = np.asarray(direction, dtype=float)
        norm = np.linalg.norm(d)
        if norm == 0.0:
            raise GeometryError("direction must be nonzero")
        return cls(tuple(d / norm), float(offset) / norm)


@dataclass(frozen=True)
class SliceChart:
    """Affine chart of a plane over two retained coordinate axes.

    ``eliminated_axis`` is 1-based (in {1, 2, 3}); the plane is the graph

        x[eliminated] = affine_offset - alpha1 * x[inplane1] - alpha2 * x[inplane2]

    over the retained axes ``inplane_axes`` (1-based, ascending).
    """

    plane: Hyperplane
    eliminated_axis: int
    alpha1: float
    alpha2: float
    affine_offset: float
    inplane_axes: tuple[int, int]

    def lift(self, points2d) -> np.ndarray:
        """Map in-plane parameter points (..., 2) to 3D points (..., 3)."""
        p = np.atleast_2d(np.asarray(points2d, dtype=float))
        out = np.empty(p.shape[:-1] + (3,), dtype=float)
        i1, i2 = self.inplane_axes[0] - 1, self.inplane_axes[1] - 1
        k = self.eliminated_axis - 1
        out[..., i1] = p[..., 0]
        out[..., i2] = p[..., 1]
        out[..., k] = self.affine_offset - self.alpha1 * p[..., 0] - self.alpha2 * p[..., 1]
        return out


def make_chart(plane: Hyperplane) -> SliceChart:
    """Chart the plane over the axis pair complementary to its dominant normal component.

    The eliminated axis is the largest-magnitude normal component (ties broken
    by the largest index) for conditioning; a unit normal has one of at
    least 1/sqrt(3).  Renamed coefficients in the open interval
    (0, DEFAULT_CHART_TOL) are rejected: they would produce reciprocal
    couplings beyond 1/DEFAULT_CHART_TOL downstream.
    """
    n = np.asarray(plane.normal, dtype=float)
    mags = np.abs(n)
    # argmax with ties broken by the largest index
    k = int(np.max(np.nonzero(mags == mags.max())[0]))
    retained = [i for i in range(3) if i != k]
    alphas = [n[i] / n[k] for i in retained]
    for a in alphas:
        if 0.0 < abs(a) < DEFAULT_CHART_TOL:
            raise CoefficientOverflowError(
                f"renamed coefficient {a!r} in (0, {DEFAULT_CHART_TOL}); "
                "plane is too close to axis-aligned to invert its coupling"
            )
    return SliceChart(
        plane=plane,
        eliminated_axis=k + 1,
        alpha1=float(alphas[0]),
        alpha2=float(alphas[1]),
        affine_offset=float(plane.offset / n[k]),
        inplane_axes=(retained[0] + 1, retained[1] + 1),
    )


def projected_gradient_coeffs(chart: SliceChart) -> tuple[float, float]:
    """Coefficients (c1, c2) modeling the eliminated derivative.

    The eliminated-axis derivative acting on plane-restricted functions is
    D_elim = c1 * D_1 + c2 * D_2 with c_i = -1 / (2 * alpha_i); a zero
    renamed coefficient means the plane does not vary along that axis and the
    corresponding coupling is zero by convention.
    """
    coeffs = []
    for a in (chart.alpha1, chart.alpha2):
        if a == 0.0:
            coeffs.append(0.0)
        elif abs(a) < DEFAULT_CHART_TOL:
            raise CoefficientOverflowError(
                f"renamed coefficient {a!r} below chart tolerance {DEFAULT_CHART_TOL}"
            )
        else:
            coeffs.append(-1.0 / (2.0 * a))
    return coeffs[0], coeffs[1]


@dataclass(frozen=True)
class Box3:
    """Axis-aligned 3D box [lo, hi]."""

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != (3,) or hi.shape != (3,):
            raise GeometryError("box corners must be 3-vectors")
        if not np.all(hi > lo):
            raise GeometryError(f"degenerate box: lo={self.lo} hi={self.hi}")
        object.__setattr__(self, "lo", tuple(float(v) for v in lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in hi))

    @classmethod
    def from_extents(cls, extents) -> "Box3":
        return cls((0.0, 0.0, 0.0), tuple(float(e) for e in extents))


@dataclass(frozen=True)
class SliceDomain:
    """Convex polygon: the box cross-section in the chart's parameter plane.

    Vertices are counter-clockwise in the retained (s, t) coordinates; the
    area is the parameter-plane (projected) measure, not the 3D section area.
    """

    vertices: np.ndarray  # (k, 2), k = 0 for an empty section
    inplane_axes: tuple[int, int]

    @property
    def is_empty(self) -> bool:
        return self.vertices.shape[0] < 3

    @property
    def area(self) -> float:
        if self.is_empty:
            return 0.0
        v = self.vertices
        x, y = v[:, 0], v[:, 1]
        return float(0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))

    @property
    def bounds(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """((smin, smax), (tmin, tmax)); raises on an empty domain."""
        if self.is_empty:
            raise GeometryError("empty slice domain has no bounds")
        v = self.vertices
        return (
            (float(v[:, 0].min()), float(v[:, 0].max())),
            (float(v[:, 1].min()), float(v[:, 1].max())),
        )


def _clip_halfplane(poly: np.ndarray, a: np.ndarray, b: float) -> np.ndarray:
    """Sutherland-Hodgman clip of polygon against {p : <a, p> <= b}."""
    if poly.shape[0] == 0:
        return poly
    out = []
    vals = poly @ a - b
    n = poly.shape[0]
    for i in range(n):
        j = (i + 1) % n
        pi, pj = poly[i], poly[j]
        vi, vj = vals[i], vals[j]
        if vi <= 0.0:
            out.append(pi)
        if (vi < 0.0 < vj) or (vj < 0.0 < vi):
            t = vi / (vi - vj)
            out.append(pi + t * (pj - pi))
    if not out:
        return np.zeros((0, 2))
    return np.asarray(out)


def slice_domain(box: Box3, chart: SliceChart) -> SliceDomain:
    """Intersect the box with the chart's plane, in retained coordinates.

    The result is the (possibly empty) convex polygon of parameter points
    whose lift lands inside the box: a rectangle clipped by the band that the
    eliminated-axis bounds impose on the affine graph.
    """
    lo = np.asarray(box.lo)
    hi = np.asarray(box.hi)
    i1, i2 = chart.inplane_axes[0] - 1, chart.inplane_axes[1] - 1
    k = chart.eliminated_axis - 1
    rect = np.array(
        [
            [lo[i1], lo[i2]],
            [hi[i1], lo[i2]],
            [hi[i1], hi[i2]],
            [lo[i1], hi[i2]],
        ]
    )
    # graph height must satisfy lo_k <= c0 - a1 s - a2 t <= hi_k
    a1, a2, c0 = chart.alpha1, chart.alpha2, chart.affine_offset
    poly = _clip_halfplane(rect, np.array([a1, a2]), c0 - lo[k])
    poly = _clip_halfplane(poly, np.array([-a1, -a2]), hi[k] - c0)
    if poly.shape[0] >= 3:
        # collapse nearly-duplicate vertices produced by clipping at corners
        scale = max(np.max(hi - lo), 1.0)
        keep = [0]
        for i in range(1, poly.shape[0]):
            if np.linalg.norm(poly[i] - poly[keep[-1]]) > 1e-12 * scale:
                keep.append(i)
        if len(keep) > 1 and np.linalg.norm(poly[keep[-1]] - poly[keep[0]]) <= 1e-12 * scale:
            keep.pop()
        poly = poly[keep]
    if poly.shape[0] < 3:
        poly = np.zeros((0, 2))
    return SliceDomain(vertices=poly, inplane_axes=chart.inplane_axes)
