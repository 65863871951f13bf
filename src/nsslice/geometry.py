"""Slicing hyperplanes, their in-plane charts and their box sections.

A hyperplane ``<normal, x> = offset`` cuts a 3D box along a planar
cross-section.  Eliminating the normal's dominant axis turns the plane into
an affine graph over the two retained coordinates; the chart records the
renamed graph coefficients and the coupling coefficients that model the
eliminated derivative as a combination of the two in-plane derivatives.
The projected problem is posed on a rectangle of the chart, so a section is
accepted only where it is one (section_rectangle).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_CHART_TOL = 1e-8

_UNIT_NORM_TOL = 1e-12

# relative slack per axis within which a point counts as inside its box
BOX_REL_SLACK = 1e-9


class GeometryError(ValueError):
    """Invalid geometric input."""


class CoefficientOverflowError(GeometryError):
    """A nonzero renamed coefficient is too small to invert safely."""


class SliceOutsideDomainError(GeometryError):
    """A slice leaves its box: the section is empty, degenerate or not a rectangle."""


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
    alphas = [float(n[i] / n[k]) for i in retained]
    for a in alphas:
        if 0.0 < abs(a) < DEFAULT_CHART_TOL:
            raise CoefficientOverflowError(
                f"renamed coefficient {a!r} in (0, {DEFAULT_CHART_TOL}); "
                "plane is too close to axis-aligned to invert its coupling"
            )
    return SliceChart(
        plane=plane,
        eliminated_axis=k + 1,
        alpha1=alphas[0],
        alpha2=alphas[1],
        affine_offset=float(plane.offset / n[k]),
        inplane_axes=(retained[0] + 1, retained[1] + 1),
    )


# the chart of an axis-normal plane: no eliminated-derivative coupling, (c1, c2) = (0, 0)
AXIS_ALIGNED_CHART = make_chart(Hyperplane((0.0, 0.0, 1.0), 0.0))


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


def section_rectangle(extents, chart: SliceChart):
    """((smin, smax), (tmin, tmax)): the plane's section through the box [0, extents].

    The projected problem is posed on a rectangle of the chart's (s, t) plane,
    so the section must be one.  It starts as the retained axes' ranges; a
    graph that varies along one retained axis only is trimmed along that axis
    to where 0 <= c0 - a1 s - a2 t <= extents[k].  Every corner must then lift
    inside the box within BOX_REL_SLACK, as sampling requires.  An empty or
    degenerate section and one that is not a rectangle (a graph varying along
    both axes that leaves the box) raise SliceOutsideDomainError.
    """
    ext = [float(e) for e in extents]
    k = chart.eliminated_axis - 1
    a1, a2, c0 = chart.alpha1, chart.alpha2, chart.affine_offset
    bounds = [[0.0, ext[axis - 1]] for axis in chart.inplane_axes]
    for axis, (a, other) in enumerate(((a1, a2), (a2, a1))):
        if a != 0.0 and other == 0.0:
            lo, hi = sorted(((c0 - ext[k]) / a, c0 / a))
            bounds[axis] = [max(bounds[axis][0], lo), min(bounds[axis][1], hi)]
    (smin, smax), (tmin, tmax) = bounds
    where = (f"plane {chart.plane.normal} . x = {chart.plane.offset!r}: "
             f"section through the box [0, {tuple(ext)}]")
    rect = f"s in [{smin!r}, {smax!r}], t in [{tmin!r}, {tmax!r}]"
    if not (smin < smax and tmin < tmax):
        raise SliceOutsideDomainError(f"{where} is empty or degenerate: {rect}")
    heights = chart.lift([[smin, tmin], [smax, tmin], [smax, tmax], [smin, tmax]])[:, k]
    slack = BOX_REL_SLACK * ext[k]
    if np.any((heights < -slack) | (heights > ext[k] + slack)):
        spans = f"x{k + 1} in [{float(heights.min())!r}, {float(heights.max())!r}]"
        if heights.max() <= 0.0 or heights.min() >= ext[k]:
            raise SliceOutsideDomainError(
                f"{where} is empty or degenerate: the plane spans {spans}")
        raise SliceOutsideDomainError(
            f"{where} is not a rectangle in the chart: the corners of {rect} lift to {spans}, "
            f"outside [0, {ext[k]!r}]"
        )
    return (smin, smax), (tmin, tmax)
