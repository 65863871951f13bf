import numpy as np
import pytest
from oracles import graph_height, membership_residual

from nsslice.fieldio import Field, restrict_to_slice
from nsslice.geometry import (
    CoefficientOverflowError,
    GeometryError,
    Hyperplane,
    SliceOutsideDomainError,
    make_chart,
    projected_gradient_coeffs,
    section_rectangle,
)

SQ3 = np.sqrt(3.0)


def test_make_chart_axis_aligned_z():
    chart = make_chart(Hyperplane((0.0, 0.0, 1.0), 0.0))
    assert chart.eliminated_axis == 3
    assert chart.alpha1 == 0.0 and chart.alpha2 == 0.0
    assert chart.affine_offset == 0.0
    assert chart.inplane_axes == (1, 2)


def test_make_chart_diagonal_plane_hand_algebra():
    # unit normal (1,1,1)/sqrt(3), offset sqrt(3): the plane x + y + z = 3
    chart = make_chart(Hyperplane((1 / SQ3, 1 / SQ3, 1 / SQ3), SQ3))
    assert chart.eliminated_axis == 3  # tie broken by largest index
    assert chart.alpha1 == pytest.approx(1.0, abs=1e-14)
    assert chart.alpha2 == pytest.approx(1.0, abs=1e-14)
    assert chart.affine_offset == pytest.approx(3.0, abs=1e-12)


def test_make_chart_axis_aligned_y():
    chart = make_chart(Hyperplane((0.0, 1.0, 0.0), 0.5))
    assert chart.eliminated_axis == 2
    assert chart.alpha1 == 0.0 and chart.alpha2 == 0.0
    assert chart.affine_offset == 0.5
    assert chart.inplane_axes == (1, 3)


def test_make_chart_rejects_tiny_coefficients():
    plane = Hyperplane.from_vector((1e-9, 0.0, 1.0), 0.2)
    # the coefficient prints as a plain float, not as a numpy scalar repr
    with pytest.raises(CoefficientOverflowError, match=r"renamed coefficient 1e-09 in \(0, 1e-08\)"):
        make_chart(plane)


def test_projected_gradient_coeffs_values():
    chart = make_chart(Hyperplane((1 / SQ3, 1 / SQ3, 1 / SQ3), 0.0))
    assert projected_gradient_coeffs(chart) == pytest.approx((-0.5, -0.5))

    axis = make_chart(Hyperplane((0.0, 0.0, 1.0), 0.0))
    assert projected_gradient_coeffs(axis) == (0.0, 0.0)

    # alpha = (2, -1) by direct construction: normal ~ (2, -1, 1)
    plane = Hyperplane.from_vector((2.0, -1.0, 1.0), 0.0)
    chart = make_chart(plane)
    assert chart.eliminated_axis == 1  # dominant component is x
    # renamed coefficients follow the retained axes (2, 3)
    assert chart.alpha1 == pytest.approx(-0.5)
    assert chart.alpha2 == pytest.approx(0.5)
    c1, c2 = projected_gradient_coeffs(chart)
    assert c1 == pytest.approx(1.0)
    assert c2 == pytest.approx(-1.0)


def test_projected_gradient_coeffs_alpha_2_minus_1():
    # direct substitution: alpha = (2, -1) -> (-1/4, 1/2)
    base = make_chart(Hyperplane((0.0, 0.0, 1.0), 0.0))
    chart = type(base)(
        plane=base.plane,
        eliminated_axis=3,
        alpha1=2.0,
        alpha2=-1.0,
        affine_offset=0.0,
        inplane_axes=(1, 2),
    )
    assert projected_gradient_coeffs(chart) == pytest.approx((-0.25, 0.5))


def test_projected_gradient_coeffs_overflow_guard():
    # a hand-built chart is refused on construction, before any coupling is formed
    base = make_chart(Hyperplane((0.0, 0.0, 1.0), 0.0))
    with pytest.raises(CoefficientOverflowError, match=r"renamed coefficient 1e-09 in \(0, 1e-08\)"):
        type(base)(
            plane=base.plane,
            eliminated_axis=3,
            alpha1=1e-9,
            alpha2=0.0,
            affine_offset=0.0,
            inplane_axes=(1, 2),
        )


def test_hyperplane_validation():
    with pytest.raises(GeometryError):
        Hyperplane((1.0, 1.0, 0.0), 0.0)  # not unit norm
    with pytest.raises(GeometryError):
        Hyperplane((np.nan, 0.0, 1.0), 0.0)
    with pytest.raises(GeometryError):
        Hyperplane.from_vector((0.0, 0.0, 0.0), 1.0)


def test_hyperplane_canonical_sign():
    a = Hyperplane((0.0, 0.0, 1.0), 0.25)
    b = Hyperplane((0.0, 0.0, -1.0), -0.25)
    assert a == b


def test_chart_invariant_under_sign_flip():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = rng.standard_normal(3)
        b = rng.standard_normal()
        c_pos = make_chart(Hyperplane.from_vector(n, b))
        c_neg = make_chart(Hyperplane.from_vector(-n, -b))
        assert c_pos == c_neg


def test_lift_round_trip_membership():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = rng.standard_normal(3)
        b = rng.standard_normal()
        plane = Hyperplane.from_vector(n, b)
        try:
            chart = make_chart(plane)
        except CoefficientOverflowError:
            continue
        pts = rng.uniform(-3.0, 3.0, size=(20, 2))
        assert np.max(membership_residual(chart, pts)) < 1e-10


def test_section_rectangle_axis_aligned_unit_square():
    chart = make_chart(Hyperplane((0.0, 0.0, 1.0), 0.5))
    assert section_rectangle((1.0, 1.0, 1.0), chart) == ((0.0, 1.0), (0.0, 1.0))


def test_section_rectangle_rejects_missing_plane():
    chart = make_chart(Hyperplane((0.0, 0.0, 1.0), 2.0))
    with pytest.raises(SliceOutsideDomainError, match=r"x = 2.0: .* is empty or degenerate"):
        section_rectangle((1.0, 1.0, 1.0), chart)


def test_section_rectangle_rejects_degenerate_box():
    chart = make_chart(Hyperplane((0.0, 0.0, 1.0), 0.5))
    with pytest.raises(SliceOutsideDomainError, match="is empty or degenerate"):
        section_rectangle((1.0, 0.0, 1.0), chart)


@pytest.mark.parametrize("direction, offset", [
    ((1.0, 1.0, 1.0), 1.5),   # hexagon: the square less two corner triangles
    ((1.0, 1.0, 1.0), 0.5),   # triangle at the origin corner
    ((1.0, 0.5, 1.0), 1.0),   # skewed quadrilateral
], ids=["hexagon", "triangle", "skewed-quadrilateral"])
def test_section_rectangle_rejects_non_rectangles(direction, offset):
    chart = make_chart(Hyperplane.from_vector(direction, offset))
    with pytest.raises(SliceOutsideDomainError, match="is not a rectangle in the chart"):
        section_rectangle((1.0, 1.0, 1.0), chart)


@pytest.mark.parametrize("direction, offset, trimmed", [
    ((1.0, 0.0, 1.0), 0.75, 0),   # s in [0, 0.75], t in [0, 1]
    ((0.0, 1.0, 1.0), 0.3, 1),    # s in [0, 1], t in [0, 0.3]
], ids=["s-trimmed", "t-trimmed"])
def test_section_rectangle_trimmed_edges(direction, offset, trimmed):
    # the graph varies along one retained axis, so its zero level is one edge
    # of the section, with one bound: both corners on it lift onto the face z = 0
    chart = make_chart(Hyperplane.from_vector(direction, offset))
    bounds = section_rectangle((1.0, 1.0, 1.0), chart)
    expect = [(0.0, 1.0), (0.0, 1.0)]
    expect[trimmed] = (0.0, chart.affine_offset)
    assert bounds == tuple(expect)
    assert bounds[trimmed][1] == pytest.approx(offset, abs=1e-15)
    (smin, smax), (tmin, tmax) = bounds
    edge = [[smax, tmin], [smax, tmax]] if trimmed == 0 else [[smin, tmax], [smax, tmax]]
    assert np.array_equal(chart.lift(edge)[:, 2], [0.0, 0.0])


def test_section_rectangle_random_planes():
    # every accepted rectangle lifts inside the box, reaches the box faces
    # where it is trimmed, and restricts; the draws put exact zeros in the
    # normal so that trimmed rectangles occur
    rng = np.random.default_rng(25)
    accepted = trimmed = 0
    for _ in range(400):
        direction = rng.uniform(-1.0, 1.0, 3)
        direction[rng.random(3) < 0.4] = 0.0
        if not direction.any():
            continue
        ext = tuple(rng.choice([0.5, 1.0, 2.0], 3))
        span = np.abs(direction) @ np.asarray(ext)
        chart = make_chart(Hyperplane.from_vector(direction, rng.uniform(-span, span)))
        try:
            bounds = section_rectangle(ext, chart)
        except SliceOutsideDomainError:
            continue
        accepted += 1
        k = chart.eliminated_axis - 1
        ranges = [ext[axis - 1] for axis in chart.inplane_axes]
        (smin, smax), (tmin, tmax) = bounds
        assert 0.0 <= smin < smax <= ranges[0] and 0.0 <= tmin < tmax <= ranges[1]
        s, t = np.meshgrid(np.linspace(smin, smax, 5), np.linspace(tmin, tmax, 5))
        z = graph_height(chart, s, t)
        assert np.all((z >= -1e-9 * ext[k]) & (z <= ext[k] * (1.0 + 1e-9)))
        for axis, (lo, hi) in enumerate(bounds):
            for bound, end in ((lo, 0.0), (hi, ranges[axis])):
                if bound != end:
                    trimmed += 1
                    corner = (bound, tmin) if axis == 0 else (smin, bound)
                    z = graph_height(chart, *corner)
                    assert min(abs(z), abs(z - ext[k])) <= 1e-12 * ext[k]
        fld = Field((3, 3, 3), ext, 1, np.ones((1, 3, 3, 3)))
        assert np.allclose(restrict_to_slice(fld, chart, (7, 5)).data, 1.0)
    assert accepted >= 50 and trimmed >= 20


@pytest.mark.parametrize("call, exc, fragment", [
    pytest.param(lambda: Hyperplane((0.0, 1.0), 0.5), GeometryError,
                 r"normal must be a 3-vector, got shape \(2,\)", id="two-vector-normal"),
])
def test_geometry_refusals(call, exc, fragment):
    with pytest.raises(exc, match=fragment):
        call()
