import numpy as np
import pytest
from oracles import graph_height, membership_residual

from nsslice.geometry import (
    Box3,
    CoefficientOverflowError,
    GeometryError,
    Hyperplane,
    make_chart,
    projected_gradient_coeffs,
    slice_domain,
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
    with pytest.raises(CoefficientOverflowError):
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
    base = make_chart(Hyperplane((0.0, 0.0, 1.0), 0.0))
    bad = type(base)(
        plane=base.plane,
        eliminated_axis=3,
        alpha1=1e-9,
        alpha2=0.0,
        affine_offset=0.0,
        inplane_axes=(1, 2),
    )
    with pytest.raises(CoefficientOverflowError):
        projected_gradient_coeffs(bad)


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


def test_slice_domain_axis_aligned_unit_square():
    box = Box3.from_extents((1.0, 1.0, 1.0))
    chart = make_chart(Hyperplane((0.0, 0.0, 1.0), 0.5))
    dom = slice_domain(box, chart)
    assert not dom.is_empty
    assert dom.area == pytest.approx(1.0, abs=1e-14)
    assert dom.bounds == (pytest.approx((0.0, 1.0)), pytest.approx((0.0, 1.0)))


def test_slice_domain_missing_plane_is_empty():
    box = Box3.from_extents((1.0, 1.0, 1.0))
    chart = make_chart(Hyperplane((0.0, 0.0, 1.0), 2.0))
    dom = slice_domain(box, chart)
    assert dom.is_empty
    assert dom.area == 0.0


def test_slice_domain_hexagon_monte_carlo_oracle():
    # plane x + y + z = 1.5 through the unit cube; the parameter-plane
    # section is the square minus two corner triangles, area 3/4
    box = Box3.from_extents((1.0, 1.0, 1.0))
    chart = make_chart(Hyperplane((1 / SQ3, 1 / SQ3, 1 / SQ3), 1.5 / SQ3))
    dom = slice_domain(box, chart)
    assert dom.vertices.shape[0] == 6
    assert dom.area == pytest.approx(0.75, abs=1e-12)

    rng = np.random.default_rng(2024)
    nsamples = 10**7
    s = rng.random(nsamples)
    t = rng.random(nsamples)
    z = graph_height(chart, s, t)
    hits = np.count_nonzero((z >= 0.0) & (z <= 1.0))
    p_hat = hits / nsamples
    sigma = np.sqrt(p_hat * (1.0 - p_hat) / nsamples)
    assert abs(dom.area - p_hat) <= 3.0 * sigma


def test_slice_domain_oblique_rectangle():
    # normal ~ (1, 0, 1): section {0 <= s <= 0.75} x {0 <= t <= 1}
    box = Box3.from_extents((1.0, 1.0, 1.0))
    chart = make_chart(Hyperplane.from_vector((1.0, 0.0, 1.0), 0.75))
    dom = slice_domain(box, chart)
    (smin, smax), (tmin, tmax) = dom.bounds
    assert (smin, smax) == (pytest.approx(0.0), pytest.approx(0.75))
    assert (tmin, tmax) == (pytest.approx(0.0), pytest.approx(1.0))
    assert dom.area == pytest.approx(0.75, abs=1e-12)


def test_box_validation():
    with pytest.raises(GeometryError):
        Box3((0.0, 0.0, 0.0), (1.0, 0.0, 1.0))
