from dataclasses import fields

import numpy as np
import pytest
from oracles import (
    canonical_value,
    canonicalize_whole,
    jacobi_transform,
    quadform_value,
    strain_matrices,
    strain_sym,
    trace_field,
)

from nsslice import quadform
from nsslice.fieldio import Field, TimeSeriesField
from nsslice.quadform import (
    CriterionReport,
    StrainMatrixField,
    box_lambda1,
    canonicalize,
    gradient_norms,
    signed_integral,
    strain_field,
    uniqueness_criterion,
)


def one_frame(fld):
    return TimeSeriesField(times=np.array([0.0]), frames=(fld,))


def field_from(func, dims=(17, 17, 17), extents=(1.0, 1.0, 1.0)):
    return Field.from_function(dims, extents, 3, func)


def random_symmetric_with_clear_minors(rng, tol=1e-6):
    while True:
        a = rng.standard_normal((3, 3))
        a = 0.5 * (a + a.T)
        d1 = a[0, 0]
        d2 = np.linalg.det(a[:2, :2])
        d3 = np.linalg.det(a)
        if min(abs(d1), abs(d2), abs(d3)) > tol:
            return a


def strain_from_matrix(a, dims=(2, 2, 2)):
    grad = np.empty((3, 3) + dims)
    for j in range(3):
        for k in range(3):
            grad[j, k] = a[j, k]
    return StrainMatrixField(dims, (1.0, 1.0, 1.0), grad)


def test_strain_rigid_rotation_vanishes():
    fld = field_from(lambda x, y, z: np.stack([-y, x, 0 * z]))
    strain = strain_field(fld)
    assert np.max(np.abs(strain_sym(strain))) < 1e-12


def test_strain_linear_field_exact():
    fld = field_from(lambda x, y, z: np.stack([x, -y, 0 * z]))
    strain = strain_field(fld)
    expect = np.zeros((3, 3) + fld.dims)
    expect[0, 0] = 1.0
    expect[1, 1] = -1.0
    assert np.allclose(strain_sym(strain), expect, atol=1e-12)


def test_strain_trig_convergence_rate():
    def v(x, y, z):
        return np.stack([
            np.sin(1.5 * x) * np.cos(y) * np.sin(0.7 * z),
            np.cos(x) * np.sin(1.2 * y) * z,
            np.sin(x + 0.2) * np.cos(0.8 * y + 0.1) * np.cos(z),
        ])

    def a01(x, y, z):
        # 0.5 * (D_x v_1 + D_y v_0) analytically
        dxv1 = -np.sin(x) * np.sin(1.2 * y) * z
        dyv0 = -np.sin(1.5 * x) * np.sin(y) * np.sin(0.7 * z)
        return 0.5 * (dxv1 + dyv0)

    errs = []
    for n in (9, 17, 33):
        fld = field_from(v, dims=(n, n, n))
        strain = strain_field(fld)
        coords = [fld.axis_coords(i) for i in range(3)]
        mesh = np.meshgrid(*coords, indexing="ij")
        errs.append(np.max(np.abs(strain_sym(strain)[0, 1] - a01(*mesh))))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(rates >= 1.9)


def test_canonicalize_identity():
    strain = strain_from_matrix(np.eye(3))
    dec = canonicalize(strain)
    assert np.allclose(dec.b, 1.0)
    assert np.all(dec.inertia == (3, 0, 0))
    assert dec.jacobi.all()


def test_canonicalize_diagonal_case():
    strain = strain_from_matrix(np.diag([1.0, -2.0, 3.0]))
    dec = canonicalize(strain)
    assert np.allclose(dec.b, [1.0, -2.0, 3.0])
    assert np.all(dec.inertia == (2, 0, 1))


def test_canonicalize_minor_formulas_random():
    rng = np.random.default_rng(77)
    for _ in range(50):
        a = random_symmetric_with_clear_minors(rng)
        dec = canonicalize(strain_from_matrix(a))
        b1, b2, b3 = dec.b[0]
        d1 = a[0, 0]
        d2 = np.linalg.det(a[:2, :2])
        d3 = np.linalg.det(a)
        assert b1 == pytest.approx(d1, rel=1e-12)
        assert b2 == pytest.approx(d2 / d1, rel=1e-12)
        assert b3 == pytest.approx(d3 / d2, rel=1e-10)


def test_canonical_coefficients_multiply_to_det():
    # b1 b2 b3 telescopes to det A; det A comes from a closed-form expansion
    rng = np.random.default_rng(78)
    a = rng.standard_normal((3, 3, 16, 16, 16))
    strain = StrainMatrixField((16, 16, 16), (1.0, 1.0, 1.0), a)
    mats = strain_matrices(strain)
    det = np.linalg.det(mats)
    dec = canonicalize(strain)
    pts = dec.jacobi & (np.abs(det) > 1e-3)
    assert np.count_nonzero(pts) > 3000
    np.testing.assert_allclose(np.prod(dec.b[pts], axis=1), det[pts], rtol=1e-12, atol=0.0)


def test_sylvester_agreement_1000_random():
    rng = np.random.default_rng(1234)
    agree = 0
    for _ in range(1000):
        a = random_symmetric_with_clear_minors(rng)
        dec = canonicalize(strain_from_matrix(a))
        assert dec.jacobi.all()
        eig = np.linalg.eigvalsh(a)
        oracle = (int(np.sum(eig > 0)), int(np.sum(np.abs(eig) <= 0)), int(np.sum(eig < 0)))
        got = tuple(int(v) for v in dec.inertia[0])
        agree += got == oracle
    assert agree == 1000


def test_canonical_form_value_equivalence():
    rng = np.random.default_rng(55)
    for _ in range(50):
        a = random_symmetric_with_clear_minors(rng)
        dec = canonicalize(strain_from_matrix(a))
        assert dec.jacobi[0]
        b, u = dec.b[0], jacobi_transform(a)
        for _ in range(100):
            w = rng.standard_normal(3)
            direct = quadform_value(a, w)
            canon = canonical_value(b, u, w)
            scale = max(abs(direct), np.max(np.abs(a)) * float(w @ w))
            assert abs(direct - canon) <= 1e-10 * scale


def test_eigen_fallback_on_degenerate_pivot():
    # leading entry exactly zero: the minor path is unavailable
    a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
    dec = canonicalize(strain_from_matrix(a))
    assert not dec.jacobi.any()
    assert np.isnan(dec.b).all()
    assert np.all(dec.inertia == (2, 0, 1))  # eigenvalues (-1, 1, 2)
    assert dec.degenerate_fraction == 1.0


def test_coefficients_match_full_transform_construction():
    # on a field mixing Jacobi and degenerate points, the coefficients at every
    # Jacobi point diagonalize its matrix under the oracle change of variables,
    # A = U^T diag(b) U, and every degenerate point carries NaN coefficients
    rng = np.random.default_rng(79)
    grad = rng.standard_normal((3, 3, 4, 4, 4))
    grad[:, :, 0, 0, 0] = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]]
    strain = StrainMatrixField((4, 4, 4), (1.0, 1.0, 1.0), grad)
    dec = canonicalize(strain)
    assert dec.b.shape == (64, 3)
    assert not dec.jacobi[0] and dec.jacobi.sum() > 32
    mats = strain_matrices(strain)
    for idx in range(64):
        a = mats[idx]
        if not dec.jacobi[idx]:
            assert np.isnan(dec.b[idx]).all()
            continue
        u = jacobi_transform(a)
        assert np.array_equal(np.diag(u), np.ones(3)) and not np.tril(u, -1).any()
        rebuilt = u.T @ (dec.b[idx][:, None] * u)
        assert np.max(np.abs(rebuilt - a)) <= 1e-10 * np.max(np.abs(a))
        eig = np.linalg.eigvalsh(a)
        assert tuple(dec.inertia[idx]) == (int(np.sum(eig > 0)), 0, int(np.sum(eig < 0)))
    assert np.isnan(dec.b[0]).all()


@pytest.mark.parametrize("chunk", [None, 7])
def test_chunked_canonicalize_matches_whole_array_oracle(monkeypatch, chunk):
    # 41^3 = 68921 points: two full chunks of 2^15 and a partial third; with
    # chunks of 7 the edges fall mid-row.  The global max |a_jk| sits in the
    # last chunk and degenerate points sit in every chunk, so a per-chunk
    # tolerance or a misplaced fallback would show.
    if chunk is not None:
        monkeypatch.setattr(quadform, "CHUNK_POINTS", chunk)
    dims = (41, 41, 41)
    rng = np.random.default_rng(24)
    grad = rng.standard_normal((3, 3) + dims)
    flat = grad.reshape(3, 3, -1)
    flat[0, 1, 68000] = flat[1, 0, 68000] = 50.0               # global max in chunk 3
    for p in (10, 40000, 68900):                               # a11 = 0
        flat[0, :, p] = 0.0
        flat[:, 0, p] = 0.0
    flat[0, 0, 20000] = 2e-7                                   # under the global pivot_tol only
    flat[:, :, 32768] = 0.0                                    # zero matrix at a chunk edge
    flat[:, :, 50001] = np.diag([1.0, 0.0, -1.0])              # det M2 = 0
    strain = StrainMatrixField(dims, (1.0, 1.0, 1.0), grad)
    got = canonicalize(strain)
    want = canonicalize_whole(strain)
    assert got.pivot_tol == want.pivot_tol == quadform.DEFAULT_PIVOT_REL_TOL * 50.0
    assert not got.jacobi[[10, 20000, 32768, 40000, 50001, 68900]].any()
    for name in ("b", "inertia", "jacobi"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w, equal_nan=name == "b"), name


def test_quadform_value_examples():
    assert quadform_value(np.eye(3), [1.0, 2.0, 2.0]) == pytest.approx(9.0)
    assert quadform_value(np.diag([1.0, -2.0, 3.0]), [1.0, 1.0, 1.0]) == pytest.approx(2.0)


def test_default_pivot_tol_scales_with_field():
    strain = strain_from_matrix(100.0 * np.eye(3))
    assert canonicalize(strain).pivot_tol == pytest.approx(1e-6)


def test_strain_stores_only_the_gradient():
    # the symmetric part is derived, never stored next to grad
    rng = np.random.default_rng(80)
    grad = rng.standard_normal((3, 3, 3, 4, 5))
    strain = StrainMatrixField((3, 4, 5), (1.0, 1.0, 1.0), grad)
    assert [f.name for f in fields(strain)] == ["dims", "extents", "grad"]
    assert np.array_equal(strain_sym(strain), 0.5 * (grad + np.swapaxes(grad, 0, 1)))
    assert np.array_equal(strain_sym(strain), np.swapaxes(strain_sym(strain), 0, 1))


def test_inertia_histogram_matches_unique_rows():
    rng = np.random.default_rng(21)
    dims = (6, 5, 7)
    grad = rng.standard_normal((3, 3) + dims)
    grad[:, :, :2, :2, :] = 0.0              # zero block: inertia (0, 3, 0)
    grad[0, :, 3, :, :3] = 0.0               # zero first row: a11 = 0
    grad[:, 0, 3, :, :3] = 0.0
    grad[:, :, 5, 4, :] = np.diag([1.0, 0.0, -1.0])[:, :, None]  # det M2 = 0
    dec = canonicalize(StrainMatrixField(dims, (1.0, 1.0, 1.0), grad))
    assert dec.jacobi.any() and not dec.jacobi.all()
    keys, counts = np.unique(dec.inertia, axis=0, return_counts=True)
    want = {"+%d0%d-%d" % (k[0], k[1], k[2]): int(c) for k, c in zip(keys, counts)}
    got = dec.inertia_histogram()
    assert len(want) >= 4
    assert list(got.items()) == list(want.items())
    assert all(type(v) is int for v in got.values())


def test_strain_gradient_norms_match_direct_differences():
    # the criterion norms reuse the strain's gradient; they must equal a fresh
    # np.gradient pass with trapezoid weights bit for bit
    fld = field_from(lambda x, y, z: np.stack([np.sin(3 * x) * y, x * z**2, np.cos(y + z)]),
                     dims=(9, 11, 13), extents=(1.0, 2.0, 0.5))
    ws = []
    for axis in range(3):
        w = np.full(fld.dims[axis], fld.spacing(axis))
        w[0] = w[-1] = 0.5 * fld.spacing(axis)
        ws.append(w)
    weights = np.multiply.outer(np.multiply.outer(ws[0], ws[1]), ws[2])
    want = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            g = np.gradient(fld.data[j], fld.spacing(i), axis=i, edge_order=2)
            want[i, j] = np.sqrt(float(np.sum(weights * g * g)))
    assert np.array_equal(strain_field(fld).gradient_norms(), want)
    assert np.array_equal(gradient_norms(fld), want)


def test_box_lambda1():
    assert box_lambda1((1.0, 1.0, 1.0)) == pytest.approx(3.0 * np.pi**2)
    assert box_lambda1((1.0, 2.0)) == pytest.approx(np.pi**2 * 1.25)
    with pytest.raises(ValueError):
        box_lambda1((1.0, -1.0, 1.0))


def test_criterion_zero_field_satisfied():
    fld = Field(dims=(5, 5, 5), extents=(1.0, 1.0, 1.0), ncomp=3,
                data=np.zeros((3, 5, 5, 5)))
    rep = uniqueness_criterion(one_frame(fld), nu=0.01)
    assert rep.satisfied
    assert all(r.rhs_per_component == (0.0, 0.0, 0.0) for r in rep.rows)


def test_criterion_boundary_case_closed_inequality():
    fld = field_from(
        lambda x, y, z: np.stack([
            np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z),
            0 * x,
            0 * x,
        ]),
        dims=(21, 21, 21),
    )
    lam1 = box_lambda1(fld.extents)
    # c = 1 by literal, so a changed criterion constant fails this test
    c_gn = 1.0
    norms = gradient_norms(fld)
    nu_star = float(c_gn**2 * np.sum(norms[:, 0])) / lam1**0.25
    rep = uniqueness_criterion(one_frame(fld), nu=nu_star)
    assert rep.rows[0].satisfied_per_component[0]  # equality counts as satisfied
    assert rep.satisfied
    # 1 % below the threshold the criterion must read violated
    rep = uniqueness_criterion(one_frame(fld), nu=0.99 * nu_star)
    assert not rep.rows[0].satisfied_per_component[0]
    assert not rep.satisfied


def test_criterion_doubling_flips_to_violated():
    fld = field_from(
        lambda x, y, z: np.stack([
            np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z),
            0 * x,
            0 * x,
        ]),
        dims=(21, 21, 21),
    )
    lam1 = box_lambda1(fld.extents)
    norms = gradient_norms(fld)
    nu_star = float(np.sum(norms[:, 0])) / lam1**0.25
    doubled = Field(dims=fld.dims, extents=fld.extents, ncomp=3, data=2.0 * fld.data)
    # homogeneity: doubling the field doubles the right side exactly
    assert np.array_equal(gradient_norms(doubled), 2.0 * norms)
    rep = uniqueness_criterion(one_frame(doubled), nu=nu_star)
    assert not rep.rows[0].satisfied_per_component[0]
    assert not rep.satisfied


def test_criterion_on_time_series():
    base = field_from(
        lambda x, y, z: np.stack([x * (1 - x) * y * (1 - y) * z * (1 - z), 0 * x, 0 * x])
    )
    grown = Field(dims=base.dims, extents=base.extents, ncomp=3, data=4.0 * base.data)
    series = TimeSeriesField(times=np.array([0.0, 1.0]), frames=(base, grown))
    lam1 = box_lambda1(base.extents)
    nu_star = 2.0 * float(np.sum(gradient_norms(base)[:, 0])) / lam1**0.25
    rep = uniqueness_criterion(series, nu=nu_star)
    assert rep.rows[0].satisfied and not rep.rows[1].satisfied
    assert not rep.satisfied


def test_signed_integral_psd_strain_nonnegative():
    rng = np.random.default_rng(9)
    strain = strain_from_matrix(np.eye(3), dims=(6, 6, 6))
    w = Field(dims=(6, 6, 6), extents=(1.0, 1.0, 1.0), ncomp=3,
              data=rng.standard_normal((3, 6, 6, 6)))
    assert signed_integral(strain, w) >= 0.0


def test_signed_integral_negative_case():
    strain = strain_from_matrix(np.diag([1.0, -1.0, 0.0]), dims=(6, 6, 6))
    w = Field(dims=(6, 6, 6), extents=(1.0, 1.0, 1.0), ncomp=3,
              data=np.stack([np.zeros((6, 6, 6)), np.ones((6, 6, 6)), np.zeros((6, 6, 6))]))
    assert signed_integral(strain, w) == pytest.approx(-1.0, rel=1e-12)


def test_signed_integral_refined_grid_oracle():
    # analytic strain entries and w with quartic-sine boundary envelopes, so
    # the quadrature error decays fast enough to meet a refined-grid oracle
    rng = np.random.default_rng(31)
    cs = rng.standard_normal(6)
    cw = rng.standard_normal(3)

    def entry(i, j, x, y, z):
        k = (i * (i + 1)) // 2 + j if i <= j else (j * (j + 1)) // 2 + i
        env = (np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z)) ** 4
        return cs[k] * env * np.cos((i + 1) * np.pi * x) * np.cos((j - i) * np.pi * y)

    def wfun(x, y, z):
        env = (np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z)) ** 2
        return np.stack([
            cw[0] * env,
            cw[1] * env * np.cos(np.pi * x),
            cw[2] * env * np.cos(np.pi * z),
        ])

    def integrand(x, y, z):
        wv = wfun(x, y, z)
        total = np.zeros_like(x)
        for i in range(3):
            for j in range(3):
                total += entry(i, j, x, y, z) * wv[i] * wv[j]
        return total

    n = 48
    grad = np.empty((3, 3, n, n, n))
    coords = np.linspace(0.0, 1.0, n)
    mesh = np.meshgrid(coords, coords, coords, indexing="ij")
    for i in range(3):
        for j in range(3):
            grad[i, j] = entry(i, j, *mesh)
    strain = StrainMatrixField((n, n, n), (1.0, 1.0, 1.0), grad)
    w = Field.from_function((n, n, n), (1.0, 1.0, 1.0), 3, wfun)
    got = signed_integral(strain, w)

    # brute-force refined-grid oracle with Richardson extrapolation
    def brute(m):
        c = np.linspace(0.0, 1.0, m)
        h = 1.0 / (m - 1)
        wts = np.full(m, h)
        wts[0] = wts[-1] = 0.5 * h
        mm = np.meshgrid(c, c, c, indexing="ij")
        w3 = wts[:, None, None] * wts[None, :, None] * wts[None, None, :]
        return float(np.sum(w3 * integrand(*mm)))

    i1, i2 = brute(97), brute(193)
    oracle = i2 + (i2 - i1) / 15.0
    assert got == pytest.approx(oracle, rel=1e-8, abs=1e-12)


def test_strain_trace_matches_divergence():
    # divergence-free field: trace of strain vanishes to stencil error,
    # second order at the one-sided boundary faces
    def v(x, y, z):
        return np.stack([
            np.sin(np.pi * x) * np.cos(np.pi * y),
            -np.cos(np.pi * x) * np.sin(np.pi * y),
            0 * z,
        ])

    maxima = []
    for n in (17, 33, 65):
        strain = strain_field(field_from(v, dims=(n, n, n)))
        tr = trace_field(strain)
        assert np.max(np.abs(tr[1:-1, 1:-1, 1:-1])) < 1e-12
        maxima.append(np.max(np.abs(tr)))
    rates = np.log2(np.array(maxima[:-1]) / np.array(maxima[1:]))
    assert np.all(rates >= 1.9)


def test_signed_integral_from_gradient_matches_symmetric_part():
    # w^T grad w = w^T sym w: contracting the stored (non-symmetric) gradient
    # gives the integral of the symmetric part up to summation order
    rng = np.random.default_rng(17)
    dims = (9, 11, 10)
    extents = (1.0, 1.3, 0.8)
    grad = rng.standard_normal((3, 3) + dims)
    strain = StrainMatrixField(dims, extents, grad)
    w = Field(dims=dims, extents=extents, ncomp=3, data=rng.standard_normal((3,) + dims))
    got = signed_integral(strain, w)
    bvals = np.einsum("jk...,j...,k...->...", strain_sym(strain), w.data, w.data)
    weights = []
    for d, e in zip(dims, extents):
        wt = np.full(d, e / (d - 1))
        wt[[0, -1]] *= 0.5
        weights.append(wt)
    want = np.einsum("i,j,k,ijk->", *weights, bvals)
    assert got == pytest.approx(want, rel=1e-12)
    # the antisymmetric part alone integrates to zero up to round-off
    skew = StrainMatrixField(dims, extents, grad - np.swapaxes(grad, 0, 1))
    assert abs(signed_integral(skew, w)) <= 1e-12


def _strain_4cubed():
    return strain_field(field_from(lambda x, y, z: np.stack([y, z, x]), dims=(4, 4, 4)))


def _report(nu=1.0, extents=(1.0, 1.0, 1.0)):
    return CriterionReport.from_norms(np.array([0.0]), [np.zeros((3, 3))], nu, extents)


@pytest.mark.parametrize("call, fragment", [
    pytest.param(lambda: strain_field(Field(dims=(4, 4), extents=(1.0, 1.0), ncomp=3,
                                            data=np.zeros((3, 4, 4)))),
                 "strain_field needs a 3-component 3D field", id="strain-2d"),
    pytest.param(lambda: _report(extents=(1.0, 0.0, 1.0)), "extents must be positive",
                 id="zero-extent"),
    pytest.param(lambda: _report(nu=0.0), "nu must be positive", id="zero-nu"),
    pytest.param(lambda: signed_integral(_strain_4cubed(), Field(
                     dims=(4, 4, 4), extents=(1.0, 1.0, 1.0), ncomp=1, data=np.zeros((1, 4, 4, 4)))),
                 "signed_integral needs a 3-component 3D field", id="signed-one-component"),
    pytest.param(lambda: signed_integral(_strain_4cubed(), field_from(
                     lambda x, y, z: np.stack([x, y, z]), dims=(5, 4, 4))),
                 r"shape mismatch: strain \(4, 4, 4\) vs w \(5, 4, 4\)", id="signed-other-grid"),
])
def test_quadform_refusals(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()
