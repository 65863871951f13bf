import numpy as np
import pytest
from oracles import contract_triple, cross_matrix, dense_trilinear, stiffness, without_nonlinearity

from nsslice import advection_nodes, galerkin
from nsslice.fieldio import (
    Field,
    FieldFormatError,
    TimeSeriesField,
    read_field,
    restrict_to_slice,
    write_field,
)
from nsslice.galerkin import (
    NODE_FORM_MIN_MODES,
    RK4_REAL_LIMIT,
    BlowUpError,
    GalerkinError,
    SpectralBasis,
    assemble,
    coercivity_check,
    divergence_residual,
    project_divfree,
    project_field_to_basis,
    rhs_dual_norm,
    rk4_dt_limit,
    series_forcing,
    solve_from_state,
    step,
    step_count,
    synthesize_field,
)
from nsslice.geometry import AXIS_ALIGNED_CHART, Hyperplane, make_chart
from nsslice.mms import ManufacturedSolution, gauss_rule

DIAG_PLANE = Hyperplane((1 / np.sqrt(3.0),) * 3, 0.5)


# closed-form trig integrals on [0, L]: the quadrature-independent oracle
def sc_exact(a, b, length):
    if a == b:
        return 0.0
    return length / np.pi * a * (1.0 - (-1.0) ** (a + b)) / (a**2 - b**2)


def _sig(k):
    if k == 0 or k % 2 == 0:
        return 0.0
    return 2.0 / k


def sss_exact(a, b, c, length):
    return length / (4.0 * np.pi) * (
        _sig(c + a - b) + _sig(c - a + b) - _sig(c + a + b) - _sig(c - a - b)
    )


def scs_exact(a, b, c, length):
    return length / 4.0 * (
        float(b == c - a) + float(b == a - c) - float(b == a + c)
    )


def _dense_grams(basis, tables):
    # the per-entry dense mass and gradient Grams over all mode pairs, built
    # from the 1-D tables the way assemble built them when it stored them dense
    l1, l2 = basis.extents
    ss1, _, cc1, _, _ = tables(basis.nmodes[0], l1)
    ss2, _, cc2, _, _ = tables(basis.nmodes[1], l2)
    mm, nn = basis.modes[:, 0], basis.modes[:, 1]
    ix = np.ix_(mm - 1, mm - 1)
    iy = np.ix_(nn - 1, nn - 1)
    mass = ss1[ix] * ss2[iy]
    k1 = (np.pi / l1) ** 2 * np.outer(mm, mm) * cc1[ix] * ss2[iy]
    k2 = (np.pi / l2) ** 2 * np.outer(nn, nn) * ss1[ix] * cc2[iy]
    return mass, k1, k2


@pytest.fixture(scope="module")
def square_basis():
    return SpectralBasis(nmodes=(4, 4), extents=(1.0, 1.0))


@pytest.fixture(scope="module")
def square_tensors(square_basis):
    return assemble(square_basis, AXIS_ALIGNED_CHART)


@pytest.fixture(scope="module")
def oblique_tensors(square_basis):
    return assemble(square_basis, make_chart(DIAG_PLANE))


def test_basis_mode_table_row_major():
    # mode p is the row-major grid cell (p // N2 + 1, p % N2 + 1), with its
    # own eigenvalue
    basis = SpectralBasis(nmodes=(5, 3), extents=(1.3, 0.7))
    p = np.arange(15)
    assert np.array_equal(basis.modes, np.column_stack([p // 3 + 1, p % 3 + 1]))
    m, n = basis.modes.T
    lam = np.pi**2 * (m**2 / 1.3**2 + n**2 / 0.7**2)
    np.testing.assert_allclose(basis.eigenvalues, lam, rtol=1e-15, atol=0.0)
    assert basis.lambda1 == pytest.approx(basis.eigenvalues.min(), rel=1e-15)


def test_lambda1_closed_form():
    basis = SpectralBasis(nmodes=(3, 3), extents=(2.0, 0.5))
    assert basis.lambda1 == pytest.approx(np.pi**2 * (0.25 + 4.0), rel=1e-15)


def test_mass_matrix_diagonal(square_tensors, odd_even_oblique):
    # the sine and cosine pair integrals are L/2 on the diagonal and 0 off it,
    # so the mass is m0 * I and the gradient Grams are the closed-form
    # diagonals (pi m / L1)^2 (L1/2) (L2/2) and (pi n / L2)^2 (L1/2) (L2/2),
    # to the last bit; checked on an axis-aligned basis and on an oblique
    # odd x even one (test_closed_forms_match_quadrature_at_benchmark_size
    # checks the dense Grams by quadrature)
    for tens in (square_tensors, odd_even_oblique):
        basis = tens.basis
        l1, l2 = basis.extents
        m0 = l1 * l2 / 4.0
        assert basis.mass_scale == m0
        mm, nn = basis.modes.T
        half1, half2 = 0.5 * l1, 0.5 * l2
        assert np.array_equal(tens.grad1, (np.pi / l1) ** 2 * (mm * mm) * half1 * half2)
        assert np.array_equal(tens.grad2, (np.pi / l2) ** 2 * (nn * nn) * half1 * half2)
        np.testing.assert_allclose(
            tens.grad1 + tens.grad2, m0 * basis.eigenvalues, rtol=1e-14, atol=0.0
        )


def test_stiffness_axis_aligned_is_sine_laplacian(square_basis, square_tensors):
    s = stiffness(square_tensors)
    expect = -square_basis.eigenvalues * 0.25
    assert np.allclose(np.diag(s), expect, atol=1e-12)
    assert np.max(np.abs(s - np.diag(np.diag(s)))) < 1e-12


def test_stiffness_symmetric_negative_definite(oblique_tensors):
    s = stiffness(oblique_tensors)
    assert np.allclose(s, s.T, atol=1e-12)
    vals = np.linalg.eigvalsh(s)
    assert np.max(vals) < 0.0


def test_assembly_against_closed_form_integrals():
    # rectangular box, oblique chart: every operator entry against the
    # closed-form trig integrals
    basis = SpectralBasis(nmodes=(4, 3), extents=(1.5, 0.8))
    chart = make_chart(Hyperplane.from_vector((0.6, -0.8, 1.0), 0.3))
    tens = assemble(basis, chart)
    c1, c2 = tens.chart_coeffs
    l1, l2 = basis.extents
    modes = basis.modes
    m = basis.nmodes_total

    def dd(a, b):
        return 1.0 if a == b else 0.0

    mass_ref = np.zeros((m, m))
    k1_ref = np.zeros((m, m))
    k2_ref = np.zeros((m, m))
    k12_ref = np.zeros((m, m))
    g1_ref = np.zeros((m, m))
    g2_ref = np.zeros((m, m))
    for p in range(m):
        mp, np_ = modes[p]
        for q in range(m):
            mq, nq = modes[q]
            mass_ref[p, q] = dd(mp, mq) * dd(np_, nq) * (l1 / 2) * (l2 / 2)
            k1_ref[p, q] = (
                (np.pi / l1) ** 2 * mp * mq * dd(mp, mq) * (l1 / 2) * dd(np_, nq) * (l2 / 2)
            )
            k2_ref[p, q] = (
                (np.pi / l2) ** 2 * np_ * nq * dd(mp, mq) * (l1 / 2) * dd(np_, nq) * (l2 / 2)
            )
            k12_ref[p, q] = (
                (np.pi / l1) * (np.pi / l2) * mp * nq
                * sc_exact(mq, mp, l1) * sc_exact(np_, nq, l2)
            )
            g1_ref[p, q] = (np.pi / l1) * mq * sc_exact(mp, mq, l1) * dd(np_, nq) * (l2 / 2)
            g2_ref[p, q] = (np.pi / l2) * nq * dd(mp, mq) * (l1 / 2) * sc_exact(np_, nq, l2)
    assert np.allclose(basis.mass_scale * np.eye(m), mass_ref, atol=1e-13)
    assert np.allclose(np.diag(tens.grad1), k1_ref, atol=1e-12)
    assert np.allclose(np.diag(tens.grad2), k2_ref, atol=1e-12)
    cross_ref = c1 * c1 * k1_ref + c2 * c2 * k2_ref + c1 * c2 * (k12_ref + k12_ref.T)
    assert np.allclose(cross_matrix(tens), cross_ref, atol=1e-12)
    assert np.allclose(stiffness(tens), -(k1_ref + k2_ref + cross_ref), atol=1e-12)
    con_ref = np.hstack([g1_ref, g2_ref, c1 * g1_ref + c2 * g2_ref])
    assert np.allclose(tens.constraint, con_ref, atol=1e-12)


@pytest.mark.parametrize("tables", ["closed-form", "quadrature"])
@pytest.mark.parametrize(
    "nmodes, extents",
    [((4, 4), (1.0, 1.0)), ((5, 4), (1.2, 0.9)), ((7, 9), (1.5, 0.8)), ((1, 2), (0.7, 1.3))],
    ids=["even-square", "odd-even", "odd-odd", "1x2"],
)
@pytest.mark.blas_sensitive
def test_divergence_factors_exactly_antisymmetric(monkeypatch, tables, nmodes, extents):
    # <D1 w_c, w_a> = -<w_c, D1 w_a> for Dirichlet sines, and assemble stores
    # the factors so to the last bit, zero diagonal included, whichever tables
    # they are built from
    import nsslice.galerkin as galerkin

    if tables == "quadrature":
        monkeypatch.setattr(galerkin, "_trig_tables", _assembled_quadrature_tables)
    tens = assemble(SpectralBasis(nmodes=nmodes, extents=extents), OBLIQUE)
    for d in (tens.div_x, tens.div_y):
        assert np.array_equal(d, -d.T)
        assert np.all(np.diag(d) == 0.0)


@pytest.mark.parametrize("nmodes", [(5, 4), (12, 12), (24, 24)], ids=["5x4", "12x12", "24x24"])
@pytest.mark.blas_sensitive
def test_one_product_stiffness_matches_both_mixed_terms(nmodes):
    # with exactly antisymmetric factors div_x.T @ U @ div_y.T is div_x @ U @ div_y,
    # so the one-product stiffness reads the two-term form bit for bit
    tens = assemble(SpectralBasis(nmodes=nmodes, extents=(1.2, 0.9)), OBLIQUE)
    c1, c2 = tens.chart_coeffs
    dx, dy = tens.div_x, tens.div_y
    m = tens.nmodes_total
    for u in (np.random.default_rng(24).standard_normal((2, 3, m)), np.eye(m)):
        grid = u.reshape(u.shape[:-1] + tens.basis.nmodes)
        mixed = (dx @ grid @ dy + dx.T @ grid @ dy.T).reshape(u.shape)
        want = -(tens.stiffness_diag * u + (c1 * c2 / tens.basis.mass_scale) * mixed)
        assert np.array_equal(tens.apply_stiffness(u), want)


def test_trilinear_factors_against_closed_form():
    basis = SpectralBasis(nmodes=(5, 4), extents=(1.1, 0.9))
    tens = assemble(basis, AXIS_ALIGNED_CHART)
    tri = tens.trilinear
    l1, l2 = basis.extents
    n1, n2 = basis.nmodes
    for a in range(1, n1 + 1):
        for b in range(1, n1 + 1):
            for c in range(1, n1 + 1):
                x1_ref = 0.5 * (np.pi / l1) * (
                    b * scs_exact(a, b, c, l1) - c * scs_exact(a, c, b, l1)
                )
                assert tri.x1[a - 1, b - 1, c - 1] == pytest.approx(x1_ref, abs=1e-13)
                assert tri.x2[a - 1, b - 1, c - 1] == pytest.approx(
                    sss_exact(a, b, c, l1), abs=1e-13
                )
    for a in range(1, n2 + 1):
        for b in range(1, n2 + 1):
            for c in range(1, n2 + 1):
                assert tri.y1[a - 1, b - 1, c - 1] == pytest.approx(
                    sss_exact(a, b, c, l2), abs=1e-13
                )
                y2_ref = 0.5 * (np.pi / l2) * (
                    b * scs_exact(a, b, c, l2) - c * scs_exact(a, c, b, l2)
                )
                assert tri.y2[a - 1, b - 1, c - 1] == pytest.approx(y2_ref, abs=1e-13)


def test_trilinear_dense_against_quadrature_oracle():
    # brute-force oracle: evaluate the skew-symmetrized advection integral
    # by 2D Gauss quadrature on grids of basis-function values
    basis = SpectralBasis(nmodes=(3, 2), extents=(1.0, 1.2))
    chart = make_chart(Hyperplane.from_vector((0.5, 0.25, 1.0), 0.4))
    tens = assemble(basis, chart)
    c1, c2 = tens.chart_coeffs
    l1, l2 = basis.extents
    q = 40
    xg, wx = gauss_rule(l1, q)
    yg, wy = gauss_rule(l2, q)
    w2d = wx[:, None] * wy[None, :]

    def wfun(mode, dx=0, dy=0):
        mth, nth = mode
        fx = np.sin(mth * np.pi * xg / l1) if dx == 0 else (
            mth * np.pi / l1 * np.cos(mth * np.pi * xg / l1)
        )
        fy = np.sin(nth * np.pi * yg / l2) if dy == 0 else (
            nth * np.pi / l2 * np.cos(nth * np.pi * yg / l2)
        )
        return fx[:, None] * fy[None, :]

    m = basis.nmodes_total
    g1 = np.array([1.0, 0.0, c1])
    g2 = np.array([0.0, 1.0, c2])

    def b_adv(ai, p, bi, qq, di, r):
        # advective integral for basis triple (component, mode)
        if bi != di:
            return 0.0
        vad1 = g1[ai] * wfun(basis.modes[p])
        vad2 = g2[ai] * wfun(basis.modes[p])
        integ = (
            vad1 * wfun(basis.modes[qq], dx=1) + vad2 * wfun(basis.modes[qq], dy=1)
        ) * wfun(basis.modes[r])
        return float(np.sum(w2d * integ))

    h = dense_trilinear(tens.trilinear, basis)
    rng = np.random.default_rng(0)
    for _ in range(60):
        ai, bi, di = rng.integers(0, 3, size=3)
        p, qq, r = rng.integers(0, m, size=3)
        skew = 0.5 * (b_adv(ai, p, bi, qq, di, r) - b_adv(ai, p, di, r, bi, qq))
        got = h[di * m + r, ai * m + p, bi * m + qq]
        assert got == pytest.approx(skew, abs=1e-11)


def test_trilinear_apply_against_pseudospectral_oracle():
    _check_against_pseudospectral_oracle((6, 5), 80)


def test_trilinear_node_form_against_pseudospectral_oracle():
    # the same oracle on a basis above NODE_FORM_MIN_MODES, with a Gauss grid
    # fine enough for its highest products
    tri = _check_against_pseudospectral_oracle((18, 17), 160)
    assert "_node_form" in vars(tri)


def _check_against_pseudospectral_oracle(nmodes, points):
    # independent route: synthesize fields and analytic derivatives on a fine
    # Gauss grid, form the advective products pointwise, integrate against
    # each test mode, and skew-symmetrize; must match the factorized tensor
    # contraction to round-off
    basis = SpectralBasis(nmodes=nmodes, extents=(1.4, 0.9))
    chart = make_chart(Hyperplane.from_vector((0.7, -0.4, 1.0), 0.2))
    tens = assemble(basis, chart)
    c1, c2 = tens.chart_coeffs
    l1, l2 = basis.extents
    m = basis.nmodes_total
    rng = np.random.default_rng(6)
    u = rng.standard_normal((3, m))
    v = rng.standard_normal((3, m))

    xg, wx = gauss_rule(l1, points)
    yg, wy = gauss_rule(l2, points)
    modes = basis.modes
    sx = np.sin(np.pi / l1 * np.outer(modes[:, 0], xg))   # (M, qx)
    cx = np.cos(np.pi / l1 * np.outer(modes[:, 0], xg))
    sy = np.sin(np.pi / l2 * np.outer(modes[:, 1], yg))
    cy = np.cos(np.pi / l2 * np.outer(modes[:, 1], yg))
    kx = (np.pi / l1) * modes[:, 0]
    ky = (np.pi / l2) * modes[:, 1]

    def synth(coef):
        return np.einsum("p,pi,pj->ij", coef, sx, sy)

    def synth_dx(coef):
        return np.einsum("p,p,pi,pj->ij", coef, kx, cx, sy)

    def synth_dy(coef):
        return np.einsum("p,p,pi,pj->ij", coef, ky, sx, cy)

    adv1 = synth(u[0] + c1 * u[2])
    adv2 = synth(u[1] + c2 * u[2])
    w2d = wx[:, None] * wy[None, :]
    expect = np.empty((3, m))
    for d in range(3):
        # forward advective term tested against each mode
        a_of_v = adv1 * synth_dx(v[d]) + adv2 * synth_dy(v[d])
        fwd = np.einsum("ij,pi,pj->p", w2d * a_of_v, sx, sy)
        # transposed term: advection applied to the test mode, paired with v_d
        vgrid = synth(v[d])
        for r in range(m):
            grad_wr = adv1 * np.outer(kx[r] * cx[r], sy[r]) + adv2 * np.outer(
                ky[r] * sx[r], cy[r]
            )
            expect[d, r] = 0.5 * (fwd[r] - float(np.sum(w2d * grad_wr * vgrid)))
    got = tens.trilinear.apply_pair(u.ravel(), v.ravel()).reshape(3, m)
    scale = np.max(np.abs(expect))
    assert np.max(np.abs(got - expect)) < 1e-12 * max(scale, 1.0)
    return tens.trilinear


def test_energy_matches_grid_quadrature(oblique_tensors):
    # Parseval energy against direct quadrature of |u|^2 / 2 on a fine grid
    tens = oblique_tensors
    basis = tens.basis
    rng = np.random.default_rng(31)
    coeffs = rng.standard_normal(3 * basis.nmodes_total)
    xg, wx = gauss_rule(basis.extents[0], 60)
    yg, wy = gauss_rule(basis.extents[1], 60)
    s1 = basis.sine_table(0, xg)
    s2 = basis.sine_table(1, yg)
    grids = coeffs.reshape((3,) + basis.nmodes)
    synth = np.einsum("mi,cmn,nj->cij", s1, grids, s2)
    direct = 0.5 * float(np.sum(synth**2 * wx[None, :, None] * wy[None, None, :]))
    assert tens.energy(coeffs) == pytest.approx(direct, rel=1e-13)


@pytest.mark.parametrize("which", ["axis", "oblique"])
def test_trilinear_skew_annihilation(square_tensors, oblique_tensors, which):
    _check_skew_annihilation(square_tensors if which == "axis" else oblique_tensors)


@pytest.mark.parametrize("chart", [AXIS_ALIGNED_CHART, make_chart(DIAG_PLANE)],
                         ids=["axis", "oblique"])
def test_trilinear_skew_annihilation_node_form(chart):
    tens = assemble(SpectralBasis(nmodes=(18, 17), extents=(1.0, 1.0)), chart)
    _check_skew_annihilation(tens)
    assert "_node_form" in vars(tens.trilinear)


def _check_skew_annihilation(tens):
    m = tens.nmodes_total
    rng = np.random.default_rng(99)
    for _ in range(100):
        u = tens.projector @ rng.standard_normal(3 * m)
        val = contract_triple(tens.trilinear, u, u, u)
        scale = tens.norm_h(u) ** 3
        assert abs(val) <= 1e-10 * scale


def test_project_divfree_idempotent(square_tensors):
    rng = np.random.default_rng(3)
    m = square_tensors.nmodes_total
    once = project_divfree(rng.standard_normal(3 * m), square_tensors)
    twice = project_divfree(once, square_tensors)
    assert np.max(np.abs(twice - once)) < 1e-13
    # already divergence-free states are returned unchanged
    assert np.max(np.abs(project_divfree(once, square_tensors) - once)) < 1e-12


def test_project_divfree_rowspace_to_zero(square_tensors):
    rng = np.random.default_rng(4)
    coeffs = square_tensors.constraint.T @ rng.standard_normal(square_tensors.nmodes_total)
    out = project_divfree(coeffs, square_tensors)
    assert divergence_residual(out, square_tensors) <= 1e-10
    assert np.max(np.abs(out)) < 1e-10 * max(1.0, np.max(np.abs(coeffs)))


def test_project_divfree_matches_kkt_oracle(oblique_tensors):
    # dense KKT solve for min ||x - u||^2  s.t.  C x = 0
    tens = oblique_tensors
    m = tens.nmodes_total
    c = tens.constraint
    rng = np.random.default_rng(11)
    u = rng.standard_normal(3 * m)
    kkt = np.block([
        [np.eye(3 * m), c.T],
        [c, np.zeros((m, m))],
    ])
    rhs = np.concatenate([u, np.zeros(m)])
    x = np.linalg.lstsq(kkt, rhs, rcond=None)[0][: 3 * m]
    proj = project_divfree(u, tens)
    assert np.max(np.abs(proj - x)) < 1e-9
    assert divergence_residual(proj, tens) <= 1e-10 * np.sqrt(tens.grad_norm_sq(proj))


def test_projector_mass_self_adjoint(square_tensors):
    p = square_tensors.projector
    assert np.allclose(p, p.T, atol=1e-13)
    assert np.allclose(p @ p, p, atol=1e-13)


def _svd_projector(tens):
    # dense reference: orthonormal null basis from the full SVD of the
    # constraint, with the singular-value rank tolerance the SVD-based
    # assembler used
    c = tens.constraint
    n1, n2 = tens.basis.nmodes
    l1, l2 = tens.basis.extents
    _, svals, vt = np.linalg.svd(c, full_matrices=True)
    scale_c = np.pi * max(n1, n2) / min(l1, l2) * tens.basis.mass_scale
    tol = max((svals[0] if svals.size else 0.0) * max(c.shape) * np.finfo(float).eps,
              1e-12 * scale_c)
    rank = int(np.sum(svals > tol))
    z = vt[rank:].T
    return z @ z.T, rank


OBLIQUE = make_chart(Hyperplane.from_vector((1.0, 0.5, 1.0), 1.75))


@pytest.mark.parametrize(
    "nmodes, chart",
    [((4, 4), AXIS_ALIGNED_CHART), ((24, 24), OBLIQUE), ((5, 5), OBLIQUE), ((7, 10), OBLIQUE),
     ((1, 1), OBLIQUE), ((5, 5), AXIS_ALIGNED_CHART), ((7, 10), AXIS_ALIGNED_CHART),
     ((1, 1), AXIS_ALIGNED_CHART), ((6, 1), AXIS_ALIGNED_CHART), ((1, 6), OBLIQUE)],
    ids=["axis-4x4", "oblique-24x24", "odd-5x5", "odd-even-7x10", "rank0-1x1", "axis-odd-5x5",
         "axis-odd-even-7x10", "axis-rank0-1x1", "axis-6x1", "oblique-1x6"],
)
@pytest.mark.blas_sensitive
def test_factored_projection_matches_svd_oracle(nmodes, chart):
    tens = assemble(SpectralBasis(nmodes=nmodes, extents=(1.2, 0.9)), chart)
    m = tens.nmodes_total
    p_ref, rank_ref = _svd_projector(tens)
    assert tens.constraint_rank == rank_ref
    x = np.random.default_rng(31).standard_normal((3, 3 * m))
    stacked = tens.project(x)
    want = x @ p_ref
    assert np.max(np.abs(stacked - want)) <= 1e-12 * np.max(np.abs(want))
    # each state of a stack gets its own products
    single = np.stack([project_divfree(xi, tens) for xi in x])
    assert np.array_equal(stacked, single)
    if rank_ref == 0:
        assert np.array_equal(stacked, x)   # P = I
    # C and C^T keep the parity of m + n, so no two parity classes couple
    parity = tens.basis.modes.sum(axis=1) % 2
    gram = tens.constraint @ tens.constraint.T
    assert np.all(gram[parity[:, None] != parity] == 0.0)
    # the lazily built dense forms
    z = tens.null_basis
    assert z.shape == (3 * m, 3 * m - rank_ref)
    assert np.max(np.abs(z.T @ z - np.eye(z.shape[1]))) <= 1e-12
    c_norm = np.linalg.norm(tens.constraint)
    assert np.linalg.norm(tens.constraint @ z) <= 1e-12 * c_norm
    p = tens.projector
    assert np.max(np.abs(p - p.T)) <= 1e-13
    assert np.max(np.abs(p @ p - p)) <= 1e-13


def _pair_swap(n):
    # columns 2i and 2i + 1 of a Schur basis hold one pair; a last odd column stays
    return np.minimum(np.arange(n) ^ 1, n - 1)


@pytest.mark.parametrize("n", range(1, 65))
@pytest.mark.blas_sensitive
def test_schur_basis_block_diagonalizes_divergence_factor(n):
    # div_x is a fixed (n, n) matrix times L2, so these counts cover every box
    tens = assemble(SpectralBasis(nmodes=(n, 1), extents=(1.2, 0.9)), OBLIQUE)
    q, d = tens.schur_x, tens.div_x
    assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-13
    form = q.T @ d @ q
    scale = np.max(np.abs(d))
    # each pair block is [[0, s], [-s, 0]] with s > 0, and nothing lies outside the blocks
    s = form[np.arange(n), _pair_swap(n)]
    half = n // 2
    assert np.all(s[0:2 * half:2] > 0.0)
    assert np.max(np.abs(s[1:2 * half:2] + s[0:2 * half:2]), initial=0.0) <= 1e-13 * scale
    off = form.copy()
    off[np.arange(n), _pair_swap(n)] = 0.0
    assert np.max(np.abs(off)) <= 1e-13 * scale
    # an odd count ends with the one null column
    zero_columns = np.flatnonzero(np.all(np.abs(form) <= 1e-13 * scale, axis=0))
    assert zero_columns.tolist() == ([n - 1] if n % 2 else [])


def test_schur_basis_refuses_a_factor_that_couples_one_parity():
    # sign * div is symmetric only when div couples opposite parities; the
    # eigh of any other antisymmetric factor gives no Schur basis, and set-up says so
    import nsslice.galerkin as galerkin

    div = np.array([[0.0, 1.0, 1.0], [-1.0, 0.0, 1.0], [-1.0, -1.0, 0.0]])
    with pytest.raises(galerkin.GalerkinError, match="no real Schur form"):
        galerkin._schur_basis(div)


@pytest.mark.parametrize("chart", [AXIS_ALIGNED_CHART, OBLIQUE], ids=["axis", "oblique"])
@pytest.mark.parametrize("nmodes", [(5, 5), (6, 7), (12, 12)], ids=["5x5", "6x7", "12x12"])
@pytest.mark.blas_sensitive
def test_parity_block_projector_matches_dense_reference(nmodes, chart):
    # project applies (C C^T)^+ in the Schur bases of div_x and div_y, whose
    # pairs each split an eigenvector of sign * div by index parity; there the
    # Gram is a set of 2x2 blocks and gram_pinv_coef its pseudo-inverse.  It
    # must agree with the dense SVD projector, and the rank read off the
    # blocks with the rank of one dense eigensolve of the whole Gram
    tens = assemble(SpectralBasis(nmodes=nmodes, extents=(1.2, 0.9)), chart)
    m = tens.nmodes_total
    n1, n2 = nmodes
    p_ref, rank_ref = _svd_projector(tens)
    x = np.random.default_rng(41).standard_normal((3, 3 * m))
    got = tens.project(x)
    want = x @ p_ref
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.max(np.abs(tens.project(got) - got)) <= 1e-13 * np.max(np.abs(got))
    # in the Schur bases the Gram couples each grid entry with its pair-swapped
    # partner only, and (A, B) is its Moore-Penrose inverse
    q = np.kron(tens.schur_x, tens.schur_y)
    assert np.max(np.abs(q.T @ q - np.eye(m))) <= 1e-13
    gram = q.T @ tens.constraint @ tens.constraint.T @ q
    partner = np.arange(m).reshape(n1, n2)[_pair_swap(n1)][:, _pair_swap(n2)].ravel()
    coupled = np.zeros((m, m), dtype=bool)
    coupled[np.arange(m), np.arange(m)] = coupled[np.arange(m), partner] = True
    assert np.max(np.abs(gram[~coupled])) <= 1e-13 * np.max(np.abs(gram))
    a, b = tens.gram_pinv_coef.reshape(2, m)
    pinv = np.diag(a)
    pinv[np.arange(m), partner] += b
    g_pinv = gram @ pinv
    assert np.max(np.abs(g_pinv @ gram - gram)) <= 1e-13 * np.max(np.abs(gram))
    assert np.max(np.abs(pinv @ g_pinv - pinv)) <= 1e-13 * np.max(np.abs(pinv))
    assert np.max(np.abs(g_pinv - g_pinv.T)) <= 1e-13
    assert np.max(np.abs(pinv @ gram - (pinv @ gram).T)) <= 1e-13
    # the dense-Gram rank with the same tolerance rule
    w = np.linalg.eigvalsh(tens.constraint @ tens.constraint.T)
    scale = np.pi * max(n1, n2) / min(tens.basis.extents) * tens.basis.mass_scale
    tol = max(w.max() * 3 * m * np.finfo(float).eps, (1e-12 * scale) ** 2)
    rank_dense = int(np.count_nonzero(w > tol))
    assert tens.constraint_rank == rank_dense == rank_ref
    assert not tens.rank_deficient
    assert tens.constraint_rank == m - (n1 % 2) * (n2 % 2)


def test_constraint_expected_rank():
    # even mode counts: full rank; odd-by-odd: one structural deficiency
    even = assemble(SpectralBasis(nmodes=(4, 4), extents=(1.0, 1.0)), AXIS_ALIGNED_CHART)
    assert even.constraint_rank == even.basis.nmodes_total
    assert not even.rank_deficient
    odd = assemble(SpectralBasis(nmodes=(3, 3), extents=(1.0, 1.0)), AXIS_ALIGNED_CHART)
    assert odd.constraint_rank == odd.basis.nmodes_total - 1
    assert not odd.rank_deficient
    # single-mode basis: the constraint is vacuous by parity
    tiny = assemble(SpectralBasis(nmodes=(1, 1), extents=(1.0, 1.0)), AXIS_ALIGNED_CHART)
    assert tiny.constraint_rank == 0
    assert not tiny.rank_deficient


def test_step_zero_fixed_point(square_tensors):
    m = square_tensors.nmodes_total
    out = step(np.zeros(3 * m), 0.0, square_tensors, None, nu=0.5, dt=1e-2)
    assert np.all(out == 0.0)


def test_step_linear_heat_mode_decay(square_basis, square_tensors):
    # single mode, no forcing, advection zeroed: coefficient follows
    # exp(-nu lambda dt) with O(dt^5) one-step error
    tens = without_nonlinearity(square_tensors)
    m = square_basis.nmodes_total
    for p in (0, 3, 7):
        u = np.zeros((3, m))
        u[2, p] = 1.0  # third component is unconstrained for alpha = 0
        nu, dt = 0.3, 2e-3
        lam = square_basis.eigenvalues[p]
        out = step(u.ravel(), 0.0, tens, None, nu, dt)
        got = out.reshape(3, -1)[2, p]
        assert abs(got - np.exp(-nu * lam * dt)) <= (nu * lam * dt) ** 5 / 120.0 + 1e-14


def test_step_blowup_guard(square_tensors):
    rng = np.random.default_rng(1)
    m = square_tensors.nmodes_total
    cur = project_divfree(10.0 * rng.standard_normal(3 * m), square_tensors)
    with pytest.raises(BlowUpError, match="reduce dt"):
        for k in range(200):
            cur = step(cur, float(k), square_tensors, None, nu=1.0, dt=1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_step_blowup_guard_catches_nonfinite(square_tensors, bad):
    m = square_tensors.nmodes_total
    forcing = np.zeros((3, m))
    forcing[2, 1] = bad
    with np.errstate(invalid="ignore"), pytest.raises(BlowUpError, match="reduce dt"):
        step(np.zeros(3 * m), 0.0, square_tensors, lambda t: forcing.ravel(), nu=0.1, dt=1e-3)


def test_step_blowup_guard_fires_before_overflow(square_tensors):
    # the limit sits far enough below the float range that the guard, not an
    # overflow in the next step's products, is what stops the run
    rng = np.random.default_rng(1)
    m = square_tensors.nmodes_total
    cur = project_divfree(10.0 * rng.standard_normal(3 * m), square_tensors)
    with np.errstate(over="raise", invalid="raise"), pytest.raises(BlowUpError):
        for k in range(200):
            cur = step(cur, float(k), square_tensors, None, nu=1.0, dt=1.0)


@pytest.mark.parametrize("normal", [(1.0, 0.5, 1.0), (0.3, -1.0, 0.8), (0.0, 0.0, 1.0)])
def test_rk4_dt_limit_refuses_only_unstable_steps(normal):
    # the closed-form lam is the largest diagonal entry of -K / m0, so it is at
    # most lambda_max(-K) / m0 (equal on the axis-aligned chart) and the limit
    # at least the true one; a step just above it grows the top eigenmode
    # n_hat (x) e, which is divergence-free, in one linear RK4 step
    chart = make_chart(Hyperplane.from_vector(normal, 0.2))
    basis = SpectralBasis((5, 4), (1.0, 1.3))
    tens = assemble(basis, chart)
    nu = 0.1
    limit = rk4_dt_limit(basis, chart, nu)
    vals, vecs = np.linalg.eigh(-tens.apply_stiffness(np.eye(basis.nmodes_total)))
    true_limit = RK4_REAL_LIMIT / (nu * vals[-1] / basis.mass_scale)
    if normal[:2] == (0.0, 0.0):
        assert limit == pytest.approx(true_limit, rel=1e-14)
    else:
        assert true_limit < limit
    c1, c2 = tens.chart_coeffs
    top = np.outer(np.array([-c1, -c2, 1.0]) / np.hypot(1.0, np.hypot(c1, c2)), vecs[:, -1])
    grown = step(top.ravel(), 0.0, without_nonlinearity(tens), None, nu, 1.001 * limit)
    assert np.linalg.norm(grown) > 1.0 + 1e-3


def test_step_projects_each_stage_once(oblique_tensors, monkeypatch):
    # the four RK4 stages are projected and the result is not projected again
    calls = []
    project = type(oblique_tensors).project

    def counted(self, coeffs):
        calls.append(1)
        return project(self, coeffs)

    monkeypatch.setattr(type(oblique_tensors), "project", counted)
    step(np.zeros(3 * oblique_tensors.nmodes_total), 0.0, oblique_tensors, None, nu=0.1, dt=1e-3)
    assert len(calls) == 4


@pytest.mark.blas_sensitive
def test_long_run_stays_divergence_free_without_reprojection():
    # 1000 steps at n = 12 on an oblique chart: the round-off drift out of
    # the weak divergence-free subspace stays far below the 1e-9 solve check
    chart = make_chart(Hyperplane.from_vector((1.0, 0.5, 1.0), 1.75))
    tens = assemble(SpectralBasis(nmodes=(12, 12), extents=(1.2, 0.9)), chart)
    m = tens.nmodes_total
    rng = np.random.default_rng(3)
    u0 = tens.project((rng.standard_normal((3, m)) * np.exp(-0.1 * tens.basis.eigen_rank)).ravel())
    res = solve_from_state(u0, None, tens, 0.1, 2.5e-4, 0.25)
    assert len(res) == 1001
    assert np.max(divergence_residual(res.coeffs, tens)) <= 1e-12


def test_solve_requires_integral_step_count(square_tensors):
    assert step_count(1e-3, 0.5) == 500 and step_count(0.004, 0.1) == 25
    for dt, t_end in ((0.01, 0.055), (0.004, 0.006), (0.1, 0.04)):
        with pytest.raises(ValueError, match="integer multiple"):
            step_count(dt, t_end)
    for dt, t_end in ((1e-3, np.inf), (1e-3, np.nan), (1e-320, 1.0)):
        with pytest.raises(ValueError, match="is not finite"):
            step_count(dt, t_end)
    m = square_tensors.nmodes_total
    with pytest.raises(ValueError, match="integer multiple"):
        solve_from_state(np.zeros(3 * m), None, square_tensors, nu=0.1, dt=3e-3, t_end=0.01)


def test_solve_zero_data_zero_trajectory(square_basis, square_tensors):
    u0 = Field(dims=(9, 9), extents=(1.0, 1.0), ncomp=3, data=np.zeros((3, 9, 9)))
    coeffs0 = project_field_to_basis(u0, square_basis)
    state = project_divfree(coeffs0.ravel(), square_tensors)
    res = solve_from_state(state, None, square_tensors, nu=0.1, dt=1e-2, t_end=0.1)
    assert np.max(np.abs(res.coeffs)) == 0.0
    # times accumulate one dt at a time from t = 0 (cumsum adds in order)
    assert np.array_equal(res.times, np.cumsum([0.0] + [1e-2] * 10))
    frames = [synthesize_field(square_basis, c, u0.dims) for c in res.coeffs]
    assert all(np.max(np.abs(f.data)) == 0.0 for f in frames)


def test_solve_divergence_preserved_and_energy_decay(oblique_tensors):
    rng = np.random.default_rng(8)
    m = oblique_tensors.nmodes_total
    u0 = oblique_tensors.projector @ (
        rng.standard_normal(3 * m) * np.exp(-0.4 * np.tile(np.arange(m), 3))
    )
    res = solve_from_state(u0, None, oblique_tensors, nu=0.1, dt=2e-3, t_end=0.2)
    grads = [np.sqrt(oblique_tensors.grad_norm_sq(c)) for c in res.coeffs]
    for k in range(len(res)):
        r = divergence_residual(res.coeffs[k], oblique_tensors)
        assert r <= 1e-9
        assert r <= 1e-10 * max(grads[k], 1e-12)
    e = np.array([oblique_tensors.energy(c) for c in res.coeffs])
    assert np.all(np.diff(e) <= 1e-12 * e[0])


def test_third_component_passive_at_axis_aligned(square_tensors):
    # regression case: for an axis-aligned chart the third component is
    # passively advected, so the in-plane pair evolves independently of it
    rng = np.random.default_rng(23)
    m = square_tensors.nmodes_total
    decay = np.exp(-np.arange(m) / 3.0)
    base = rng.standard_normal((3, m)) * decay
    alt = base.copy()
    alt[2] = rng.standard_normal(m) * decay  # different passive component
    finals = []
    actives = []
    for u0 in (base, alt):
        state = project_divfree(u0.ravel(), square_tensors)
        res = solve_from_state(state, None, square_tensors, 0.1, 1e-3, 0.05)
        finals.append(res.coeffs[-1].reshape(3, -1))
        actives.append(state.reshape(3, -1)[:2])
    # the constraint at alpha = 0 does not couple u3, so the projected
    # in-plane initial data agree and so must their whole trajectories
    assert np.allclose(actives[0], actives[1], atol=1e-13)
    assert np.max(np.abs(finals[0][:2] - finals[1][:2])) < 1e-12
    assert np.max(np.abs(finals[0][2] - finals[1][2])) > 1e-3  # u3 did differ


def test_projection_roundtrip_field(square_basis):
    rng = np.random.default_rng(12)
    coeffs = rng.standard_normal(3 * square_basis.nmodes_total)
    fld = synthesize_field(square_basis, coeffs, (33, 33))
    back = project_field_to_basis(fld, square_basis)
    assert np.max(np.abs(back.ravel() - coeffs)) < 1e-12


@pytest.mark.parametrize("n", [12, 24])
@pytest.mark.blas_sensitive
def test_projection_independent_of_memory_layout(tmp_path, n):
    # a C-ordered field in memory and the same field read back from NSF1
    # (each component's first axis fastest) project bit for bit alike
    basis = SpectralBasis(nmodes=(n, n), extents=(1.3, 0.8))
    rng = np.random.default_rng(n)
    for case in range(5):
        fld = Field(dims=(49, 49), extents=basis.extents, ncomp=3,
                    data=np.ascontiguousarray(rng.standard_normal((3, 49, 49))))
        write_field(fld, tmp_path / f"f{case}.nsf1")
        back = read_field(tmp_path / f"f{case}.nsf1")
        assert np.array_equal(back.data, fld.data)
        assert np.array_equal(project_field_to_basis(fld, basis),
                              project_field_to_basis(back, basis))


def test_transforms_match_einsum_oracle():
    # the matrix-product transforms against the explicit contractions, on an
    # odd x even basis over the section of an oblique plane, 3 components
    def f(x, y, z):
        return np.stack([np.sin(3 * x + y) * z, np.cos(x - 2 * z) * y, x * y * z])

    box = Field.from_function((13, 13, 13), (1.3, 0.8, 1.0), 3, f)
    chart = make_chart(Hyperplane.from_vector((0.3, 0.2, 1.0), 0.6))
    fld = restrict_to_slice(box, chart, (19, 24))
    basis = SpectralBasis(nmodes=(5, 6), extents=fld.extents)
    s1 = basis.sine_table(0, fld.axis_coords(0))
    s2 = basis.sine_table(1, fld.axis_coords(1))
    grid = np.einsum("mi,cij,nj->cmn", s1, fld.data, s2) * (4.0 / (18 * 23))
    want = grid.reshape(-1)
    got = project_field_to_basis(fld, basis)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    coeffs = np.random.default_rng(5).standard_normal(3 * basis.nmodes_total)
    want = np.einsum("mi,cmn,nj->cij", s1, coeffs.reshape((3,) + basis.nmodes), s2)
    got = synthesize_field(basis, coeffs, fld.dims).data
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("nstates", [2, 3, 17])
def test_synthesize_stack_matches_single_states(nstates):
    # a (k, 3M) stack is the (N1, N2, k) field whose frame j is state j,
    # bit for bit, with the frame index as its third coordinate
    basis = SpectralBasis(nmodes=(5, 6), extents=(1.3, 0.8))
    stack = np.random.default_rng(nstates).standard_normal((nstates, 3 * basis.nmodes_total))
    fld = synthesize_field(basis, stack, (19, 24))
    assert fld.dims == (19, 24, nstates) and fld.ncomp == 3
    assert fld.extents == (1.3, 0.8, nstates - 1.0)
    for j, coeffs in enumerate(stack):
        assert np.array_equal(fld.data[..., j], synthesize_field(basis, coeffs, (19, 24)).data)
    with pytest.raises(FieldFormatError, match="dims must be >= 2"):
        synthesize_field(basis, stack[:1], (19, 24))


def test_projection_grid_too_coarse(square_basis):
    fld = Field(dims=(4, 4), extents=(1.0, 1.0), ncomp=3, data=np.zeros((3, 4, 4)))
    with pytest.raises(ValueError, match="too coarse"):
        project_field_to_basis(fld, square_basis)


def test_series_forcing_interpolates_projected_frames(square_basis):
    rng = np.random.default_rng(31)
    m = square_basis.nmodes_total
    frames = tuple(
        synthesize_field(square_basis, rng.standard_normal(3 * m), (9, 9)) for _ in range(3)
    )
    times = np.array([0.0, 0.5, 1.5])
    f_of_t = series_forcing(TimeSeriesField(times=times, frames=frames), square_basis)
    proj = [project_field_to_basis(fr, square_basis) for fr in frames]
    for t, p in zip(times, proj):
        assert np.array_equal(f_of_t(t), p)
    assert np.array_equal(f_of_t(0.25), 0.5 * (proj[0] + proj[1]))
    assert np.array_equal(f_of_t(1.0), 0.5 * (proj[1] + proj[2]))
    assert np.array_equal(f_of_t(-1.0), proj[0])
    assert np.array_equal(f_of_t(7.0), proj[2])
    single = series_forcing(TimeSeriesField(times=np.array([0.3]), frames=frames[:1]), square_basis)
    for t in (-1.0, 0.3, 2.0):
        assert np.array_equal(single(t), proj[0])


def test_coercivity_axis_aligned_exact(square_tensors):
    val = coercivity_check(square_tensors)
    assert val == pytest.approx(2.0 * np.pi**2, abs=1e-10)


def test_coercivity_oblique_dominates_axis(square_tensors, oblique_tensors):
    v_axis = coercivity_check(square_tensors)
    v_obl = coercivity_check(oblique_tensors)
    assert v_obl >= v_axis - 1e-10


def test_coercivity_positive_random_charts():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(17)

    def cases():
        for _ in range(4):
            n1, n2 = rng.integers(2, 9, size=2)
            normal = rng.standard_normal(3)
            normal[2] = np.sign(normal[2]) * (np.abs(normal).max() + 0.5)
            yield (int(n1), int(n2)), make_chart(Hyperplane.from_vector(normal, 0.2))
        # odd x odd carries the structural null direction; on the axis-aligned
        # chart the minimum sits on the chart-normal (third component) piece
        yield (5, 5), OBLIQUE
        yield (4, 6), AXIS_ALIGNED_CHART
        # the smallest counts: one mode, and a single row of modes
        yield (1, 1), OBLIQUE
        yield (1, 6), OBLIQUE

    for nmodes, chart in cases():
        basis = SpectralBasis(nmodes=nmodes, extents=(1.0, 1.0))
        tens = assemble(basis, chart)
        val = coercivity_check(tens)
        assert val > 0.0
        # the closed form rests on n_hat (x) v lying in null(C) for every v,
        # so the lowest eigenvector of -K is attained on the div-free subspace
        neg_k = -stiffness(tens)
        v = np.linalg.eigh(neg_k)[1][:, 0]
        c1, c2 = tens.chart_coeffs
        n_hat = np.array([-c1, -c2, 1.0]) / np.sqrt(1.0 + c1 * c1 + c2 * c2)
        x = np.kron(n_hat, v)
        assert np.linalg.norm(tens.divergence(x)) <= 1e-12 * np.linalg.norm(tens.constraint)
        s3 = np.kron(np.eye(3), neg_k)
        rq = float(x @ s3 @ x) / (basis.mass_scale * float(x @ x))
        assert rq == pytest.approx(val, rel=1e-12)
        # independent check: inverse power iteration on the matrices reduced
        # by a null basis that does not come from the code under test
        z = scipy_linalg.null_space(tens.constraint)
        m = basis.nmodes_total
        m3 =basis.mass_scale * np.eye(3 * m)
        a = z.T @ s3 @ z
        b = z.T @ m3 @ z
        x = rng.standard_normal(a.shape[0])
        for _ in range(200):
            x = np.linalg.solve(a, b @ x)
            x /= np.linalg.norm(x)
        rayleigh = float(x @ a @ x) / float(x @ b @ x)
        assert val == pytest.approx(rayleigh, rel=1e-6)
        # and the full generalized spectrum of the dense reduced problem
        full = scipy_linalg.eigh(a, b, eigvals_only=True)
        assert val == pytest.approx(full[0], rel=1e-10)


def test_axis_aligned_chart_reduces_exactly(square_basis, square_tensors):
    # an axis-aligned chart and "no chart" must produce identical arrays:
    # the cross coupling vanishes exactly, not just to round-off
    chart = make_chart(Hyperplane((0.0, 0.0, 1.0), 0.5))
    tens = assemble(square_basis, chart)
    assert np.array_equal(stiffness(tens), stiffness(square_tensors))
    assert np.array_equal(tens.constraint, square_tensors.constraint)
    assert np.array_equal(cross_matrix(tens), np.zeros((tens.nmodes_total,) * 2))
    assert tens.chart_coeffs == (0.0, 0.0)


def test_trilinear_factors_store_exact_zeros(square_tensors):
    # the closed forms store parity zeros exactly: sin*sin*sin integrals
    # with even mode sum vanish
    tri = square_tensors.trilinear
    n1 = tri.x2.shape[0]
    for a in range(n1):
        for b in range(n1):
            for c in range(n1):
                if (a + b + c + 3) % 2 == 0:
                    assert tri.x2[a, b, c] == 0.0


def test_rhs_dual_norm_diagnostic(square_tensors):
    m = square_tensors.nmodes_total
    zero = np.zeros(3 * m)
    assert rhs_dual_norm(zero, square_tensors, None, 0.1, 0.0) == 0.0
    # one heat mode: the balance right side is nu * A1 u, whose dual norm is
    # nu * lambda * ||w|| / |grad w| = nu * sqrt(lambda) * ||w||
    u = np.zeros((3, m))
    u[2, 0] = 1.0
    lam = square_tensors.basis.eigenvalues[0]
    got = rhs_dual_norm(u.ravel(), without_nonlinearity(square_tensors), None, 0.1, 0.0)
    assert got == pytest.approx(0.1 * np.sqrt(lam) * 0.5, rel=1e-12)
    # forcing by that mode alone, from rest: m0 * ||w|| / |grad w| = sqrt(m0 / lambda)
    got = rhs_dual_norm(zero, square_tensors, lambda t: u.ravel(), 0.1, 0.0)
    assert got == pytest.approx(np.sqrt(0.25 / lam), rel=1e-12)


@pytest.fixture(scope="module")
def odd_even_oblique():
    chart = make_chart(Hyperplane.from_vector((1.0, 0.5, 1.0), 1.75))
    return assemble(SpectralBasis(nmodes=(5, 4), extents=(1.2, 0.9)), chart)


@pytest.mark.blas_sensitive
def test_apply_pair_stack_matches_per_state(odd_even_oblique):
    _check_stack_matches_per_state(odd_even_oblique)


@pytest.mark.blas_sensitive
def test_node_form_stack_matches_per_state():
    tensors = assemble(SpectralBasis(nmodes=(24, 21), extents=(1.2, 0.9)), OBLIQUE)
    _check_stack_matches_per_state(tensors)
    assert "_node_form" in vars(tensors.trilinear)


def _check_stack_matches_per_state(tensors):
    tr = tensors.trilinear
    m = tensors.nmodes_total
    rng = np.random.default_rng(21)
    u = rng.standard_normal((3, 3 * m))
    v = rng.standard_normal((3, 3 * m))
    got = tr.apply_pair(u, v)
    assert got.shape == (3, 3 * m)
    for i in range(3):
        single = tr.apply_pair(u[i], v[i])
        assert single.shape == (3 * m,)
        assert np.array_equal(got[i], single)


NODE_SHAPES = [((1, 1), (1.0, 1.0)), ((4, 4), (1.0, 1.0)), ((12, 12), (1.0, 1.0)),
               ((24, 24), (1.0, 1.0)), ((32, 32), (1.0, 1.0)), ((7, 8), (1.2, 0.9)),
               ((5, 4), (1.2, 0.9)), ((24, 21), (1.2, 0.9))]
NODE_CHARTS = {"axis": AXIS_ALIGNED_CHART, "oblique": OBLIQUE}


def _node_and_modal(monkeypatch, nmodes, extents, chart):
    """(node form, modal form, u, v) of apply_pair on two random (2, 3M) stacks."""
    tri = assemble(SpectralBasis(nmodes=nmodes, extents=extents), chart).trilinear
    u, v = np.random.default_rng(23).standard_normal((2, 2, 3 * nmodes[0] * nmodes[1]))
    node = advection_nodes.NodeAdvection(tri.x[1], tri.y[0], tri.chart_rows)
    with monkeypatch.context() as m:
        m.setattr(galerkin, "NODE_FORM_MIN_MODES", max(nmodes) + 1)
        modal = tri.apply_pair(u, v)
    return node.apply_pair(u, v), modal, u, v


@pytest.mark.parametrize("chart", sorted(NODE_CHARTS))
@pytest.mark.parametrize("nmodes, extents", NODE_SHAPES, ids=lambda v: "x".join(map(str, v)))
def test_node_form_matches_modal_form(monkeypatch, nmodes, extents, chart):
    # the trapezoid nodes integrate the skewed derivative factors exactly, so the
    # node form is the modal contraction to round-off on every shape, odd or even
    node, modal, u, v = _node_and_modal(monkeypatch, nmodes, extents, NODE_CHARTS[chart])
    # a 1 x 1 basis has no skewed pair, so its advection is zero
    scale = max(np.max(np.abs(modal)), np.max(np.abs(u)) * np.max(np.abs(v)))
    assert np.max(np.abs(node - modal)) <= 1e-13 * scale


@pytest.mark.parametrize("nmodes, extents", [s for s in NODE_SHAPES if s[0] != (1, 1)],
                         ids=lambda v: "x".join(map(str, v)))
def test_node_count_is_the_fewest_exact(monkeypatch, nmodes, extents):
    # one interval fewer aliases a skewed product onto the constant: far off.
    # With test_node_form_matches_modal_form this pins node_count to the fewest
    # exact intervals
    fewest = advection_nodes.node_count
    monkeypatch.setattr(advection_nodes, "node_count", lambda n: fewest(n) - 1)
    node, modal, _, _ = _node_and_modal(monkeypatch, nmodes, extents, OBLIQUE)
    assert np.max(np.abs(node - modal)) > 1e-4 * np.max(np.abs(modal))


@pytest.mark.parametrize("nmodes, node_form", [
    ((NODE_FORM_MIN_MODES - 1, NODE_FORM_MIN_MODES - 1), False),
    ((NODE_FORM_MIN_MODES, NODE_FORM_MIN_MODES), True),
    ((24, NODE_FORM_MIN_MODES - 1), False),
    ((NODE_FORM_MIN_MODES, 24), True),
], ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_apply_pair_selects_by_mode_counts(nmodes, node_form):
    tri = assemble(SpectralBasis(nmodes=nmodes, extents=(1.2, 0.9)), OBLIQUE).trilinear
    u = np.random.default_rng(24).standard_normal(3 * nmodes[0] * nmodes[1])
    got = tri.apply_pair(u, u)
    assert ("_node_form" in vars(tri)) == node_form
    if node_form:
        assert np.array_equal(got, tri._node_form.apply_pair(u, u))


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.blas_sensitive
def test_solve_stack_matches_separate_solves(odd_even_oblique, forced):
    tens = odd_even_oblique
    m = tens.nmodes_total
    rng = np.random.default_rng(22)
    u0 = tens.projector @ rng.standard_normal((3 * m, 2))
    f = 0.3 * rng.standard_normal(3 * m)
    forcing = (lambda t: f * np.cos(4.0 * t)) if forced else None
    pair = solve_from_state(u0.T, forcing, tens, 0.1, 2e-3, 0.04)
    assert pair.coeffs.shape == (21, 2, 3 * m)
    for i in range(2):
        alone = solve_from_state(u0[:, i], forcing, tens, 0.1, 2e-3, 0.04)
        assert np.array_equal(pair.times, alone.times)
        assert np.array_equal(pair.coeffs[:, i], alone.coeffs)


def test_stacked_diagnostics_match_per_state(odd_even_oblique):
    tens = odd_even_oblique
    m = tens.nmodes_total
    c = np.random.default_rng(23).standard_normal((7, 3 * m))
    assert np.array_equal(
        divergence_residual(c, tens), [divergence_residual(ci, tens) for ci in c]
    )
    assert np.array_equal(tens.energy(c), [tens.energy(ci) for ci in c])
    assert np.array_equal(tens.norm_h(c), [tens.norm_h(ci) for ci in c])
    assert np.array_equal(tens.grad_norm_sq(c), [tens.grad_norm_sq(ci) for ci in c])
    for stacked, single in zip(
        tens.dissipation_terms(c), zip(*[tens.dissipation_terms(ci) for ci in c])
    ):
        assert np.array_equal(stacked, single)
    f = np.random.default_rng(25).standard_normal(3 * m)
    for forcing in (None, lambda t: np.cos(t) * f):
        assert np.array_equal(rhs_dual_norm(c, tens, forcing, 0.1, 0.3),
                              [rhs_dual_norm(ci, tens, forcing, 0.1, 0.3) for ci in c])
    # one state gives a Python float; np.float64 subclasses float, so isinstance
    # cannot tell the two apart
    single = [divergence_residual(c[0], tens), tens.energy(c[0]), tens.norm_h(c[0]),
              tens.grad_norm_sq(c[0]), *tens.dissipation_terms(c[0]),
              rhs_dual_norm(c[0], tens, None, 0.1, 0.3),
              rhs_dual_norm(c[0], tens, lambda t: f, 0.1, 0.3)]
    assert [type(v) for v in single] == [float] * len(single)


def test_state_shape_guard(square_tensors):
    # both entry points take a (3M,) state or a (B, 3M) stack of finite values
    m3 = 3 * square_tensors.nmodes_total
    assert project_divfree(np.zeros((2, m3)), square_tensors).shape == (2, m3)
    bad_shapes = [(2, 2, m3), (2, m3 + 1), (m3 + 1,), (2, 12), (12,)]
    for shape in bad_shapes:
        with pytest.raises(ValueError, match="coeffs must be"):
            project_divfree(np.zeros(shape), square_tensors)
        with pytest.raises(ValueError, match="coeffs must be"):
            solve_from_state(np.zeros(shape), None, square_tensors, 0.1, 1e-2, 0.02)
    nan = np.zeros(m3)
    nan[5] = np.nan
    for stack in (nan, np.stack([np.zeros(m3), nan])):
        with pytest.raises(GalerkinError, match="non-finite"):
            project_divfree(stack, square_tensors)
        with pytest.raises(GalerkinError, match="non-finite"):
            solve_from_state(stack, None, square_tensors, 0.1, 1e-2, 0.02)


def test_state_functions_take_one_layout(odd_even_oblique):
    # a state is (..., 3M) and nothing else: the (3, M) and (M, 3) arrays of
    # the same samples raise instead of being read in a guessed layout
    tens = odd_even_oblique
    m = tens.nmodes_total
    flat = np.random.default_rng(24).standard_normal(3 * m)
    calls = {
        "energy": tens.energy,
        "norm_h": tens.norm_h,
        "dissipation_terms": tens.dissipation_terms,
        "grad_norm_sq": tens.grad_norm_sq,
        "divergence": tens.divergence,
        "divergence_residual": lambda c: divergence_residual(c, tens),
        "apply_pair": lambda c: tens.trilinear.apply_pair(c, c),
        "apply_pair transported": lambda c: tens.trilinear.apply_pair(flat, c),
        "rhs_dual_norm": lambda c: rhs_dual_norm(c, tens, None, 0.1, 0.0),
        "synthesize_field": lambda c: synthesize_field(tens.basis, c, (9, 9)),
    }
    for name, call in calls.items():
        call(flat)
        for bad in (flat.reshape(3, m), flat.reshape(m, 3)):
            with pytest.raises(ValueError):
                call(bad)
                pytest.fail(f"{name} accepted a {bad.shape} state")
    # and every coefficient vector a function returns is a (..., 3M) state:
    # projected fields, forcing values and advection vectors
    frame = Field(dims=(9, 8), extents=tens.basis.extents, ncomp=3,
                  data=np.random.default_rng(25).standard_normal((3, 9, 8)))
    series = TimeSeriesField(times=np.array([0.0, 1.0]), frames=(frame, frame))
    pair = np.stack([flat, -flat])
    produced = {
        "project_field_to_basis": (project_field_to_basis(frame, tens.basis), (3 * m,)),
        "series_forcing": (series_forcing(series, tens.basis)(0.5), (3 * m,)),
        "forcing_coeffs": (ManufacturedSolution().forcing_coeffs(3)(0.1), (3 * 9,)),
        "apply_pair": (tens.trilinear.apply_pair(pair, pair), (2, 3 * m)),
    }
    for name, (got, shape) in produced.items():
        assert got.shape == shape, name
    # a forcing in another layout is refused like a state
    with pytest.raises(ValueError):
        step(flat, 0.0, tens, lambda t: flat.reshape(3, m), nu=0.1, dt=1e-3)


def _quadrature_tables(n, length):
    # reference: the five 1-D tables by Gauss-Legendre quadrature with
    # 3n + 12 points, enough to integrate the triple products to round-off
    x, w = gauss_rule(length, 3 * n + 12)
    a = np.arange(1, n + 1)
    s = np.sin(np.pi / length * np.outer(a, x))
    c = np.cos(np.pi / length * np.outer(a, x))
    ss = np.einsum("an,n,bn->ab", s, w, s)
    sc = np.einsum("an,n,bn->ab", s, w, c)
    cc = np.einsum("an,n,bn->ab", c, w, c)
    sss = np.einsum("an,bn,cn,n->abc", s, s, s, w)
    scs = np.einsum("an,bn,cn,n->abc", s, c, s, w)
    return ss, sc, cc, sss, scs


def _assembled_quadrature_tables(n, length):
    # the three quadrature tables assemble reads, in the order _trig_tables gives them
    _, sc, _, sss, scs = _quadrature_tables(n, length)
    return sc, sss, scs


@pytest.mark.blas_sensitive
def test_closed_forms_match_quadrature_at_benchmark_size(monkeypatch):
    # n = 24 on an oblique chart: assembling from quadrature tables must
    # reproduce every closed-form operator and trilinear factor to round-off
    import nsslice.galerkin as galerkin

    basis = SpectralBasis(nmodes=(24, 24), extents=(1.2, 0.9))
    chart = make_chart(Hyperplane.from_vector((1.0, 0.5, 1.0), 1.75))
    exact = assemble(basis, chart)
    monkeypatch.setattr(galerkin, "_trig_tables", _assembled_quadrature_tables)
    ref = assemble(basis, chart)
    mass_ref, k1_ref, k2_ref = _dense_grams(basis, _quadrature_tables)
    pairs = [
        (basis.mass_scale * np.eye(basis.nmodes_total), mass_ref),
        (np.diag(exact.grad1), k1_ref),
        (np.diag(exact.grad2), k2_ref),
        (cross_matrix(exact), cross_matrix(ref)),
        (stiffness(exact), stiffness(ref)),
    ] + [
        (getattr(exact, name), getattr(ref, name))
        for name in ("constraint", "projector")
    ] + [
        (getattr(exact.trilinear, name), getattr(ref.trilinear, name))
        for name in ("x1", "y1", "x2", "y2")
    ]
    for got, want in pairs:
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert exact.constraint_rank == ref.constraint_rank
    # the quadrature factors come from their own tables, not the closed forms
    assert not np.array_equal(exact.div_x, ref.div_x)


@pytest.mark.parametrize("call, fragment", [
    pytest.param(lambda t: SpectralBasis(nmodes=(0, 4), extents=(1.0, 1.0)),
                 "nmodes must both be >= 1", id="no-modes"),
    pytest.param(lambda t: SpectralBasis(nmodes=(4, 4), extents=(1.0, 0.0)),
                 "extents must be positive", id="zero-extent"),
    pytest.param(lambda t: step(np.zeros(3 * t.nmodes_total), 0.0, t, None, 0.1, 0.0),
                 "dt must be positive", id="step-zero-dt"),
    pytest.param(lambda t: step(np.zeros(3 * t.nmodes_total), 0.0, t, None, 0.0, 0.01),
                 "nu must be positive", id="step-zero-nu"),
    pytest.param(lambda t: project_field_to_basis(
                     Field(dims=(8, 8, 8), extents=(1.0, 1.0, 1.0), ncomp=3,
                           data=np.zeros((3, 8, 8, 8))), t.basis),
                 "project_field_to_basis needs a 2D field", id="project-3d"),
    pytest.param(lambda t: project_field_to_basis(
                     Field(dims=(8, 8), extents=(1.0, 2.0), ncomp=3, data=np.zeros((3, 8, 8))),
                     t.basis),
                 r"field extents \(1.0, 2.0\) do not match basis extents", id="project-other-box"),
])
def test_galerkin_refusals(square_tensors, call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call(square_tensors)
