import numpy as np
import pytest
from oracles import velocity, velocity_field

import nsslice.galerkin
from nsslice.galerkin import divergence_residual
from nsslice.geometry import AXIS_ALIGNED_CHART, Hyperplane, make_chart
from nsslice.mms import Jet, ManufacturedSolution, gauss_rule

OBLIQUE = make_chart(Hyperplane((1 / np.sqrt(3.0),) * 3, 0.4))


@pytest.fixture(scope="module")
def oblique_ms():
    return ManufacturedSolution(chart=OBLIQUE, nu=0.2)


@pytest.fixture(scope="module")
def oblique_sym(oblique_ms):
    pytest.importorskip("sympy")
    from mms_symbolic import SymbolicMMS

    return SymbolicMMS(oblique_ms)


def test_constraint_compatible_symbolically(oblique_sym):
    sp = pytest.importorskip("sympy")
    t, x, y = oblique_sym.symbols
    u1, u2, u3 = oblique_sym.u_exprs
    c1, c2 = oblique_sym.c1, oblique_sym.c2
    div = (
        sp.diff(u1, x)
        + sp.diff(u2, y)
        + c1 * sp.diff(u3, x)
        + c2 * sp.diff(u3, y)
    )
    assert sp.simplify(div) == 0


def test_forcing_matches_definition_symbolically(oblique_sym):
    # spot check one component: f_i - (du_i/dt - nu A1 u_i + V . grad u_i) == 0
    sp = pytest.importorskip("sympy")
    t, x, y = oblique_sym.symbols
    u1, u2, u3 = oblique_sym.u_exprs
    c1, c2 = oblique_sym.c1, oblique_sym.c2
    nu = oblique_sym.nu

    def cross(h):
        return c1 * sp.diff(h, x) + c2 * sp.diff(h, y)

    v1 = u1 + c1 * u3
    v2 = u2 + c2 * u3
    a1_u2 = sp.diff(u2, x, 2) + sp.diff(u2, y, 2) + cross(cross(u2))
    expect = sp.diff(u2, t) - nu * a1_u2 + v1 * sp.diff(u2, x) + v2 * sp.diff(u2, y)
    assert sp.simplify(oblique_sym.f_exprs[1] - expect) == 0


def test_split_forcing_matches_full_expressions(oblique_ms, oblique_sym):
    # oracle: project the full time-dependent forcing expressions directly
    sp = pytest.importorskip("sympy")
    t, x, y = oblique_sym.symbols
    full = [sp.lambdify((t, x, y), fi, "numpy") for fi in oblique_sym.f_exprs]
    for n in (10, 7):
        quad = oblique_ms._record(n)
        basis = quad.basis
        xm, ym = np.meshgrid(quad.xg, quad.yg, indexing="ij")
        f_of_t = oblique_ms.forcing_coeffs(n)
        for tv in (0.0, 0.0137, 0.25, 1.3):
            vals = np.stack([np.broadcast_to(f(tv, xm, ym), xm.shape) for f in full])
            pointwise = oblique_ms.forcing_values(tv, quad.xg, quad.yg)
            assert np.max(np.abs(pointwise - vals)) <= 1e-12 * np.max(np.abs(vals))
            weighted = vals * quad.wx[None, :, None] * quad.wy[None, None, :]
            want = (
                np.einsum("ai,cij,bj->cab", quad.s1, weighted, quad.s2) / basis.mass_scale
            ).reshape(-1)
            got = f_of_t(tv)
            assert got.shape == (3 * basis.nmodes_total,)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale


@pytest.mark.parametrize(
    "chart, extents, power",
    [
        (None, (1.0, 1.0), 4),
        (OBLIQUE, (1.0, 1.0), 4),
        (OBLIQUE, (1.2, 0.9), 2),
        (None, (1.2, 0.9), 3),
    ],
)
def test_jet_fields_match_symbolic_oracle(chart, extents, power):
    # chart None: the default, axis-aligned chart
    sp = pytest.importorskip("sympy")
    from mms_symbolic import SymbolicMMS

    ms = ManufacturedSolution(extents=extents, nu=0.15, envelope_power=power,
                              **({} if chart is None else {"chart": chart}))
    assert ms.chart == (chart or AXIS_ALIGNED_CHART)
    xg, _ = gauss_rule(extents[0], 40)
    yg, _ = gauss_rule(extents[1], 33)
    sym = SymbolicMMS(ms)
    want = sym.split_fields(xg, yg)
    for got, ref in zip(ms._forcing_fields(xg, yg), want):
        assert got.shape == (3, 40, 33)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    t, x, y = sym.symbols
    u_func = sp.lambdify((t, x, y), sym.u_exprs, "numpy")
    xm, ym = np.meshgrid(xg, yg, indexing="ij")
    for tv in (0.0, 0.37):
        ref = np.stack([np.broadcast_to(v, xm.shape) for v in u_func(tv, xm, ym)])
        got = velocity(ms, tv, xg, yg)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_forcing_projected_once_per_basis(monkeypatch):
    calls = []
    fields = ManufacturedSolution._forcing_fields
    assemble = nsslice.galerkin.assemble

    def counted_fields(self, xg, yg):
        calls.append("fields")
        return fields(self, xg, yg)

    def counted_assemble(basis, chart):
        calls.append(basis.nmodes)
        return assemble(basis, chart)

    monkeypatch.setattr(ManufacturedSolution, "_forcing_fields", counted_fields)
    monkeypatch.setattr(nsslice.galerkin, "assemble", counted_assemble)
    ms = ManufacturedSolution(chart=OBLIQUE, nu=0.2)
    first = ms.forcing_coeffs(9)
    assert calls == ["fields", (9, 9)]
    again = ms.forcing_coeffs(9)
    ms.exact_coeffs(0.3, 9)
    ms.l2_error(np.zeros(3 * 81), 0.3, 9)
    ms.operators(9)
    for k in range(100):
        tv = 0.001 * k
        assert np.array_equal(again(tv), first(tv))
    assert calls == ["fields", (9, 9)]


def test_boundary_values_zero(oblique_ms):
    xg = np.linspace(0.0, 1.0, 17)
    vals = velocity(oblique_ms, 0.3, xg, xg)
    assert np.max(np.abs(vals[:, 0, :])) < 1e-14
    assert np.max(np.abs(vals[:, -1, :])) < 1e-14
    assert np.max(np.abs(vals[:, :, 0])) < 1e-14
    assert np.max(np.abs(vals[:, :, -1])) < 1e-14


def test_projection_error_only(oblique_ms):
    coeffs = oblique_ms.exact_coeffs(0.2, 10)
    err = oblique_ms.l2_error(coeffs, 0.2, 10)
    norm = oblique_ms.l2_error(np.zeros_like(coeffs), 0.2, 10)
    assert err < 1e-2 * norm


def test_l2_error_takes_one_layout(oblique_ms):
    # exact_coeffs gives the (3M,) state, the one layout l2_error reads
    coeffs = oblique_ms.exact_coeffs(0.2, 10)
    assert coeffs.shape == (300,)
    for bad in (coeffs.reshape(3, -1), coeffs.reshape(-1, 3)):
        with pytest.raises(ValueError):
            oblique_ms.l2_error(bad, 0.2, 10)


def test_l2_error_one_value_per_state():
    # a stack gives each state's own distance, not one root-sum-square over
    # the stack (which read 6.30668 for this one)
    ms = ManufacturedSolution()
    exact = ms.exact_coeffs(0.2, 8)
    stack = np.stack([exact, np.zeros_like(exact)])
    err = ms.l2_error(stack, 0.2, 8)
    assert err.shape == (2,)
    alone = [ms.l2_error(state, 0.2, 8) for state in stack]
    assert all(type(e) is float for e in alone)
    assert err.tolist() == alone
    assert alone == pytest.approx([0.05251, 6.30646], abs=1e-5)
    assert ms.l2_error(stack[None], 0.2, 8).shape == (1, 2)


def test_exact_projection_weak_divergence_spectrally_small(oblique_ms):
    prev = None
    for n in (6, 10, 14):
        tens = oblique_ms.operators(n)
        res = divergence_residual(oblique_ms.exact_coeffs(0.0, n).ravel(), tens)
        if prev is not None:
            assert res < prev
        prev = res
    assert prev < 1e-2


def test_solver_tracks_exact_solution(oblique_ms):
    final = oblique_ms.final(10, 1e-3, 0.1)
    err = oblique_ms.l2_error(final, 0.1, 10)
    norm = oblique_ms.l2_error(np.zeros_like(final), 0.1, 10)
    assert err < 2e-2 * norm


def test_final_solved_once_read_only_and_per_mode_count():
    # a final is bit-identical to a fresh instance's, and a record built for
    # another mode count leaves the error of the exact coefficients unchanged
    ms = ManufacturedSolution(extents=(1.2, 0.9), chart=OBLIQUE, nu=0.15)
    fresh = ManufacturedSolution(extents=(1.2, 0.9), chart=OBLIQUE, nu=0.15)
    ms.final(6, 1e-2, 0.05)
    final = ms.final(8, 1e-2, 0.05)
    assert not final.flags.writeable
    with pytest.raises(ValueError):
        final[0] = 1.0
    assert final.shape == (3 * 64,)
    assert np.array_equal(final, fresh.final(8, 1e-2, 0.05))
    assert ms.final(8, 1e-2, 0.05) is final
    ms.forcing_coeffs(12)
    exact = ms.l2_error(ms.exact_coeffs(0.0, 8), 0.0, 8)
    assert exact == fresh.l2_error(fresh.exact_coeffs(0.0, 8), 0.0, 8)


def test_velocity_field_sampling(oblique_ms):
    fld = velocity_field(oblique_ms, 0.0, (9, 9))
    assert fld.dims == (9, 9)
    assert fld.ncomp == 3
    assert np.max(np.abs(fld.data[:, 0, :])) < 1e-14


def test_self_convergence_coarse_vs_fine():
    # forced run with wall-compatible data (high envelope power): N=16 at dt
    # vs N=24 at dt/2 must agree below 1e-6 in the L2 norm at the final time
    ms = ManufacturedSolution(nu=0.1, sigma=1.0, envelope_power=8)
    finals = {}
    for n, dt in ((16, 1e-3), (24, 5e-4)):
        finals[n] = (ms.operators(n).basis, ms.final(n, dt, 0.2))
    basis16, c16 = finals[16]
    basis24, c24 = finals[24]
    padded = np.zeros((3,) + basis24.nmodes)
    padded[:, :16, :16] = c16.reshape((3,) + basis16.nmodes)
    diff = padded.reshape(-1) - c24
    l2 = ms.operators(24).norm_h(diff)
    assert l2 < 1e-6


@pytest.mark.parametrize("call, fragment", [
    pytest.param(lambda: Jet.sine(np.linspace(0.0, 1.0, 4), 1.0, 0) ** 0,
                 "jet powers must be positive integers", id="jet-power-zero"),
    pytest.param(lambda: ManufacturedSolution(chart=OBLIQUE, envelope_power=1),
                 "envelope_power must be >= 2", id="envelope-power-one"),
])
def test_mms_refusals(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()
