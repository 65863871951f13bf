import numpy as np
import pytest
from oracles import without_nonlinearity

import nsslice.galerkin
from nsslice.analysis import (
    ContractionReport,
    EnergyLedger,
    EnergyViolationError,
    _cumulative,
    contraction_report,
    ledger_from_run,
    perturbation_coeffs,
    uniqueness_experiment,
)
from nsslice.galerkin import (
    SpectralBasis,
    assemble,
    project_divfree,
    solve_from_state,
)
from nsslice.geometry import AXIS_ALIGNED_CHART, Hyperplane, make_chart


@pytest.fixture(scope="module")
def tensors():
    return assemble(SpectralBasis(nmodes=(6, 6), extents=(1.0, 1.0)), AXIS_ALIGNED_CHART)


@pytest.fixture(scope="module")
def oblique():
    chart = make_chart(Hyperplane((1 / np.sqrt(3.0),) * 3, 0.4))
    return assemble(SpectralBasis(nmodes=(5, 5), extents=(1.0, 1.0)), chart)


def smooth_state(tensors, seed, amp=1.0):
    # steep modal decay keeps the stiffest modes energetically negligible,
    # so cumulative-integral quadrature resolves the balance at dt ~ 1e-3
    rng = np.random.default_rng(seed)
    m = tensors.nmodes_total
    decay = np.exp(-np.tile(np.arange(m), 3) / 3.0)
    return amp * (tensors.projector @ (rng.standard_normal(3 * m) * decay))


def dense_grams(tensors):
    # dense references for the operators stored as a scalar and diagonals:
    # the mass m0 * I and the gradient Grams diag(grad1), diag(grad2)
    m = tensors.nmodes_total
    mass = tensors.basis.mass_scale * np.eye(m)
    return mass, np.diag(tensors.grad1), np.diag(tensors.grad2)


def test_zero_trajectory_zero_ledger(tensors):
    m = tensors.nmodes_total
    res = solve_from_state(np.zeros(3 * m), None, tensors, nu=0.1, dt=1e-2, t_end=0.1)
    led = ledger_from_run(res, tensors, None, 0.1)
    for arr in (led.energy, led.d1, led.d2, led.dcross, led.work, led.residual):
        assert np.max(np.abs(arr)) == 0.0
    assert led.inequality_holds()


def test_single_heat_mode_closed_form(tensors):
    # linear decay of one mode: E(t) = E(0) exp(-2 nu lambda t), residual
    # limited by the centered differencing
    lin = without_nonlinearity(tensors)
    m = tensors.nmodes_total
    u = np.zeros((3, m))
    u[2, 0] = 1.0
    nu, dt, t_end = 0.2, 1e-3, 0.2
    res = solve_from_state(u.ravel(), None, lin, nu, dt, t_end)
    led = ledger_from_run(res, lin, None, nu)
    lam = lin.basis.eigenvalues[0]
    expect = led.energy[0] * np.exp(-2.0 * nu * lam * res.times)
    assert np.max(np.abs(led.energy - expect)) <= 1e-6 * led.energy[0]
    # residual ~ (dt^2 / 6) E''' for the exponential mode
    bound = 2.0 * dt**2 * (2 * nu * lam) ** 3 * led.energy[0]
    assert np.max(np.abs(led.residual)) <= bound


def test_residual_second_order_in_dt(tensors):
    u0 = smooth_state(tensors, seed=11)
    norms = []
    for dt in (2e-3, 1e-3, 5e-4):
        res = solve_from_state(u0, None, tensors, 0.1, dt, 0.4)
        led = ledger_from_run(res, tensors, None, 0.1)
        norms.append(np.sqrt(np.mean(led.residual**2)))
    slope = np.polyfit(np.log([2e-3, 1e-3, 5e-4]), np.log(norms), 1)[0]
    assert slope >= 1.9


def test_forced_residual_second_order_in_dt():
    # with forcing the work term enters the balance, so a sign error in it
    # leaves a residual that no longer falls with dt
    chart = make_chart(Hyperplane((1 / np.sqrt(3.0),) * 3, 0.4))
    tens = assemble(SpectralBasis(nmodes=(6, 5), extents=(1.0, 1.0)), chart)
    rng = np.random.default_rng(25)
    m = tens.nmodes_total
    f0 = rng.standard_normal((3, m)) * np.exp(-np.arange(m) / 3.0)

    def forcing(t):
        return f0 * (1.0 + 0.5 * np.sin(3.0 * t))

    u0 = smooth_state(tens, seed=26)
    norms = []
    for dt in (2e-3, 1e-3, 5e-4):
        res = solve_from_state(u0, forcing, tens, 0.1, dt, 0.2)
        led = ledger_from_run(res, tens, forcing, 0.1)
        norms.append(np.sqrt(np.mean(led.residual**2)))
    slope = np.polyfit(np.log([2e-3, 1e-3, 5e-4]), np.log(norms), 1)[0]
    assert slope >= 1.9


def test_inequality_on_forced_run(tensors):
    # smooth random forcing, modulated in time
    rng = np.random.default_rng(23)
    m = tensors.nmodes_total
    f0 = rng.standard_normal((3, m)) * np.exp(-np.arange(m) / 3.0)

    def forcing(t):
        return f0 * (1.0 + 0.5 * np.sin(3.0 * t))

    u0 = smooth_state(tensors, seed=24)
    res = solve_from_state(u0, forcing, tensors, 0.1, 5e-4, 0.3)
    led = ledger_from_run(res, tensors, forcing, 0.1)
    assert led.inequality_holds()
    # the sup-norm bound that the cumulative inequality implies
    sup_norm = np.sqrt(2.0 * np.max(led.energy))
    assert sup_norm <= np.sqrt(2.0 * (led.energy[0] + led.cumulative_abs_work[-1])) + 1e-9


def test_apriori_unforced_sup_is_initial(tensors):
    u0 = smooth_state(tensors, seed=31)
    res = solve_from_state(u0, None, tensors, 0.1, 1e-3, 0.2)
    led = ledger_from_run(res, tensors, None, 0.1)
    assert led.energy_nonincreasing()
    sup_norm = np.sqrt(2.0 * np.max(led.energy))
    assert sup_norm == pytest.approx(tensors.norm_h(u0), rel=1e-12)


def test_apriori_violation_on_corrupted_ledger(tensors):
    u0 = smooth_state(tensors, seed=32)
    res = solve_from_state(u0, None, tensors, 0.1, 1e-3, 0.1)
    led = ledger_from_run(res, tensors, None, 0.1)
    # only the monotone verdict passes on the honest ledger: at dt = 1e-3 the
    # Simpson ledger's own time-discretization error already breaks the
    # inequality tolerance at the first step
    assert led.energy_nonincreasing()
    led.energy[len(led.energy) // 2] = 10.0 * led.energy[0]  # inject energy
    assert not led.inequality_holds()
    assert not led.energy_nonincreasing()


def test_inequality_verdict_flips_on_corrupted_ledger(tensors):
    # must-PASS / must-FAIL pair for inequality_holds: the data of the test
    # above at dt = 2.5e-4, where the honest Simpson ledger resolves the run
    # and passes; injecting energy mid-run must then fail the verdict
    u0 = smooth_state(tensors, seed=32)
    res = solve_from_state(u0, None, tensors, 0.1, 2.5e-4, 0.1)
    led = ledger_from_run(res, tensors, None, 0.1)
    assert led.inequality_holds()
    led.energy[len(led.energy) // 2] = 10.0 * led.energy[0]  # inject energy
    assert not led.inequality_holds()


def flat_ledger(energy, work=None):
    # a ledger with no dissipation: the verdicts see only energy and work
    k = energy.size
    zero = np.zeros(k)
    return EnergyLedger(times=np.linspace(0.0, 1.0, k), energy=energy, d1=zero, d2=zero,
                        dcross=zero, work=zero if work is None else work, residual=zero,
                        nu=0.1)


def test_inequality_fails_on_small_unworked_energy_rise():
    # must-FAIL at 10 times the accumulation tolerance INEQUALITY_RTOL * E(0):
    # energy that rises by 1e-7 E(0) with no work done breaks the inequality
    energy = np.ones(11)
    assert flat_ledger(energy).inequality_holds()
    energy[5:] += 1e-7
    assert not flat_ledger(energy).inequality_holds()


def test_monotone_fails_on_one_step_rise():
    # must-FAIL at 1000 times the per-step slack MONOTONE_SLACK * E(0); the rise
    # stays inside the inequality's tolerance, so only the monotone verdict sees it
    energy = np.ones(11)
    assert flat_ledger(energy).energy_nonincreasing()
    energy[5:] += 1e-9
    led = flat_ledger(energy)
    assert led.inequality_holds()
    assert not led.energy_nonincreasing()


def test_inequality_fails_when_energy_outgrows_work():
    # constant unit work, which Simpson integrates exactly: energy that grows
    # by the work done passes, and energy that grows by 1.5 times it fails
    t = np.linspace(0.0, 1.0, 11)
    work = np.ones(11)
    assert flat_ledger(1.0 + t, work).inequality_holds()
    assert not flat_ledger(1.0 + 1.5 * t, work).inequality_holds()


def test_negative_norm_rejected(tensors):
    u0 = smooth_state(tensors, seed=33)
    res = solve_from_state(u0, None, tensors, 0.1, 1e-2, 0.05)
    led = ledger_from_run(res, tensors, None, 0.1)
    led.d1[0] = -1.0
    with pytest.raises(EnergyViolationError):
        led.__post_init__()


def solve_projected(tensors, u0, nu, dt, t_end):
    return solve_from_state(project_divfree(u0, tensors), None, tensors, nu, dt, t_end)


def test_uniqueness_twin_runs_identical(tensors):
    u0 = smooth_state(tensors, seed=41)
    rep = uniqueness_experiment(tensors, u0, 0.1, 1e-3, 0.1, 0.0, seed=5)
    # lockstep twins of one state take the same arithmetic: no round-off gap
    assert rep.passed
    assert rep.max_w_norm == 0.0


def test_uniqueness_perturbed_envelope(oblique):
    u0 = smooth_state(oblique, seed=42)
    rep = uniqueness_experiment(oblique, u0, 0.1, 1e-3, 0.15, 1e-8, seed=6)
    assert rep.passed
    assert np.all(rep.w_norm <= rep.bound * (1.0 + 1e-6))
    assert rep.w_norm[0] == pytest.approx(1e-8, rel=1e-10)


def test_uniqueness_fitted_c_decreases_with_viscosity(tensors):
    u0 = smooth_state(tensors, seed=43)
    reports = []
    for nu in (0.1, 1.0):
        reports.append(uniqueness_experiment(tensors, u0, nu, 1e-3, 0.15, 1e-8, seed=7))
    assert reports[1].fitted_c < reports[0].fitted_c


def test_contraction_corrupted_pair_fails(tensors):
    u0 = smooth_state(tensors, seed=62)
    res_u = solve_projected(tensors, u0, 0.1, 1e-3, 0.05)
    # a spurious late difference, and one of a single ulp that the exact
    # delta = 0 gate must see
    for corrupt in (lambda c: c + 1e-3, lambda c: np.nextafter(c, np.inf)):
        res_v = solve_projected(tensors, u0, 0.1, 1e-3, 0.05)
        res_v.coeffs[-1] = corrupt(res_v.coeffs[-1])
        rep = contraction_report(tensors, res_u.times, res_u.coeffs, res_v.coeffs, 0.0)
        assert not rep.passed


def test_contraction_report_alignment_guard(tensors):
    u0 = smooth_state(tensors, seed=61)
    res_a = solve_projected(tensors, u0, 0.1, 1e-3, 0.05)
    res_b = solve_projected(tensors, u0, 0.1, 5e-4, 0.05)
    times, ca, cb = res_a.times, res_a.coeffs, res_b.coeffs
    with pytest.raises(ValueError):
        contraction_report(tensors, times, ca, cb, 0.0)
    rep = contraction_report(tensors, times, ca, cb[::2], 0.0)
    assert isinstance(rep, ContractionReport)


def test_uniqueness_experiment_synthesizes_no_fields(tensors, monkeypatch):
    # the twin runs feed only the contraction report, which reads coefficients
    calls = []
    synthesize = nsslice.galerkin.synthesize_field

    def counting_synthesize(*args, **kwargs):
        calls.append(args)
        return synthesize(*args, **kwargs)

    monkeypatch.setattr(nsslice.galerkin, "synthesize_field", counting_synthesize)
    u0 = smooth_state(tensors, seed=63)
    rep = uniqueness_experiment(tensors, u0, 0.1, 1e-3, 0.02, 1e-8)
    assert rep.passed
    assert calls == []


def count_solves(monkeypatch):
    calls = []
    solve = nsslice.galerkin.solve_from_state

    def counting_solve(coeffs, *args, **kwargs):
        calls.append(coeffs.shape)
        return solve(coeffs, *args, **kwargs)

    monkeypatch.setattr(nsslice.galerkin, "solve_from_state", counting_solve)
    return calls


def test_uniqueness_twins_run_in_lockstep(oblique, monkeypatch):
    u0 = smooth_state(oblique, seed=64)
    m = oblique.nmodes_total
    calls = count_solves(monkeypatch)
    rep = uniqueness_experiment(oblique, u0, 0.1, 1e-3, 0.05, 1e-6, seed=8)
    assert calls == [(2, 3 * m)]
    # the same report as two separate solves, bit for bit
    res_u = solve_projected(oblique, u0, 0.1, 1e-3, 0.05)
    res_v = solve_projected(oblique, u0 + 1e-6 * perturbation_coeffs(oblique, 8), 0.1, 1e-3, 0.05)
    ref = contraction_report(
        oblique, res_u.times, res_u.coeffs, res_v.coeffs, 1e-6
    )
    assert vars(rep).keys() == vars(ref).keys()
    for name, value in vars(ref).items():
        assert np.array_equal(getattr(rep, name), value), name


def test_ledger_matches_per_state_loop(oblique):
    # reference: the per-state loop the ledger ran before it became array
    # expressions; the stacked forms must give the same digits
    m = oblique.nmodes_total
    f = 0.2 * np.random.default_rng(65).standard_normal((3, m))
    forcing = lambda t: f * (1.0 + t)  # noqa: E731
    res = solve_from_state(smooth_state(oblique, seed=65), forcing, oblique, 0.1, 1e-3, 0.03)
    led = ledger_from_run(res, oblique, forcing, 0.1)
    mass, grad1, grad2 = dense_grams(oblique)
    c1, c2 = oblique.chart_coeffs
    for i, (t, c) in enumerate(zip(res.times, res.coeffs)):
        u = c.reshape(3, -1)
        assert led.energy[i] == 0.5 * float(np.sum(u * (u @ mass)))
        d1 = float(np.sum(u * (u @ grad1)))
        d2 = float(np.sum(u * (u @ grad2)))
        assert led.d1[i] == d1
        assert led.d2[i] == d2
        # the cross term as the factored quadratic form of this one state
        grid = u.reshape((3,) + oblique.basis.nmodes)
        mixed = float(np.sum(u * (oblique.div_x @ grid @ oblique.div_y).reshape(u.shape)))
        dcross = c1 * c1 * d1 + c2 * c2 * d2 + (2.0 * c1 * c2 / oblique.basis.mass_scale) * mixed
        assert led.dcross[i] == dcross
        assert led.work[i] == float(np.sum(forcing(t) * (u @ mass)))


def test_contraction_norms_match_per_state_loop(oblique):
    u0 = smooth_state(oblique, seed=66)
    rep = uniqueness_experiment(oblique, u0, 0.1, 1e-3, 0.03, 1e-6, seed=9)
    res_u = solve_projected(oblique, u0, 0.1, 1e-3, 0.03)
    res_v = solve_projected(oblique, u0 + 1e-6 * perturbation_coeffs(oblique, 9), 0.1, 1e-3, 0.03)
    mass, grad1, grad2 = dense_grams(oblique)
    for i, (cu, cv) in enumerate(zip(res_u.coeffs, res_v.coeffs)):
        w = (cu - cv).reshape(3, -1)
        u = cu.reshape(3, -1)
        energy = 0.5 * float(np.sum(w * (w @ mass)))
        assert rep.w_norm[i] == float(np.sqrt(max(0.0, 2.0 * energy)))
        grad = float(np.sum(u * (u @ grad1))) + float(np.sum(u * (u @ grad2)))
        assert rep.grad_u_sq[i] == grad


@pytest.mark.parametrize("n", [3, 4, 5, 201, 1001, 1002])
def test_cumulative_matches_scipy_simpson(n):
    cumulative_simpson = pytest.importorskip("scipy.integrate").cumulative_simpson

    rng = np.random.default_rng(n)
    y = rng.standard_normal(n)
    grids = (
        np.linspace(0.0, 0.25, n),
        np.cumsum(rng.uniform(0.1, 1.0, n)),
    )
    for x in grids:
        ref = np.concatenate([[0.0], cumulative_simpson(y, x=x)])
        assert np.array_equal(_cumulative(y, x), ref)
    with pytest.raises(ValueError):
        _cumulative(y, grids[0][::-1])


def test_cumulative_trapezoid_below_three_points():
    assert np.array_equal(_cumulative(np.array([1.0]), np.array([0.0])), [0.0])
    assert np.array_equal(_cumulative(np.array([1.0, 3.0]), np.array([0.0, 0.5])), [0.0, 1.0])
