"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they execute.  Tolerances are fixed here, not calibrated at runtime.
"""

import json
import time

import numpy as np
import pytest
from oracles import canonical_value, contract_triple, jacobi_transform, quadform_value

from nsslice.analysis import ledger_from_run, uniqueness_experiment
from nsslice.cli import main as cli_main
from nsslice.fieldio import Field, TimeSeriesField
from nsslice.galerkin import (
    SpectralBasis,
    assemble,
    coercivity_check,
    project_divfree,
    solve_from_state,
)
from nsslice.geometry import AXIS_ALIGNED_CHART, Hyperplane, make_chart
from nsslice.mms import ManufacturedSolution, temporal_convergence
from nsslice.quadform import canonicalize
from nsslice.quadform import StrainMatrixField, box_lambda1, gradient_norms, uniqueness_criterion
from nsslice.stratify import IndicatorGrid, stratification_verdict

DIAG_CHART = make_chart(Hyperplane((1 / np.sqrt(3.0),) * 3, 0.5))


def report(num: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {num:2d}] {status}  {name}{suffix}")
    assert passed, f"criterion {num} failed: {name} {suffix}"


@pytest.fixture(scope="module")
def basis8():
    return SpectralBasis(nmodes=(8, 8), extents=(1.0, 1.0))


@pytest.fixture(scope="module")
def tensors_axis(basis8):
    return assemble(basis8, AXIS_ALIGNED_CHART)


@pytest.fixture(scope="module")
def tensors_oblique(basis8):
    return assemble(basis8, DIAG_CHART)


@pytest.fixture(scope="module")
def manufactured():
    return ManufacturedSolution(nu=0.1)


@pytest.fixture(scope="module")
def mms_runs(manufactured):
    """N = 8 and N = 16 runs at nu = 0.1, T = 0.5, dt = 1e-3 (criteria 2, 4)."""
    out = {}
    start = time.time()
    for n in (8, 16):
        tensors = manufactured.operators(n)
        u0 = project_divfree(manufactured.exact_coeffs(0.0, n).ravel(), tensors)
        res = solve_from_state(u0, manufactured.forcing_coeffs(n), tensors,
                               manufactured.nu, 1e-3, 0.5)
        err = manufactured.l2_error(res.coeffs[-1], 0.5, n)
        out[n] = {"tensors": tensors, "result": res, "error": err}
    out["spatial_seconds"] = time.time() - start
    return out


def smooth_state(tensors, seed, amp=1.0):
    rng = np.random.default_rng(seed)
    m = tensors.nmodes_total
    decay = np.exp(-np.tile(np.arange(m), 3) / 3.0)
    return amp * (tensors.projector @ (rng.standard_normal(3 * m) * decay))


def test_criterion_01_trilinear_skew_symmetry(tensors_axis, tensors_oblique):
    start = time.time()
    worst = 0.0
    rng = np.random.default_rng(101)
    # the 24 x 24 basis runs apply_pair's node form, the 8 x 8 ones its modal form
    large = assemble(SpectralBasis(nmodes=(24, 24), extents=(1.0, 1.0)), DIAG_CHART)
    for tensors in (tensors_axis, tensors_oblique, large):
        m = tensors.nmodes_total
        for _ in range(100):
            u = project_divfree(rng.standard_normal(3 * m), tensors)
            val = abs(contract_triple(tensors.trilinear, u, u, u))
            worst = max(worst, val / tensors.norm_h(u) ** 3)
    elapsed = time.time() - start
    report(
        1,
        "trilinear skew-symmetry, 100 states x 2 charts at N=(8,8) and x 1 at N=(24,24)",
        worst <= 1e-10 and elapsed < 10.0,
        f"worst |b(u,u,u)|/||u||^3 = {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_02_mms_convergence(manufactured, mms_runs):
    start = time.time()
    temporal = temporal_convergence(manufactured, 16, 1e-3, 0.5)
    elapsed = mms_runs["spatial_seconds"] + (time.time() - start)
    ratio = mms_runs[8]["error"] / mms_runs[16]["error"]
    order = min(temporal["orders"])
    report(
        2,
        "manufactured-solution convergence (nu=0.1, T=0.5, unit square)",
        ratio >= 10.0 and order >= 3.8 and elapsed < 120.0,
        f"error N8/N16 = {ratio:.1f}, temporal order = {order:.2f}, {elapsed:.0f} s",
    )


def test_criterion_03_energy_identity(tensors_axis):
    u0 = smooth_state(tensors_axis, seed=103)
    norms = []
    monotone = True
    dts = (2e-3, 1e-3, 5e-4)
    for dt in dts:
        res = solve_from_state(u0, None, tensors_axis, 0.1, dt, 0.4)
        led = ledger_from_run(res, tensors_axis, None, 0.1)
        norms.append(np.sqrt(np.mean(led.residual**2)))
        monotone = monotone and bool(
            np.all(np.diff(led.energy) <= 1e-12 * led.energy[0])
        )
    slope = float(np.polyfit(np.log(dts), np.log(norms), 1)[0])
    report(
        3,
        "energy-balance residual order and unforced monotone decay",
        slope >= 1.9 and monotone,
        f"residual order = {slope:.2f}, monotone = {monotone}",
    )


def test_criterion_04_apriori_inequality(manufactured, mms_runs, tensors_axis):
    ledgers = []
    for n in (8, 16):
        run = mms_runs[n]
        ledgers.append(
            ledger_from_run(
                run["result"],
                run["tensors"],
                manufactured.forcing_coeffs(n),
                manufactured.nu,
            )
        )
    rng = np.random.default_rng(104)
    m = tensors_axis.nmodes_total
    f0 = (rng.standard_normal((3, m)) * np.exp(-np.arange(m) / 3.0)).ravel()
    forcing = lambda t: f0 * (1.0 + 0.5 * np.sin(3.0 * t))
    res = solve_from_state(
        smooth_state(tensors_axis, seed=105),
        forcing,
        tensors_axis,
        0.1,
        2.5e-4,
        0.3,
    )
    ledgers.append(ledger_from_run(res, tensors_axis, forcing, 0.1))
    holds = [led.inequality_holds() for led in ledgers]
    margins = [float(led.inequality_margin().min() / max(led.tol_accum(), 1e-300))
               for led in ledgers]
    report(
        4,
        "cumulative energy inequality on MMS and random-forcing runs",
        all(holds),
        f"margins/tol = {['%.2f' % m_ for m_ in margins]}",
    )


def test_criterion_05_uniqueness_contraction(tensors_oblique):
    start = time.time()
    u0 = smooth_state(tensors_oblique, seed=106)
    twin = uniqueness_experiment(tensors_oblique, u0, 0.1, 1e-3, 0.25, 0.0, seed=1)
    pert = uniqueness_experiment(tensors_oblique, u0, 0.1, 1e-3, 0.25, 1e-8, seed=1)
    elapsed = time.time() - start
    ok = (
        twin.passed
        and twin.max_w_norm <= 1e-12 * twin.scale
        and pert.passed
        and elapsed < 60.0
    )
    report(
        5,
        "twin-run determinism and perturbation envelope",
        ok,
        f"max twin diff = {twin.max_w_norm:.2e}, fitted C = {pert.fitted_c:.3f}, "
        f"{elapsed:.1f} s",
    )


def test_criterion_06_jacobi_canonicalization():
    rng = np.random.default_rng(2024)
    matches = 0
    value_ok = True
    total = 1000
    for _ in range(total):
        while True:
            a = rng.standard_normal((3, 3))
            a = 0.5 * (a + a.T)
            d1, d2, d3 = a[0, 0], np.linalg.det(a[:2, :2]), np.linalg.det(a)
            if min(abs(d1), abs(d2), abs(d3)) > 1e-6:
                break
        grad = np.repeat(a[:, :, None], 8, axis=2).reshape(3, 3, 2, 2, 2)
        strain = StrainMatrixField((2, 2, 2), (1.0, 1.0, 1.0), grad)
        dec = canonicalize(strain)
        eig = np.linalg.eigvalsh(a)
        oracle = (int(np.sum(eig > 0)), 0, int(np.sum(eig < 0)))
        matches += tuple(int(v) for v in dec.inertia[0]) == oracle
        b, u = dec.b[0], jacobi_transform(a)
        w = rng.standard_normal(3)
        direct = quadform_value(a, w)
        canon = canonical_value(b, u, w)
        scale = max(abs(direct), np.max(np.abs(a)) * float(w @ w))
        value_ok = value_ok and abs(direct - canon) <= 1e-10 * scale
    report(
        6,
        "minor-ratio canonicalization vs eigensolve inertia (1000 matrices)",
        matches == total and value_ok,
        f"{matches}/{total} inertia matches, values within 1e-10",
    )


def test_criterion_07_criterion_homogeneity_and_threshold():
    def vfun(x, y, z):
        s = np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z)
        return np.stack([s, 0 * x, 0 * x])

    fld = Field.from_function((21, 21, 21), (1.0, 1.0, 1.0), 3, vfun)
    doubled = Field(dims=fld.dims, extents=fld.extents, ncomp=3, data=2.0 * fld.data)
    norms = gradient_norms(fld)
    homogeneous = np.array_equal(gradient_norms(doubled), 2.0 * norms)
    lam1 = box_lambda1(fld.extents)
    nu_star = float(np.sum(norms[:, 0])) / lam1**0.25
    boundary = uniqueness_criterion(TimeSeriesField(np.array([0.0]), (fld,)), nu=nu_star)
    flipped = uniqueness_criterion(TimeSeriesField(np.array([0.0]), (doubled,)), nu=nu_star)
    ok = (
        homogeneous
        and boundary.rows[0].satisfied_per_component[0]
        and not flipped.rows[0].satisfied_per_component[0]
    )
    report(
        7,
        "criterion homogeneity (exact doubling) and closed-inequality boundary",
        ok,
        f"homogeneous = {homogeneous}, boundary satisfied = "
        f"{boundary.rows[0].satisfied_per_component[0]}",
    )


def test_criterion_08_stratification_equivalence():
    rng = np.random.default_rng(2718)
    inconsistencies = 0
    cases = 0

    def check(mask_array, extents=(1.0, 1.0, 1.0)):
        nonlocal inconsistencies, cases
        cases += 1
        grid = IndicatorGrid(dims=mask_array.shape, extents=extents, mask=mask_array)
        try:
            verdict = stratification_verdict(grid)
        except Exception:
            inconsistencies += 1
            return
        if verdict.oracle_positive != any(p.positive for p in verdict.profiles[:3]):
            inconsistencies += 1

    for trial in range(50):
        kind = trial % 3
        if kind == 0:
            check(rng.random((12, 12, 12)) < rng.uniform(0.15, 0.9))
        elif kind == 1:
            check(np.zeros((12, 12, 12), bool))
        else:
            n = 16
            x = (np.arange(n) + 0.5) / n
            xx, yy, zz = np.meshgrid(x, x, x, indexing="ij")
            r = rng.uniform(0.2, 0.45)
            check((xx - 0.5) ** 2 + (yy - 0.5) ** 2 + (zz - 0.5) ** 2 < r**2)
    # analytic ball and half-cube on top of the random deck
    n = 32
    x = (np.arange(n) + 0.5) / n
    xx, yy, zz = np.meshgrid(x, x, x, indexing="ij")
    check((xx - 0.5) ** 2 + (yy - 0.5) ** 2 + (zz - 0.5) ** 2 < 0.09)
    half = np.zeros((16, 16, 16), bool)
    half[:, :, :8] = True
    check(half)
    report(
        8,
        "voxel-volume oracle vs axis stratification verdict",
        inconsistencies == 0,
        f"{cases} cases, {inconsistencies} inconsistencies",
    )


def test_criterion_09_discrete_coercivity(tensors_axis, tensors_oblique):
    rng = np.random.default_rng(109)
    values = [coercivity_check(tensors_axis), coercivity_check(tensors_oblique)]
    for _ in range(4):
        n1, n2 = (int(v) for v in rng.integers(2, 9, size=2))
        normal = rng.standard_normal(3)
        normal[2] = np.sign(normal[2]) * (np.abs(normal).max() + 0.4)
        chart = make_chart(Hyperplane.from_vector(normal, 0.1))
        tens = assemble(SpectralBasis((n1, n2), (1.0, 1.0)), chart)
        values.append(coercivity_check(tens))
    axis_exact = abs(values[0] - 2.0 * np.pi**2) <= 1e-10
    all_positive = all(v > 0.0 for v in values)
    report(
        9,
        "projected-operator coercivity on the divergence-free subspace",
        axis_exact and all_positive,
        f"axis-aligned value = {values[0]:.12f} (target 2*pi^2), "
        f"min over charts = {min(values):.3f}",
    )


def test_criterion_10_reproducibility(tmp_path):
    args = [
        "uniqueness", "--seed", "77",
        "--set", "basis.n1=5", "--set", "basis.n2=5",
        "--set", "solver.nu=0.1", "--set", "solver.dt=0.001", "--set", "solver.T=0.05",
        "--set", "uniq.delta=1e-8",
    ]
    payloads = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli_main(args + ["--out", str(out)]) == 0
        payload = json.loads((out / "contraction_report.json").read_text())
        payload.pop("timestamp_utc", None)
        payloads.append(json.dumps(payload, sort_keys=True))
    report(
        10,
        "byte-identical reports for identical config and seed",
        payloads[0] == payloads[1],
        f"{len(payloads[0])} bytes compared",
    )
