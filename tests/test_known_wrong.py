"""Verdicts known to be wrong, each with the reading it should give.

Every row is a strict expected failure that names the ROADMAP item which
fixes it.  A row fails today for its stated reason: an assertion on the
reading, or, for the stratify rows, StratifyInconsistencyError; any other
error fails the row.  When a fix lands, its rows pass, which a strict
xfail reports as a failure, so the fixing change removes their markers.
CI counts the xfailed rows, and the count can only fall.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from test_cli import write_u0_slice

import nsslice.mms
from nsslice.analysis import (
    contraction_report,
    perturbation_coeffs,
    seeded_state,
    uniqueness_experiment,
)
from nsslice.cli import main
from nsslice.galerkin import SpectralBasis, assemble, project_divfree, solve_from_state
from nsslice.geometry import AXIS_ALIGNED_CHART, Hyperplane, make_chart
from nsslice.stratify import (
    IndicatorGrid,
    StratifyInconsistencyError,
    StratifyVerdict,
    stratification_verdict,
)


def sparse_mask_reads_a_verdict(n, index):
    """Item 13: a sparse mask in a unit n^3 box reads a verdict instead of raising."""
    m = np.zeros((n, n, n), bool)
    m[index] = True
    verdict = stratification_verdict(IndicatorGrid(dims=m.shape, extents=(1.0,) * 3, mask=m))
    return isinstance(verdict, StratifyVerdict)


def twins_pass(corrupt):
    """Item 2: the contraction verdict on twins after corrupt(tensors, cu, cv, delta) edits cv.

    8x8 modes, axis-aligned, nu = 0.1, dt = 1e-3, T = 0.2, delta = 1e-8, seed 3.
    """
    tensors = assemble(SpectralBasis(nmodes=(8, 8), extents=(1.0, 1.0)), AXIS_ALIGNED_CHART)
    delta = 1e-8
    u0 = seeded_state(tensors, [3, 1], decay=0.125)
    u0 = u0 / tensors.norm_h(u0)
    pair = np.stack([u0, u0 + delta * perturbation_coeffs(tensors, 3)])
    trace = solve_from_state(project_divfree(pair, tensors), None, tensors, 0.1, 1e-3, 0.2)
    cu, cv = trace.coeffs[:, 0], trace.coeffs[:, 1].copy()
    corrupt(tensors, cu, cv, delta)
    return contraction_report(tensors, trace.times, cu, cv, delta).passed


def bump_last(scale):
    def corrupt(tensors, cu, cv, delta):
        cv[-1] += scale * delta * perturbation_coeffs(tensors, 4)
    return corrupt


def unrelated_run(tensors, cu, cv, delta):
    other = seeded_state(tensors, [4, 1], decay=0.125)
    other = other / tensors.norm_h(other)
    cv[:] = solve_from_state(project_divfree(other, tensors), None, tensors, 0.1, 1e-3, 0.2).coeffs


def one_step_solve_holds(tmp_path):
    """Item 1: a one-step solve (solver.T = solver.dt) certifies the energy inequality."""
    src = tmp_path / "u0s.nsf1"
    write_u0_slice(src)
    out = tmp_path / "solve"
    main(["solve", "--out", str(out), "--set", f"io.u0_slice={src}",
          "--set", "basis.n1=6", "--set", "basis.n2=6",
          "--set", "solver.nu=0.1", "--set", "solver.dt=0.01", "--set", "solver.T=0.01"])
    return json.loads((out / "run_manifest.json").read_text())["checks"]["inequality_holds"]


def small_delta_agrees():
    """Item 24: ||w(T)|| / delta at delta = 1e-12 agrees with delta = 1e-8 to 1e-9 relative.

    Oblique benchmark plane, n = 12, nu = 0.1, dt = 2.5e-4, 1000 steps, the
    seeded state [5, 1] at decay 0.125, perturbation seed 5.
    """
    chart = make_chart(Hyperplane.from_vector((1.0, 0.5, 1.0), 1.75))
    tensors = assemble(SpectralBasis(nmodes=(12, 12), extents=(1.0, 1.0)), chart)
    u0 = seeded_state(tensors, [5, 1], decay=0.125)
    growth = [uniqueness_experiment(tensors, u0, 0.1, 2.5e-4, 0.25, delta, seed=5).w_norm[-1]
              / delta for delta in (1e-8, 1e-12)]
    return bool(abs(growth[1] / growth[0] - 1.0) <= 1e-9)


def temporal_gate_sees_dropped_advection(tmp_path, monkeypatch):
    """Item 5: with the advection field c dropped, the temporal gate fails.

    The settings of test_cli.test_mms_gates_fail_on_corrupted_forcing.
    """
    fields = nsslice.mms.ManufacturedSolution._forcing_fields

    def corrupted(self, xg, yg):
        a, b, c = fields(self, xg, yg)
        return a, b, np.zeros_like(c)

    monkeypatch.setattr(nsslice.mms.ManufacturedSolution, "_forcing_fields", corrupted)
    out = tmp_path / "mms"
    main(["mms", "--out", str(out),
          "--set", "mms.n_list=4,8", "--set", "mms.dt=0.002", "--set", "mms.T=0.1"])
    return json.loads((out / "mms_report.json").read_text())["checks"]["temporal_order_ok"]


def known_wrong(item, raises=AssertionError):
    return pytest.mark.xfail(strict=True, raises=raises, reason=f"ROADMAP item {item}")


def stratify_row(n, index, ident):
    return pytest.param(lambda **_: sparse_mask_reads_a_verdict(n, index), True,
                        marks=known_wrong(13, StratifyInconsistencyError), id=ident)


CASES = [
    stratify_row(16, np.s_[4:6, 4:6, 4:6], "stratify-block-2x2x2"),
    stratify_row(16, np.s_[7, 6:9, 6:9], "stratify-plate-1x3x3"),
    stratify_row(16, np.s_[6:9, 6:9, 7], "stratify-plate-3x3x1"),
    stratify_row(16, np.s_[7, 7, 4:13], "stratify-line-1x1x9"),
    stratify_row(32, np.s_[15, 15, 6:26], "stratify-line-1x1x20-in-32"),
    pytest.param(lambda **_: twins_pass(bump_last(1e3)), False,
                 marks=known_wrong(2), id="contraction-bump-1e3-delta"),
    pytest.param(lambda **_: twins_pass(bump_last(1e-3)), False,
                 marks=known_wrong(2), id="contraction-bump-1e-3-delta"),
    pytest.param(lambda **_: twins_pass(unrelated_run), False,
                 marks=known_wrong(2), id="contraction-unrelated-trajectory"),
    pytest.param(lambda tmp_path, **_: one_step_solve_holds(tmp_path), True,
                 marks=known_wrong(1), id="solve-one-step-inequality"),
    pytest.param(lambda **_: small_delta_agrees(), True,
                 marks=known_wrong(24), id="uniqueness-small-delta-cancellation"),
    pytest.param(lambda tmp_path, monkeypatch: temporal_gate_sees_dropped_advection(
                     tmp_path, monkeypatch), False,
                 marks=known_wrong(5), id="mms-temporal-gate-dropped-advection"),
]


@pytest.mark.parametrize("case, should_read", CASES)
def test_known_wrong_verdict(case, should_read, tmp_path, monkeypatch):
    assert case(tmp_path=tmp_path, monkeypatch=monkeypatch) == should_read
