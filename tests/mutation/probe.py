"""Mutation probe: weaken one verdict line at a time and see whether tests notice.

Usage, from the repository root:

    python3 tests/mutation/probe.py

Each row of MUTANTS names a file under src/nsslice, a line that must occur in
it exactly once (compared without its indentation), the line that replaces
it, and the tests to run.  Every mutant runs in a fresh temporary copy of
src/ and tests/, never in the working tree, and runs only its named tests:

- killed:   the tests fail with the mutant in place (pytest exit 1);
- survived: they pass (pytest exit 0).

Anything else is an error: an old line that matches zero or several times (so
a refactor cannot retire a mutant silently), a named test that pytest cannot
find, or the named tests failing on the unmutated copy, which is checked
first.  The probe prints one row per mutant, then "killed k of n".  It exits
2 on an error and 0 otherwise, whatever k is.  It needs the standard library
only; the tests it runs need the test extra.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[2]


class Mutant(NamedTuple):
    name: str
    file: str          # relative to src/nsslice
    old: str           # the whole line, without its indentation
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "contraction passes whenever the envelope base is positive",
        "analysis.py",
        "passed = bool(np.all(w_norm <= bound * (1.0 + ENVELOPE_SLACK)))",
        "passed = True",
        ("tests/test_analysis.py::test_contraction_corrupted_pair_fails",
         "tests/test_analysis.py::test_uniqueness_perturbed_envelope",
         "tests/test_acceptance.py::test_criterion_05_uniqueness_contraction"),
    ),
    Mutant(
        "contraction at delta = 0 passes whatever the difference",
        "analysis.py",
        "passed = bool(np.all(w_norm == 0.0))",
        "passed = True",
        ("tests/test_analysis.py::test_contraction_corrupted_pair_fails",),
    ),
    Mutant(
        "contraction envelope ignores the initial gap",
        "analysis.py",
        "base = max(delta, w_norm[0])",
        "base = delta",
        ("tests/test_analysis.py::test_contraction_corrupted_pair_fails",
         "tests/test_analysis.py::test_uniqueness_perturbed_envelope",
         "tests/test_acceptance.py::test_criterion_05_uniqueness_contraction"),
    ),
    Mutant(
        "contraction report's largest difference is its smallest",
        "analysis.py",
        "max_w_norm=float(np.max(w_norm)),",
        "max_w_norm=float(np.min(w_norm)),",
        ("tests/test_analysis.py::test_contraction_report_max_and_scale_are_exact",),
    ),
    Mutant(
        "ledger residual adds the work",
        "analysis.py",
        "residual = dedt + nu * (d1 + d2 + dc) - w",
        "residual = dedt + nu * (d1 + d2 + dc) + w",
        ("tests/test_analysis.py::test_residual_second_order_in_dt",
         "tests/test_analysis.py::test_forced_residual_second_order_in_dt",
         "tests/test_analysis.py::test_single_heat_mode_closed_form",
         "tests/test_acceptance.py::test_criterion_03_energy_identity"),
    ),
    Mutant(
        "ledger bound counts the work twice",
        "analysis.py",
        "rhs = self.energy[0] + self.cumulative_abs_work",
        "rhs = self.energy[0] + 2.0 * self.cumulative_abs_work",
        ("tests/test_analysis.py::test_inequality_on_forced_run",
         "tests/test_analysis.py::test_inequality_fails_when_energy_outgrows_work"),
    ),
    Mutant(
        "INEQUALITY_RTOL 1e-8 -> 1e-6",
        "analysis.py",
        "INEQUALITY_RTOL = 1e-8",
        "INEQUALITY_RTOL = 1e-6",
        ("tests/test_analysis.py::test_inequality_verdict_flips_on_corrupted_ledger",
         "tests/test_analysis.py::test_inequality_fails_on_small_unworked_energy_rise"),
    ),
    Mutant(
        "MONOTONE_SLACK 1e-12 -> 1e-6",
        "analysis.py",
        "MONOTONE_SLACK = 1e-12",
        "MONOTONE_SLACK = 1e-6",
        ("tests/test_analysis.py::test_apriori_violation_on_corrupted_ledger",
         "tests/test_analysis.py::test_monotone_fails_on_one_step_rise"),
    ),
    Mutant(
        "monotone slack divides by the initial energy",
        "analysis.py",
        "return bool(np.all(np.diff(self.energy) <= MONOTONE_SLACK * self.energy[0]))",
        "return bool(np.all(np.diff(self.energy) <= MONOTONE_SLACK / self.energy[0]))",
        ("tests/test_analysis.py::test_monotone_slack_scales_with_initial_energy",),
    ),
    Mutant(
        "DIVERGENCE_TOL 1e-9 -> 1e-6",
        "analysis.py",
        "DIVERGENCE_TOL = 1e-9   # bound on galerkin.divergence_residual over the states of a solve",
        "DIVERGENCE_TOL = 1e-6",
        ("tests/test_cli.py::test_solve_divergence_check_fails_on_leaky_projection",),
    ),
    Mutant(
        "divergence_preserved reads the last state only",
        "cli.py",
        "div_max = float(np.max(galerkin.divergence_residual(trace.coeffs, tensors)))",
        "div_max = float(np.max(galerkin.divergence_residual(trace.coeffs[-1:], tensors)))",
        ("tests/test_cli.py::test_solve_divergence_check_fails_on_leaky_projection",
         "tests/test_cli.py::test_solve_divergence_check_reads_every_state"),
    ),
    Mutant(
        "MIN_SPATIAL_RATIO 10 -> 3",
        "mms.py",
        "MIN_SPATIAL_RATIO = 10.0   # error at the coarsest mode count over that at the finest",
        "MIN_SPATIAL_RATIO = 3.0",
        ("tests/test_cli.py::test_mms_gates_fail_on_corrupted_forcing",),
    ),
    Mutant(
        "MIN_TEMPORAL_ORDER 3.8 -> 3.0",
        "mms.py",
        "MIN_TEMPORAL_ORDER = 3.8   # order observed on the steps 2 dt, dt and dt / 2",
        "MIN_TEMPORAL_ORDER = 3.0",
        ("tests/test_cli.py::test_mms_gates_fail_on_corrupted_forcing",
         "tests/test_cli.py::test_mms_subcommand_small",
         "tests/test_cli.py::test_mms_temporal_gate_fails_on_second_order_integrator"),
    ),
    Mutant(
        "jet sine seeds D1^2 without its 1/2!",
        "mms.py",
        "for n, v in enumerate((s, k * c, -k**2 * s / 2, -k**3 * c / 6)):",
        "for n, v in enumerate((s, k * c, -k**2 * s, -k**3 * c / 6)):",
        ("tests/test_mms.py::test_jet_sine_product_partials_match_closed_form",
         "tests/test_mms.py::test_jet_exp_partials_match_faa_di_bruno"),
    ),
    Mutant(
        "jet product keeps the cells past order 3",
        "mms.py",
        "return Jet(out * _MASK)",
        "return Jet(out)",
        ("tests/test_mms.py::test_jet_cells_past_order_3_are_zero",),
    ),
    Mutant(
        "quadform criterion with 10 % slack",
        "quadform.py",
        "sat = tuple(bool(lhs >= r) for r in rhs)",
        "sat = tuple(bool(lhs >= 0.9 * r) for r in rhs)",
        ("tests/test_quadform.py::test_criterion_boundary_case_closed_inequality",
         "tests/test_quadform.py::test_criterion_doubling_flips_to_violated",
         "tests/test_acceptance.py::test_criterion_07_criterion_homogeneity_and_threshold"),
    ),
    Mutant(
        "quadform criterion constant C_GN 1.0 -> 0.5",
        "quadform.py",
        "C_GN = 1.0",
        "C_GN = 0.5",
        ("tests/test_quadform.py::test_criterion_boundary_case_closed_inequality",),
    ),
    Mutant(
        "stratify AREA_TOL_FACES 4 -> 1",
        "stratify.py",
        "AREA_TOL_FACES = 4.0",
        "AREA_TOL_FACES = 1.0",
        ("tests/test_stratify.py",
         "tests/test_acceptance.py::test_criterion_08_stratification_equivalence"),
    ),
    Mutant(
        "stratify verdict ignores the extra directions",
        "stratify.py",
        "positive = any(p.positive for p in profiles)",
        "positive = any(p.positive for p in profiles[:3])",
        ("tests/test_stratify.py",
         "tests/test_acceptance.py::test_criterion_08_stratification_equivalence"),
    ),
    Mutant(
        "stratify oracle > -> >=",
        "stratify.py",
        "oracle_positive = mask.total_volume > volume_tol",
        "oracle_positive = mask.total_volume >= volume_tol",
        ("tests/test_stratify.py",
         "tests/test_acceptance.py::test_criterion_08_stratification_equivalence"),
    ),
    Mutant(
        "stratify interval of one slab",
        "stratify.py",
        "positive=run >= INTERVAL_TOL_SLABS,",
        "positive=run >= 1,",
        ("tests/test_stratify.py::test_verdict_independent_of_box_units",),
    ),
    Mutant(
        "stratify interval tolerance of one slab",
        "stratify.py",
        "interval_tol=float(INTERVAL_TOL_SLABS * dbeta),",
        "interval_tol=float(dbeta),",
        ("tests/test_stratify.py::test_interval_tol_is_two_slabs_on_an_oblique_direction",),
    ),
    Mutant(
        "stratify slice at exactly area_tol reads empty",
        "stratify.py",
        "run = _longest_run(measures >= at)",
        "run = _longest_run(measures > at)",
        ("tests/test_stratify.py::test_axis_thresholds_hold_exactly_at_the_boundary",),
    ),
    Mutant(
        "stratify run of exactly INTERVAL_TOL_SLABS reads negative",
        "stratify.py",
        "positive=run >= INTERVAL_TOL_SLABS,",
        "positive=run > INTERVAL_TOL_SLABS,",
        ("tests/test_stratify.py::test_axis_thresholds_hold_exactly_at_the_boundary",),
    ),
    Mutant(
        "NSF1 extents need not be finite",
        "fieldio.py",
        "if not all(math.isfinite(e) and e > 0.0 for e in extents):",
        "if not all(e > 0.0 for e in extents):",
        ("tests/test_fieldio.py::test_malformed_header",
         "tests/test_fieldio_properties.py::test_non_positive_or_non_finite_header_extent_is_refused",
         "tests/test_cli.py::test_exit_2_creates_no_output_directory[quadform-io.v={tmp}/inf_extent.nsf1]"),
    ),
    Mutant(
        "every run exits 0 whatever its checks",
        "cli.py",
        "return EXIT_OK if all(checks.values()) else EXIT_CHECK_FAILED",
        "return EXIT_OK",
        ("tests/test_cli.py::test_solve_failed_certificate_exit_code",
         "tests/test_cli.py::test_mms_gates_fail_on_corrupted_forcing"),
    ),
    Mutant(
        "divergence projector drops the Schur pair coupling",
        "galerkin.py",
        "lam = (self.gram_pinv_coef * z).sum(axis=-3)",
        "lam = self.gram_pinv_coef[0] * z[..., 0, :, :]",
        ("tests/test_galerkin.py::test_factored_projection_matches_svd_oracle",),
    ),
    Mutant(
        "_BLOWUP_LIMIT 1e12 -> 1e300",
        "galerkin.py",
        "_BLOWUP_LIMIT = 1e12",
        "_BLOWUP_LIMIT = 1e300",
        ("tests/test_galerkin.py::test_step_blowup_guard",
         "tests/test_galerkin.py::test_step_blowup_guard_catches_nonfinite",
         "tests/test_galerkin.py::test_step_blowup_guard_fires_before_overflow",
         "tests/test_cli.py::test_solve_blowup_below_the_dt_preflight_exits_2"),
    ),
    Mutant(
        "RK4 weighs the third slope once",
        "galerkin.py",
        "u1 = coeffs + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)",
        "u1 = coeffs + dt / 6.0 * (k1 + 2.0 * k2 + k3 + k4)",
        ("tests/test_acceptance.py::test_criterion_02_mms_convergence",
         "tests/test_cli.py::test_mms_subcommand_small"),
    ),
    Mutant(
        "RK4 evaluates the second slope at the start time",
        "galerkin.py",
        "k2 = _rhs(coeffs + half * k1, t + half, tensors, f_of_t, nu)",
        "k2 = _rhs(coeffs + half * k1, t, tensors, f_of_t, nu)",
        ("tests/test_acceptance.py::test_criterion_02_mms_convergence",
         "tests/test_cli.py::test_mms_subcommand_small"),
    ),
    Mutant(
        "dt pre-flight refuses no step",
        "cli.py",
        "if step > limit:",
        "if False:",
        ("tests/test_cli.py::test_solve_dt_preflight_is_exact_on_the_axis_aligned_chart",
         "tests/test_cli.py::test_mms_unstable_temporal_step_rejected_before_solving"),
    ),
)


class ProbeError(RuntimeError):
    pass


def mutate(text: str, old: str, new: str) -> str:
    """Replace the one line whose stripped text is old, keeping its indentation."""
    lines = text.splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if line.strip() == old]
    if len(hits) != 1:
        raise ProbeError(f"old line matches {len(hits)} times, not once: {old!r}")
    line = lines[hits[0]]
    indent = line[:len(line) - len(line.lstrip())]
    lines[hits[0]] = indent + new + "\n"
    return "".join(lines)


def run_tests(workdir: Path, tests) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=workdir, env=env, capture_output=True, text=True,
    )
    tail = (proc.stdout.strip().splitlines() or [""])[-1]
    return proc.returncode, tail


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="nsslice-probe-") as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        # every old line must match once before anything runs
        try:
            for m in MUTANTS:
                mutate((base / "src" / "nsslice" / m.file).read_text(), m.old, m.new)
        except ProbeError as exc:
            print(f"error: {exc}")
            return 2
        named = sorted({t for m in MUTANTS for t in m.tests})
        code, tail = run_tests(base, named)
        if code != 0:
            print(f"error: the named tests do not pass unmutated (pytest exit {code}): {tail}")
            return 2

        killed = 0
        errors = 0
        for i, m in enumerate(MUTANTS, 1):
            work = Path(tmp) / f"mutant-{i:02d}"
            shutil.copytree(base, work)
            target = work / "src" / "nsslice" / m.file
            target.write_text(mutate(target.read_text(), m.old, m.new))
            start = time.perf_counter()
            code, tail = run_tests(work, m.tests)
            elapsed = time.perf_counter() - start
            shutil.rmtree(work)
            if code == 1:
                killed += 1
                status = "killed"
            elif code == 0:
                status = "SURVIVED"
            else:
                errors += 1
                status = f"ERROR (pytest exit {code})"
            print(f"{i:2d}. {status:<10} {elapsed:6.1f} s  {m.file}: {m.name}  [{tail}]",
                  flush=True)

    print(f"killed {killed} of {len(MUTANTS)}")
    return 2 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
