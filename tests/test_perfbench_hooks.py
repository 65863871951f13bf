"""The benchmark's tracer wraps package functions by name; those names must resolve."""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_cli import _runnable_args

ROOT = Path(__file__).resolve().parents[1]

# after instrument(), drive the wrapped entry points whose callbacks read
# attributes of their results: assemble (operator arrays and nnz),
# ledger_from_run (inequality margin) and canonicalize (jacobi mask);
# synthesize_field on a (k, 3M) stack, the call that writes a solve trajectory;
# and one manufactured final, whose forcing requests the tracer counts by
# wrapping forcing_coeffs(self, n) with n passed on positionally
TRACED_CALLS = """
import json
import numpy as np
import tracer
from nsslice import analysis, galerkin, geometry, mms, quadform
from nsslice.fieldio import Field

t = tracer.Tracer()
tracer.instrument(t)
tensors = galerkin.assemble(galerkin.SpectralBasis((3, 3), (1.0, 1.0)),
                           geometry.AXIS_ALIGNED_CHART)
u0 = tensors.projector @ np.linspace(1.0, 2.0, 3 * tensors.nmodes_total)
trace = galerkin.solve_from_state(u0, None, tensors, 0.1, 1e-2, 0.03)
analysis.ledger_from_run(trace, tensors, None, 0.1)
frames = galerkin.synthesize_field(tensors.basis, trace.coeffs, (5, 5))
assert frames.dims == (5, 5, len(trace))
v = Field.from_function((8, 8, 8), (1.0, 1.0, 1.0), 3,
                        lambda x, y, z: np.stack([np.sin(x + 2 * y), y * z, np.cos(z - x)]))
quadform.canonicalize(quadform.strain_field(v))
mms.ManufacturedSolution().final(3, 1e-2, 0.03)
print(json.dumps({"spans": sorted({s[0] for s in t.spans}), "counters": sorted(t.counters)}))
"""


# import nsslice.cli alone, as tracer.py does, then instrument and run a tiny
# solve through cli.main: the commands call galerkin's functions through the
# module, so the spans wrapped there must record each call once
TRACED_SOLVE = """
import collections
import json
import sys
from nsslice import cli
import tracer

t = tracer.Tracer()
tracer.instrument(t)
rc = cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, "calls": collections.Counter(s[0] for s in t.spans)}))
"""


def _run_traced(code: str, *args: str):
    """Run code from perfbench/ in a fresh interpreter, since instrument()
    rebinds module attributes; returns the JSON it prints, parsed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=ROOT / "perfbench",
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_tracer_instruments_every_hook():
    seen = _run_traced(TRACED_CALLS)
    for span in ("galerkin.assemble", "galerkin.solve", "galerkin.step", "galerkin.rhs",
                 "galerkin.trilinear_apply", "galerkin.synthesize_field",
                 "analysis.ledger_from_run",
                 "quadform.strain_field", "quadform.canonicalize",
                 "mms.setup", "mms.forcing_request"):
        assert span in seen["spans"]
    for counter in ("galerkin.operator_bytes", "galerkin.trilinear_nnz",
                    "analysis.margin_over_tol", "quadform.jacobi_points", "quadform.points"):
        assert counter in seen["counters"]


def test_tracer_sees_the_solver_calls_of_a_cli_command(tmp_path):
    result = _run_traced(TRACED_SOLVE, "solve", "--out", str(tmp_path / "solve"),
                         *_runnable_args("solve", tmp_path))
    assert result["rc"] in (0, 1)
    calls = result["calls"]
    for span in ("cli.solve", "galerkin.assemble", "galerkin.solve",
                 "galerkin.project_field_to_basis", "galerkin.project_divfree",
                 "galerkin.synthesize_field", "analysis.ledger_from_run"):
        assert calls.get(span) == 1, (span, calls)
    assert calls["galerkin.step"] == 3
