"""The benchmark's tracer wraps package functions by name; those names must resolve."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# after instrument(), drive the wrapped entry points whose callbacks read
# attributes of their results: assemble (operator arrays and nnz),
# ledger_from_run (inequality margin) and canonicalize (jacobi mask); and
# synthesize_field on a (k, 3M) stack, the call that writes a solve trajectory
TRACED_CALLS = """
import json
import numpy as np
import tracer
from nsslice import analysis, galerkin, quadform
from nsslice.fieldio import Field

t = tracer.Tracer()
tracer.instrument(t)
tensors = galerkin.assemble(galerkin.SpectralBasis((3, 3), (1.0, 1.0)), None)
u0 = tensors.projector @ np.linspace(1.0, 2.0, 3 * tensors.nmodes_total)
trace = galerkin.solve_from_state(u0, None, tensors, 0.1, 1e-2, 0.03)
analysis.ledger_from_run(trace, tensors, None, 0.1)
frames = galerkin.synthesize_field(tensors.basis, trace.coeffs, (5, 5))
assert frames.dims == (5, 5, len(trace))
v = Field.from_function((8, 8, 8), (1.0, 1.0, 1.0), 3,
                        lambda x, y, z: np.stack([np.sin(x + 2 * y), y * z, np.cos(z - x)]))
quadform.canonicalize(quadform.strain_field(v))
print(json.dumps({"spans": sorted({s[0] for s in t.spans}), "counters": sorted(t.counters)}))
"""


def test_tracer_instruments_every_hook():
    # a fresh interpreter, because instrument() rebinds module attributes
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_CALLS],
        cwd=ROOT / "perfbench",
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    for span in ("galerkin.assemble", "galerkin.solve", "galerkin.step", "galerkin.rhs",
                 "galerkin.trilinear_apply", "galerkin.synthesize_field",
                 "analysis.ledger_from_run",
                 "quadform.strain_field", "quadform.canonicalize"):
        assert span in seen["spans"]
    for counter in ("galerkin.operator_bytes", "galerkin.trilinear_nnz",
                    "analysis.margin_over_tol", "quadform.jacobi_points", "quadform.points"):
        assert counter in seen["counters"]
