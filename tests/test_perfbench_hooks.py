"""The benchmark's tracer wraps package functions by name; those names must resolve."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_instruments_every_hook():
    # a fresh interpreter, because instrument() rebinds module attributes
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    code = "import tracer; tracer.instrument(tracer.Tracer())"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT / "perfbench",
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
