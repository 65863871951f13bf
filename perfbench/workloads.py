"""The benchmark's workloads: which CLI commands each one runs, and why.

Each workload is a chain of `nsslice` subcommands run one after another; a
later command may read what an earlier one wrote.  Every workload shares the
oblique plane of inputs.py, so the chart coupling terms are always active.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from inputs import NFRAMES, PIPE_T_END, PLANE_NORMAL, PLANE_OFFSET, POST_DIMS

PLANE = [
    "--set", "plane.normal=" + ",".join(f"{v:g}" for v in PLANE_NORMAL),
    "--set", f"plane.offset={PLANE_OFFSET:g}",
]
NU = "0.1"
DT = "2.5e-4"
LONG_T_END = 0.25   # 1000 RK4 steps per run
STRATIFY_DIRECTIONS = "1,1,1;1,-1,0;0,1,1;1,2,2;2,-1,1"
STRATIFY_EPS = 0.25
QUADFORM_C_GN = 1.0  # the shipped default of quadform.c_gn


@dataclass(frozen=True)
class Command:
    """One CLI invocation: subcommand, output directory name, argument builder."""

    name: str
    out: str
    args: Callable[[dict, Path], list]  # (inputs, work dir) -> extra arguments


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: str            # input kind for inputs.generate
    commands: tuple
    voxel_frames: int = 0  # voxels x frames analysed by quadform and stratify


def _solver(n: int, t_end: float) -> list:
    return [
        "--set", f"basis.n1={n}", "--set", f"basis.n2={n}",
        "--set", f"solver.nu={NU}", "--set", f"solver.dt={DT}",
        "--set", f"solver.T={t_end:g}",
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pipeline-n24-forced",
            why=(
                "project 3D u0 and 4 forcing frames, forced n=24 solve of 200 steps: set-up layers "
                "(assembly, forcing projection, restriction, NSF1 I/O) dominate"
            ),
            inputs="pipeline",
            commands=(
                Command("project", "proj", lambda inp, w: PLANE + [
                    "--set", f"io.u0={inp['u0']}",
                    "--set", f"io.forcing={inp['forcing']}",
                    "--set", "slice.dims=49,49",
                ]),
                Command("solve", "solve", lambda inp, w: PLANE + _solver(24, PIPE_T_END) + [
                    "--set", f"io.u0_slice={w / 'proj' / 'u0_slice.nsf1'}",
                    "--set", f"io.forcing_slice={w / 'proj' / 'forcing_slice.json'}",
                ]),
            ),
        ),
        Workload(
            name="longrun-n12-unforced",
            why=(
                "unforced n=12 solve of 1000 steps then uniqueness twins: per-step layers "
                "(RK4, advection, projector, synthesis, ledger) dominate; shows the ledger FAIL"
            ),
            inputs="slice",
            commands=(
                Command("solve", "solve", lambda inp, w: PLANE + _solver(12, LONG_T_END) + [
                    "--set", f"io.u0_slice={inp['u0_slice']}",
                ]),
                Command("uniqueness", "uniq", lambda inp, w: PLANE + _solver(12, LONG_T_END) + [
                    "--set", f"io.u0_slice={inp['u0_slice']}",
                    "--set", "uniq.delta=1e-8",
                ]),
            ),
        ),
        Workload(
            name="postproc-64",
            why=(
                "quadform and stratify on a 4-frame 64^3 series: the only workload where "
                "galerkin does no work; NSF1 reads and voxel kernels dominate"
            ),
            inputs="postproc",
            commands=(
                Command("quadform", "qf", lambda inp, w: [
                    "--set", f"io.v={inp['v']}",
                    "--set", f"io.w={inp['w']}",
                    "--set", f"quadform.nu={NU}",
                ]),
                Command("stratify", "st", lambda inp, w: [
                    "--set", f"io.w={inp['v']}",
                    "--set", f"stratify.eps={STRATIFY_EPS:g}",
                    "--set", f"stratify.directions={STRATIFY_DIRECTIONS}",
                ]),
            ),
            voxel_frames=2 * NFRAMES * POST_DIMS[0] * POST_DIMS[1] * POST_DIMS[2],
        ),
        Workload(
            name="mms-short",
            why=(
                "shipped mms gates and defaults with T=0.1 on the oblique chart: "
                "sympy set-up, forcing evaluation and projection dominate"
            ),
            inputs="none",
            commands=(
                Command("mms", "mms", lambda inp, w: PLANE + ["--set", "mms.T=0.1"]),
            ),
        ),
    )
}
