import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import nsslice.analysis
import nsslice.cli
import nsslice.galerkin
import nsslice.mms
from nsslice.cli import EXIT_CHECK_FAILED, EXIT_ERROR, EXIT_OK, main, parse_config
from nsslice.fieldio import Field, read_field, restrict_to_slice, write_field
from nsslice.geometry import Hyperplane, make_chart
from nsslice.quadform import canonicalize, strain_field


def write_u0_3d(path, dims=(17, 17, 17)):
    def f(x, y, z):
        sx = np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z)
        return np.stack([sx, 0.5 * sx, 0.2 * sx])

    fld = Field.from_function(dims, (1.0, 1.0, 1.0), 3, f)
    write_field(fld, path)
    return fld


def write_u0_slice(path, dims=(21, 21)):
    def f(x, y):
        env = np.sin(np.pi * x) * np.sin(np.pi * y)
        return np.stack([
            np.pi * np.sin(np.pi * x) ** 2 * np.sin(2 * np.pi * y) * 0.1,
            -np.pi * np.sin(2 * np.pi * x) * np.sin(np.pi * y) ** 2 * 0.1,
            0.5 * env,
        ])

    fld = Field.from_function(dims, (1.0, 1.0), 3, f)
    write_field(fld, path)
    return fld


def strip_timestamp(path):
    payload = json.loads(path.read_text())
    payload.pop("timestamp_utc", None)
    return json.dumps(payload, sort_keys=True)


def test_project_axis_aligned_constant(tmp_path):
    fld = Field(dims=(9, 9, 9), extents=(1.0, 1.0, 1.0), ncomp=3,
                data=np.full((3, 9, 9, 9), 1.5))
    src = tmp_path / "u0.nsf1"
    write_field(fld, src)
    out = tmp_path / "proj"
    rc = main([
        "project", "--out", str(out),
        "--set", f"io.u0={src}",
        "--set", "plane.normal=0,0,1",
        "--set", "plane.offset=0.5",
        "--set", "slice.dims=11,11",
    ])
    assert rc == EXIT_OK
    sliced = read_field(out / "u0_slice.nsf1")
    assert sliced.dims == (11, 11)
    assert np.allclose(sliced.data, 1.5, atol=1e-13)
    manifest = json.loads((out / "chart_manifest.json").read_text())
    assert manifest["chart"]["eliminated_axis"] == 3
    assert manifest["section"]["area"] == pytest.approx(1.0)


def test_project_missing_plane_errors(tmp_path):
    src = tmp_path / "u0.nsf1"
    write_u0_3d(src)
    rc = main([
        "project", "--out", str(tmp_path / "o"),
        "--set", f"io.u0={src}",
        "--set", "plane.normal=0,0,1",
        "--set", "plane.offset=5.0",
    ])
    assert rc == EXIT_ERROR


@pytest.mark.parametrize("normal, offset", [
    ("1,1,1", "1.5"), ("1,1,1", "0.5"), ("1,0.5,1", "1.0"),
], ids=["hexagon", "triangle", "skewed-quadrilateral"])
def test_project_rejects_non_rectangular_section(tmp_path, capsys, normal, offset):
    # the slice problem is posed on a rectangle: any other section exits 2,
    # says why and leaves no output directory
    src = tmp_path / "u0.nsf1"
    write_u0_3d(src)
    out = tmp_path / "o"
    rc = main(["project", "--out", str(out), "--set", f"io.u0={src}",
               "--set", f"plane.normal={normal}", "--set", f"plane.offset={offset}"])
    assert rc == EXIT_ERROR
    assert "is not a rectangle in the chart" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, setting", [
    ("project", "plane.offset=5.0"),
    ("quadform", "io.w={tmp}/missing.nsf1"),
    ("quadform", "io.w={tmp}/w_coarse.nsf1"),
    # strain_field's second-order stencils need 3 samples per axis
    ("quadform", "io.v={tmp}/thin.nsf1"),
    ("project", "io.u0={tmp}/missing.nsf1"),
    ("project", "io.u0={tmp}/one_component.nsf1"),
    # binary is the one NSF1 payload mode
    ("project", "io.u0={tmp}/text.nsf1"),
    ("project", "io.forcing={tmp}/box_2.nsf1"),
    ("solve", "io.forcing_slice={tmp}/slice_box_2.nsf1"),
    ("stratify", "io.w={tmp}/slice.nsf1"),
    ("project", "plane.normal=0,0,0"),
    ("project", "plane.normal=1,1e-9,1"),
    ("solve", "plane.normal=0,0,0"),
    ("uniqueness", "plane.normal=1,1e-9,1"),
    # more modes than the 9 x 9 slice grid resolves
    ("solve", "basis.n1=8"),
    ("uniqueness", "basis.n2=8"),
])
def test_exit_2_creates_no_output_directory(tmp_path, monkeypatch, capsys, command, setting):
    # every input is read and checked before assembly and before the output
    # directory is made; an input error names its key and file, and a bad
    # value its key
    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled before checking the inputs")

    monkeypatch.setattr(nsslice.galerkin, "assemble", no_assembly)
    write_u0_3d(tmp_path / "w_coarse.nsf1", dims=(5, 5, 5))
    for name, dims, extents, ncomp in [
        ("one_component.nsf1", (9, 9, 9), (1.0, 1.0, 1.0), 1),
        ("box_2.nsf1", (9, 9, 9), (2.0, 2.0, 2.0), 3),
        ("slice_box_2.nsf1", (9, 9), (2.0, 2.0), 3),
        ("slice.nsf1", (9, 9), (1.0, 1.0), 3),
        ("thin.nsf1", (9, 9, 2), (1.0, 1.0, 1.0), 3),
    ]:
        write_field(Field(dims, extents, ncomp, np.ones((ncomp, *dims))), tmp_path / name)
    (tmp_path / "text.nsf1").write_bytes(b"NSF1 3 2 2 2 3 1 1 1\ntext\n" + b"0 " * 24)
    setting = setting.format(tmp=tmp_path)
    out = tmp_path / "out"
    rc = main([command, "--out", str(out), *_runnable_args(command, tmp_path),
               "--set", setting])
    assert rc == EXIT_ERROR
    err = capsys.readouterr().err
    assert "error:" in err
    if setting.startswith("io."):
        assert f"error: {setting}: " in err
    else:
        assert repr(setting.split("=")[0]) in err
    assert not out.exists()


FAILING_TARGETS = [
    ("project", "nsslice.cli.restrict_to_slice"),
    ("solve", "nsslice.galerkin.solve_from_state"),
    ("uniqueness", "nsslice.analysis.uniqueness_experiment"),
    ("quadform", "nsslice.quadform.strain_field"),
    ("stratify", "nsslice.stratify.stratification_verdict"),
    ("mms", "nsslice.mms.spatial_convergence"),
]


@pytest.mark.parametrize("command, target, error", [
    pytest.param(command, target, error, id=f"{command}-{target}{suffix}")
    for error, suffix in ((ValueError, ""), (MemoryError, "-MemoryError"))
    for command, target in FAILING_TARGETS
])
def test_failure_inside_command_leaves_no_output_directory(tmp_path, monkeypatch, capsys,
                                                          command, target, error):
    # the first write makes the output directory, so a command that fails
    # in its main computation exits 2 and leaves nothing behind; a
    # MemoryError (say a huge solver.T / solver.dt to record) is an error
    # too, not exit 1, which reads as a run that finished with a failed check
    def failing(*args, **kwargs):
        raise error("injected failure")

    monkeypatch.setattr(target, failing)
    out = tmp_path / "out"
    rc = main([command, "--out", str(out), *_runnable_args(command, tmp_path)])
    assert rc == EXIT_ERROR
    assert "error: injected failure" in capsys.readouterr().err
    assert not out.exists()


def test_project_oblique_matches_library_restriction(tmp_path):
    src = tmp_path / "u0.nsf1"
    fld = write_u0_3d(src)
    out = tmp_path / "proj"
    rc = main([
        "project", "--out", str(out),
        "--set", f"io.u0={src}",
        "--set", "plane.normal=1,0,1",
        "--set", "plane.offset=0.75",
        "--set", "slice.dims=15,13",
    ])
    assert rc == EXIT_OK
    got = read_field(out / "u0_slice.nsf1")
    chart = make_chart(Hyperplane.from_vector((1.0, 0.0, 1.0), 0.75))
    expect = restrict_to_slice(fld, chart, (15, 13))
    assert np.array_equal(got.data, expect.data)


def test_solve_zero_data_zero_frames(tmp_path):
    src = tmp_path / "u0s.nsf1"
    write_field(
        Field(dims=(13, 13), extents=(1.0, 1.0), ncomp=3, data=np.zeros((3, 13, 13))),
        src,
    )
    out = tmp_path / "solve"
    rc = main([
        "solve", "--out", str(out),
        "--set", f"io.u0_slice={src}",
        "--set", "basis.n1=4", "--set", "basis.n2=4",
        "--set", "solver.nu=0.1", "--set", "solver.dt=0.005", "--set", "solver.T=0.05",
        "--set", "solver.record_every=3",
    ])
    assert rc == EXIT_OK
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["checks"]["energy_nonincreasing"]
    assert manifest["lambda1"] == pytest.approx(2 * np.pi**2)
    # 10 steps: steps 0, 3, 6, 9 and the last one, which is not a multiple of 3
    assert manifest["frame_times"] == pytest.approx([0.0, 0.015, 0.03, 0.045, 0.05])
    for rel in manifest["frames"]:
        frame = read_field(out / rel)
        assert np.max(np.abs(frame.data)) == 0.0


def test_solve_smooth_data_passes_checks(tmp_path):
    src = tmp_path / "u0s.nsf1"
    write_u0_slice(src)
    out = tmp_path / "solve"
    rc = main([
        "solve", "--out", str(out),
        "--set", f"io.u0_slice={src}",
        "--set", "basis.n1=6", "--set", "basis.n2=6",
        "--set", "solver.nu=0.1", "--set", "solver.dt=0.0005", "--set", "solver.T=0.05",
        "--set", "solver.record_every=20",
    ])
    assert rc == EXIT_OK
    ledger = json.loads((out / "energy_ledger.json").read_text())
    assert ledger["inequality_holds"]
    assert min(ledger["inequality_margin"]) >= -ledger["tol_accum"]
    # 100 steps: every 20th step from 0, the last one included
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["frames"] == ["u_0000-0005.nsf1"]
    assert manifest["frame_times"] == pytest.approx([0.0, 0.01, 0.02, 0.03, 0.04, 0.05])
    assert manifest["frame_times"] == [ledger["times"][k] for k in range(0, 101, 20)]
    for rel in manifest["frames"]:
        assert read_field(out / rel).dims == (21, 21, 6)


def test_frame_runs_split_consecutive_within_budget():
    # frames of 1/per_file of the byte budget: runs are consecutive and
    # near-equal, hold at least 2 frames, and fit the budget wherever 3 frames do
    for per_file in (1, 2, 3, 4, 18, 100):
        frame_bytes = nsslice.cli.TRAJECTORY_FILE_BYTES // per_file
        for nframes in (*range(2, 60), 1001):
            runs = nsslice.cli._frame_runs(nframes, frame_bytes)
            assert np.array_equal(np.concatenate(runs), np.arange(nframes))
            sizes = [run.size for run in runs]
            assert min(sizes) >= 2 and max(sizes) - min(sizes) <= 1
            assert max(sizes) <= max(per_file, 3)
    # 1001 frames of a 49 x 49 x 3 slice: 56 files of 17 or 18 frames, each
    # within 1 MiB of samples
    assert nsslice.cli.TRAJECTORY_FILE_BYTES == 1 << 20
    runs = nsslice.cli._frame_runs(1001, 3 * 8 * 49 * 49)
    assert len(runs) == 56 and {run.size for run in runs} == {17, 18}


@pytest.mark.parametrize(
    "t_end, record_every, budget_frames, nframes",
    [
        (0.05, 10, None, 2),   # steps 0 and 10
        (0.05, 5, None, 3),    # steps 0, 5 and 10
        (0.05, 3, None, 5),    # 3 does not divide 10 steps: 0, 3, 6, 9 and 10
        (0.05, 1, 3, 11),      # runs of 3, 3, 3 and 2 frames
        (0.06, 5, 4, 4),       # 12 steps: 0, 5, 10 and 12 in one run of 4
        (0.07, 1, 4, 15),      # 14 steps: runs of 4, 4, 4 and 3 frames
    ],
)
def test_solve_trajectory_files_round_trip(tmp_path, monkeypatch, t_end, record_every,
                                           budget_frames, nframes):
    # each trajectory file, read back frame by frame, is bit-identical to
    # synthesizing the matching trace row alone
    src = tmp_path / "u0s.nsf1"
    u0 = write_u0_slice(src, dims=(11, 9))
    frame_bytes = u0.data.nbytes
    if budget_frames is not None:
        monkeypatch.setattr(nsslice.cli, "TRAJECTORY_FILE_BYTES", budget_frames * frame_bytes)
    solved = []
    solve = nsslice.galerkin.solve_from_state

    def capturing(*a, **k):
        solved.append(solve(*a, **k))
        return solved[-1]

    monkeypatch.setattr(nsslice.galerkin, "solve_from_state", capturing)
    out = tmp_path / "solve"
    rc = main([
        "solve", "--out", str(out),
        "--set", f"io.u0_slice={src}",
        "--set", "plane.normal=1,0.5,1", "--set", "plane.offset=1.75",
        "--set", "basis.n1=4", "--set", "basis.n2=3",
        "--set", "solver.nu=0.1", "--set", "solver.dt=0.005", "--set", f"solver.T={t_end}",
        "--set", f"solver.record_every={record_every}",
    ])
    assert rc in (EXIT_OK, EXIT_CHECK_FAILED)
    trace = solved[0]
    nsteps = len(trace) - 1
    recorded = [*range(0, nsteps, record_every), nsteps]
    assert len(recorded) == nframes
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["frame_times"] == trace.times[recorded].tolist()
    assert sorted(p.name for p in out.glob("*.nsf1")) == manifest["frames"]
    basis = nsslice.galerkin.SpectralBasis((4, 3), u0.extents)
    budget = nsslice.cli.TRAJECTORY_FILE_BYTES
    j = 0
    for rel in manifest["frames"]:
        frames = read_field(out / rel)
        k = frames.dims[2]
        assert frames.dims == (11, 9, k) and frames.ncomp == 3
        assert frames.extents == (*u0.extents, k - 1.0)
        assert rel == f"u_{j:04d}-{j + k - 1:04d}.nsf1"
        assert 2 <= k and k * frame_bytes <= budget
        for i in range(k):
            single = nsslice.galerkin.synthesize_field(basis, trace.coeffs[recorded[j]], (11, 9))
            assert np.array_equal(frames.data[..., i], single.data)
            j += 1
    assert j == len(manifest["frame_times"])


def test_solve_unstable_dt_blowup_exit(tmp_path, capsys):
    src = tmp_path / "u0s.nsf1"
    write_u0_slice(src)
    rc = main([
        "solve", "--out", str(tmp_path / "o"),
        "--set", f"io.u0_slice={src}",
        "--set", "basis.n1=8", "--set", "basis.n2=8",
        "--set", "solver.nu=5.0", "--set", "solver.dt=0.5", "--set", "solver.T=50",
    ])
    assert rc == EXIT_ERROR
    assert "reduce dt" in capsys.readouterr().err


def test_solve_blowup_below_the_dt_preflight_exits_2(tmp_path, capsys):
    # on the oblique chart the pre-flight limit (1.357e-2 here) lies above the
    # true RK4 limit (1.282e-2), so this dt passes it and the guard in step
    # stops the run when the top Stokes mode has grown past 1e12
    src = tmp_path / "u0s.nsf1"
    write_u0_slice(src)
    out = tmp_path / "o"
    rc = main([
        "solve", "--out", str(out),
        "--set", f"io.u0_slice={src}",
        "--set", "plane.normal=1,0.5,1", "--set", "plane.offset=1.75",
        "--set", "basis.n1=8", "--set", "basis.n2=8",
        "--set", "solver.nu=0.1", "--set", "solver.dt=0.0132", "--set", "solver.T=7.92",
    ])
    assert rc == EXIT_ERROR
    err = capsys.readouterr().err
    assert "coefficients exceeded 1e+12" in err and "reduce dt" in err
    assert not out.exists()


@pytest.mark.parametrize("factor, refused", [(1.01, True), (0.99, False)])
def test_solve_dt_preflight_is_exact_on_the_axis_aligned_chart(tmp_path, capsys, factor, refused):
    # on the axis-aligned chart the closed-form bound is lambda_max(-K) / m0
    # itself, so the refusal sits at the true RK4 limit, here from an eigensolve
    src = tmp_path / "u0s.nsf1"
    u0 = write_u0_slice(src, dims=(9, 9))
    nu = 0.1
    basis = nsslice.galerkin.SpectralBasis((3, 3), u0.extents)
    tensors = nsslice.galerkin.assemble(basis, make_chart(Hyperplane.from_vector((0, 0, 1), 0.5)))
    neg_k = -tensors.apply_stiffness(np.eye(basis.nmodes_total))
    lam_max = float(np.linalg.eigvalsh(neg_k)[-1]) / basis.mass_scale
    dt = factor * nsslice.galerkin.RK4_REAL_LIMIT / (nu * lam_max)
    out = tmp_path / "o"
    rc = main([
        "solve", "--out", str(out),
        "--set", f"io.u0_slice={src}",
        "--set", "basis.n1=3", "--set", "basis.n2=3",
        "--set", f"solver.nu={nu}", "--set", f"solver.dt={dt!r}", "--set", f"solver.T={3 * dt!r}",
    ])
    if refused:
        assert rc == EXIT_ERROR
        err = capsys.readouterr().err
        assert "'solver.dt'" in err and f"{dt:g}" in err and "reduce dt" in err
        assert not out.exists()
    else:
        assert rc in (EXIT_OK, EXIT_CHECK_FAILED)
        assert (out / "run_manifest.json").exists()


def test_solve_missing_key_errors(tmp_path):
    rc = main(["solve", "--out", str(tmp_path / "o"), "--set", "solver.nu=0.1"])
    assert rc == EXIT_ERROR


def test_solve_failed_certificate_exit_code(tmp_path):
    # wall-incompatible data at a coarse dt: the run completes but the
    # energy-inequality certificate fails, so the exit code reports it
    def f(x, y):
        return np.stack([np.cos(np.pi * x) * np.cos(np.pi * y), 0 * x, 0 * x + 1.0])

    src = tmp_path / "u0s.nsf1"
    write_field(Field.from_function((21, 21), (1.0, 1.0), 3, f), src)
    out = tmp_path / "solve"
    rc = main([
        "solve", "--out", str(out),
        "--set", f"io.u0_slice={src}",
        "--set", "basis.n1=8", "--set", "basis.n2=8",
        "--set", "solver.nu=0.2", "--set", "solver.dt=0.004", "--set", "solver.T=0.2",
    ])
    assert rc == EXIT_CHECK_FAILED
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert not manifest["checks"]["inequality_holds"]


def test_solve_of_one_step(tmp_path):
    # solver.T = solver.dt: a 2-row ledger, whose time derivative is the
    # 2-point difference, and one trajectory file of the 2 recorded frames
    src = tmp_path / "u0s.nsf1"
    write_u0_slice(src)
    out = tmp_path / "solve"
    rc = main([
        "solve", "--out", str(out),
        "--set", f"io.u0_slice={src}",
        "--set", "basis.n1=6", "--set", "basis.n2=6",
        "--set", "solver.nu=0.1", "--set", "solver.dt=0.01", "--set", "solver.T=0.01",
    ])
    assert rc in (EXIT_OK, EXIT_CHECK_FAILED)
    ledger = json.loads((out / "energy_ledger.json").read_text())
    assert ledger["times"] == [0.0, 0.01] and len(ledger["residual"]) == 2
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["frames"] == ["u_0000-0001.nsf1"]
    assert manifest["frame_times"] == [0.0, 0.01]
    frames = read_field(out / "u_0000-0001.nsf1")
    assert frames.dims == (21, 21, 2) and frames.ncomp == 3


def test_solve_divergence_check_fails_on_leaky_projection(tmp_path, monkeypatch):
    # must-FAIL oracle: a projection that leaves 1e-8 of C^T lambda in every
    # stage lets the weak divergence grow past the 1e-9 check; the honest
    # solve of the same data on the same oblique chart keeps it
    src = tmp_path / "u0s.nsf1"
    write_u0_slice(src)
    args = [
        "--set", f"io.u0_slice={src}",
        "--set", "plane.normal=1,0.5,1", "--set", "plane.offset=1.75",
        "--set", "basis.n1=6", "--set", "basis.n2=6",
        "--set", "solver.nu=0.1", "--set", "solver.dt=0.00025", "--set", "solver.T=0.0125",
    ]
    assert main(["solve", "--out", str(tmp_path / "honest"), *args]) == EXIT_OK
    honest = json.loads((tmp_path / "honest" / "run_manifest.json").read_text())
    assert honest["checks"]["divergence_preserved"]
    assert honest["max_divergence_residual"] <= 1e-12

    project = nsslice.galerkin.OperatorTensors.project

    def leaky(self, coeffs):
        out = project(self, coeffs)
        return out + 1e-8 * (np.asarray(coeffs) - out)

    monkeypatch.setattr(nsslice.galerkin.OperatorTensors, "project", leaky)
    out = tmp_path / "leaky"
    assert main(["solve", "--out", str(out), *args]) == EXIT_CHECK_FAILED
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert not manifest["checks"]["divergence_preserved"]
    assert manifest["max_divergence_residual"] > 1e-9
    assert manifest["checks"]["inequality_holds"]


@pytest.mark.parametrize("command", ["solve", "uniqueness", "mms"])
def test_no_command_builds_a_dense_inspection_operator(tmp_path, monkeypatch, command):
    # the dense C, projector and null basis are for inspection only: every
    # command runs on the factored operators and never reads them
    def refuse(self):
        raise AssertionError("a command built a dense inspection operator")

    for name in ("constraint", "projector", "null_basis"):
        monkeypatch.setattr(nsslice.galerkin.OperatorTensors, name, property(refuse))
    rc = main([command, "--out", str(tmp_path / "out"), *_runnable_args(command, tmp_path)])
    assert rc in (EXIT_OK, EXIT_CHECK_FAILED)


def test_solve_divergence_check_reads_every_state(tmp_path, monkeypatch):
    # must-FAIL oracle: the check covers the whole run, so a divergent
    # component in one middle state fails it while the first and last
    # states are divergence-free
    src = tmp_path / "u0s.nsf1"
    write_u0_slice(src)
    solve = nsslice.galerkin.solve_from_state
    clean = []

    def leaky_middle(coeffs, f_of_t, tensors, *args):
        trace = solve(coeffs, f_of_t, tensors, *args)
        clean.append(nsslice.galerkin.divergence_residual(trace.coeffs[[0, -1]], tensors))
        lam = np.zeros(tensors.nmodes_total)
        lam[1] = 1.0
        kick = tensors.constraint.T @ lam
        kick *= 1e-6 / nsslice.galerkin.divergence_residual(kick, tensors)
        trace.coeffs[len(trace) // 2] += kick
        return trace

    monkeypatch.setattr(nsslice.galerkin, "solve_from_state", leaky_middle)
    out = tmp_path / "o"
    rc = main([
        "solve", "--out", str(out), "--set", f"io.u0_slice={src}",
        "--set", "plane.normal=1,0.5,1", "--set", "plane.offset=1.75",
        "--set", "basis.n1=6", "--set", "basis.n2=6",
        "--set", "solver.nu=0.1", "--set", "solver.dt=0.00025", "--set", "solver.T=0.0025",
    ])
    assert rc == EXIT_CHECK_FAILED
    assert np.max(clean[0]) <= 1e-12
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert not manifest["checks"]["divergence_preserved"]
    assert manifest["max_divergence_residual"] == pytest.approx(1e-6, rel=1e-6)


def test_invalid_numeric_rejected_before_compute(tmp_path):
    src = tmp_path / "u0s.nsf1"
    write_u0_slice(src)
    rc = main([
        "solve", "--out", str(tmp_path / "o"),
        "--set", f"io.u0_slice={src}",
        "--set", "solver.nu=-1", "--set", "solver.dt=1e-3", "--set", "solver.T=0.01",
    ])
    assert rc == EXIT_ERROR


@pytest.mark.parametrize("command", ["solve", "uniqueness"])
def test_removed_quadrature_order_key_rejected(tmp_path, capsys, command):
    # the operators are exact closed forms, so the old quadrature knob is an
    # error that names the key and points to README, raised before anything
    # is computed
    src = tmp_path / "u0s.nsf1"
    write_u0_slice(src)
    out = tmp_path / "o"
    rc = main([
        command, "--out", str(out),
        "--set", f"io.u0_slice={src}",
        "--set", "basis.n1=4", "--set", "basis.n2=4",
        "--set", "solver.nu=0.1", "--set", "solver.dt=1e-3", "--set", "solver.T=0.01",
        "--set", "solver.quadrature_order=40",
    ])
    assert rc == EXIT_ERROR
    err = capsys.readouterr().err
    key = "solver.quadrature_order"
    assert f'config key {key!r} was removed; see "Config keys" in README.md' in err
    assert not out.exists()


@pytest.mark.parametrize("key, value, command", [
    ("chart.tolerance", "1e-8", "project"),
    ("quadform.lambda1", "1e9", "quadform"),
    ("quadform.pivot_tol", "1e-8", "quadform"),
    ("stratify.nslices", "8", "stratify"),
    ("stratify.area_tol", "1", "stratify"),
    ("stratify.interval_tol", "1", "stratify"),
    ("stratify.volume_tol", "1", "stratify"),
    ("uniq.mode", "dt", "uniqueness"),
    ("uniq.amplitude", "2", "uniqueness"),
    ("mms.nu", "0.2", "mms"),
    ("mms.n_temporal", "6", "mms"),
    ("mms.dt_list", "0.004,0.002,0.001", "mms"),
    ("mms.min_ratio", "3", "mms"),
    ("mms.min_order", "3.5", "mms"),
])
def test_removed_threshold_keys_rejected(tmp_path, capsys, key, value, command):
    # these thresholds come from the input or are fixed constants, uniqueness
    # runs one experiment on one seeded state, and mms derives its temporal
    # study from the spatial one; a removed key exits 2 before any output
    # exists and points to README, which gives the reason
    out = tmp_path / "o"
    rc = main([command, "--out", str(out), *_runnable_args(command, tmp_path),
               "--set", f"{key}={value}"])
    assert rc == EXIT_ERROR
    err = capsys.readouterr().err
    assert f'config key {key!r} was removed; see "Config keys" in README.md' in err
    assert not out.exists()


@pytest.mark.parametrize("command, t_key, dt_key, t_end", [
    ("solve", "solver.T", "solver.dt", "0.055"),
    ("uniqueness", "solver.T", "solver.dt", "0.055"),
    # a whole number of mms.dt = 0.002 steps, but not of the temporal study's 2*mms.dt
    ("mms", "mms.T", "mms.dt", "0.006"),
])
def test_step_count_rejected_before_assembly(tmp_path, monkeypatch, capsys, command, t_key,
                                             dt_key, t_end):
    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled before checking the step count")

    monkeypatch.setattr(nsslice.galerkin, "assemble", no_assembly)
    out = tmp_path / "o"
    rc = main([command, "--out", str(out), *_runnable_args(command, tmp_path),
               "--set", f"{t_key}={t_end}"])
    assert rc == EXIT_ERROR
    err = capsys.readouterr().err
    assert f"config keys {t_key!r} and {dt_key!r}" in err and "integer multiple" in err
    assert not out.exists()


def _runnable_args(command, tmp_path):
    """Arguments with which command runs to completion on small inputs."""
    small = ["--set", "basis.n1=3", "--set", "basis.n2=3", "--set", "solver.nu=0.1",
             "--set", "solver.dt=0.01", "--set", "solver.T=0.03"]
    if command == "project":
        write_u0_3d(tmp_path / "u0.nsf1", dims=(9, 9, 9))
        return ["--set", f"io.u0={tmp_path / 'u0.nsf1'}", "--set", "slice.dims=9,9"]
    if command in ("solve", "uniqueness"):
        write_u0_slice(tmp_path / "u0s.nsf1", dims=(9, 9))
        return ["--set", f"io.u0_slice={tmp_path / 'u0s.nsf1'}", *small]
    if command == "mms":
        return list(MMS_SMALL)
    write_u0_3d(tmp_path / "v.nsf1", dims=(9, 9, 9))
    if command == "quadform":
        return ["--set", f"io.v={tmp_path / 'v.nsf1'}", "--set", "quadform.nu=0.5"]
    return ["--set", f"io.w={tmp_path / 'v.nsf1'}", "--set", "stratify.eps=0.1"]


@pytest.mark.parametrize("typo, hint", [("solver.bogus", "solver.nu"), ("basis.N1", "basis.n1")])
@pytest.mark.parametrize("command", ["project", "solve", "uniqueness", "quadform", "stratify", "mms"])
def test_unknown_key_rejected_with_hint(tmp_path, capsys, command, typo, hint):
    # a key that no command reads is a typo, never a silent default: the run
    # stops before any output is written and names the nearest known key
    out = tmp_path / "o"
    rc = main([command, "--out", str(out), *_runnable_args(command, tmp_path),
               "--set", f"{typo}=4"])
    assert rc == EXIT_ERROR
    err = capsys.readouterr().err
    assert repr(typo) in err and f"did you mean {hint!r}?" in err
    assert not out.exists()


@pytest.mark.parametrize("override", ["uniq.delta=-1e-8", "uniq.delta=nan", "--seed=-1"])
def test_uniqueness_values_checked_before_assembly(tmp_path, monkeypatch, capsys, override):
    # RunConfig rejects these before the command body runs, so it never assembles
    def no_command(cfg):
        raise AssertionError("entered the command before checking the config values")

    monkeypatch.setitem(nsslice.cli._COMMANDS, "uniqueness", no_command)
    out = tmp_path / "uniq"
    rc = main(["uniqueness", "--out", str(out), *_runnable_args("uniqueness", tmp_path),
               *([override] if override.startswith("--") else ["--set", override])])
    assert rc == EXIT_ERROR
    assert override.split("=")[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dims, ncomp", [((9, 9), 1), ((9, 9, 9), 3)])
@pytest.mark.parametrize("command", ["solve", "uniqueness"])
def test_u0_slice_shape_checked_before_assembly(tmp_path, monkeypatch, capsys, command,
                                                dims, ncomp):
    # both commands read io.u0_slice through one check: a field that is not 2D
    # with 3 components exits 2 before assembly and before any output exists
    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled before checking io.u0_slice")

    monkeypatch.setattr(nsslice.galerkin, "assemble", no_assembly)
    src = tmp_path / "bad.nsf1"
    write_field(Field(dims=dims, extents=(1.0,) * len(dims), ncomp=ncomp,
                      data=np.zeros((ncomp, *dims))), src)
    out = tmp_path / "o"
    rc = main([command, "--out", str(out), *_runnable_args(command, tmp_path),
               "--set", f"io.u0_slice={src}"])
    assert rc == EXIT_ERROR
    err = capsys.readouterr().err
    assert f"error: io.u0_slice={src}: must hold 2D 3-component fields, got " in err
    assert not out.exists()


def test_one_config_file_serves_project_and_solve(tmp_path, capsys):
    # the key table is global: project ignores the solver keys and solve the
    # projection keys, while a typo in the shared file stops both
    write_u0_3d(tmp_path / "u0.nsf1", dims=(9, 9, 9))
    text = (
        f"io.u0 = {tmp_path / 'u0.nsf1'}\n"
        "slice.dims = 9,9\n"
        "plane.normal = 0,0,1\n"
        "plane.offset = 0.5\n"
        f"io.u0_slice = {tmp_path / 'proj' / 'u0_slice.nsf1'}\n"
        "basis.n1 = 3\nbasis.n2 = 3\n"
        "solver.nu = 0.1\nsolver.dt = 0.01\nsolver.T = 0.03\n"
    )
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(text)
    assert main(["project", "--config", str(cfgfile), "--out", str(tmp_path / "proj")]) == EXIT_OK
    rc = main(["solve", "--config", str(cfgfile), "--out", str(tmp_path / "solve")])
    assert rc in (EXIT_OK, EXIT_CHECK_FAILED)
    assert json.loads((tmp_path / "solve" / "run_manifest.json").read_text())["nu"] == 0.1
    cfgfile.write_text(text + "solver.Nu = 0.2\n")
    for command in ("project", "solve"):
        out = tmp_path / f"typo-{command}"
        assert main([command, "--config", str(cfgfile), "--out", str(out)]) == EXIT_ERROR
        assert "did you mean 'solver.nu'?" in capsys.readouterr().err
        assert not out.exists()


def test_config_values_parse_to_typed_values(tmp_path):
    cfg = nsslice.cli.RunConfig({
        "plane.normal": "1,0.5,1", "slice.dims": "49,49", "basis.n1": "24",
        "solver.dt": "2.5e-4", "quadform.emit_fields": "true",
        "stratify.directions": "1,1,1;1,-1,0", "mms.n_list": "4,8",
    }, str(tmp_path), seed=0)
    assert cfg["plane.normal"] == [1.0, 0.5, 1.0]
    assert cfg["slice.dims"] == [49, 49] and all(type(v) is int for v in cfg["slice.dims"])
    assert cfg["basis.n1"] == 24 and cfg["solver.dt"] == 2.5e-4
    assert cfg["quadform.emit_fields"] is True
    assert cfg["stratify.directions"] == [(1.0, 1.0, 1.0), (1.0, -1.0, 0.0)]
    assert cfg["mms.n_list"] == [4, 8]
    # defaults are parsed like set values
    assert cfg["basis.extents"] == [1.0, 1.0] and cfg["mms.dt"] == 1e-3
    assert cfg["stratify.eps"] == 0.0 and cfg.values["io.forcing"] is None
    assert nsslice.cli.RunConfig({}, str(tmp_path), seed=0)["stratify.directions"] == []
    # an unset key reads None from values, and cfg[key] refuses it
    assert cfg.values["io.u0_slice"] is None
    with pytest.raises(nsslice.cli.ConfigError, match="missing required config key 'io.u0_slice'"):
        cfg["io.u0_slice"]


@pytest.mark.parametrize(
    "override",
    ["basis.n1=0", "basis.n2=2.5", "plane.normal=1,0", "slice.dims=9.5,9", "solver.nu=nan",
     "uniq.delta=-1e-8", "stratify.eps=-0.1", "solver.record_every=0",
     "stratify.directions=1,1", "stratify.directions=1,1,1;0,0,0",
     "quadform.emit_fields=maybe", "mms.n_list=16,8", "mms.n_list=0,8", "mms.n_list=-2,8",
     # non-finite reals, which would overflow the step count or the chart downstream
     "solver.T=inf", "mms.T=inf", "plane.offset=inf", "basis.extents=inf,1",
     "stratify.directions=1,1,nan", "basis.extents=0,1", "basis.extents=-1,1",
     "slice.dims=1,9"],
)
def test_bad_values_rejected_on_construction(tmp_path, override):
    # each value breaks its key's declared type or bound; no command need read it
    key, raw = override.split("=")
    with pytest.raises(nsslice.cli.ConfigError) as excinfo:
        nsslice.cli.RunConfig({key: raw}, str(tmp_path), seed=0)
    assert repr(key) in str(excinfo.value)


def test_readme_config_table_lists_every_key():
    # the table is the one place that states each default and why each
    # removed key is gone; the removed-key error points to it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config keys", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    documented = [row.split("`")[1] for row in rows]
    assert len(documented) == len(set(documented))
    assert set(documented) == set(nsslice.cli.KEYS)
    for key, row in zip(documented, rows):
        default = nsslice.cli.KEYS[key][1]
        shown = row.strip(" |").rsplit("|", 1)[1].strip()
        # a literal default as written; an unset one (None) or an empty one in words
        assert shown == f"`{default}`" if default else not shown.startswith("`"), key
    assert all(f"`{key}`" in section for key in nsslice.cli.REMOVED_KEYS)


@pytest.mark.parametrize("fault", ["times", "frames", "boolean-time"])
@pytest.mark.parametrize("command", ["quadform", "solve"])
def test_malformed_series_manifest_rejected(tmp_path, capsys, command, fault):
    # a manifest without one of its keys, or with a JSON true (a Python int)
    # for a time, is bad input (exit 2), not a failed check
    spec = {"times": [0.0], "frames": ["f.nsf1"]}
    if fault == "boolean-time":
        key = "times"
        spec[key] = [0.0, True]
    else:
        key = fault
        del spec[key]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    if command == "quadform":
        args = ["--set", f"io.v={bad}", "--set", "quadform.nu=0.1"]
    else:
        src = tmp_path / "u0s.nsf1"
        write_u0_slice(src)
        args = [
            "--set", f"io.u0_slice={src}", "--set", f"io.forcing_slice={bad}",
            "--set", "basis.n1=4", "--set", "basis.n2=4",
            "--set", "solver.nu=0.1", "--set", "solver.dt=1e-3", "--set", "solver.T=0.01",
        ]
    rc = main([command, "--out", str(tmp_path / "o")] + args)
    assert rc == EXIT_ERROR
    err = capsys.readouterr().err
    assert str(bad) in err and repr(key) in err


def test_uniqueness_synthetic_delta_zero(tmp_path):
    out = tmp_path / "uniq"
    rc = main([
        "uniqueness", "--out", str(out), "--seed", "3",
        "--set", "basis.n1=5", "--set", "basis.n2=5",
        "--set", "solver.nu=0.1", "--set", "solver.dt=0.001", "--set", "solver.T=0.05",
        "--set", "uniq.delta=0",
    ])
    assert rc == EXIT_OK
    rep = json.loads((out / "contraction_report.json").read_text())
    assert rep["passed"]
    assert rep["max_w_norm"] <= 1e-12 * rep["scale"]


def test_uniqueness_perturbed_envelope(tmp_path):
    out = tmp_path / "uniq"
    rc = main([
        "uniqueness", "--out", str(out), "--seed", "3",
        "--set", "basis.n1=5", "--set", "basis.n2=5",
        "--set", "solver.nu=0.1", "--set", "solver.dt=0.001", "--set", "solver.T=0.05",
        "--set", "uniq.delta=1e-8",
    ])
    assert rc == EXIT_OK
    rep = json.loads((out / "contraction_report.json").read_text())
    assert rep["passed"]
    assert max(rep["w_norm"]) <= max(rep["bound"]) * (1 + 1e-6) + 1e-30


def _synthetic_u0(monkeypatch, tmp_path, seed, nmodes, normal):
    """The state and operators `uniqueness --seed seed` runs when io.u0_slice is unset."""
    caught = []

    def catch(tensors, u0_coeffs, *args, **kwargs):
        caught.append((u0_coeffs, tensors))
        return SimpleNamespace(passed=True, fitted_c=0.0)

    monkeypatch.setattr(nsslice.analysis, "uniqueness_experiment", catch)
    rc = main(["uniqueness", "--out", str(tmp_path / f"uniq-{seed}"), "--seed", str(seed),
               "--set", f"basis.n1={nmodes[0]}", "--set", f"basis.n2={nmodes[1]}",
               "--set", f"plane.normal={normal}", "--set", "solver.nu=0.1",
               "--set", "solver.dt=0.01", "--set", "solver.T=0.03"])
    assert rc == EXIT_OK
    return caught[0]


def test_seeded_draws_follow_spectral_mode_order(tmp_path, monkeypatch):
    # draw i of the synthetic u0 (with its decay) and of the uniqueness
    # perturbation lands on the mode of rank i in (lambda, m, n) order, as
    # it did when modes were stored in that order; the square box has ties
    from nsslice.analysis import perturbation_coeffs

    u0, tensors = _synthetic_u0(monkeypatch, tmp_path, 5, (4, 3), "0.6,0,0.8")
    basis = tensors.basis
    m = basis.nmodes_total
    by_rank = sorted(range(m), key=lambda p: (basis.eigenvalues[p], *basis.modes[p]))

    def on_modes(drawn):
        out = np.empty((3, m))
        out[:, by_rank] = drawn.reshape(3, m)
        return out.ravel()

    decay = np.exp(-0.5 * np.tile(np.arange(m), 3) / 4.0)
    drawn = np.random.default_rng([5, 1]).standard_normal(3 * m)
    want = tensors.project(on_modes(drawn * decay))
    assert np.array_equal(u0, want)
    p = tensors.project(on_modes(np.random.default_rng(7).standard_normal(3 * m)))
    assert np.array_equal(perturbation_coeffs(tensors, 7), p / tensors.norm_h(p))


def test_synthetic_state_independent_of_perturbation(tmp_path, monkeypatch):
    # the uniqueness perturbation must not lean on the state it perturbs: the
    # synthetic u0 comes from another stream of the same seed
    from nsslice.analysis import perturbation_coeffs

    for seed in range(20):
        u0, tensors = _synthetic_u0(monkeypatch, tmp_path, seed, (8, 8), "0,0,1")
        p = perturbation_coeffs(tensors, seed)
        assert abs(u0 @ p) < 0.3 * np.linalg.norm(u0) * np.linalg.norm(p), seed


def test_quadform_reports(tmp_path):
    src = tmp_path / "v.nsf1"
    write_u0_3d(src)
    out = tmp_path / "qf"
    rc = main([
        "quadform", "--out", str(out),
        "--set", f"io.v={src}",
        "--set", "quadform.nu=0.5",
        "--set", "quadform.c_gn=1.0",
        "--set", "quadform.emit_fields=true",
    ])
    assert rc == EXIT_OK
    rep = json.loads((out / "quadform_report.json").read_text())
    assert rep["lambda1"] == pytest.approx(3 * np.pi**2)
    assert "rows" in rep and len(rep["rows"]) == 1
    assert 0.0 <= rep["degenerate_fractions"][0] <= 1.0
    csv_lines = (out / "quadform_criterion.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "time,lhs,rhs_1,rhs_2,rhs_3,satisfied"
    assert len(csv_lines) == 2
    assert (out / "canonical_b_0000.nsf1").exists()


def test_stratify_report(tmp_path):
    src = tmp_path / "w.nsf1"
    write_u0_3d(src, dims=(12, 12, 12))
    # directions are compared once normalized: 2,0,0 is the x axis, and a
    # repeated direction is tested once
    for k, directions in enumerate(["1,1,1", "2,0,0;1,1,1;1,1,1"]):
        out = tmp_path / f"st{k}"
        rc = main([
            "stratify", "--out", str(out),
            "--set", f"io.w={src}",
            "--set", "stratify.eps=0.1",
            "--set", f"stratify.directions={directions}",
        ])
        assert rc == EXIT_OK
        rep = json.loads((out / "stratify_report.json").read_text())
        assert rep["positive"] is True
        dirs = np.array([p["direction"] for p in rep["profiles"]])
        assert dirs.shape == (4, 3)  # three axes + one extra
        assert np.allclose(dirs, [*np.eye(3), [3.0 ** -0.5] * 3], rtol=0.0, atol=1e-15)
        csv_lines = (out / "stratify_profiles.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "dir_x,dir_y,dir_z,offset,measure"


def test_quadform_emitted_fields_are_the_canonical_coefficients(tmp_path):
    # each canonical_b_<k>.nsf1 holds frame k's (b1, b2, b3), NaN written as 0;
    # io.w adds the signed integral, and each inertia histogram counts every point
    first = write_u0_3d(tmp_path / "v0.nsf1", dims=(9, 10, 11))
    rng = np.random.default_rng(17)
    second = Field(dims=first.dims, extents=first.extents, ncomp=3,
                   data=rng.standard_normal(first.data.shape))
    write_field(second, tmp_path / "v1.nsf1")
    manifest = tmp_path / "v.json"
    manifest.write_text(json.dumps({"times": [0.0, 0.5], "frames": ["v0.nsf1", "v1.nsf1"]}))
    out = tmp_path / "qf"
    rc = main(["quadform", "--out", str(out), "--set", f"io.v={manifest}",
               "--set", f"io.w={tmp_path / 'v0.nsf1'}",
               "--set", "quadform.nu=0.5", "--set", "quadform.emit_fields=1"])
    assert rc == EXIT_OK
    rep = json.loads((out / "quadform_report.json").read_text())
    assert [sum(h.values()) for h in rep["inertia_histograms"]] == [9 * 10 * 11] * 2
    assert np.isfinite(rep["signed_integral"])
    for k, frame in enumerate((first, second)):
        dec = canonicalize(strain_field(frame))
        want = np.nan_to_num(dec.b.T.reshape((3, *frame.dims)))
        got = read_field(out / f"canonical_b_{k:04d}.nsf1")
        assert got.dims == frame.dims and got.ncomp == 3
        assert np.array_equal(got.data, want)
    assert not (out / "canonical_b_0002.nsf1").exists()


def test_findings_about_the_input_exit_zero(tmp_path):
    # a violated criterion and a NEGATIVE stratification are reported in JSON;
    # the run itself succeeded, so both commands exit 0
    src = tmp_path / "v.nsf1"
    fld = write_u0_3d(src, dims=(9, 9, 9))
    rc = main(["quadform", "--out", str(tmp_path / "qf"), "--set", f"io.v={src}",
               "--set", "quadform.nu=1e-12"])
    assert rc == EXIT_OK
    rep = json.loads((tmp_path / "qf" / "quadform_report.json").read_text())
    assert rep["satisfied"] is False
    eps = 2.0 * float(np.max(np.sqrt(np.sum(fld.data**2, axis=0))))
    rc = main(["stratify", "--out", str(tmp_path / "st"), "--set", f"io.w={src}",
               "--set", f"stratify.eps={eps!r}"])
    assert rc == EXIT_OK
    rep = json.loads((tmp_path / "st" / "stratify_report.json").read_text())
    assert rep["positive"] is False and rep["total_volume"] == 0.0


# the temporal study runs at n = 8 on the steps 0.004, 0.002 and 0.001
MMS_SMALL = [
    "--set", "mms.n_list=4,8",
    "--set", "mms.dt=0.002",
    "--set", "mms.T=0.1",
]


def test_mms_subcommand_small(tmp_path):
    out = tmp_path / "mms"
    rc = main(["mms", "--out", str(out), *MMS_SMALL])
    assert rc == EXIT_OK
    rep = json.loads((out / "mms_report.json").read_text())
    assert rep["checks"]["spatial_ratio_ok"] and rep["checks"]["temporal_order_ok"]
    assert rep["temporal"]["dts"] == [0.004, 0.002, 0.001] and rep["nu"] == 0.1
    assert (out / "mms_spatial.csv").exists()
    assert (out / "mms_temporal.csv").exists()


# without c the n=4 -> 8 error ratio reads about 3.7, below the fixed gate of 10
@pytest.mark.parametrize("dropped", [1, 2], ids=["diffusion-b", "advection-c"])
def test_mms_gates_fail_on_corrupted_forcing(tmp_path, monkeypatch, dropped):
    # must-FAIL oracle: a forcing that omits one of its fixed fields no longer
    # manufactures the exact solution, so the spatial gate must trip
    fields = nsslice.mms.ManufacturedSolution._forcing_fields

    def corrupted(self, xg, yg):
        split = list(fields(self, xg, yg))
        split[dropped] = np.zeros_like(split[dropped])
        return tuple(split)

    monkeypatch.setattr(nsslice.mms.ManufacturedSolution, "_forcing_fields", corrupted)
    out = tmp_path / "mms"
    assert main(["mms", "--out", str(out), *MMS_SMALL]) == EXIT_CHECK_FAILED
    checks = json.loads((out / "mms_report.json").read_text())["checks"]
    assert not checks["spatial_ratio_ok"]


def _midpoint_rk2(rhs, coeffs, t, dt):
    k1 = rhs(coeffs, t)
    return coeffs + dt * rhs(coeffs + 0.5 * dt * k1, t + 0.5 * dt)


def _kutta_rk3(rhs, coeffs, t, dt):
    k1 = rhs(coeffs, t)
    k2 = rhs(coeffs + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = rhs(coeffs - dt * k1 + 2.0 * dt * k2, t + dt)
    return coeffs + dt / 6.0 * (k1 + 4.0 * k2 + k3)


@pytest.mark.parametrize("scheme, max_order", [(_midpoint_rk2, 2.5), (_kutta_rk3, 3.5)],
                         ids=["midpoint-rk2", "kutta-rk3"])
def test_mms_temporal_gate_fails_on_second_order_integrator(tmp_path, monkeypatch, scheme,
                                                            max_order):
    # must-FAIL oracle: a lower-order scheme in place of RK4 is accurate enough
    # for the spatial gate on the small shape, but its observed order, about 2
    # for midpoint RK2 and about 3.1 for Kutta's RK3, misses the gate of 3.8
    rhs = nsslice.galerkin._rhs

    def lower_order(coeffs, t, tensors, f_of_t, nu, dt):
        return scheme(lambda c, s: rhs(c, s, tensors, f_of_t, nu), coeffs, t, dt)

    monkeypatch.setattr(nsslice.galerkin, "step", lower_order)
    out = tmp_path / "mms"
    assert main(["mms", "--out", str(out), *MMS_SMALL]) == EXIT_CHECK_FAILED
    rep = json.loads((out / "mms_report.json").read_text())
    assert rep["checks"] == {"spatial_ratio_ok": True, "temporal_order_ok": False}
    assert rep["temporal_order"] < max_order


@pytest.mark.parametrize(
    "override",
    [
        "mms.n_list=8",
        "mms.n_list=16,8",
        "mms.n_list=8,8",
    ],
)
def test_mms_degenerate_lists_rejected_before_solving(tmp_path, monkeypatch, capsys, override):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before validating the study lists")

    monkeypatch.setattr(nsslice.mms.ManufacturedSolution, "final", no_solve)
    out = tmp_path / "mms"
    assert main(["mms", "--out", str(out), *MMS_SMALL, "--set", override]) == EXIT_ERROR
    assert override.split("=")[0] in capsys.readouterr().err
    assert not out.exists()


def test_mms_unstable_temporal_step_rejected_before_solving(tmp_path, monkeypatch, capsys):
    # the temporal study's 2 dt = 2e-3 at n = 24 is above the pre-flight limit
    # 1.51e-3; without the check the spatial study runs to the end and the
    # 2 dt run then blows up at t = 0.034
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking the step")

    monkeypatch.setattr(nsslice.mms.ManufacturedSolution, "final", no_solve)
    out = tmp_path / "mms"
    rc = main(["mms", "--out", str(out), "--set", "plane.normal=1,0.5,1",
               "--set", "plane.offset=1.75", "--set", "mms.n_list=8,16,24", "--set", "mms.T=0.1"])
    assert rc == EXIT_ERROR
    err = capsys.readouterr().err
    assert "'mms.dt'" in err and "2*mms.dt = 0.002" in err and "0.001507" in err
    assert "reduce dt" in err
    assert not out.exists()


def test_mms_assembles_each_basis_once(tmp_path, monkeypatch):
    # default study shape: the spatial study's n=16 basis is the temporal one,
    # and its (n=16, dt=1e-3) final is the temporal study's middle step
    calls, solves = [], []
    assemble = nsslice.galerkin.assemble
    solve = nsslice.mms.solve_from_state

    def counted(basis, chart):
        calls.append(basis.nmodes)
        return assemble(basis, chart)

    def counted_solve(start, f_of_t, tensors, nu, dt, t_end):
        solves.append((tensors.basis.nmodes[0], dt))
        return solve(start, f_of_t, tensors, nu, dt, t_end)

    monkeypatch.setattr(nsslice.galerkin, "assemble", counted)
    monkeypatch.setattr(nsslice.mms, "solve_from_state", counted_solve)
    rc = main(["mms", "--out", str(tmp_path / "mms"), "--set", "mms.T=0.01"])
    assert rc in (EXIT_OK, EXIT_CHECK_FAILED)
    assert calls == [(8, 8), (16, 16)]
    assert solves == [(8, 1e-3), (16, 1e-3), (16, 2e-3), (16, 5e-4)]


def test_mms_runs_without_sympy(tmp_path):
    # the manufactured forcing is built with Taylor jets; sympy is a test oracle only
    args = ["mms", "--out", str(tmp_path / "mms"), *MMS_SMALL]
    code = (
        "import json, sys\n"
        "sys.modules['sympy'] = None\n"
        "from nsslice.cli import main\n"
        f"rc = main({args!r})\n"
        "loaded = sorted(k for k, m in sys.modules.items() if k.startswith('sympy') and m is not None)\n"
        "print(json.dumps({'code': rc, 'loaded': loaded}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result == {"code": EXIT_OK, "loaded": []}
    assert (tmp_path / "mms" / "mms_report.json").exists()


def test_pipeline_project_then_solve_with_forcing(tmp_path, monkeypatch):
    # restrict a 3D initial field and a small 3D forcing series, then run the
    # solver on the slice consuming the emitted forcing manifest
    u0_path = tmp_path / "u0.nsf1"
    write_u0_3d(u0_path, dims=(17, 17, 17))

    def ffun(scale):
        def f(x, y, z):
            s = np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z)
            return np.stack([scale * s, 0 * x, 0.5 * scale * s])
        return f

    frames = []
    for k, scale in enumerate((0.2, 0.4, 0.3)):
        rel = f"f3d_{k}.nsf1"
        write_field(Field.from_function((17, 17, 17), (1.0, 1.0, 1.0), 3, ffun(scale)),
                    tmp_path / rel)
        frames.append(rel)
    (tmp_path / "forcing.json").write_text(
        json.dumps({"times": [0.0, 0.025, 0.05], "frames": frames})
    )
    proj = tmp_path / "proj"
    rc = main([
        "project", "--out", str(proj),
        "--set", f"io.u0={u0_path}",
        "--set", f"io.forcing={tmp_path / 'forcing.json'}",
        "--set", "plane.normal=0,0,1", "--set", "plane.offset=0.5",
        "--set", "slice.dims=17,17",
    ])
    assert rc == EXIT_OK
    manifest = json.loads((proj / "chart_manifest.json").read_text())
    assert manifest["files"]["forcing"] == "forcing_slice.json"
    projected = []
    project = nsslice.galerkin.project_field_to_basis

    def counting_project(*args, **kwargs):
        projected.append(args[0])
        return project(*args, **kwargs)

    monkeypatch.setattr(nsslice.galerkin, "project_field_to_basis", counting_project)
    out = tmp_path / "run"
    rc = main([
        "solve", "--out", str(out),
        "--set", f"io.u0_slice={proj / 'u0_slice.nsf1'}",
        "--set", f"io.forcing_slice={proj / 'forcing_slice.json'}",
        "--set", "basis.n1=5", "--set", "basis.n2=5",
        "--set", "solver.nu=0.2", "--set", "solver.dt=0.00025", "--set", "solver.T=0.05",
    ])
    assert rc == EXIT_OK
    ledger = json.loads((out / "energy_ledger.json").read_text())
    assert ledger["inequality_holds"]
    assert max(map(abs, ledger["work"])) > 0.0  # the forcing actually acted
    # u0 once and each forcing frame once, however many states the solve,
    # the ledger and the dual-norm diagnostic evaluate the forcing at
    assert len(projected) == len(frames) + 1


def test_oblique_forced_project_then_solve(tmp_path):
    # a 1 x 1 x 2 box holds the whole graph of (1, 0.5, 1) . x = 1.75 over the
    # unit square; a two-frame forcing restricted onto it must drive the solve
    def sines(x, y, z):
        return np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(0.5 * np.pi * z)

    box = ((9, 9, 9), (1.0, 1.0, 2.0), 3)
    write_field(Field.from_function(*box, lambda x, y, z: np.stack(
        [sines(x, y, z), 0.5 * sines(x, y, z), 0.2 * sines(x, y, z)])), tmp_path / "u0.nsf1")
    first = Field.from_function(*box, lambda x, y, z: np.stack(
        [0.3 * sines(x, y, z), 0.0 * x, -0.2 * sines(x, y, z)]))
    write_field(first, tmp_path / "f0.nsf1")
    write_field(Field(*box, data=2.0 * first.data), tmp_path / "f1.nsf1")
    (tmp_path / "f.json").write_text(
        json.dumps({"times": [0.0, 0.01], "frames": ["f0.nsf1", "f1.nsf1"]})
    )
    plane = ["--set", "plane.normal=1,0.5,1", "--set", "plane.offset=1.75"]
    proj = tmp_path / "proj"
    assert main(["project", "--out", str(proj), *plane,
                 "--set", f"io.u0={tmp_path / 'u0.nsf1'}",
                 "--set", f"io.forcing={tmp_path / 'f.json'}",
                 "--set", "slice.dims=9,9"]) == EXIT_OK
    out = tmp_path / "solve"
    rc = main([
        "solve", "--out", str(out), *plane,
        "--set", f"io.u0_slice={proj / 'u0_slice.nsf1'}",
        "--set", f"io.forcing_slice={proj / 'forcing_slice.json'}",
        "--set", "basis.n1=4", "--set", "basis.n2=4",
        "--set", "solver.nu=0.1", "--set", "solver.dt=0.001", "--set", "solver.T=0.01",
    ])
    # a run this coarse may fail a certificate (exit 1), never error
    assert rc in (EXIT_OK, EXIT_CHECK_FAILED)
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["checks"]["divergence_preserved"]
    assert manifest["max_divergence_residual"] <= 1e-9
    assert max(map(abs, json.loads((out / "energy_ledger.json").read_text())["work"])) > 0.0
    files = [read_field(out / rel) for rel in manifest["frames"]]
    assert all(np.isfinite(f.data).all() for f in files)
    assert sum(f.dims[2] for f in files) == len(manifest["frame_times"])


def test_single_file_forcing_is_its_one_frame_series(tmp_path):
    # io.forcing_slice takes an NSF1 file as the series holding it at t = 0,
    # as the other series keys do
    def f(x, y):
        s = np.sin(np.pi * x) * np.sin(np.pi * y)
        return np.stack([0.3 * s, 0 * x, -0.2 * s])

    write_field(Field.from_function((9, 9), (1.0, 1.0), 3, f), tmp_path / "f.nsf1")
    (tmp_path / "f.json").write_text(json.dumps({"times": [0.0], "frames": ["f.nsf1"]}))
    args = _runnable_args("solve", tmp_path)
    outs = []
    for name in ("f.nsf1", "f.json"):
        out = tmp_path / name.replace(".", "_")
        rc = main(["solve", "--out", str(out), *args,
                   "--set", f"io.forcing_slice={tmp_path / name}"])
        assert rc == EXIT_OK
        outs.append(out)
    assert max(map(abs, json.loads((outs[0] / "energy_ledger.json").read_text())["work"])) > 0
    files = sorted(p.name for p in outs[0].iterdir())
    assert files == sorted(p.name for p in outs[1].iterdir())
    for name in files:
        a, b = outs[0] / name, outs[1] / name
        if name.endswith(".json"):
            assert strip_timestamp(a) == strip_timestamp(b)
        else:
            assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command, key, dims", [
    ("project", "io.forcing", (9, 9, 9)),
    ("solve", "io.forcing_slice", (13, 13)),
])
def test_one_component_forcing_rejected_before_any_work(tmp_path, monkeypatch, capsys,
                                                        command, key, dims):
    # a 1-component forcing would be added to all three velocity components:
    # exit 2 naming the key, before assembly and before any output exists
    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled before checking the forcing")

    monkeypatch.setattr(nsslice.galerkin, "assemble", no_assembly)
    f1 = tmp_path / "f1.nsf1"
    write_field(Field(dims=dims, extents=(1.0,) * len(dims), ncomp=1,
                      data=np.ones((1, *dims))), f1)
    out = tmp_path / "o"
    rc = main([command, "--out", str(out), *_runnable_args(command, tmp_path),
               "--set", f"{key}={f1}"])
    assert rc == EXIT_ERROR
    err = capsys.readouterr().err
    assert f"error: {key}={f1}: must hold {len(dims)}D 3-component fields, got " in err
    assert not out.exists()


def test_quadform_w_manifest_is_its_one_frame(tmp_path):
    # io.w takes a one-frame series manifest as the field it holds
    args = _runnable_args("quadform", tmp_path)
    write_u0_3d(tmp_path / "w.nsf1", dims=(9, 9, 9))
    (tmp_path / "w.json").write_text(json.dumps({"times": [0.0], "frames": ["w.nsf1"]}))
    reports = []
    for name in ("w.nsf1", "w.json"):
        out = tmp_path / name.replace(".", "_")
        assert main(["quadform", "--out", str(out), *args,
                     "--set", f"io.w={tmp_path / name}"]) == EXIT_OK
        reports.append(strip_timestamp(out / "quadform_report.json"))
    assert reports[0] == reports[1]
    assert "signed_integral" in json.loads(reports[0])


@pytest.mark.parametrize("w, problem", [
    pytest.param("two_frames", "must be one field, got 2 frames", id="two_frames"),
    pytest.param("other_box", "must lie on the box (1.0, 1.0, 1.0) of io.v, got (3.0, 3.0, 3.0)",
                 id="other_box"),
])
def test_quadform_rejects_w_unlike_v(tmp_path, capsys, w, problem):
    # the signed integral weighs w on io.v's box: a series of several frames,
    # or a field with v's dims on another box, exits 2 before any output
    args = _runnable_args("quadform", tmp_path)
    fld = read_field(tmp_path / "v.nsf1")
    write_field(fld, tmp_path / "w0.nsf1")
    write_field(fld, tmp_path / "w1.nsf1")
    (tmp_path / "two_frames.json").write_text(
        json.dumps({"times": [0.0, 1.0], "frames": ["w0.nsf1", "w1.nsf1"]})
    )
    write_field(Field(dims=fld.dims, extents=(3.0, 3.0, 3.0), ncomp=3, data=fld.data),
                tmp_path / "other_box.nsf1")
    path = tmp_path / ("two_frames.json" if w == "two_frames" else "other_box.nsf1")
    out = tmp_path / "qf"
    rc = main(["quadform", "--out", str(out), *args, "--set", f"io.w={path}"])
    assert rc == EXIT_ERROR
    assert f"error: io.w={path}: {problem}" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_and_overrides(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# comment line\n"
        "basis.n1 = 5\n"
        "basis.n2 = 5\n"
        "solver.nu = 0.1\n"
        "solver.dt = 0.001\n"
        "solver.T = 0.02\n"
        "uniq.delta = 0\n"
    )
    out = tmp_path / "o"
    rc = main([
        "uniqueness", "--config", str(cfgfile), "--out", str(out),
        "--set", "solver.T=0.01",
    ])
    assert rc == EXIT_OK
    rep = json.loads((out / "contraction_report.json").read_text())
    assert rep["times"][-1] == pytest.approx(0.01)


def test_parse_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this is not a key value line\n")
    with pytest.raises(ValueError):
        parse_config(str(bad))
    with pytest.raises(ValueError):
        parse_config(str(tmp_path / "absent.cfg"))
    # a key set twice in one file is refused with both lines, never last-wins
    twice = tmp_path / "twice.cfg"
    twice.write_text("solver.nu=0.1\n# comment\nsolver.dt=0.01\nsolver.nu = 0.2\n")
    with pytest.raises(ValueError, match="config key 'solver.nu' is set on lines 1 and 4"):
        parse_config(str(twice))
    assert main(["uniqueness", "--config", str(twice), "--out", str(tmp_path / "o")]) == EXIT_ERROR
    assert not (tmp_path / "o").exists()
    # --set still overrides a file value: the file's slice.dims would exit 2
    once = tmp_path / "once.cfg"
    once.write_text("slice.dims=1,1\n")
    assert main(["project", "--config", str(once), "--out", str(tmp_path / "p"),
                 *_runnable_args("project", tmp_path)]) == EXIT_OK


def test_last_set_of_a_key_wins(tmp_path, monkeypatch):
    # the last --set of a key wins and any --set overrides --config, as scripts
    # rely on when they append an override; a file still sets each key once
    seen = []
    monkeypatch.setitem(nsslice.cli._COMMANDS, "uniqueness",
                        lambda cfg: seen.append(cfg["solver.nu"]) or {})
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("solver.nu=0.5\n")
    assert main(["uniqueness", "--config", str(cfgfile), "--out", str(tmp_path / "o"),
                 "--set", "solver.nu=0.1", "--set", "solver.nu=0.2"]) == EXIT_OK
    assert seen == [0.2]
    twice = tmp_path / "twice.cfg"
    twice.write_text("solver.nu=0.1\nsolver.nu=0.2\n")
    assert main(["uniqueness", "--config", str(twice), "--out", str(tmp_path / "o"),
                 "--set", "solver.nu=0.3"]) == EXIT_ERROR
    assert seen == [0.2]


def test_reproducibility_byte_identical(tmp_path):
    args = [
        "uniqueness", "--seed", "11",
        "--set", "basis.n1=4", "--set", "basis.n2=4",
        "--set", "solver.nu=0.2", "--set", "solver.dt=0.001", "--set", "solver.T=0.02",
        "--set", "uniq.delta=1e-8",
    ]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == EXIT_OK
    assert main(args + ["--out", str(out_b)]) == EXIT_OK
    assert strip_timestamp(out_a / "contraction_report.json") == strip_timestamp(
        out_b / "contraction_report.json"
    )


def test_solve_and_uniqueness_skip_scipy_integrate(tmp_path):
    # the ledger and the contraction envelope integrate with the package's own
    # Simpson rule and the projector is factored with numpy, so neither
    # command loads any scipy module
    src = tmp_path / "u0s.nsf1"
    write_u0_slice(src, dims=(9, 9))
    common = ["--set", "basis.n1=3", "--set", "basis.n2=3", "--set", "solver.nu=0.1",
              "--set", "solver.dt=0.01", "--set", "solver.T=0.03"]
    runs = [
        ["solve", "--out", str(tmp_path / "solve"), "--set", f"io.u0_slice={src}", *common],
        ["uniqueness", "--out", str(tmp_path / "uniq"), *common],
    ]
    code = (
        "import json, sys\n"
        "from nsslice.cli import main\n"
        f"codes = [main(args) for args in {runs!r}]\n"
        "loaded = sorted(k for k in sys.modules if k.startswith('scipy'))\n"
        "print(json.dumps({'codes': codes, 'loaded': loaded}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert all(rc in (EXIT_OK, EXIT_CHECK_FAILED) for rc in result["codes"])
    assert result["loaded"] == []
    assert (tmp_path / "solve" / "energy_ledger.json").exists()
    assert (tmp_path / "uniq" / "contraction_report.json").exists()


def test_commands_run_with_scipy_blocked(tmp_path):
    # the runtime needs numpy only: with scipy unimportable, every compute
    # subcommand still runs to a verdict
    u0 = tmp_path / "u0s.nsf1"
    write_u0_slice(u0, dims=(9, 9))
    vol = tmp_path / "v.nsf1"
    write_u0_3d(vol, dims=(9, 9, 9))
    small = ["--set", "basis.n1=3", "--set", "basis.n2=3", "--set", "solver.nu=0.1",
             "--set", "solver.dt=0.01", "--set", "solver.T=0.03"]
    runs = [
        ["solve", "--out", str(tmp_path / "solve"), "--set", f"io.u0_slice={u0}", *small],
        ["uniqueness", "--out", str(tmp_path / "uniq"), *small],
        ["mms", "--out", str(tmp_path / "mms"), *MMS_SMALL],
        ["quadform", "--out", str(tmp_path / "qf"), "--set", f"io.v={vol}",
         "--set", "quadform.nu=0.5"],
        ["stratify", "--out", str(tmp_path / "st"), "--set", f"io.w={vol}",
         "--set", "stratify.eps=0.1"],
    ]
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from nsslice.cli import main\n"
        f"codes = [main(args) for args in {runs!r}]\n"
        "print(json.dumps(codes))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=180
    )
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout)
    assert len(codes) == len(runs)
    assert all(rc in (EXIT_OK, EXIT_CHECK_FAILED) for rc in codes), codes


def _encode_an_object(tmp_path, monkeypatch):
    return nsslice.cli._json_value(object())


def _run_with_an_unknown_log_level(tmp_path, monkeypatch):
    monkeypatch.setenv("NSSLICE_LOG", "loud")
    out = tmp_path / "o"
    rc = main(["project", "--out", str(out), *_runnable_args("project", tmp_path)])
    assert (out / "u0_slice.nsf1").exists()
    return rc


def _set_without_a_value(tmp_path, monkeypatch):
    return main(["project", "--out", str(tmp_path / "o"), *_runnable_args("project", tmp_path),
                 "--set", "slice.dims"])


@pytest.mark.parametrize("call, expected, fragment", [
    pytest.param(_encode_an_object, TypeError, "object is not JSON serializable",
                 id="json-value-unencodable"),
    # a warning, not a refusal: the run goes on at the error level
    pytest.param(_run_with_an_unknown_log_level, EXIT_OK,
                 "warning: unknown NSSLICE_LOG level 'loud'; using error", id="unknown-log-level"),
    pytest.param(_set_without_a_value, EXIT_ERROR, "--set expects KEY=VALUE, got 'slice.dims'",
                 id="set-without-equals"),
])
def test_cli_refusals(tmp_path, monkeypatch, capsys, call, expected, fragment):
    # expected is the exception call raises, or the exit code main returns
    # with fragment on stderr
    if isinstance(expected, type):
        with pytest.raises(expected, match=fragment):
            call(tmp_path, monkeypatch)
    else:
        assert call(tmp_path, monkeypatch) == expected
        assert fragment in capsys.readouterr().err
