import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nsslice.cli
import nsslice.galerkin
import nsslice.mms
from nsslice.cli import EXIT_CHECK_FAILED, EXIT_ERROR, EXIT_OK, main, parse_config
from nsslice.fieldio import Field, read_field, restrict_to_slice, write_field
from nsslice.geometry import Hyperplane, make_chart


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
    assert manifest["frames"] == [f"u_{i:04d}.nsf1" for i in range(6)]
    assert manifest["frame_times"] == pytest.approx([0.0, 0.01, 0.02, 0.03, 0.04, 0.05])
    assert manifest["frame_times"] == [ledger["times"][k] for k in range(0, 101, 20)]
    for rel in manifest["frames"]:
        assert read_field(out / rel).dims == (21, 21)


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
    # error that names the key, raised before anything is computed
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
    assert "solver.quadrature_order" in err and "exact" in err
    assert not out.exists()


@pytest.mark.parametrize("missing", ["times", "frames"])
@pytest.mark.parametrize("command", ["quadform", "solve"])
def test_malformed_series_manifest_rejected(tmp_path, capsys, command, missing):
    # a manifest without one of its keys is bad input (exit 2), not a failed check
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({k: v for k, v in (("times", [0.0]), ("frames", ["f.nsf1"]))
                               if k != missing}))
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
    assert str(bad) in err and repr(missing) in err


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


def test_seeded_draws_follow_spectral_mode_order(tmp_path):
    # draw i of the synthetic u0 (with its decay) and of the uniqueness
    # perturbation lands on the mode of rank i in (lambda, m, n) order, as
    # it did when modes were stored in that order; the square box has ties
    from nsslice.analysis import perturbation_coeffs

    chart = make_chart(Hyperplane((0.6, 0.0, 0.8), 0.5))
    tensors = nsslice.galerkin.assemble(nsslice.galerkin.SpectralBasis((4, 3), (1.0, 1.0)), chart)
    basis = tensors.basis
    m = basis.nmodes_total
    by_rank = sorted(range(m), key=lambda p: (basis.eigenvalues[p], *basis.modes[p]))

    def on_modes(drawn):
        out = np.empty((3, m))
        out[:, by_rank] = drawn.reshape(3, m)
        return out.ravel()

    decay = np.exp(-0.5 * np.tile(np.arange(m), 3) / 4.0)
    want = tensors.project(on_modes(np.random.default_rng(5).standard_normal(3 * m) * decay))
    cfg = nsslice.cli.RunConfig({}, str(tmp_path), seed=5)
    assert np.array_equal(nsslice.cli._synthetic_u0(cfg, tensors), want)
    p = tensors.project(on_modes(np.random.default_rng(7).standard_normal(3 * m)))
    assert np.array_equal(perturbation_coeffs(tensors, 7), p / tensors.norm_h(p))


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
    out = tmp_path / "st"
    rc = main([
        "stratify", "--out", str(out),
        "--set", f"io.w={src}",
        "--set", "stratify.eps=0.1",
        "--set", "stratify.directions=1,1,1",
    ])
    assert rc == EXIT_OK
    rep = json.loads((out / "stratify_report.json").read_text())
    assert rep["positive"] is True
    assert len(rep["profiles"]) == 4  # three axes + one extra
    csv_lines = (out / "stratify_profiles.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "dir_x,dir_y,dir_z,offset,measure"


MMS_SMALL = [
    "--set", "mms.n_list=4,8",
    "--set", "mms.dt=0.002",
    "--set", "mms.T=0.1",
    "--set", "mms.n_temporal=6",
    "--set", "mms.dt_list=0.005,0.0025,0.00125",
    "--set", "mms.min_ratio=3",
    "--set", "mms.min_order=3.5",
]


def test_mms_subcommand_small(tmp_path):
    out = tmp_path / "mms"
    rc = main(["mms", "--out", str(out), *MMS_SMALL])
    assert rc == EXIT_OK
    rep = json.loads((out / "mms_report.json").read_text())
    assert rep["checks"]["spatial_ratio_ok"] and rep["checks"]["temporal_order_ok"]
    assert (out / "mms_spatial.csv").exists()
    assert (out / "mms_temporal.csv").exists()


@pytest.mark.parametrize(
    "dropped, gates",
    [
        (1, []),
        # without c the n=4 -> 8 error ratio is still about 3.7, above the small
        # gate of 3, so the advection field needs the shipped spatial gate
        (2, ["--set", "mms.n_list=8,16", "--set", "mms.min_ratio=10"]),
    ],
    ids=["diffusion-b", "advection-c"],
)
def test_mms_gates_fail_on_corrupted_forcing(tmp_path, monkeypatch, dropped, gates):
    # must-FAIL oracle: a forcing that omits one of its fixed fields no longer
    # manufactures the exact solution, so the spatial gate must trip
    fields = nsslice.mms.ManufacturedSolution._forcing_fields

    def corrupted(self, xg, yg):
        split = list(fields(self, xg, yg))
        split[dropped] = np.zeros_like(split[dropped])
        return tuple(split)

    monkeypatch.setattr(nsslice.mms.ManufacturedSolution, "_forcing_fields", corrupted)
    out = tmp_path / "mms"
    assert main(["mms", "--out", str(out), *MMS_SMALL, *gates]) == EXIT_CHECK_FAILED
    checks = json.loads((out / "mms_report.json").read_text())["checks"]
    assert not checks["spatial_ratio_ok"]


@pytest.mark.parametrize(
    "override",
    [
        "mms.n_list=8",
        "mms.dt_list=2e-3,1e-3",
        "mms.dt_list=2e-3,1e-3,4e-4",
    ],
)
def test_mms_degenerate_lists_rejected_before_solving(tmp_path, monkeypatch, capsys, override):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before validating the study lists")

    monkeypatch.setattr(nsslice.mms.ManufacturedSolution, "solve", no_solve)
    out = tmp_path / "mms"
    assert main(["mms", "--out", str(out), *MMS_SMALL, "--set", override]) == EXIT_ERROR
    assert override.split("=")[0] in capsys.readouterr().err
    assert not out.exists()


def test_mms_assembles_each_basis_once(tmp_path, monkeypatch):
    # default study shape: the spatial study's n=16 basis is the temporal one
    calls = []
    assemble = nsslice.galerkin.assemble

    def counted(basis, chart):
        calls.append(basis.nmodes)
        return assemble(basis, chart)

    monkeypatch.setattr(nsslice.galerkin, "assemble", counted)
    rc = main(["mms", "--out", str(tmp_path / "mms"), "--set", "mms.T=0.01"])
    assert rc in (EXIT_OK, EXIT_CHECK_FAILED)
    assert calls == [(8, 8), (16, 16)]


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

    for module in (nsslice.galerkin, nsslice.cli):
        monkeypatch.setattr(module, "project_field_to_basis", counting_project)
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
