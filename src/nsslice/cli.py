"""Command-line front end: configuration, orchestration, report emission.

Subcommands: project | solve | uniqueness | quadform | stratify | mms.
Configuration is a flat key=value text file with per-module key namespaces
(plane.*, io.*, slice.*, basis.*, solver.*, uniq.*, quadform.*, stratify.*,
mms.*), overridable per key with --set key=value.  KEYS declares every key
with its parser and default.  Before a command runs, RunConfig rejects a key
that is not in KEYS (with a nearest-key hint, or the reason a REMOVED_KEYS
key went) and parses every value, set or defaulted, so a mistyped key or a
bad value exits 2 before any computation.  Every io.* input is read and
checked by _read_input before any computation and before any output exists;
an input error exits 2 and names its key and file.
The table is shared by all subcommands, so one file can serve them all.
Reports are JSON (deterministic byte-for-byte for a fixed config and seed,
except the timestamp_utc field), fields are NSF1, tables are CSV with a
header row.  Exit code 0 means every
check the subcommand ran passed; 1 means a check failed; 2 means the run
itself errored.  quadform and stratify exit 0 whenever they complete: the
viscosity criterion and the stratification sign are findings about the
input field, reported as "satisfied" and "positive" in their JSON reports.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import analysis, galerkin, mms as mms_mod, quadform as qf, stratify as st
from .fieldio import Field, TimeSeriesField, read_field, restrict_to_slice, write_field
from .galerkin import (
    SpectralBasis,
    assemble,
    divergence_residual,
    project_divfree,
    project_field_to_basis,
    series_forcing,
    solve_from_state,
)
# unused here: perfbench/tracer.py wraps cli.coercivity_check and cli.rhs_dual_norm by name
from .galerkin import coercivity_check, rhs_dual_norm  # noqa: F401
from .geometry import DEFAULT_CHART_TOL, Hyperplane, make_chart, section_rectangle

logger = logging.getLogger("nsslice")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_ERROR = 2


class ConfigError(ValueError):
    """Missing or invalid configuration value."""


def parse_config(path: str | None) -> dict[str, str]:
    cfg: dict[str, str] = {}
    if path is None:
        return cfg
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {path} not found")
    for lineno, raw in enumerate(p.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def _checked(parse, ok, what: str):
    """parse, then require ok(value); what states the requirement in the error."""
    def parse_checked(raw: str):
        val = parse(raw)
        if not ok(val):
            raise ValueError(f"{what}, got {raw!r}")
        return val
    return parse_checked


def _positive(parse):
    return _checked(parse, lambda v: v > 0, "must be positive")


def _nonnegative(parse):
    return _checked(parse, lambda v: v >= 0, "must be nonnegative")


def _bool(raw: str) -> bool:
    if raw.lower() in ("1", "true", "yes", "on"):
        return True
    if raw.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _real(raw: str) -> float:
    val = float(raw)
    if not np.isfinite(val):
        raise ValueError(f"must be finite, got {raw!r}")
    return val


def _reals(raw: str) -> list:
    return [_real(v) for v in raw.replace(",", " ").split()]


def _ints(raw: str) -> list:
    vals = _reals(raw)
    if not all(v.is_integer() for v in vals):
        raise ValueError(f"expected integers, got {raw!r}")
    return [int(v) for v in vals]


def _triples(raw: str) -> list:
    """';'-separated triples of reals; empty for an empty value."""
    triples = [tuple(_reals(chunk)) for chunk in raw.split(";")] if raw else []
    if any(len(t) != 3 for t in triples):
        raise ValueError(f"expected ';'-separated triples, got {raw!r}")
    return triples


def _count(parse, n: int):
    return _checked(parse, lambda v: len(v) == n, f"expected {n} values")


REQUIRED = object()  # default of a key that must be set wherever a command reads it

# Every config key: its parser and its default, a string parsed like a set
# value (None: unset).  Keys not listed here are rejected before any command runs.
KEYS = {
    "plane.normal": (_count(_reals, 3), "0,0,1"),
    "plane.offset": (_real, "0.5"),
    "io.u0": (str, REQUIRED),
    "io.u0_slice": (str, REQUIRED),
    "io.forcing": (str, None),
    "io.forcing_slice": (str, None),
    "io.v": (str, REQUIRED),
    "io.w": (str, REQUIRED),
    "slice.dims": (_count(_ints, 2), "33,33"),
    "basis.n1": (_positive(int), "8"),
    "basis.n2": (_positive(int), "8"),
    "basis.extents": (_checked(_count(_reals, 2), lambda v: min(v) > 0, "must be positive"),
                      "1,1"),
    "solver.nu": (_positive(_real), REQUIRED),
    "solver.dt": (_positive(_real), REQUIRED),
    "solver.T": (_positive(_real), REQUIRED),
    "solver.record_every": (_positive(int), "1"),
    "uniq.delta": (_nonnegative(_real), "1e-8"),
    "quadform.nu": (_positive(_real), REQUIRED),
    "quadform.c_gn": (_positive(_real), "1.0"),
    "quadform.emit_fields": (_bool, "false"),
    "stratify.eps": (_nonnegative(_real), "0"),
    "stratify.directions": (_checked(_triples, lambda v: all(any(t) for t in v),
                                     "each direction must be nonzero"), ""),
    "mms.T": (_positive(_real), "0.5"),
    "mms.dt": (_positive(_real), "1e-3"),
    # increasing, so the last count is the finest, where the temporal study runs
    "mms.n_list": (_checked(_ints, lambda v: len(v) >= 2 and sorted(set(v)) == v,
                            "needs at least 2 increasing mode counts"), "8,16"),
}

# keys that no longer exist, with the reason given when one is set
REMOVED_KEYS = {
    "solver.quadrature_order": "the Galerkin operators are assembled exactly in closed form",
    "chart.tolerance": f"the chart rejects coefficients in (0, {DEFAULT_CHART_TOL:g})",
    "quadform.lambda1": "lambda1 is the first Dirichlet eigenvalue of the input field's box",
    "quadform.pivot_tol":
        f"the pivot tolerance is {qf.DEFAULT_PIVOT_REL_TOL:g} times the largest strain entry",
    "stratify.nslices": "the slab count is one slab per voxel across the projection span",
    "stratify.area_tol": f"a positive slice carries {st.AREA_TOL_FACES:g} voxel faces or more",
    "stratify.interval_tol": f"a positive interval spans {st.INTERVAL_TOL_SLABS:g} slabs or more",
    "stratify.volume_tol": f"a positive set holds over {st.VOLUME_TOL_VOXELS:g} voxels of volume",
    "uniq.mode": "the dt/2 difference is the time error, which mms measures",
    "uniq.amplitude": "the seeded state has unit amplitude; set io.u0_slice for another field",
    "mms.nu": f"the study runs at the solution's own nu = {mms_mod.ManufacturedSolution.nu:g}",
    "mms.n_temporal": "the temporal study runs at the finest mode count of mms.n_list",
    "mms.dt_list": "the temporal study's steps are 2*mms.dt, mms.dt and mms.dt/2",
    "mms.min_ratio": f"the spatial error ratio gate is fixed at {mms_mod.MIN_SPATIAL_RATIO:g}",
    "mms.min_order": f"the temporal order gate is fixed at {mms_mod.MIN_TEMPORAL_ORDER:g}",
}


def _unknown_key(key: str) -> str:
    if key in REMOVED_KEYS:
        return f"config key {key!r} was removed: {REMOVED_KEYS[key]}"
    import difflib  # only on this error path, so a normal run does not import it

    near = difflib.get_close_matches(key, KEYS, n=1)
    return f"unknown config key {key!r}" + (f"; did you mean {near[0]!r}?" if near else "")


class RunConfig:
    """The flat key=value namespace, checked against KEYS and parsed on construction."""

    def __init__(self, values: dict[str, str], out_dir: str, seed: int):
        unknown = [_unknown_key(key) for key in sorted(values) if key not in KEYS]
        if unknown:
            raise ConfigError("\n".join(unknown))
        self.values = {}
        for key, (parse, default) in KEYS.items():
            raw = values.get(key, default)
            try:
                self.values[key] = raw if raw is None or raw is REQUIRED else parse(raw)
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from exc
        self.out_dir = Path(out_dir)
        self.seed = int(seed)

    def __getitem__(self, key: str):
        if self.values[key] is REQUIRED:
            raise ConfigError(f"missing required config key {key!r}")
        return self.values[key]

    def get(self, key: str):
        """The value of key, or None where a key without a default is unset."""
        return None if self.values[key] is REQUIRED else self.values[key]


def _json_value(obj):
    """json.dumps default: arrays and numpy scalars as lists and numbers, dataclasses as fields."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if dataclasses.is_dataclass(obj):
        return vars(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(path: Path, payload: dict) -> None:
    payload = {**payload, "timestamp_utc": datetime.now(timezone.utc).isoformat()}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, default=_json_value) + "\n")


def write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _chart_from_config(cfg: RunConfig):
    plane = Hyperplane.from_vector(cfg["plane.normal"], cfg["plane.offset"])
    return make_chart(plane)


def _read_series_manifest(path: Path) -> TimeSeriesField:
    spec = json.loads(path.read_text())
    # "times" holds numbers and "frames" paths relative to the manifest
    for key, kind, what in (("times", (int, float), "numbers"), ("frames", str, "strings")):
        if not isinstance(spec, dict) or key not in spec:
            raise ConfigError(f"series manifest misses key {key!r}")
        # bool is an int subclass, but a JSON true is no time
        if not isinstance(spec[key], list) or not all(
                isinstance(v, kind) and not isinstance(v, bool) for v in spec[key]):
            raise ConfigError(f"series manifest key {key!r} must be a list of {what}")
    times = np.asarray(spec["times"], dtype=float)
    frames = tuple(read_field(path.parent / rel) for rel in spec["frames"])
    return TimeSeriesField(times=times, frames=frames)


def _read_series(path: Path) -> TimeSeriesField:
    """A series manifest, or a single NSF1 file as a one-frame series at t = 0."""
    if path.suffix == ".json":
        return _read_series_manifest(path)
    return TimeSeriesField(times=np.array([0.0]), frames=(read_field(path),))


def _read_input(cfg: RunConfig, key: str, ndim: int, *, optional: bool = False,
                one_field: bool = False, ncomp: int | None = 3, on=None,
                same_grid: bool = False) -> TimeSeriesField | None:
    """The series at the io.* key, held to the one input contract.

    The value is a series manifest or an NSF1 file (_read_series).  Its frames
    are ndim-D with ncomp components (None: 1 or 3), a one_field key holds
    exactly one frame, and on = (ref_key, ref_field) puts the frames on the
    box of ref_field, and on its grid too where same_grid.  Returns None where
    an optional key is unset.  Every error is a ConfigError that starts with
    key=path, so it names the key and the file.
    """
    path = cfg.get(key) if optional else cfg[key]
    if optional and not path:
        return None

    def rejected(problem) -> ConfigError:
        return ConfigError(f"{key}={path}: {problem}")

    try:
        series = _read_series(Path(path))
    except (OSError, ValueError) as exc:
        raise rejected(exc) from exc
    # frames share dims, extents and ncomp, so the first one speaks for all
    frame = series.frames[0]
    if frame.ndim_grid != ndim or ncomp not in (None, frame.ncomp):
        want = f"{ndim}D" if ncomp is None else f"{ndim}D {ncomp}-component"
        raise rejected(f"must hold {want} fields, got {frame.ndim_grid}D {frame.ncomp}-component")
    if one_field and len(series) != 1:
        raise rejected(f"must be one field, got {len(series)} frames")
    if on is not None:
        ref_key, ref = on
        if same_grid and frame.dims != ref.dims:
            raise rejected(f"must lie on the grid {ref.dims} of {ref_key}, got {frame.dims}")
        if any(abs(e - r) > galerkin.EXTENTS_REL_TOL * r
               for e, r in zip(frame.extents, ref.extents)):
            raise rejected(f"must lie on the box {ref.extents} of {ref_key}, got {frame.extents}")
    return series


def _check_step_count(cfg: RunConfig, t_key: str, dt_key: str, scale: float = 1.0) -> None:
    """Require cfg[t_key] to be a whole number of steps of scale * cfg[dt_key], before any solve."""
    try:
        galerkin.step_count(scale * cfg[dt_key], cfg[t_key])
    except ValueError as exc:
        step = dt_key if scale == 1.0 else f"{scale:g}*{dt_key}"
        raise ConfigError(f"config keys {t_key!r} and {dt_key!r}: {exc} ({step})") from exc


def _basis_from_config(cfg: RunConfig, extents) -> SpectralBasis:
    return SpectralBasis(nmodes=(cfg["basis.n1"], cfg["basis.n2"]), extents=tuple(extents))


def cmd_project(cfg: RunConfig) -> int:
    slice_dims = cfg["slice.dims"]
    chart = _chart_from_config(cfg)
    # read and restrict every input before the output directory exists, so a
    # run that exits 2 leaves nothing behind
    u0 = _read_input(cfg, "io.u0", 3, one_field=True).frames[0]
    series = _read_input(cfg, "io.forcing", 3, optional=True, on=("io.u0", u0))
    (smin, smax), (tmin, tmax) = section_rectangle(u0.extents, chart)
    area = (smax - smin) * (tmax - tmin)
    u0_slice = restrict_to_slice(u0, chart, slice_dims)
    f_slices = [] if series is None else [
        restrict_to_slice(frame, chart, slice_dims) for frame in series.frames
    ]
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    write_field(u0_slice, out / "u0_slice.nsf1")
    forcing_entry = None
    if series is not None:
        rels = []
        for i, f_slice in enumerate(f_slices):
            rel = f"f_slice_{i:04d}.nsf1"
            write_field(f_slice, out / rel)
            rels.append(rel)
        forcing_entry = "forcing_slice.json"
        (out / forcing_entry).write_text(
            json.dumps({"times": series.times.tolist(), "frames": rels}, sort_keys=True)
        )
    write_json(
        out / "chart_manifest.json",
        {
            "plane": {"normal": list(chart.plane.normal), "offset": chart.plane.offset},
            "chart": {
                "eliminated_axis": chart.eliminated_axis,
                "alpha1": chart.alpha1,
                "alpha2": chart.alpha2,
                "affine_offset": chart.affine_offset,
                "inplane_axes": list(chart.inplane_axes),
            },
            "section": {
                "area": area,
                "bounds": [[smin, smax], [tmin, tmax]],
                "vertices": [[smin, tmin], [smax, tmin], [smax, tmax], [smin, tmax]],
            },
            "files": {"u0_slice": "u0_slice.nsf1", "forcing": forcing_entry},
        },
    )
    logger.info("projected %s onto plane, section area %.6g", cfg["io.u0"], area)
    return EXIT_OK


# Samples per trajectory file, in bytes.  Readers load an NSF1 file whole, so
# a long solve is written as many files of about this size, not one large one.
TRAJECTORY_FILE_BYTES = 1 << 20


def _frame_runs(nframes: int, frame_bytes: int) -> list:
    """Split frame indices 0..nframes-1 into near-equal consecutive runs, one per file.

    Every run holds at least 2 frames, since an NSF1 axis needs 2 samples,
    and at most TRAJECTORY_FILE_BYTES of samples wherever 3 frames fit in it.
    """
    per_file = max(1, TRAJECTORY_FILE_BYTES // frame_bytes)
    nfiles = max(1, min(-(-nframes // per_file), nframes // 2))
    return np.array_split(np.arange(nframes), nfiles)


def cmd_solve(cfg: RunConfig) -> int:
    nu, dt, t_end = cfg["solver.nu"], cfg["solver.dt"], cfg["solver.T"]
    _check_step_count(cfg, "solver.T", "solver.dt")
    chart = _chart_from_config(cfg)
    u0 = _read_input(cfg, "io.u0_slice", 2, one_field=True).frames[0]
    forcing = _read_input(cfg, "io.forcing_slice", 2, optional=True, on=("io.u0_slice", u0))
    basis = _basis_from_config(cfg, u0.extents)
    tensors = assemble(basis, chart)
    f_of_t = None if forcing is None else series_forcing(forcing, basis)
    coeffs0 = project_divfree(project_field_to_basis(u0, basis).ravel(), tensors)
    trace = solve_from_state(coeffs0, f_of_t, tensors, nu, dt, t_end)
    ledger = analysis.ledger_from_run(trace, tensors, f_of_t, nu)
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    # every record_every-th step plus the last, in runs of consecutive frames,
    # one file and one stacked synthesis per run
    nsteps = len(trace) - 1
    recorded = np.array([*range(0, nsteps, cfg["solver.record_every"]), nsteps])
    frame_files = []
    for run in _frame_runs(recorded.size, u0.data.nbytes):
        rel = f"u_{run[0]:04d}-{run[-1]:04d}.nsf1"
        # galerkin.synthesize_field: looked up where perfbench/tracer.py wraps it
        frames = galerkin.synthesize_field(basis, trace.coeffs[recorded[run]], u0.dims)
        write_field(frames, out / rel)
        frame_files.append(rel)
    write_json(out / "energy_ledger.json", ledger.to_dict())
    div_max = float(np.max(divergence_residual(trace.coeffs, tensors)))
    checks = {
        "inequality_holds": ledger.inequality_holds(),
        "divergence_preserved": bool(div_max <= 1e-9),
    }
    if forcing is None:
        checks["energy_nonincreasing"] = ledger.energy_nonincreasing()
    write_json(
        out / "run_manifest.json",
        {
            "basis": {"n1": basis.nmodes[0], "n2": basis.nmodes[1], "extents": list(basis.extents)},
            "chart": {
                "alpha1": chart.alpha1,
                "alpha2": chart.alpha2,
                "eliminated_axis": chart.eliminated_axis,
            },
            "nu": nu,
            "dt": dt,
            "T": t_end,
            "lambda1": basis.lambda1,
            "max_divergence_residual": div_max,
            "ledger": "energy_ledger.json",
            "frames": frame_files,
            "frame_times": trace.times[recorded].tolist(),
            "checks": checks,
        },
    )
    ok = all(checks.values())
    logger.info("solve finished, checks: %s", checks)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _synthetic_u0(cfg: RunConfig, tensors) -> np.ndarray:
    """Seeded smooth random divergence-free coefficients.

    Drawn from the seed's second stream, so the state is independent of the
    uniqueness perturbation, which analysis.perturbation_coeffs draws from
    its first.
    """
    rng = np.random.default_rng([cfg.seed, 1])
    m = tensors.nmodes_total
    # draw and decay are listed by increasing eigenvalue, then put on the modes
    drawn = rng.standard_normal((3, m)) * np.exp(-0.5 * np.arange(m) / 4.0)
    return tensors.project(drawn[:, tensors.basis.eigen_rank].ravel())


def cmd_uniqueness(cfg: RunConfig) -> int:
    nu, dt, t_end = cfg["solver.nu"], cfg["solver.dt"], cfg["solver.T"]
    _check_step_count(cfg, "solver.T", "solver.dt")
    chart = _chart_from_config(cfg)
    delta = cfg["uniq.delta"]
    u0 = _read_input(cfg, "io.u0_slice", 2, optional=True, one_field=True)
    basis = _basis_from_config(cfg, cfg["basis.extents"] if u0 is None else u0.frames[0].extents)
    tensors = assemble(basis, chart)
    if u0 is None:
        u0_coeffs = _synthetic_u0(cfg, tensors)
    else:
        u0_coeffs = project_field_to_basis(u0.frames[0], basis).ravel()
    report = analysis.uniqueness_experiment(tensors, u0_coeffs, nu, dt, t_end, delta, seed=cfg.seed)
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "contraction_report.json", vars(report))
    logger.info(
        "uniqueness experiment: delta=%g fitted C=%g passed=%s",
        delta,
        report.fitted_c,
        report.passed,
    )
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_quadform(cfg: RunConfig) -> int:
    nu = cfg["quadform.nu"]
    emit_fields = cfg["quadform.emit_fields"]
    series = _read_input(cfg, "io.v", 3)
    ref = series.frames[0]
    lambda1 = qf.box_lambda1(ref.extents)
    # io.w is optional here: it adds the signed integral of B(w, w)
    w = _read_input(cfg, "io.w", 3, optional=True, one_field=True, on=("io.v", ref),
                    same_grid=True)
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    norms = []
    inertia_hists = []
    degenerate_fracs = []
    signed = None
    # one gradient pass per frame feeds both the criterion and the canonical form
    for i, frame in enumerate(series.frames):
        strain = qf.strain_field(frame)
        norms.append(strain.gradient_norms())
        dec = qf.canonicalize(strain)
        inertia_hists.append(dec.inertia_histogram())
        degenerate_fracs.append(dec.degenerate_fraction)
        if emit_fields:
            bgrid = np.nan_to_num(dec.b.T.reshape((3,) + frame.dims), nan=0.0)
            write_field(
                Field(dims=frame.dims, extents=frame.extents, ncomp=3, data=bgrid),
                out / f"canonical_b_{i:04d}.nsf1",
            )
        if w is not None and i == 0:
            signed = qf.signed_integral(strain, w.frames[0])
        # release this frame's gradient and coefficients before the next is built
        del strain, dec
    report = qf.CriterionReport.from_norms(series.times, norms, nu, lambda1, cfg["quadform.c_gn"])
    payload = report.to_dict()
    payload["inertia_histograms"] = inertia_hists
    payload["degenerate_fractions"] = degenerate_fracs
    if signed is not None:
        payload["signed_integral"] = signed
    write_json(out / "quadform_report.json", payload)
    write_csv(
        out / "quadform_criterion.csv",
        ["time", "lhs", "rhs_1", "rhs_2", "rhs_3", "satisfied"],
        [
            [r.time, report.lhs, *r.rhs_per_component, int(r.satisfied)]
            for r in report.rows
        ],
    )
    logger.info("criterion satisfied overall: %s", report.satisfied)
    return EXIT_OK


def cmd_stratify(cfg: RunConfig) -> int:
    eps = cfg["stratify.eps"]
    # kept referenced to the end: with the frames freed before the verdict,
    # its temporaries took about 12k more minor page faults on four 64^3 frames
    data = _read_input(cfg, "io.w", 3, ncomp=None)
    mask = st.mask_from_field(data, eps)
    verdict = st.stratification_verdict(mask, directions=cfg["stratify.directions"])
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "stratify_report.json", {**vars(verdict), "eps": eps})
    rows = []
    for p in verdict.profiles:
        for off, meas in zip(p.offsets, p.measures):
            rows.append([*p.direction, off, meas])
    write_csv(
        out / "stratify_profiles.csv",
        ["dir_x", "dir_y", "dir_z", "offset", "measure"],
        rows,
    )
    logger.info("stratification verdict: %s", "POSITIVE" if verdict.positive else "NEGATIVE")
    return EXIT_OK


def cmd_mms(cfg: RunConfig) -> int:
    n_list, dt, t_end = cfg["mms.n_list"], cfg["mms.dt"], cfg["mms.T"]
    # the temporal study's largest step is 2 dt
    _check_step_count(cfg, "mms.T", "mms.dt", scale=2.0)
    chart = _chart_from_config(cfg)
    ms = mms_mod.ManufacturedSolution(extents=tuple(cfg["basis.extents"]), chart=chart)
    rows = mms_mod.spatial_convergence(ms, n_list, dt, t_end)
    # at the finest count, so the spatial study's last final is the middle step here
    temporal = mms_mod.temporal_convergence(ms, n_list[-1], dt, t_end)
    ratio = rows[0]["error"] / rows[-1]["error"] if rows[-1]["error"] > 0 else float("inf")
    order = min(temporal["orders"]) if temporal["orders"] else float("nan")
    checks = {
        "spatial_ratio_ok": bool(ratio >= mms_mod.MIN_SPATIAL_RATIO),
        "temporal_order_ok": bool(order >= mms_mod.MIN_TEMPORAL_ORDER),
    }
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    write_json(
        out / "mms_report.json",
        {
            "nu": ms.nu,
            "T": t_end,
            "chart": {"alpha1": chart.alpha1, "alpha2": chart.alpha2},
            "spatial": rows,
            "spatial_ratio": ratio,
            "temporal": temporal,
            "temporal_order": order,
            "checks": checks,
        },
    )
    write_csv(
        out / "mms_spatial.csv",
        ["n", "dt", "error"],
        [[r["n"], r["dt"], r["error"]] for r in rows],
    )
    write_csv(
        out / "mms_temporal.csv",
        ["dt", "diff_to_half_dt"],
        list(zip(temporal["dts"], temporal["diffs"] + [""])),
    )
    logger.info("mms: spatial ratio %.3g, temporal order %.3g", ratio, order)
    return EXIT_OK if all(checks.values()) else EXIT_CHECK_FAILED


_COMMANDS = {
    "project": cmd_project,
    "solve": cmd_solve,
    "uniqueness": cmd_uniqueness,
    "quadform": cmd_quadform,
    "stratify": cmd_stratify,
    "mms": cmd_mms,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsslice",
        description="slice-projection solver and analyzer toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=0, help="64-bit seed for randomized inputs")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )
    return parser


def _setup_logging() -> None:
    level = os.environ.get("NSSLICE_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in levels:
        print(f"warning: unknown NSSLICE_LOG level {level!r}; using error", file=sys.stderr)
        level = "error"
    logging.basicConfig(level=levels[level], format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    try:
        values = parse_config(args.config)
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            key, val = item.split("=", 1)
            values[key.strip()] = val.strip()
        cfg = RunConfig(values, args.out, args.seed)
        return _COMMANDS[args.command](cfg)
    # ConfigError and GeometryError are ValueErrors, BlowUpError a RuntimeError
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
