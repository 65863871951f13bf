"""Command-line front end: configuration, orchestration, report emission.

Subcommands: project | solve | uniqueness | quadform | stratify | mms.
Configuration is a flat key=value text file with per-module key namespaces
(plane.*, io.*, basis.*, solver.*, uniq.*, quadform.*, stratify.*, mms.*),
overridable per key with --set key=value.  All numeric parameters are
validated before any computation starts.  Reports are JSON (deterministic
byte-for-byte for a fixed config and seed, except the timestamp_utc field),
fields are NSF1, tables are CSV with a header row.  Exit code 0 means every
check the subcommand ran passed; 1 means a check failed; 2 means the run
itself errored.
"""

from __future__ import annotations

import argparse
import csv
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
    BlowUpError,
    GalerkinState,
    SpectralBasis,
    _normalize_forcing,
    assemble,
    coercivity_check,
    divergence_residual,
    project_divfree,
    project_field_to_basis,
    rhs_dual_norm,
    solve_from_state,
)
from .geometry import Box3, GeometryError, Hyperplane, make_chart, slice_domain

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


class RunConfig:
    """Typed, validated access to the flat key=value namespace."""

    def __init__(self, values: dict[str, str], out_dir: str, seed: int):
        self.values = values
        self.out_dir = Path(out_dir)
        self.seed = int(seed)

    def _get(self, key: str, default=None, required: bool = False):
        if key in self.values:
            return self.values[key]
        if required:
            raise ConfigError(f"missing required config key {key!r}")
        return default

    def str_(self, key: str, default=None, required=False):
        return self._get(key, default, required)

    def float_(self, key: str, default=None, required=False, positive=False):
        raw = self._get(key, default, required)
        if raw is None:
            return None
        try:
            val = float(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key {key!r}: not a number: {raw!r}") from exc
        if positive and val <= 0.0:
            raise ConfigError(f"config key {key!r} must be positive, got {val}")
        return val

    def int_(self, key: str, default=None, required=False, positive=False):
        raw = self._get(key, default, required)
        if raw is None:
            return None
        try:
            val = int(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key {key!r}: not an integer: {raw!r}") from exc
        if positive and val <= 0:
            raise ConfigError(f"config key {key!r} must be positive, got {val}")
        return val

    def bool_(self, key: str, default=False):
        raw = self._get(key, None)
        if raw is None:
            return default
        if str(raw).lower() in ("1", "true", "yes", "on"):
            return True
        if str(raw).lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"config key {key!r}: not a boolean: {raw!r}")

    def floats_(self, key: str, default=None, required=False, n=None):
        raw = self._get(key, default, required)
        if raw is None:
            return None
        if isinstance(raw, (tuple, list)):
            vals = [float(v) for v in raw]
        else:
            try:
                vals = [float(v) for v in str(raw).replace(",", " ").split()]
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: not a number list: {raw!r}") from exc
        if n is not None and len(vals) != n:
            raise ConfigError(f"config key {key!r}: expected {n} values, got {len(vals)}")
        return vals

    def ints_(self, key: str, default=None, required=False, n=None):
        vals = self.floats_(key, default, required, n)
        if vals is None:
            return None
        out = [int(v) for v in vals]
        if any(o != v for o, v in zip(out, vals)):
            raise ConfigError(f"config key {key!r}: expected integers")
        return out


def write_json(path: Path, payload: dict) -> None:
    payload = dict(payload)
    payload["timestamp_utc"] = datetime.now(timezone.utc).isoformat()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _plane_from_config(cfg: RunConfig) -> Hyperplane:
    normal = cfg.floats_("plane.normal", default="0,0,1", n=3)
    offset = cfg.float_("plane.offset", default=0.5)
    return Hyperplane.from_vector(normal, offset)


def _chart_from_config(cfg: RunConfig):
    plane = _plane_from_config(cfg)
    tol = cfg.float_("chart.tolerance", default=1e-8, positive=True)
    return make_chart(plane, tol)


def _read_series_manifest(path: Path) -> TimeSeriesField:
    spec = json.loads(path.read_text())
    # "times" holds numbers and "frames" paths relative to the manifest
    for key, kind, what in (("times", (int, float), "numbers"), ("frames", str, "strings")):
        if not isinstance(spec, dict) or key not in spec:
            raise ConfigError(f"series manifest {path}: missing key {key!r}")
        if not isinstance(spec[key], list) or not all(isinstance(v, kind) for v in spec[key]):
            raise ConfigError(f"series manifest {path}: key {key!r} must be a list of {what}")
    times = np.asarray(spec["times"], dtype=float)
    frames = tuple(read_field(path.parent / rel) for rel in spec["frames"])
    return TimeSeriesField(times=times, frames=frames)


def _read_field_or_series(path: Path):
    if path.suffix == ".json":
        return _read_series_manifest(path)
    return read_field(path)


def _basis_from_config(cfg: RunConfig, extents) -> SpectralBasis:
    n1 = cfg.int_("basis.n1", default=8, positive=True)
    n2 = cfg.int_("basis.n2", default=8, positive=True)
    return SpectralBasis(nmodes=(n1, n2), extents=tuple(extents))


def _solver_params(cfg: RunConfig) -> dict:
    if "solver.quadrature_order" in cfg.values:
        raise ConfigError(
            "config key 'solver.quadrature_order' was removed: the Galerkin "
            "operators are assembled exactly in closed form"
        )
    return {
        "nu": cfg.float_("solver.nu", required=True, positive=True),
        "dt": cfg.float_("solver.dt", required=True, positive=True),
        "t_end": cfg.float_("solver.T", required=True, positive=True),
        "record_every": cfg.int_("solver.record_every", default=1, positive=True),
    }


def cmd_project(cfg: RunConfig) -> int:
    u0_path = cfg.str_("io.u0", required=True)
    forcing_path = cfg.str_("io.forcing")
    slice_dims = cfg.ints_("slice.dims", default="33,33", n=2)
    chart = _chart_from_config(cfg)
    u0 = read_field(u0_path)
    if u0.ndim_grid != 3:
        raise ConfigError("io.u0 must be a 3D field")
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    dom = slice_domain(Box3.from_extents(u0.extents), chart)
    if dom.is_empty:
        raise GeometryError("plane does not intersect the field's box")
    u0_slice = restrict_to_slice(u0, chart, slice_dims)
    write_field(u0_slice, out / "u0_slice.nsf1")
    forcing_entry = None
    if forcing_path:
        series = _read_field_or_series(Path(forcing_path))
        if isinstance(series, Field):
            series = TimeSeriesField(times=np.array([0.0]), frames=(series,))
        rels = []
        for i, frame in enumerate(series.frames):
            rel = f"f_slice_{i:04d}.nsf1"
            write_field(restrict_to_slice(frame, chart, slice_dims), out / rel)
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
                "area": dom.area,
                "bounds": [list(b) for b in dom.bounds],
                "vertices": dom.vertices.tolist(),
            },
            "files": {"u0_slice": "u0_slice.nsf1", "forcing": forcing_entry},
        },
    )
    logger.info("projected %s onto plane, section area %.6g", u0_path, dom.area)
    return EXIT_OK


def _forcing_from_config(cfg: RunConfig):
    path = cfg.str_("io.forcing_slice")
    if not path:
        return None
    return _read_series_manifest(Path(path))


def cmd_solve(cfg: RunConfig) -> int:
    u0_path = cfg.str_("io.u0_slice", required=True)
    params = _solver_params(cfg)
    chart = _chart_from_config(cfg)
    u0 = read_field(u0_path)
    if u0.ndim_grid != 2 or u0.ncomp != 3:
        raise ConfigError("io.u0_slice must be a 2D 3-component field")
    basis = _basis_from_config(cfg, u0.extents)
    tensors = assemble(basis, chart)
    forcing = _forcing_from_config(cfg)
    f_of_t = _normalize_forcing(forcing, tensors)
    coeffs0 = project_field_to_basis(u0, basis)
    state0 = project_divfree(GalerkinState(coeffs=coeffs0.ravel(), time=0.0), tensors)
    result = solve_from_state(
        state0, f_of_t, tensors, params["nu"], params["dt"], params["t_end"]
    )
    ledger = analysis.ledger_from_run(result.trace, tensors, f_of_t, params["nu"])
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    # every record_every-th step plus the last, synthesized one at a time
    nsteps = len(result.trace) - 1
    recorded = [*range(0, nsteps, params["record_every"]), nsteps]
    frame_files = []
    for i, k in enumerate(recorded):
        rel = f"u_{i:04d}.nsf1"
        # galerkin.synthesize_field: looked up where perfbench/tracer.py wraps it
        frame = galerkin.synthesize_field(basis, result.trace.coeffs[k], u0.dims)
        write_field(frame, out / rel)
        frame_files.append(rel)
    write_json(out / "energy_ledger.json", ledger.to_dict())
    div_max = float(np.max(divergence_residual(result.trace.coeffs, tensors)))
    dual_max = max(
        rhs_dual_norm(result.trace.coeffs[k], tensors, f_of_t, params["nu"],
                      result.trace.times[k])
        for k in range(len(result.trace))
    )
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
            "nu": params["nu"],
            "dt": params["dt"],
            "T": params["t_end"],
            "lambda1": basis.lambda1,
            "coercivity": coercivity_check(tensors),
            "max_divergence_residual": div_max,
            "max_rhs_dual_norm": dual_max,
            "ledger": "energy_ledger.json",
            "frames": frame_files,
            "frame_times": result.trace.times[recorded].tolist(),
            "checks": checks,
        },
    )
    ok = all(checks.values())
    logger.info("solve finished, checks: %s", checks)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _synthetic_u0(cfg: RunConfig, tensors) -> np.ndarray:
    """Seeded smooth random divergence-free coefficients."""
    rng = np.random.default_rng(cfg.seed)
    m = tensors.nmodes_total
    amp = cfg.float_("uniq.amplitude", default=1.0, positive=True)
    # draw and decay are listed by increasing eigenvalue, then put on the modes
    drawn = rng.standard_normal((3, m)) * np.exp(-0.5 * np.arange(m) / 4.0)
    return amp * tensors.project(drawn[:, tensors.basis.eigen_rank].ravel())


def cmd_uniqueness(cfg: RunConfig) -> int:
    params = _solver_params(cfg)
    chart = _chart_from_config(cfg)
    delta = cfg.float_("uniq.delta", default=1e-8)
    if delta is None or delta < 0.0:
        raise ConfigError("uniq.delta must be nonnegative")
    mode = cfg.str_("uniq.mode", default="initial")
    u0_path = cfg.str_("io.u0_slice")
    if u0_path:
        u0 = read_field(u0_path)
        extents = u0.extents
    else:
        extents = cfg.floats_("basis.extents", default="1,1", n=2)
    basis = _basis_from_config(cfg, extents)
    tensors = assemble(basis, chart)
    if u0_path:
        u0_coeffs = project_field_to_basis(u0, basis).ravel()
    else:
        u0_coeffs = _synthetic_u0(cfg, tensors)
    report = analysis.uniqueness_experiment(
        tensors,
        u0_coeffs,
        params["nu"],
        params["dt"],
        params["t_end"],
        delta,
        seed=cfg.seed,
        mode=mode,
    )
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "contraction_report.json", report.to_dict())
    logger.info(
        "uniqueness experiment: delta=%g fitted C=%g passed=%s",
        delta,
        report.fitted_c,
        report.passed,
    )
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_quadform(cfg: RunConfig) -> int:
    v_path = cfg.str_("io.v", required=True)
    nu = cfg.float_("quadform.nu", required=True, positive=True)
    c_gn = cfg.float_("quadform.c_gn", default=1.0, positive=True)
    pivot_tol = cfg.float_("quadform.pivot_tol", default=None, positive=True)
    emit_fields = cfg.bool_("quadform.emit_fields", default=False)
    series = _read_field_or_series(Path(v_path))
    if isinstance(series, Field):
        series = TimeSeriesField(times=np.array([0.0]), frames=(series,))
    ref = series.frames[0]
    if ref.ndim_grid != 3 or ref.ncomp != 3:
        raise ConfigError("io.v must be 3D with 3 components")
    lambda1 = cfg.float_("quadform.lambda1", default=qf.box_lambda1(ref.extents), positive=True)
    w_path = cfg.str_("io.w")

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
        dec = qf.canonicalize(strain, pivot_tol)
        inertia_hists.append(dec.inertia_histogram())
        degenerate_fracs.append(dec.degenerate_fraction)
        if emit_fields:
            bgrid = np.nan_to_num(dec.b.T.reshape((3,) + frame.dims), nan=0.0)
            write_field(
                Field(dims=frame.dims, extents=frame.extents, ncomp=3, data=bgrid),
                out / f"canonical_b_{i:04d}.nsf1",
            )
        if w_path is not None and i == 0:
            wfield = read_field(w_path)
            signed = qf.signed_integral(strain, wfield)
    report = qf.CriterionReport.from_norms(series.times, norms, nu, lambda1, c_gn)
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
            [r.time, r.lhs, *r.rhs_per_component, int(r.satisfied)]
            for r in report.rows
        ],
    )
    logger.info("criterion satisfied overall: %s", report.satisfied)
    return EXIT_OK


def cmd_stratify(cfg: RunConfig) -> int:
    w_path = cfg.str_("io.w", required=True)
    eps = cfg.float_("stratify.eps", default=0.0)
    if eps is None or eps < 0.0:
        raise ConfigError("stratify.eps must be nonnegative")
    nslices = cfg.int_("stratify.nslices", default=None, positive=True)
    area_tol = cfg.float_("stratify.area_tol", default=None, positive=True)
    interval_tol = cfg.float_("stratify.interval_tol", default=None, positive=True)
    volume_tol = cfg.float_("stratify.volume_tol", default=None, positive=True)
    extra = []
    raw_dirs = cfg.str_("stratify.directions")
    if raw_dirs:
        for chunk in raw_dirs.split(";"):
            vals = [float(v) for v in chunk.replace(",", " ").split()]
            if len(vals) != 3:
                raise ConfigError(f"stratify.directions: bad triple {chunk!r}")
            extra.append(tuple(vals))
    data = _read_field_or_series(Path(w_path))
    mask = st.mask_from_field(data, eps)
    verdict = st.stratification_verdict(
        mask,
        directions=extra,
        nslices=nslices,
        area_tol=area_tol,
        interval_tol=interval_tol,
        volume_tol=volume_tol,
    )
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    payload = verdict.to_dict()
    payload["eps"] = eps
    write_json(out / "stratify_report.json", payload)
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
    chart = _chart_from_config(cfg)
    nu = cfg.float_("mms.nu", default=0.1, positive=True)
    t_end = cfg.float_("mms.T", default=0.5, positive=True)
    dt = cfg.float_("mms.dt", default=1e-3, positive=True)
    n_list = cfg.ints_("mms.n_list", default="8,16")
    n_temporal = cfg.int_("mms.n_temporal", default=16, positive=True)
    dt_list = cfg.floats_("mms.dt_list", default="2e-3,1e-3,5e-4")
    min_ratio = cfg.float_("mms.min_ratio", default=10.0, positive=True)
    min_order = cfg.float_("mms.min_order", default=3.8, positive=True)
    extents = cfg.floats_("basis.extents", default="1,1", n=2)
    if len(n_list) < 2:
        raise ConfigError("mms.n_list needs at least 2 mode counts for a spatial ratio")
    if len(dt_list) < 3:
        raise ConfigError("mms.dt_list needs at least 3 steps for a temporal order")
    try:
        mms_mod.halving_steps(dt_list)
    except ValueError as exc:
        raise ConfigError(f"mms.dt_list: {exc}") from exc
    ms = mms_mod.ManufacturedSolution(extents=tuple(extents), chart=chart, nu=nu)
    rows = mms_mod.spatial_convergence(ms, n_list, dt, t_end)
    temporal = mms_mod.temporal_convergence(ms, n_temporal, dt_list, t_end)
    ratio = rows[0]["error"] / rows[-1]["error"] if rows[-1]["error"] > 0 else float("inf")
    order = min(temporal["orders"]) if temporal["orders"] else float("nan")
    checks = {
        "spatial_ratio_ok": bool(ratio >= min_ratio),
        "temporal_order_ok": bool(order >= min_order),
    }
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    write_json(
        out / "mms_report.json",
        {
            "nu": nu,
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
    except BlowUpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ConfigError, GeometryError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
