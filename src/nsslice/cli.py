"""Command-line front end: configuration, orchestration, report emission.

Subcommands: project | solve | uniqueness | quadform | stratify | mms.
Configuration is a flat key=value text file with per-module key namespaces
(plane.*, io.*, slice.*, basis.*, solver.*, uniq.*, quadform.*, stratify.*,
mms.*), overridable per key with --set key=value: any --set overrides
--config, and the last --set of a key wins.  KEYS declares every key
with its parser and default, where None is unset.  Before a command runs,
RunConfig rejects a key that is not in KEYS (with a nearest-key hint, or,
for a name in REMOVED_KEYS, a pointer to README's "Config keys") and a
negative --seed, and parses every value, set or defaulted, so a mistyped
key or a bad value exits 2 before any computation.  Every io.* input is read
and checked by _read_input before any computation; an input error exits 2
and names its key and file.  The table is shared by all subcommands, so one
file can serve them all.  Reports are JSON (deterministic byte-for-byte for
a fixed config and seed, except the timestamp_utc field), fields are NSF1,
tables are CSV with a header row.

Each cmd_* returns its checks, a dict of name -> passed, and main alone maps
them to the exit code: 0 when all passed, 1 when one failed, 2 when the run
errored.  Findings are not checks: project, quadform and stratify return {},
since the viscosity criterion and the stratification sign are facts about
the input field, reported as "satisfied" and "positive" in their reports.
No command makes its output directory: the first write_field, write_json or
write_csv does, so a run that exits 2 before its first write leaves nothing.

Start-up loads only this module, fieldio and geometry.  Each cmd_* imports
the solver modules it runs in its own body (project: none; solve and
uniqueness: galerkin and analysis; quadform; stratify; mms: galerkin and mms)
and calls their functions through the module object, where
perfbench/tracer.py wraps them.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import sys
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .fieldio import (
    EXTENTS_REL_TOL,
    Field,
    TimeSeriesField,
    read_field,
    restrict_to_slice,
    write_field,
)
from .geometry import Hyperplane, make_chart, section_rectangle

logger = logging.getLogger("nsslice")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_ERROR = 2

# galerkin functions that perfbench/tracer.py also looks up on this module;
# no command reads them here
_TRACER_NAMES = frozenset({
    "assemble", "coercivity_check", "rhs_dual_norm", "divergence_residual",
    "project_field_to_basis", "project_divfree", "solve_from_state",
})


def __getattr__(name: str):
    if name in _TRACER_NAMES:
        from . import galerkin

        return getattr(galerkin, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ConfigError(ValueError):
    """Missing or invalid configuration value."""


def parse_config(path: str | None) -> dict[str, str]:
    cfg: dict[str, str] = {}
    if path is None:
        return cfg
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {path} not found")
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(p.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise ConfigError(f"{path}: config key {key!r} is set on lines "
                              f"{first_line[key]} and {lineno}")
        first_line[key] = lineno
        cfg[key] = value
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


# Every config key: its parser and its default, a string parsed like a set
# value (None: unset, and required wherever a command reads it with cfg[key]).
# Keys not listed here are rejected before any command runs.
KEYS = {
    "plane.normal": (_count(_reals, 3), "0,0,1"),
    "plane.offset": (_real, "0.5"),
    "io.u0": (str, None),
    "io.u0_slice": (str, None),
    "io.forcing": (str, None),
    "io.forcing_slice": (str, None),
    "io.v": (str, None),
    "io.w": (str, None),
    "slice.dims": (_checked(_count(_ints, 2), lambda v: min(v) >= 2, "must both be >= 2"),
                   "33,33"),
    "basis.n1": (_positive(int), "8"),
    "basis.n2": (_positive(int), "8"),
    "basis.extents": (_checked(_count(_reals, 2), lambda v: min(v) > 0, "must be positive"),
                      "1,1"),
    "solver.nu": (_positive(_real), None),
    "solver.dt": (_positive(_real), None),
    "solver.T": (_positive(_real), None),
    "solver.record_every": (_positive(int), "1"),
    "uniq.delta": (_nonnegative(_real), "1e-8"),
    "quadform.nu": (_positive(_real), None),
    "quadform.c_gn": (_positive(_real), "1.0"),
    "quadform.emit_fields": (_bool, "false"),
    "stratify.eps": (_nonnegative(_real), "0"),
    "stratify.directions": (_checked(_triples, lambda v: all(any(t) for t in v),
                                     "each direction must be nonzero"), ""),
    "mms.T": (_positive(_real), "0.5"),
    "mms.dt": (_positive(_real), "1e-3"),
    # increasing, so the last count is the finest, where the temporal study runs
    "mms.n_list": (_checked(_ints, lambda v: len(v) >= 2 and sorted(set(v)) == v and v[0] >= 1,
                            "needs at least 2 increasing mode counts >= 1"), "8,16"),
}


# Keys that no longer exist; README "Config keys" gives the reason for each.
REMOVED_KEYS = frozenset({
    "solver.quadrature_order", "chart.tolerance", "quadform.lambda1", "quadform.pivot_tol",
    "stratify.nslices", "stratify.area_tol", "stratify.interval_tol", "stratify.volume_tol",
    "uniq.mode", "uniq.amplitude", "mms.nu", "mms.n_temporal", "mms.dt_list", "mms.min_ratio",
    "mms.min_order",
})


def _unknown_key(key: str) -> str:
    if key in REMOVED_KEYS:
        return f'config key {key!r} was removed; see "Config keys" in README.md'
    import difflib  # only on this error path, so a normal run does not import it

    near = difflib.get_close_matches(key, KEYS, n=1)
    return f"unknown config key {key!r}" + (f"; did you mean {near[0]!r}?" if near else "")


class RunConfig:
    """The flat key=value namespace, checked against KEYS and parsed on construction."""

    def __init__(self, values: dict[str, str], out_dir: str, seed: int):
        if seed < 0:
            raise ConfigError(f"--seed must be nonnegative, got {seed}")
        unknown = [_unknown_key(key) for key in sorted(values) if key not in KEYS]
        if unknown:
            raise ConfigError("\n".join(unknown))
        self.values = {}
        for key, (parse, default) in KEYS.items():
            raw = values.get(key, default)
            try:
                self.values[key] = None if raw is None else parse(raw)
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from exc
        self.out_dir = Path(out_dir)
        self.seed = int(seed)

    def __getitem__(self, key: str):
        """The value of a required key; read an optional one from values, where None is unset."""
        if self.values[key] is None:
            raise ConfigError(f"missing required config key {key!r}")
        return self.values[key]


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


@contextmanager
def _naming_keys(*keys):
    """Re-raise a ValueError of the block as a ConfigError that names the config keys."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"config keys {' and '.join(map(repr, keys))}: {exc}") from exc


def _chart_from_config(cfg: RunConfig):
    with _naming_keys("plane.normal", "plane.offset"):
        return make_chart(Hyperplane.from_vector(cfg["plane.normal"], cfg["plane.offset"]))


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
    path = cfg.values[key] if optional else cfg[key]
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
        if any(abs(e - r) > EXTENTS_REL_TOL * r
               for e, r in zip(frame.extents, ref.extents)):
            raise rejected(f"must lie on the box {ref.extents} of {ref_key}, got {frame.extents}")
    return series


def _check_step(cfg: RunConfig, t_key: str, dt_key: str, basis, chart, nu: float,
                scale: float = 1.0) -> None:
    """Before any solve, refuse a step scale * cfg[dt_key] that does not divide cfg[t_key]
    into whole steps, or that lies above galerkin.rk4_dt_limit on basis."""
    from . import galerkin

    step = scale * cfg[dt_key]
    name = dt_key if scale == 1.0 else f"{scale:g}*{dt_key}"
    try:
        galerkin.step_count(step, cfg[t_key])
    except ValueError as exc:
        raise ConfigError(f"config keys {t_key!r} and {dt_key!r}: {exc} ({name})") from exc
    limit = galerkin.rk4_dt_limit(basis, chart, nu)
    if step > limit:
        raise ConfigError(
            f"config key {dt_key!r}: the step {name} = {step:g} is above {limit:.4g}, beyond "
            f"which RK4 amplifies a Stokes mode of the {basis.nmodes[0]}x{basis.nmodes[1]} "
            f"basis at nu = {nu:g}; reduce dt")


def _basis_from_config(cfg: RunConfig, extents):
    from . import galerkin

    return galerkin.SpectralBasis(nmodes=(cfg["basis.n1"], cfg["basis.n2"]), extents=tuple(extents))


def cmd_project(cfg: RunConfig) -> dict:
    slice_dims = cfg["slice.dims"]
    chart = _chart_from_config(cfg)
    u0 = _read_input(cfg, "io.u0", 3, one_field=True).frames[0]
    series = _read_input(cfg, "io.forcing", 3, optional=True, on=("io.u0", u0))
    with _naming_keys("plane.normal", "plane.offset"):
        (smin, smax), (tmin, tmax) = section_rectangle(u0.extents, chart)
    area = (smax - smin) * (tmax - tmin)
    u0_slice = restrict_to_slice(u0, chart, slice_dims)
    f_slices = [] if series is None else [
        restrict_to_slice(frame, chart, slice_dims) for frame in series.frames
    ]
    out = cfg.out_dir
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
            "plane": chart.plane,
            "chart": {k: v for k, v in vars(chart).items() if k != "plane"},
            "section": {
                "area": area,
                "bounds": [[smin, smax], [tmin, tmax]],
                "vertices": [[smin, tmin], [smax, tmin], [smax, tmax], [smin, tmax]],
            },
            "files": {"u0_slice": "u0_slice.nsf1", "forcing": forcing_entry},
        },
    )
    logger.info("projected %s onto plane, section area %.6g", cfg["io.u0"], area)
    return {}


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


def cmd_solve(cfg: RunConfig) -> dict:
    from . import analysis, galerkin

    nu, dt, t_end = cfg["solver.nu"], cfg["solver.dt"], cfg["solver.T"]
    chart = _chart_from_config(cfg)
    u0 = _read_input(cfg, "io.u0_slice", 2, one_field=True).frames[0]
    forcing = _read_input(cfg, "io.forcing_slice", 2, optional=True, on=("io.u0_slice", u0))
    basis = _basis_from_config(cfg, u0.extents)
    _check_step(cfg, "solver.T", "solver.dt", basis, chart, nu)
    # projected before assembly: modes too fine for the slice grid exit 2 at once
    with _naming_keys("basis.n1", "basis.n2"):
        u0_coeffs = galerkin.project_field_to_basis(u0, basis)
        f_of_t = None if forcing is None else galerkin.series_forcing(forcing, basis)
    tensors = galerkin.assemble(basis, chart)
    coeffs0 = galerkin.project_divfree(u0_coeffs, tensors)
    trace = galerkin.solve_from_state(coeffs0, f_of_t, tensors, nu, dt, t_end)
    ledger = analysis.ledger_from_run(trace, tensors, f_of_t, nu)
    out = cfg.out_dir
    # every record_every-th step plus the last, in runs of consecutive frames,
    # one file and one stacked synthesis per run
    nsteps = len(trace) - 1
    recorded = np.array([*range(0, nsteps, cfg["solver.record_every"]), nsteps])
    frame_files = []
    for run in _frame_runs(recorded.size, u0.data.nbytes):
        rel = f"u_{run[0]:04d}-{run[-1]:04d}.nsf1"
        frames = galerkin.synthesize_field(basis, trace.coeffs[recorded[run]], u0.dims)
        write_field(frames, out / rel)
        frame_files.append(rel)
    write_json(out / "energy_ledger.json", ledger.to_dict())
    div_max = float(np.max(galerkin.divergence_residual(trace.coeffs, tensors)))
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
    return checks


def cmd_uniqueness(cfg: RunConfig) -> dict:
    from . import analysis, galerkin

    nu, dt, t_end = cfg["solver.nu"], cfg["solver.dt"], cfg["solver.T"]
    chart = _chart_from_config(cfg)
    delta = cfg["uniq.delta"]
    u0 = _read_input(cfg, "io.u0_slice", 2, optional=True, one_field=True)
    basis = _basis_from_config(cfg, cfg["basis.extents"] if u0 is None else u0.frames[0].extents)
    _check_step(cfg, "solver.T", "solver.dt", basis, chart, nu)
    with _naming_keys("basis.n1", "basis.n2"):
        u0_coeffs = (None if u0 is None
                     else galerkin.project_field_to_basis(u0.frames[0], basis))
    tensors = galerkin.assemble(basis, chart)
    if u0_coeffs is None:
        u0_coeffs = analysis.seeded_state(tensors, [cfg.seed, 1], decay=0.125)
    report = analysis.uniqueness_experiment(tensors, u0_coeffs, nu, dt, t_end, delta, seed=cfg.seed)
    write_json(cfg.out_dir / "contraction_report.json", vars(report))
    logger.info("uniqueness experiment: delta=%g fitted C=%g", delta, report.fitted_c)
    return {"passed": report.passed}


def cmd_quadform(cfg: RunConfig) -> dict:
    from . import quadform as qf

    nu = cfg["quadform.nu"]
    emit_fields = cfg["quadform.emit_fields"]
    series = _read_input(cfg, "io.v", 3)
    ref = series.frames[0]
    # strain_field's one-sided second-order stencils need 3 samples per axis
    if min(ref.dims) < 3:
        raise ConfigError(f"io.v={cfg['io.v']}: needs at least 3 samples per axis, got {ref.dims}")
    lambda1 = qf.box_lambda1(ref.extents)
    # io.w is optional here: it adds the signed integral of B(w, w)
    w = _read_input(cfg, "io.w", 3, optional=True, one_field=True, on=("io.v", ref),
                    same_grid=True)
    out = cfg.out_dir
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
    return {}


def cmd_stratify(cfg: RunConfig) -> dict:
    from . import stratify as st

    eps = cfg["stratify.eps"]
    # kept referenced to the end: with the frames freed before the verdict,
    # its temporaries took about 12k more minor page faults on four 64^3 frames
    data = _read_input(cfg, "io.w", 3, ncomp=None)
    mask = st.mask_from_field(data, eps)
    verdict = st.stratification_verdict(mask, directions=cfg["stratify.directions"])
    out = cfg.out_dir
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
    return {}


def cmd_mms(cfg: RunConfig) -> dict:
    from . import galerkin
    from . import mms as mms_mod

    n_list, dt, t_end = cfg["mms.n_list"], cfg["mms.dt"], cfg["mms.T"]
    chart = _chart_from_config(cfg)
    ms = mms_mod.ManufacturedSolution(extents=tuple(cfg["basis.extents"]), chart=chart)
    # the temporal study's largest step is 2 dt, at the finest count
    _check_step(cfg, "mms.T", "mms.dt", galerkin.SpectralBasis((n_list[-1],) * 2, ms.extents),
                chart, ms.nu, scale=2.0)
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
    return checks


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
        p.add_argument("--seed", type=int, default=0, help="seed >= 0 for randomized inputs")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key (repeatable): any --set overrides --config, "
                 "and the last --set of a key wins",
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
        checks = _COMMANDS[args.command](RunConfig(values, args.out, args.seed))
    # ConfigError and GeometryError are ValueErrors, BlowUpError a RuntimeError;
    # a MemoryError is a run too large for the host (say 1e15 steps to record)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    logger.info("%s checks: %s", args.command, checks)
    return EXIT_OK if all(checks.values()) else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
