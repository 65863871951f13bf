"""Independent checks of each CLI invocation's outputs.

An invocation fails when its exit code is not 0 or 1, when a report does not
parse, when a written NSF1 file does not read back finite, or when a value
the benchmark can recompute on its own disagrees.  Certificate verdicts (the
solve checks, the uniqueness envelope, the mms gates, the quadform criterion
and the stratification sign) are counted separately: a FAIL verdict is a
finding about the input, never an operation failure.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from inputs import read_nsf1
from workloads import QUADFORM_C_GN, STRATIFY_EPS

DIVERGENCE_LIMIT = 1e-9
RECOMPUTE_RTOL = 1e-9


@dataclass
class Outcome:
    """Result of checking one invocation."""

    failures: list = field(default_factory=list)
    verdicts_passed: int = 0
    verdicts_reported: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def verdicts(self, values) -> None:
        values = [bool(v) for v in values]
        self.verdicts_passed += sum(values)
        self.verdicts_reported += len(values)


def _reports(out: Path, outcome: Outcome) -> dict:
    parsed = {}
    for path in sorted(out.glob("*.json")):
        try:
            parsed[path.name] = json.loads(path.read_text())
        except ValueError as exc:
            outcome.failures.append(f"{path.name} does not parse: {exc}")
    for path in sorted(out.glob("*.csv")):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            outcome.failures.append(f"{path.name} is not a rectangular CSV table")
    for path in sorted(out.glob("*.nsf1")):
        try:
            data, _ = read_nsf1(path)
        except (ValueError, IndexError) as exc:
            outcome.failures.append(f"{path.name} does not read back: {exc}")
            continue
        if not np.all(np.isfinite(data)):
            outcome.failures.append(f"{path.name} holds non-finite samples")
    return parsed


def _require(parsed: dict, name: str, outcome: Outcome):
    if name not in parsed:
        outcome.failures.append(f"{name} missing")
        return None
    return parsed[name]


def _series_frames(manifest: Path) -> list:
    spec = json.loads(manifest.read_text())
    return [read_nsf1(manifest.parent / rel) for rel in spec["frames"]]


# The inputs do not change within a run, so each expected value is computed
# once and reused for every chain.
@functools.lru_cache(maxsize=None)
def expected_quadform_rhs(manifest: Path) -> tuple:
    data, extents = _series_frames(manifest)[0]
    return tuple(quadform_rhs(data, extents, QUADFORM_C_GN))


@functools.lru_cache(maxsize=None)
def expected_stratify_volume(manifest: Path) -> float:
    """Voxel count of the union of |v| > eps over the frames, times the voxel volume."""
    frames = _series_frames(manifest)
    mags = [np.sqrt(np.sum(d**2, axis=0)) for d, _ in frames]
    mask = np.any([m > STRATIFY_EPS for m in mags], axis=0)
    extents = frames[0][1]
    voxel = float(np.prod([e / n for e, n in zip(extents, mask.shape)]))
    return int(np.count_nonzero(mask)) * voxel


def quadform_rhs(data: np.ndarray, extents, c_gn: float) -> np.ndarray:
    """c_gn^2 * sum_i ||D_i v_j||_2 per component, by numpy trapezoid quadrature."""
    dims = data.shape[1:]
    axes = [np.linspace(0.0, extents[a], dims[a]) for a in range(3)]
    out = np.zeros(3)
    for j in range(3):
        for i in range(3):
            g = np.gradient(data[j], axes[i][1], axis=i, edge_order=2)
            sq = g * g
            for a in (2, 1, 0):
                sq = np.trapezoid(sq, axes[a], axis=a)
            out[j] += np.sqrt(sq)
    return c_gn**2 * out


def _close(a, b, rtol: float) -> bool:
    return bool(np.allclose(np.asarray(a, float), np.asarray(b, float), rtol=rtol, atol=0.0))


def check(command: str, out: Path, returncode: int, inputs: dict) -> Outcome:
    """Check one invocation of `command` that wrote into `out`."""
    outcome = Outcome()
    if returncode not in (0, 1):
        outcome.failures.append(f"exit code {returncode}")
        return outcome
    parsed = _reports(out, outcome)
    try:
        _check_command(command, out, parsed, inputs, outcome)
    except (KeyError, IndexError, TypeError) as exc:
        outcome.failures.append(f"report lacks an expected field: {exc!r}")
    return outcome


def _check_command(command: str, out: Path, parsed: dict, inputs: dict, outcome: Outcome):
    if command == "project":
        _require(parsed, "chart_manifest.json", outcome)
        if not (out / "u0_slice.nsf1").is_file():
            outcome.failures.append("u0_slice.nsf1 missing")
    elif command == "solve":
        manifest = _require(parsed, "run_manifest.json", outcome)
        _require(parsed, "energy_ledger.json", outcome)
        if manifest is not None:
            if not manifest["max_divergence_residual"] <= DIVERGENCE_LIMIT:
                outcome.failures.append(
                    f"max_divergence_residual {manifest['max_divergence_residual']:.3e} "
                    f"> {DIVERGENCE_LIMIT:g}"
                )
            missing = [f for f in manifest["frames"] if not (out / f).is_file()]
            if missing:
                outcome.failures.append(f"{len(missing)} listed frames missing")
            outcome.verdicts(manifest["checks"].values())
    elif command == "uniqueness":
        report = _require(parsed, "contraction_report.json", outcome)
        if report is not None:
            outcome.verdicts([report["passed"]])
    elif command == "mms":
        report = _require(parsed, "mms_report.json", outcome)
        if report is not None:
            outcome.verdicts(report["checks"].values())
    elif command == "quadform":
        report = _require(parsed, "quadform_report.json", outcome)
        if report is not None:
            want = expected_quadform_rhs(inputs["v"])
            got = report["rows"][0]["rhs_per_component"]
            if not _close(got, want, RECOMPUTE_RTOL):
                outcome.failures.append(
                    f"quadform frame-0 rhs {got} != recomputed {list(want)}"
                )
            outcome.verdicts([report["satisfied"]])
    elif command == "stratify":
        report = _require(parsed, "stratify_report.json", outcome)
        if report is not None:
            want = expected_stratify_volume(inputs["v"])
            if not _close(report["total_volume"], want, 1e-12):
                outcome.failures.append(
                    f"stratify total_volume {report['total_volume']} != voxel count volume {want}"
                )
            outcome.verdicts([report["positive"]])
    else:
        raise ValueError(f"no output checks for command {command!r}")
