"""Per-layer metrics from the spans and counters of a traced chain.

Layers are the package modules; a span's layer is its name up to the first
dot.  A span's self time is its duration minus the durations of its direct
children (children of one span never overlap: the CLI is single-threaded).
Counts labelled "computed" (operator sizes, nnz, bytes read and written)
come from array sizes and file sizes, so they repeat exactly.

A layer that does no work on a workload reports 0 for its times, counts and
ratios; the matching call or sample count says so.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

LAYERS = ("cli", "fieldio", "galerkin", "analysis", "quadform", "stratify", "mms")
COMPUTED = ("galerkin.operator_mb", "galerkin.trilinear_nnz", "fieldio.read_mb", "fieldio.write_mb")


class Spans:
    """Spans of all processes of one chain, grouped by name."""

    def __init__(self, payloads):
        self.durations = defaultdict(list)
        self.self_s = defaultdict(float)
        self.counters = {}
        self.count = 0
        self.processes = []
        for payload in payloads:
            spans = payload["spans"]
            child_s = np.zeros(len(spans))
            for name, parent, start, end in spans:
                if parent >= 0:
                    child_s[parent] += end - start
            for (name, parent, start, end), inner in zip(spans, child_s):
                self.durations[name].append(end - start)
                self.self_s[name.split(".", 1)[0]] += end - start - inner
            for key, value in payload["counters"].items():
                self.counters[key] = self._merge(key, self.counters.get(key), value)
            self.count += len(spans)
            self.processes.append({"import_s": payload["import_s"], "spans": len(spans)})

    @staticmethod
    def _merge(key, old, new):
        if old is None:
            return new
        if key == "analysis.margin_over_tol":
            return min(old, new)
        if key in ("galerkin.operator_bytes", "galerkin.trilinear_nnz"):
            return max(old, new)
        return old + new

    def total(self, name: str) -> float:
        return float(sum(self.durations.get(name, ())))

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def pct_ms(self, name: str, q: float) -> float:
        d = self.durations.get(name)
        return float(np.percentile(d, q)) * 1e3 if d else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(wl, payloads, untraced_wall: float, traced_wall: float) -> tuple[dict, dict]:
    """(metrics for the result line, summary written beside the spans).

    payloads are the span files tracer.py wrote, one per command, parsed.
    """
    s = Spans(payloads)
    c = s.counters
    frames = s.calls("quadform.strain_field")
    requests = s.calls("mms.forcing_request")
    evals = s.calls("mms.forcing_values")
    steps = s.calls("galerkin.step")
    values = {
        # galerkin
        "galerkin.assemble_s": (s.total("galerkin.assemble"), "s"),
        "galerkin.coercivity_s": (s.total("galerkin.coercivity_check"), "s"),
        "galerkin.operator_mb": (c.get("galerkin.operator_bytes", 0) / 1e6, "MB"),
        "galerkin.trilinear_nnz": (c.get("galerkin.trilinear_nnz", 0), "count"),
        "galerkin.project_field_calls": (s.calls("galerkin.project_field_to_basis"), "count"),
        "galerkin.project_field_s": (s.total("galerkin.project_field_to_basis"), "s"),
        "galerkin.step_ms.p50": (s.pct_ms("galerkin.step", 50), "ms"),
        "galerkin.step_ms.p99": (s.pct_ms("galerkin.step", 99), "ms"),
        "galerkin.step_samples": (steps, "count"),
        "galerkin.rhs_evals": (s.calls("galerkin.rhs"), "count"),
        "galerkin.trilinear_apply_ms.p50": (s.pct_ms("galerkin.trilinear_apply", 50), "ms"),
        "galerkin.trilinear_apply_calls": (s.calls("galerkin.trilinear_apply"), "count"),
        "galerkin.project_divfree_calls": (s.calls("galerkin.project_divfree"), "count"),
        "galerkin.synthesize_calls": (s.calls("galerkin.synthesize_field"), "count"),
        "galerkin.synthesize_s": (s.total("galerkin.synthesize_field"), "s"),
        # analysis
        "analysis.ledger_s": (s.total("analysis.ledger_from_run"), "s"),
        "analysis.contraction_s": (s.total("analysis.contraction_report"), "s"),
        "analysis.inequality_margin_over_tol": (c.get("analysis.margin_over_tol", 0.0), "ratio"),
        # fieldio
        "fieldio.read_s": (s.total("fieldio.read_field"), "s"),
        "fieldio.read_mb": (c.get("fieldio.read_bytes", 0) / 1e6, "MB"),
        "fieldio.write_s": (s.total("fieldio.write_field"), "s"),
        "fieldio.write_mb": (c.get("fieldio.write_bytes", 0) / 1e6, "MB"),
        "fieldio.restrict_s": (s.total("fieldio.restrict_to_slice"), "s"),
        # quadform
        "quadform.strain_s": (s.total("quadform.strain_field"), "s"),
        "quadform.canonicalize_s": (s.total("quadform.canonicalize"), "s"),
        "quadform.criterion_s": (s.total("quadform.uniqueness_criterion"), "s"),
        "quadform.gradient_passes_per_frame": (
            _ratio(frames + s.calls("quadform.gradient_norms"), frames), "count"),
        "quadform.jacobi_fraction": (
            _ratio(c.get("quadform.jacobi_points", 0), c.get("quadform.points", 0)), "ratio"),
        # stratify
        "stratify.mask_s": (s.total("stratify.mask_from_field"), "s"),
        "stratify.slice_measures_s": (s.total("stratify.slice_measures"), "s"),
        "stratify.directions": (s.calls("stratify.slice_measures"), "count"),
        # mms
        "mms.setup_s": (s.total("mms.setup"), "s"),
        "mms.forcing_requests": (requests, "count"),
        "mms.forcing_eval_calls": (evals, "count"),
        "mms.forcing_cache_hit_ratio": (_ratio(requests - evals, requests), "ratio"),
        "mms.l2_error_s": (s.total("mms.l2_error"), "s"),
        # cli
        "cli.report_write_s": (s.total("cli.report_write"), "s"),
        "cli.import_s": (sum(p["import_s"] for p in s.processes), "s"),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = (s.self_s.get(layer, 0.0), "s")
    values.update({
        "steps_per_s": (steps / untraced_wall, "1/s"),
        "voxel_frames_per_s": (wl.voxel_frames / untraced_wall, "1/s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.traced_wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.spans": (s.count, "count"),
    })
    metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}
    summary = {
        "workload": wl.name,
        "processes": s.processes,
        "spans": {k: {"calls": len(v), "total_s": float(sum(v))} for k, v in s.durations.items()},
        "self_s": dict(s.self_s),
        "counters": dict(c),
        "computed": {k: metrics[k]["value"] for k in COMPUTED},
    }
    return metrics, summary
