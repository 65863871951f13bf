"""Run one nsslice CLI command in-process with spans and counters.

Usage: python3 tracer.py SPANS.json <nsslice arguments...>

Each public entry point of the package is wrapped where its caller looks it
up (for example both ``nsslice.cli.assemble`` and ``nsslice.galerkin.assemble``),
so the package itself is unchanged.  A span records its name, start, end and
parent; counters and computed sizes sit at the same boundaries.  Spans stay
in memory and are written to SPANS.json when the command returns.  The exit
code is the command's own.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time


class Tracer:
    """In-memory span recorder with counters."""

    def __init__(self):
        self.spans: list = []      # [name, parent index, start, end]
        self._stack: list = []
        self.counters: dict = {}

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + float(value)

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, float(value)), float(value))

    def traced(self, fn, name: str, after=None):
        """Wrap fn in a span; after(result, *args) runs once the span has closed."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, parent, 0.0, 0.0]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def wrap(self, owners, attr: str, name: str, after=None) -> None:
        """Replace owner.attr by a traced wrapper in every owner that looks it up."""
        for owner in owners:
            setattr(owner, attr, self.traced(getattr(owner, attr), name, after))


def instrument(tracer: Tracer) -> None:
    from nsslice import analysis, cli, fieldio, galerkin, mms, quadform, stratify

    t = tracer
    for name, fn in list(cli._COMMANDS.items()):
        cli._COMMANDS[name] = t.traced(fn, f"cli.{name}")
    t.wrap([cli], "write_json", "cli.report_write")
    t.wrap([cli], "write_csv", "cli.report_write")

    # fieldio: I/O sizes are computed from the files, not timed
    t.wrap([cli, fieldio], "read_field", "fieldio.read_field",
           lambda res, path, *a, **k: t.add("fieldio.read_bytes", os.path.getsize(path)))
    t.wrap([cli], "write_field", "fieldio.write_field",
           lambda res, fld, path, *a, **k: t.add("fieldio.write_bytes", os.path.getsize(path)))
    t.wrap([cli], "restrict_to_slice", "fieldio.restrict_to_slice")

    # galerkin
    def operators(tensors, *a, **k):
        tr = tensors.trilinear
        arrays = (tensors.projector, tensors.null_basis, tensors.constraint,
                  tr.x1, tr.y1, tr.x2, tr.y2)
        t.peak("galerkin.operator_bytes", sum(arr.nbytes for arr in arrays))
        t.peak("galerkin.trilinear_nnz", tr.nnz)

    t.wrap([cli, galerkin], "assemble", "galerkin.assemble", operators)
    t.wrap([cli], "coercivity_check", "galerkin.coercivity_check")
    t.wrap([cli, galerkin], "project_field_to_basis", "galerkin.project_field_to_basis")
    t.wrap([cli, galerkin, mms], "project_divfree", "galerkin.project_divfree")
    t.wrap([cli, galerkin, mms], "solve_from_state", "galerkin.solve")
    t.wrap([galerkin], "step", "galerkin.step")
    t.wrap([galerkin], "_rhs", "galerkin.rhs")
    t.wrap([galerkin.TrilinearTensor], "apply_pair", "galerkin.trilinear_apply")
    t.wrap([galerkin], "synthesize_field", "galerkin.synthesize_field")
    t.wrap([cli], "rhs_dual_norm", "galerkin.rhs_dual_norm")
    t.wrap([cli], "divergence_residual", "galerkin.divergence_residual")

    # analysis
    def ledger_margin(ledger, *a, **k):
        ratio = float(min(ledger.inequality_margin())) / ledger.tol_accum()
        t.counters["analysis.margin_over_tol"] = min(
            t.counters.get("analysis.margin_over_tol", ratio), ratio)

    t.wrap([analysis], "ledger_from_run", "analysis.ledger_from_run", ledger_margin)
    t.wrap([analysis], "uniqueness_experiment", "analysis.uniqueness_experiment")
    t.wrap([analysis], "contraction_report", "analysis.contraction_report")

    # quadform
    def jacobi(dec, *a, **k):
        t.add("quadform.jacobi_points", int(dec.jacobi.sum()))
        t.add("quadform.points", int(dec.jacobi.size))

    t.wrap([quadform], "strain_field", "quadform.strain_field")
    t.wrap([quadform], "gradient_norms", "quadform.gradient_norms")
    t.wrap([quadform], "canonicalize", "quadform.canonicalize", jacobi)
    t.wrap([quadform], "uniqueness_criterion", "quadform.uniqueness_criterion")
    t.wrap([quadform], "signed_integral", "quadform.signed_integral")

    # stratify
    t.wrap([stratify], "mask_from_field", "stratify.mask_from_field")
    t.wrap([stratify], "slice_measures", "stratify.slice_measures")
    t.wrap([stratify], "stratification_verdict", "stratify.stratification_verdict")

    # mms: forcing requests are counted on the callable forcing_coeffs returns
    ms = mms.ManufacturedSolution
    t.wrap([ms], "__post_init__", "mms.setup")
    t.wrap([ms], "forcing_values", "mms.forcing_values")
    t.wrap([ms], "l2_error", "mms.l2_error")
    t.wrap([mms], "spatial_convergence", "mms.spatial_convergence")
    t.wrap([mms], "temporal_convergence", "mms.temporal_convergence")
    forcing_coeffs = ms.forcing_coeffs

    def counted_forcing(self, basis):
        return t.traced(forcing_coeffs(self, basis), "mms.forcing_request")

    ms.forcing_coeffs = counted_forcing


def main(argv: list) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    from nsslice import cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    instrument(tracer)
    code = cli.main(cli_args)
    with open(spans_path, "w") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans, "counters": tracer.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
