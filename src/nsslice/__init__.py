"""Slice-projection toolkit for incompressible flow fields.

Projects 3D velocity data onto hyperplane cross-sections, solves the
projected three-component problem with a spectral Galerkin method, and
certifies energy balances, perturbation contraction, and quadratic-form
uniqueness criteria on the results.

Submodules and the names in __all__ are imported on first access (PEP 562),
so ``import nsslice.cli`` loads only the modules the command line needs
before a command runs.
"""

import importlib

__version__ = "0.1.0"

# each exported name and the submodule that defines it
_EXPORTS = {
    "Hyperplane": "geometry",
    "SliceChart": "geometry",
    "make_chart": "geometry",
    "projected_gradient_coeffs": "geometry",
    "section_rectangle": "geometry",
    "Field": "fieldio",
    "TimeSeriesField": "fieldio",
    "read_field": "fieldio",
    "write_field": "fieldio",
    "restrict_to_slice": "fieldio",
    "SpectralBasis": "galerkin",
    "OperatorTensors": "galerkin",
    "assemble": "galerkin",
    "project_divfree": "galerkin",
    "project_field_to_basis": "galerkin",
    "step": "galerkin",
    "solve_from_state": "galerkin",
    "coercivity_check": "galerkin",
}

_SUBMODULES = ("analysis", "cli", "fieldio", "galerkin", "geometry", "mms", "quadform", "stratify")

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *__all__, *_SUBMODULES})
