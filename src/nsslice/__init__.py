"""Slice-projection toolkit for incompressible flow fields.

Projects 3D velocity data onto hyperplane cross-sections, solves the
projected three-component problem with a spectral Galerkin method, and
certifies energy balances, perturbation contraction, and quadratic-form
uniqueness criteria on the results.
"""

from .geometry import (
    Box3,
    Hyperplane,
    SliceChart,
    make_chart,
    projected_gradient_coeffs,
    slice_domain,
)
from .fieldio import Field, TimeSeriesField, read_field, restrict_to_slice, write_field
from .galerkin import (
    OperatorTensors,
    SpectralBasis,
    assemble,
    coercivity_check,
    project_divfree,
    project_field_to_basis,
    solve_from_state,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "Box3",
    "Hyperplane",
    "SliceChart",
    "make_chart",
    "projected_gradient_coeffs",
    "slice_domain",
    "Field",
    "TimeSeriesField",
    "read_field",
    "write_field",
    "restrict_to_slice",
    "SpectralBasis",
    "OperatorTensors",
    "assemble",
    "project_divfree",
    "project_field_to_basis",
    "step",
    "solve_from_state",
    "coercivity_check",
    "__version__",
]
