"""Slice-projection toolkit for incompressible flow fields.

Projects 3D velocity data onto hyperplane cross-sections, solves the
projected three-component problem with a spectral Galerkin method, and
certifies energy balances, perturbation contraction, and quadratic-form
uniqueness criteria on the results.

The package imports no submodule: import each name from its submodule
(``from nsslice.galerkin import assemble``), so ``import nsslice.cli`` loads
only the modules the command line needs before a command runs.
"""

__version__ = "0.1.0"
