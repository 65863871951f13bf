"""Pointwise quadratic-form analysis of velocity-gradient fields.

For a sampled 3D velocity v, the symmetrized gradient a_jk = (D_j v_k +
D_k v_j) / 2 defines at every grid point the quadratic form B(w, w) =
sum_jk a_jk w_j w_k.  Canonicalizing B by Jacobi's minor-ratio formulas,

    b1 = det M1,  b2 = det M2 / det M1,  b3 = det M3 / det M2,

with M_k the leading principal k x k blocks, diagonalizes the form as
sum_j b_j y_j^2 under a unit upper-triangular change of variables; the signs
of (b1, b2, b3) give the inertia (Sylvester's law).  Only the coefficients
and the inertia are kept: the change of variables itself is not formed.
Points whose leading minors fall under the pivot tolerance fall back to a
symmetric eigensolve for the inertia.  The viscosity criterion compares
nu * lambda1^(1/4) against c^2 * sum_i ||D_i v_j||_2 per component and time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fieldio import Field, TimeSeriesField

DEFAULT_PIVOT_REL_TOL = 1e-8

#: the interpolation constant c of the criterion: a placeholder, whose proven
#: value ROADMAP item 21 derives
C_GN = 1.0

_ZERO_EIG_REL_TOL = 1e-12

#: points per chunk of canonicalize: 256 KiB per float temporary
CHUNK_POINTS = 1 << 15

# (j, k) of the six upper-triangle entries, in the order a11 a12 a13 a22 a23 a33
_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


@dataclass(frozen=True)
class StrainMatrixField:
    """Gradient tensor of a 3D velocity field.

    grad[i, k] holds D_i v_k and is the only stored array; canonicalize takes
    the six entries 0.5 * (D_j v_k + D_k v_j) of its symmetric part from grad
    without forming that part.
    """

    dims: tuple[int, int, int]
    extents: tuple[float, float, float]
    grad: np.ndarray  # (3, 3, nx, ny, nz)

    def gradient_norms(self) -> np.ndarray:
        """norms[i, j] = ||D_i v_j||_2 over the box (trapezoid quadrature).

        Taken from the stored gradient, so no second differentiation pass.
        """
        weights = _trapezoid_weights(self.dims, self.extents)
        out = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                g = self.grad[i, j]
                out[i, j] = np.sqrt(float(np.sum(weights * g * g)))
        return out


def strain_field(v: Field) -> StrainMatrixField:
    """Symmetrized gradient of a 3-component 3D field.

    Derivatives use second-order centered differences with second-order
    one-sided stencils at the boundary faces.
    """
    if v.ndim_grid != 3 or v.ncomp != 3:
        raise ValueError("strain_field needs a 3-component 3D field")
    grad = np.empty((3, 3) + v.dims)
    for i in range(3):
        h = v.spacing(i)
        for k in range(3):
            grad[i, k] = np.gradient(v.data[k], h, axis=i, edge_order=2)
    return StrainMatrixField(v.dims, v.extents, grad)


@dataclass(frozen=True)
class QuadFormDecomposition:
    """Pointwise canonical coefficients and inertia.

    Rows follow the C-order points of the strain's grid, so a caller
    reshapes them with that grid's dims.  b rows are (b1, b2, b3) and hold
    NaN at pivot-degenerate points (jacobi[point] False), where only the
    eigensolve inertia is available.  inertia rows are (n_plus, n_zero,
    n_minus).
    """

    b: np.ndarray            # (npoints, 3)
    jacobi: np.ndarray       # (npoints,) bool, True where the minor path ran
    inertia: np.ndarray      # (npoints, 3) ints
    pivot_tol: float

    @property
    def degenerate_fraction(self) -> float:
        return float(1.0 - np.mean(self.jacobi))

    def inertia_histogram(self) -> dict[str, int]:
        """Count of each inertia triple, keyed "+p0z-m", in lexicographic order.

        Entries lie in 0..3, so 16 p + 4 z + m encodes a triple in 0..63 with
        the lexicographic order kept, and one bincount replaces a row sort.
        """
        codes = self.inertia @ np.array([16, 4, 1])
        counts = np.bincount(codes, minlength=64)
        return {
            "+%d0%d-%d" % (c >> 4, (c >> 2) & 3, c & 3): int(counts[c])
            for c in np.flatnonzero(counts)
        }


def _eig_inertia(entries, zero_tol: float) -> np.ndarray:
    a11, a12, a13, a22, a23, a33 = entries
    mats = np.stack([a11, a12, a13, a12, a22, a23, a13, a23, a33], axis=-1)
    vals = np.linalg.eigvalsh(mats.reshape(-1, 3, 3))
    n_plus = np.sum(vals > zero_tol, axis=1)
    n_minus = np.sum(vals < -zero_tol, axis=1)
    return np.column_stack([n_plus, 3 - n_plus - n_minus, n_minus])


def _upper_entries(g: np.ndarray, sl: slice) -> list[np.ndarray]:
    """a11, a12, a13, a22, a23, a33 of the symmetric part, at the points sl."""
    return [0.5 * (g[j, k, sl] + g[k, j, sl]) for j, k in _UPPER]


def canonicalize(strain: StrainMatrixField) -> QuadFormDecomposition:
    """Jacobi minor-ratio canonicalization with an eigensolve fallback.

    The six entries a_jk = 0.5 * (D_j v_k + D_k v_j), j <= k, are read from
    the gradient.  Where |det M1| and |det M2| both clear pivot_tol =
    DEFAULT_PIVOT_REL_TOL * max |a_jk| the canonical coefficients and the
    inertia come from the minor formulas; elsewhere the coefficients are
    marked degenerate (NaN) and the inertia comes from the eigenvalues.

    The points are worked through in chunks of CHUNK_POINTS, so the
    temporaries stay that small whatever the grid: a first pass takes the
    global max |a_jk| (exact in any order), a second fills the outputs.
    """
    g = strain.grad.reshape(3, 3, -1)
    npoints = g.shape[-1]
    chunks = [slice(s, s + CHUNK_POINTS) for s in range(0, npoints, CHUNK_POINTS)]
    peaks = [np.max(np.abs(a)) for sl in chunks for a in _upper_entries(g, sl)]
    scale = max(float(np.max(peaks)), 1e-300)
    pivot_tol = DEFAULT_PIVOT_REL_TOL * scale
    zero_tol = _ZERO_EIG_REL_TOL * scale
    b = np.empty((npoints, 3))
    inertia = np.empty((npoints, 3), dtype=int)
    jacobi = np.empty(npoints, dtype=bool)
    for sl in chunks:
        entries = _upper_entries(g, sl)
        a11, a12, a13, a22, a23, a33 = entries
        det1 = a11
        det2 = a11 * a22 - a12**2
        # cofactor expansion of the symmetric matrix along its first row
        det3 = (
            a11 * (a22 * a33 - a23**2)
            - a12 * (a12 * a33 - a13 * a23)
            + a13 * (a12 * a23 - a13 * a22)
        )
        ok = (np.abs(det1) > pivot_tol) & (np.abs(det2) > pivot_tol)
        jacobi[sl] = ok
        with np.errstate(divide="ignore", invalid="ignore"):
            cols = (det1, det2 / det1, det3 / det2)
        n_plus = np.zeros(ok.shape, dtype=int)
        n_minus = np.zeros(ok.shape, dtype=int)
        for c, col in enumerate(cols):
            b[sl, c] = col
            n_plus += col > zero_tol
            n_minus += col < -zero_tol
        inertia[sl, 0] = n_plus
        inertia[sl, 1] = 3 - n_plus - n_minus
        inertia[sl, 2] = n_minus
        bad = ~ok
        if np.any(bad):
            b[sl][bad] = np.nan
            inertia[sl][bad] = _eig_inertia([a[bad] for a in entries], zero_tol)
    return QuadFormDecomposition(b=b, jacobi=jacobi, inertia=inertia, pivot_tol=float(pivot_tol))


def box_lambda1(extents) -> float:
    """First Dirichlet Laplacian eigenvalue of a 2D or 3D box, in closed form."""
    ext = [float(e) for e in extents]
    if any(e <= 0.0 for e in ext):
        raise ValueError("extents must be positive")
    return float(np.pi**2 * sum(1.0 / e**2 for e in ext))


def _trapezoid_weights(dims, extents) -> np.ndarray:
    ws = []
    for n, e in zip(dims, extents):
        h = e / (n - 1)
        w = np.full(n, h)
        w[0] = w[-1] = 0.5 * h
        ws.append(w)
    out = ws[0]
    for w in ws[1:]:
        out = np.multiply.outer(out, w)
    return out


def gradient_norms(v: Field) -> np.ndarray:
    """norms[i, j] = ||D_i v_j||_2 over the box (trapezoid quadrature).

    Shorthand for strain_field(v).gradient_norms(); a caller that also needs
    the strain should take the norms from it rather than differentiate twice.
    """
    return strain_field(v).gradient_norms()


@dataclass
class CriterionRow:
    time: float
    rhs_per_component: tuple[float, float, float]  # c^2 sum_i ||D_i v_j||
    satisfied_per_component: tuple[bool, bool, bool]
    satisfied: bool


@dataclass
class CriterionReport:
    nu: float
    lambda1: float
    rows: list[CriterionRow]

    @classmethod
    def from_norms(cls, times, norms, nu: float, extents) -> "CriterionReport":
        """Criterion rows from per-frame gradient norms on a box (see uniqueness_criterion).

        norms yields one (3, 3) array per time; it is consumed after the
        parameters are validated, so it may be a lazy generator.
        """
        if nu <= 0.0:
            raise ValueError("nu must be positive")
        lambda1 = box_lambda1(extents)
        lhs = nu * lambda1**0.25
        rows = []
        for t, nrm in zip(times, norms):
            rhs = tuple(float(C_GN**2 * np.sum(nrm[:, j])) for j in range(3))
            sat = tuple(bool(lhs >= r) for r in rhs)
            rows.append(
                CriterionRow(
                    time=float(t),
                    rhs_per_component=rhs,
                    satisfied_per_component=sat,
                    satisfied=all(sat),
                )
            )
        return cls(nu=nu, lambda1=lambda1, rows=rows)

    @property
    def lhs(self) -> float:
        """nu * lambda1^(1/4), the left side of every row."""
        return self.nu * self.lambda1**0.25

    @property
    def satisfied(self) -> bool:
        return all(r.satisfied for r in self.rows)

    def to_dict(self) -> dict:
        return {**vars(self), "c_gn": C_GN, "lhs": self.lhs, "satisfied": self.satisfied}


def uniqueness_criterion(v_series: TimeSeriesField, nu: float) -> CriterionReport:
    """Closed-inequality viscosity criterion, per time and per component.

    For each frame and each component j the right side is
    C_GN^2 * sum_i ||D_i v_j||_2; the criterion is satisfied at (t, j) when
    nu * lambda1^(1/4) >= rhs, with lambda1 = box_lambda1 of the frames' box.
    A frame is satisfied when all three components are (the aggregate reading
    of the per-component condition).

    Each frame is differentiated once, by gradient_norms.  A caller that also
    needs the strain of every frame (the quadform command) computes
    strain_field once per frame instead and passes strain.gradient_norms() to
    CriterionReport.from_norms, which gives the same report.
    """
    norms = (gradient_norms(frame) for frame in v_series.frames)
    return CriterionReport.from_norms(v_series.times, norms, nu, v_series.frames[0].extents)


def signed_integral(strain: StrainMatrixField, w: Field) -> float:
    """int_Omega B(w, w) dx by the midpoint rule over grid cells.

    Cell-center values are the average of the 2^3 corner samples, which makes
    the composite rule identical to tensor-product trapezoid weights on the
    vertex grid.  The integral is signed: a strain that is positive
    semidefinite everywhere gives a nonnegative result, and indefinite strain
    can give either sign.  The antisymmetric part of the gradient drops out
    of w^T grad w, so B(w, w) is contracted from grad and no symmetric part
    is formed.
    """
    if w.ncomp != 3 or w.ndim_grid != 3:
        raise ValueError("signed_integral needs a 3-component 3D field")
    if w.dims != strain.dims:
        raise ValueError(f"shape mismatch: strain {strain.dims} vs w {w.dims}")
    bvals = np.einsum("jk...,j...,k...->...", strain.grad, w.data, w.data)
    weights = _trapezoid_weights(w.dims, w.extents)
    return float(np.sum(weights * bvals))
