"""Reference evaluations that only the tests need.

Each helper recomputes a quantity the package produces by another route
(a dense tensor, a direct quadratic form, a sampled field, a plane residual),
so the tests can compare the two.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from nsslice.fieldio import Field
from nsslice.quadform import _ZERO_EIG_REL_TOL, DEFAULT_PIVOT_REL_TOL, QuadFormDecomposition


def dense_trilinear(tri, basis) -> np.ndarray:
    """Dense (3M, 3M, 3M) advection tensor H of tri on basis; small bases only."""
    m = basis.nmodes_total
    assert m <= 128, "dense trilinear tensor is only built for small bases"
    mm = basis.modes[:, 0] - 1
    nn = basis.modes[:, 1] - 1
    t1 = tri.x1[np.ix_(mm, mm, mm)] * tri.y1[np.ix_(nn, nn, nn)]
    t2 = tri.x2[np.ix_(mm, mm, mm)] * tri.y2[np.ix_(nn, nn, nn)]
    g1, g2 = tri.chart_rows
    h = np.zeros((3, m, 3, m, 3, m))
    for d in range(3):
        for a in range(3):
            # H[(d,r),(a,p),(d,q)] with p the advecting slot
            h[d, :, a, :, d, :] += np.transpose(g1[a] * t1 + g2[a] * t2, (2, 0, 1))
    return h.reshape(3 * m, 3 * m, 3 * m)


def contract_triple(tri, u, v, w) -> float:
    """b~(u, v, w): advecting state u, transported v, test w."""
    return float(np.sum(tri.apply_pair(u, v) * np.asarray(w)))


def stiffness(tensors) -> np.ndarray:
    """Dense symmetric (M, M) stiffness K: the factored stiffness applied to the identity."""
    return tensors.apply_stiffness(np.eye(tensors.nmodes_total))


def cross_matrix(tensors) -> np.ndarray:
    """Dense (M, M) chart cross term <(c1 D1 + c2 D2) w_p, (c1 D1 + c2 D2) w_q>.

    The dense stiffness less its gradient diagonal.
    """
    return -stiffness(tensors) - np.diag(tensors.grad1 + tensors.grad2)


def without_nonlinearity(tensors):
    """Copy of the operators with the advection tensor zeroed, for linear runs."""
    tr = tensors.trilinear
    zero = replace(tr, x=np.zeros_like(tr.x), y=np.zeros_like(tr.y))
    return replace(tensors, trilinear=zero)


def quadform_value(matrix, w) -> float:
    """w^T A w for one symmetric 3x3 matrix."""
    ww = np.asarray(w, dtype=float)
    return float(ww @ np.asarray(matrix, dtype=float) @ ww)


def jacobi_transform(a) -> np.ndarray:
    """Unit upper-triangular change of variables y = U w of Jacobi's method.

    With it, w^T A w = sum_j b_j y_j^2 for the canonical coefficients b of a
    symmetric 3x3 matrix A whose leading minors are nonzero.
    """
    a = np.asarray(a, dtype=float)
    a11, a12, a13 = a[0, 0], a[0, 1], a[0, 2]
    b2 = (a11 * a[1, 1] - a12**2) / a11
    u = np.eye(3)
    u[0, 1] = a12 / a11
    u[0, 2] = a13 / a11
    u[1, 2] = (a[1, 2] - a12 * a13 / a11) / b2
    return u


def canonical_value(b, transform, w) -> float:
    """sum_j b_j y_j^2 with y the recorded change of variables applied to w."""
    y = np.asarray(transform, dtype=float) @ np.asarray(w, dtype=float)
    return float(np.sum(np.asarray(b) * y**2))


def canonicalize_whole(strain) -> QuadFormDecomposition:
    """canonicalize over all points at once: one full-size array per temporary.

    The reference for the chunked canonicalize, which must reproduce it bit
    for bit: the same entries, minors, tolerances and eigensolve fallback.
    """
    g = strain.grad.reshape(3, 3, -1)
    entries = [
        0.5 * (g[j, k] + g[k, j]) for j, k in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
    ]
    a11, a12, a13, a22, a23, a33 = entries
    scale = max(float(np.max([np.max(np.abs(a)) for a in entries])), 1e-300)
    pivot_tol = DEFAULT_PIVOT_REL_TOL * scale
    zero_tol = _ZERO_EIG_REL_TOL * scale
    det1 = a11
    det2 = a11 * a22 - a12**2
    det3 = (
        a11 * (a22 * a33 - a23**2)
        - a12 * (a12 * a33 - a13 * a23)
        + a13 * (a12 * a23 - a13 * a22)
    )
    ok = (np.abs(det1) > pivot_tol) & (np.abs(det2) > pivot_tol)
    with np.errstate(divide="ignore", invalid="ignore"):
        cols = (det1, det2 / det1, det3 / det2)
    n_plus = np.zeros(ok.shape, dtype=int)
    n_minus = np.zeros(ok.shape, dtype=int)
    for col in cols:
        n_plus += col > zero_tol
        n_minus += col < -zero_tol
    inertia = np.column_stack([n_plus, 3 - n_plus - n_minus, n_minus])
    b = np.stack(cols, axis=1)
    bad = ~ok
    b[bad] = np.nan
    if np.any(bad):
        sub = [a[bad] for a in entries]
        mats = np.stack([sub[0], sub[1], sub[2], sub[1], sub[3], sub[4],
                         sub[2], sub[4], sub[5]], axis=-1)
        vals = np.linalg.eigvalsh(mats.reshape(-1, 3, 3))
        bp = np.sum(vals > zero_tol, axis=1)
        bm = np.sum(vals < -zero_tol, axis=1)
        inertia[bad] = np.column_stack([bp, 3 - bp - bm, bm])
    return QuadFormDecomposition(b=b, jacobi=ok, inertia=inertia, pivot_tol=float(pivot_tol))


def strain_sym(strain) -> np.ndarray:
    """Symmetric part (3, 3, nx, ny, nz) of the strain's gradient, 0.5 * (D_j v_k + D_k v_j)."""
    return 0.5 * (strain.grad + np.swapaxes(strain.grad, 0, 1))


def strain_matrices(strain) -> np.ndarray:
    """The strain's symmetric matrices as an (npoints, 3, 3) stack."""
    return np.moveaxis(strain_sym(strain).reshape(3, 3, -1), -1, 0)


def trace_field(strain) -> np.ndarray:
    """Pointwise trace of the strain; equals div v up to stencil error."""
    sym = strain_sym(strain)
    return sym[0, 0] + sym[1, 1] + sym[2, 2]


def graph_height(chart, s, t):
    """Eliminated coordinate of the chart's plane above parameter point (s, t)."""
    return chart.affine_offset - chart.alpha1 * np.asarray(s) - chart.alpha2 * np.asarray(t)


def signed_distance(plane, points) -> np.ndarray:
    """<normal, x> - offset of a plane for an array of points (..., 3)."""
    return np.asarray(points, dtype=float) @ np.asarray(plane.normal) - plane.offset


def membership_residual(chart, points2d) -> np.ndarray:
    """|<normal, lift(p)> - offset| for in-plane points; ~0 for a valid chart."""
    return np.abs(signed_distance(chart.plane, chart.lift(points2d)))


def velocity(ms, t: float, xg, yg) -> np.ndarray:
    """Exact manufactured velocity (3, nx, ny) on the tensor grid xg x yg."""
    _, g = ms._amplitude(t)
    return g * ms._forcing_fields(xg, yg)[0]


def velocity_field(ms, t: float, dims) -> Field:
    """Exact manufactured velocity sampled on a dims vertex grid of its rectangle."""
    xg = np.linspace(0.0, ms.extents[0], int(dims[0]))
    yg = np.linspace(0.0, ms.extents[1], int(dims[1]))
    return Field(dims=(int(dims[0]), int(dims[1])), extents=ms.extents, ncomp=3,
                 data=velocity(ms, t, xg, yg))
