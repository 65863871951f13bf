"""Reference evaluations that only the tests need.

Each helper recomputes a quantity the package produces by another route
(a dense tensor, a direct quadratic form, a sampled field, a plane residual),
so the tests can compare the two.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from nsslice.fieldio import Field


def dense_trilinear(tri) -> np.ndarray:
    """Materialize the advection tensor H as a dense (3M, 3M, 3M) array; small bases only."""
    m = tri.basis.nmodes_total
    assert m <= 128, "dense trilinear tensor is only built for small bases"
    mm = tri.basis.modes[:, 0] - 1
    nn = tri.basis.modes[:, 1] - 1
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
    return float(np.sum(tri.apply_pair(u, v) * np.asarray(w).reshape(3, -1)))


def without_nonlinearity(tensors):
    """Copy of the operators with the advection tensor zeroed, for linear runs."""
    tr = tensors.trilinear
    zero = replace(tr, x=np.zeros_like(tr.x), y=np.zeros_like(tr.y))
    return replace(tensors, trilinear=zero)


def quadform_value(matrix, w) -> float:
    """w^T A w for one symmetric 3x3 matrix."""
    ww = np.asarray(w, dtype=float)
    return float(ww @ np.asarray(matrix, dtype=float) @ ww)


def canonical_value(b, transform, w) -> float:
    """sum_j b_j y_j^2 with y the recorded change of variables applied to w."""
    y = np.asarray(transform, dtype=float) @ np.asarray(w, dtype=float)
    return float(np.sum(np.asarray(b) * y**2))


def trace_field(strain) -> np.ndarray:
    """Pointwise trace of the strain; equals div v up to stencil error."""
    return strain.sym[0, 0] + strain.sym[1, 1] + strain.sym[2, 2]


def graph_height(chart, s, t):
    """Eliminated coordinate of the chart's plane above parameter point (s, t)."""
    return chart.affine_offset - chart.alpha1 * np.asarray(s) - chart.alpha2 * np.asarray(t)


def membership_residual(chart, points2d) -> np.ndarray:
    """|<normal, lift(p)> - offset| for in-plane points; ~0 for a valid chart."""
    return np.abs(chart.plane.signed_distance(chart.lift(points2d)))


def velocity_field(ms, t: float, dims) -> Field:
    """Exact manufactured velocity sampled on a dims vertex grid of its rectangle."""
    xg = np.linspace(0.0, ms.extents[0], int(dims[0]))
    yg = np.linspace(0.0, ms.extents[1], int(dims[1]))
    return Field(dims=(int(dims[0]), int(dims[1])), extents=ms.extents, ncomp=3,
                 data=ms.velocity(t, xg, yg))
