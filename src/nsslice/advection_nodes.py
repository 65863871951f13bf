"""The weak advection with each derivative direction at exact trapezoid nodes.

TrilinearTensor.apply_pair contracts the factor stacks x = (X1, X2) and
y = (Y1, Y2) of nsslice.galerkin modally, about 14 N^4 multiply-adds per
state.  Each of the two terms carries its derivative in one direction only.
With s_a = sin(a pi x / L), X1 is the skewed factor

    X1[a, c, m] = (1/2) int_0^L s_a (s_c' s_m - s_c s_m') dx,

Y2 is its y twin, and Y1 and X2 are the plain int s_a s_c s_m.  The
integrand of X1 is a sum of cos(k pi x / L) with |k| <= a + c + m <= 3N, and
the trapezoid rule with J intervals on [0, L] integrates cos(k pi x / L)
exactly unless k is a nonzero multiple of 2J.  So J > 3N/2 intervals give
every entry of X1 exactly (Orszag's 3/2 rule).  For an even N, J = 3N/2
does too: k = 3N = 2J comes only from a = c = m = N, where the skewed
integrand vanishes identically.  node_count(N) = ceil(3N/2) is therefore the
fewest exact intervals.  The sine factor vanishes at both ends, so only the
J - 1 interior nodes x_j = j L / J carry weight.

The weight L / J and the derivative factor pi / L cancel to pi / J, so the
node tables depend on N alone: s_a(x_j) = sin(a pi j / J) and
a cos(a pi j / J).  The x-derivative term then reads, with A the advecting
grid A_1 and V_k the grid of transported component k,

    A^[j, b]       = sum_a s_a(x_j) A[a, b]
    T[j, d, n]     = sum_b A^[j, b] Y1[b, d, n]                (q1 N2^3)
    E[j, v, k, n]  = sum_d V^_v,k[j, d] T[j, d, n]
    R_k[m, n]      = pi / (2J) sum_j (s_m(x_j) E[j, 1, k, n]
                                      - m cos_m(x_j) E[j, 0, k, n])

with V^_0,k = sum_c s_c(x_j) V_k[c, :] the values and V^_1,k = sum_c
c cos_c(x_j) V_k[c, :] the derivatives at the nodes; the y-derivative term is
the same with x and y swapped.  The two large products cost
q1 N2^3 + q2 N1^3 multiply-adds for q = J - 1 nodes per axis, about 1.7M
at N = 24 against 4.6M for the modal contraction.  Every product is one
matmul broadcast over the leading state axes, so a stacked state reads the
same digits as when it is applied alone.

Only bases with min(N1, N2) >= galerkin.NODE_FORM_MIN_MODES import this
module; TrilinearTensor.apply_pair builds a NodeAdvection on first use.
"""

from __future__ import annotations

import numpy as np


def node_count(n: int) -> int:
    """ceil(3n / 2): the fewest trapezoid intervals that integrate the skewed factor exactly."""
    return (3 * n + 1) // 2


def _node_tables(n: int) -> tuple:
    """(value, forward, back) tables of n sine modes at the interior nodes.

    value[j, a] = sin(a pi j / J) for the J - 1 interior nodes of
    J = node_count(n).  forward stacks per node j the value row (2j) and
    the derivative row a cos(a pi j / J) (2j + 1); back[2j + v, m] is the
    weight pi / (2J) times -m cos(m pi j / J) for v = 0 and sin(m pi j / J)
    for v = 1, the test mode's partner of each forward row in the skewed
    pairing s_c' s_m - s_c s_m'.
    """
    intervals = node_count(n)
    a = np.arange(1, n + 1)
    theta = np.pi / intervals * np.outer(np.arange(1, intervals), a)
    value, deriv = np.sin(theta), a * np.cos(theta)
    forward = np.stack([value, deriv], axis=1).reshape(-1, n)
    back = (0.5 * np.pi / intervals) * np.stack([-deriv, value], axis=1).reshape(-1, n)
    return value, forward, back


class NodeAdvection:
    """apply_pair of a TrilinearTensor with its derivative directions at exact nodes.

    Built from the two modal factors that stay modal, X2 = x[1] (N1, N1, N1)
    and Y1 = y[0] (N2, N2, N2), and the chart rows R3; the skewed factors
    X1 and Y2 are replaced by the node tables, so a tensor whose x and y
    are zero still gives zero advection.
    """

    def __init__(self, x2: np.ndarray, y1: np.ndarray, chart_rows: np.ndarray):
        n1, n2 = x2.shape[-1], y1.shape[-1]
        self.nmodes = (n1, n2)
        self.chart_rows = chart_rows
        self.x_value, self.x_forward, x_back = _node_tables(n1)
        self.x_back = np.ascontiguousarray(x_back.T)     # (N1, 2 q1)
        self.y_value, self.y_forward, self.y_back = _node_tables(n2)
        self.y1 = y1.reshape(n2, n2 * n2)                # Y1[b, (d, n)]
        self.x2 = x2.reshape(n1, n1 * n1)                # X2[a, (c, m)]

    def apply_pair(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Weak advection vector <B~(u, v), w_(d,r)>, shaped (..., 3M); see the module docstring."""
        n1, n2 = self.nmodes
        q1, q2 = self.x_value.shape[0], self.y_value.shape[0]
        lead = u.shape[:-1]
        adv = (self.chart_rows @ u.reshape(lead + (3, n1 * n2))).reshape(lead + (2, n1, n2))
        grids = v.reshape(lead + (3, n1, n2))
        # x-derivative term: T[j, d, n], V^[j, (v, k), d], then back over (j, v) to [m, (k, n)]
        t1 = ((self.x_value @ adv[..., 0, :, :]) @ self.y1).reshape(lead + (q1, n2, n2))
        v1 = self.x_forward @ grids.swapaxes(-3, -2).reshape(lead + (n1, 3 * n2))
        e1 = v1.reshape(lead + (q1, 6, n2)) @ t1
        r1 = self.x_back @ e1.reshape(lead + (2 * q1, 3 * n2))
        # y-derivative term: T[j, c, m], V^[j, (v, k), c], then back over (j, v) to [(k, m), n]
        t2 = ((self.y_value @ adv[..., 1, :, :].swapaxes(-1, -2)) @ self.x2).reshape(
            lead + (q2, n1, n1))
        v2 = self.y_forward @ grids.reshape(lead + (3 * n1, n2)).swapaxes(-1, -2)
        e2 = v2.reshape(lead + (q2, 6, n1)) @ t2
        r2 = e2.reshape(lead + (2 * q2, 3 * n1)).swapaxes(-1, -2) @ self.y_back
        out = r2.reshape(lead + (3, n1, n2)) + r1.reshape(lead + (n1, 3, n2)).swapaxes(-3, -2)
        return out.reshape(lead + (3 * n1 * n2,))
