"""Spectral Galerkin solver for the slice-projected flow equations.

The unknown is a 3-component velocity on a rectangle with homogeneous
Dirichlet boundaries, expanded in the tensor-product sine eigenbasis of the
Dirichlet Laplacian.  The slice chart couples the eliminated-axis derivative
into the in-plane ones, which shows up in three places:

* the elliptic operator gains the cross term ``(c1*D1 + c2*D2)**2``,
* the incompressibility constraint reads ``D1 u1 + D2 u2 + (c1*D1 + c2*D2) u3 = 0``,
* the advecting velocity is ``(u1 + c1*u3, u2 + c2*u3)``,

with ``(c1, c2)`` from :func:`nsslice.geometry.projected_gradient_coeffs`.
Every operator entry is a product of 1-D integrals of sine and cosine
products on [0, L], assembled exactly from their product-to-sum closed forms.
The mass is L1*L2/4 times the identity and the two gradient Grams are
diagonal, so they are kept as a scalar and two diagonals; the chart cross
term acts through the two factors of C below, stored exactly antisymmetric
as integration by parts makes them.  The advection tensor is stored in
skew-symmetrized form, so its triple contraction with any state vanishes
identically: this is the discrete counterpart of the cancellation that drives
the energy identity, and it holds without assuming the basis itself is
solenoidal.  Incompressibility is enforced weakly (the divergence is tested
against the scalar sine modes) by orthogonal projection onto the constraint
null space; a pointwise-exact discrete divergence would force the advecting
velocity to vanish identically in any finite sine span, so the weak form is
the meaningful discrete choice.  The projection is applied as
u - C^T (C C^T)^+ C u: the weak divergence C factors into one antisymmetric
matrix per direction on the (N1, N2) coefficient grid, and in the real Schur
bases of the two factors the Gram C C^T is diagonal up to 2x2 pairs (fast
diagonalization), so (C C^T)^+ is two coefficient grids and no Gram is ever
formed or factorized.  The Schur bases are folded into C and C^T, so a
projection is a few grid products per state.

On large bases TrilinearTensor.apply_pair evaluates each advection term in
its derivative direction at trapezoid nodes, which integrate its skewed
cosine sums exactly (Orszag's 3/2 rule, nsslice.advection_nodes); smaller
bases keep the modal contraction, which is faster there (NODE_FORM_MIN_MODES).

A state is a plain float array of length 3M, component-major:
coeffs[c * M + p] is the coefficient of basis mode p (row-major, see
SpectralBasis) in velocity component c, so coeffs.reshape(3, N1, N2)[c, m - 1,
n - 1] is that of w_{mn}.  A (B, 3M) stack holds B states that the solver
advances together; the times of a solve are those of its Trace.  Every
function that takes a state takes this (..., 3M) layout and no other: it
views the state as (..., 3, M) with x.reshape(x.shape[:-1] + (3, M)), which
raises ValueError on a (3, M) or (M, 3) array.  Forcing values and other
returned vectors are states too, except the scalar (..., M) rows C u and K u.

The time integrator is classical RK4 with every stage projected.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fieldio import EXTENTS_REL_TOL, Field, TimeSeriesField
from .geometry import SliceChart, projected_gradient_coeffs

logger = logging.getLogger(__name__)

#: Largest |R(z)| <= 1 interval of the classical RK4 stability function on
#: the negative real axis; the BlowUpError hint quotes the dt rule of thumb
#: dt <= RK4_REAL_LIMIT / (nu * lambda_max), which rk4_dt_limit bounds above.
RK4_REAL_LIMIT = 2.785

_BLOWUP_LIMIT = 1e12

#: Smallest min(N1, N2) at which TrilinearTensor.apply_pair runs the node form
#: of nsslice.advection_nodes instead of the modal contraction.  Measured on one
#: OpenBLAS thread (2-vCPU x86-64 host, square oblique bases, best of 25
#: interleaved rounds, two sweeps), modal over node time was 0.84-0.87 at
#: N = 12, 0.96-1.06 at 16, 1.37-1.40 at 17, 1.55-1.62 at 20 and 1.97-2.13 at
#: 24 for one state (1.05-1.09, 1.17-1.20, 1.62-1.66, 1.75-1.88 and 2.34-2.44
#: for two): the node form wins at every N >= 17.
NODE_FORM_MIN_MODES = 17


class GalerkinError(RuntimeError):
    """Solver-level failure."""


class BlowUpError(GalerkinError):
    """A coefficient exceeded the blow-up guard; the step size is unstable."""


@dataclass(frozen=True)
class SpectralBasis:
    """Tensor-product Dirichlet sine basis on a rectangle.

    Modes w_{mn}(x, y) = sin(m pi x / L1) * sin(n pi y / L2) for
    1 <= m <= N1, 1 <= n <= N2, numbered row-major on the N1 x N2 grid: mode
    p is (m, n) = (p // N2 + 1, p % N2 + 1), so every (..., M) coefficient
    vector is a free view of its (..., N1, N2) grid.  eigenvalues[p] is the
    Laplacian eigenvalue lambda_{mn} = pi^2 (m^2/L1^2 + n^2/L2^2) of mode p;
    the array is not sorted.
    """

    nmodes: tuple[int, int]
    extents: tuple[float, float]
    modes: np.ndarray = field(init=False)    # (M, 2) of (m, n), 1-based
    eigenvalues: np.ndarray = field(init=False)

    def __post_init__(self):
        n1, n2 = (int(v) for v in self.nmodes)
        l1, l2 = (float(v) for v in self.extents)
        if n1 < 1 or n2 < 1:
            raise ValueError("nmodes must both be >= 1")
        if l1 <= 0.0 or l2 <= 0.0:
            raise ValueError("extents must be positive")
        mm, nn = np.meshgrid(np.arange(1, n1 + 1), np.arange(1, n2 + 1), indexing="ij")
        modes = np.column_stack([mm.ravel(), nn.ravel()])
        object.__setattr__(self, "nmodes", (n1, n2))
        object.__setattr__(self, "extents", (l1, l2))
        object.__setattr__(self, "modes", modes)
        object.__setattr__(
            self, "eigenvalues", np.pi**2 * (modes[:, 0] ** 2 / l1**2 + modes[:, 1] ** 2 / l2**2)
        )

    @property
    def nmodes_total(self) -> int:
        return self.modes.shape[0]

    @property
    def lambda1(self) -> float:
        """First Dirichlet eigenvalue pi^2 (1/L1^2 + 1/L2^2), that of mode 0 = (1, 1)."""
        return float(self.eigenvalues[0])

    @property
    def eigen_rank(self) -> np.ndarray:
        """rank[p]: place of mode p by increasing eigenvalue, ties broken by (m, n).

        values[..., rank] puts (..., M) values listed in that order on the modes.
        """
        return np.argsort(np.lexsort((self.modes[:, 1], self.modes[:, 0], self.eigenvalues)))

    @property
    def mass_scale(self) -> float:
        """m0 = L1 * L2 / 4, the squared L2 norm of every basis mode."""
        l1, l2 = self.extents
        return l1 * l2 / 4.0

    def sine_table(self, axis: int, coords: np.ndarray) -> np.ndarray:
        """table[a-1, i] = sin(a pi coords[i] / L_axis) for a = 1..N_axis."""
        n = self.nmodes[axis]
        length = self.extents[axis]
        a = np.arange(1, n + 1)
        return np.sin(np.pi / length * np.outer(a, np.asarray(coords)))


def _per_state(values: np.ndarray):
    """One value per state: a Python float for one state, the array for a stack."""
    return float(values) if values.ndim == 0 else values


def _sum_per_state(terms: np.ndarray):
    """Sum a (..., 3, M) array over each state (_per_state)."""
    return _per_state(terms.reshape(terms.shape[:-2] + (-1,)).sum(axis=-1))


@dataclass(frozen=True)
class TrilinearTensor:
    """Skew-symmetrized advection tensor in per-direction factorized form.

    The full tensor over composite indices I = (component, mode) is

        H[(d, r), (a, p), (e, q)] = delta_{ed} * (g1[a] * T1[p, q, r]
                                                  + g2[a] * T2[p, q, r])

    with g1 = (1, 0, c1), g2 = (0, 1, c2), the rows of chart_rows, carrying
    the chart coupling of the third component into the advecting velocity,
    and the scalar mode tensors factorized over directions: T1 = X1 x Y1,
    T2 = X2 x Y2 (X* over x-modes, Y* over y-modes), stacked as x = (X1, X2)
    and y = (Y1, Y2).  X1 and Y2 are antisymmetric in their last two slots,
    which makes every triple contraction H[u, u, u] vanish identically.
    The factors are exact closed forms, so every entry that vanishes by
    parity is stored as an exact zero.

    apply_pair has two forms with the same values to round-off.  The modal
    form contracts the four factors, about 14 N^4 multiply-adds per state.
    The node form (nsslice.advection_nodes) keeps X2 and Y1 and evaluates
    each term in its derivative direction at the ceil(3N/2) - 1 interior
    nodes of a trapezoid rule, which integrates the cosine sums of X1 and Y2
    exactly: about 1.7M multiply-adds at N = 24 against 4.6M.  The modal form
    is faster on small bases, so apply_pair selects by the mode counts alone
    (NODE_FORM_MIN_MODES).
    """

    x: np.ndarray           # (2, N1, N1, N1): X1 (skewed sin*cos'*sin), X2 (sin*sin*sin)
    y: np.ndarray           # (2, N2, N2, N2): Y1 (sin*sin*sin), Y2 (skewed)
    chart_rows: np.ndarray  # (2, 3) R3 = [[1, 0, c1], [0, 1, c2]], rows g1 and g2

    x1 = property(lambda self: self.x[0])
    x2 = property(lambda self: self.x[1])
    y1 = property(lambda self: self.y[0])
    y2 = property(lambda self: self.y[1])

    @property
    def nnz(self) -> int:
        n1 = np.count_nonzero(self.x1) * np.count_nonzero(self.y1)
        n2 = np.count_nonzero(self.x2) * np.count_nonzero(self.y2)
        return 3 * 2 * (n1 + n2)  # components x advecting slots

    @cached_property
    def _factors(self) -> tuple:
        """(y as (2, N2, N2 * N2), x as (N1, 2 * N1 * N1)), the GEMM operands of apply_pair."""
        n1, n2 = self.x.shape[-1], self.y.shape[-1]
        return self.y.reshape(2, n2, n2 * n2), self.x.reshape(2 * n1 * n1, n1).T

    @cached_property
    def _node_form(self):
        """The NodeAdvection of this tensor, built on first use above NODE_FORM_MIN_MODES."""
        from .advection_nodes import NodeAdvection
        return NodeAdvection(self.x2, self.y1, self.chart_rows)

    def apply_pair(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Weak advection vector <B~(u, v), w_(d,r)>, shaped (..., 3M).

        u and v are one (3M,) state each or matching (..., 3M) stacks.  Bases
        with min(N1, N2) >= NODE_FORM_MIN_MODES run the node form of
        nsslice.advection_nodes; smaller ones run the modal contraction
        below.  Its two terms t (advecting grids A_1 = u1 + c1 u3 and
        A_2 = u2 + c2 u3) are stacked, and the advecting grid is contracted
        with the y factor once and shared by the three transported
        components.  Each contraction is one stacked matmul over (state,
        component, term), so every state sees the same GEMMs as when applied
        alone:

            R[m, n] = sum_{t,a,b,c,d} A_t[a, b] V[c, d] X_t[a, c, m] Y_t[b, d, n].
        """
        n1, n2 = self.x.shape[-1], self.y.shape[-1]
        if min(n1, n2) >= NODE_FORM_MIN_MODES:
            return self._node_form.apply_pair(u, v)
        lead = u.shape[:-1]
        y_rows, x_cols = self._factors
        adv = (self.chart_rows @ u.reshape(lead + (3, n1 * n2))).reshape(lead + (2, n1, n2))
        # tmp[t, a, d, n] = sum_b A_t[a, b] Y_t[b, d, n]
        tmp = adv @ y_rows
        # e[k, t, a, c, n] = sum_d V_k[c, d] tmp[t, a, d, n], one GEMM per (k, t, a);
        # the grid V_k of each transported component k is broadcast over t and a
        e = v.reshape(v.shape[:-1] + (3, 1, 1, n1, n2)) @ tmp.reshape(lead + (1, 2, n1, n2, n2))
        # R_k[m, n] = sum_{t, a, c} X_t[a, c, m] e[k, t, a, c, n]
        return (x_cols @ e.reshape(lead + (3, 2 * n1 * n1, n2))).reshape(lead + (3 * n1 * n2,))


@dataclass(frozen=True)
class OperatorTensors:
    """Assembled Galerkin operators for one basis/chart pair.

    The operators act per scalar mode, identically on each velocity
    component.  The mass is basis.mass_scale times the identity and is not
    stored; the gradient Grams grad1 and grad2 are diagonal and stored as
    their (M,) diagonals.  The chart coupling is stored once, as the factors
    div_x and div_y: because the sine Gram is diagonal, the weak divergence
    and the stiffness act on the (N1, N2) coefficient grids as

        C u = div_x @ grid(u1 + c1 u3) + grid(u2 + c2 u3) @ div_y.T,
        K U = -((1 + c1^2) grad1 + (1 + c2^2) grad2) U - cross_scale div_x @ U @ div_y,

    the last term being the mixed pairing <D1 w_p, D2 w_q> = kron(div_x.T,
    div_y) / m0 plus its transpose, with cross_scale = 2 c1 c2 / m0: the
    factors are exactly antisymmetric (<D1 w_c, w_a> = -<w_c, D1 w_a>), so
    the transpose div_x.T @ U @ div_y.T is div_x @ U @ div_y.  stiffness_diag
    holds the constant diagonal (1 + c1^2) grad1 + (1 + c2^2) grad2.  div_x
    and div_y vanish unless their two mode numbers differ in parity, so C,
    C^T and K keep the parity of m + n and no operator couples the classes.

    The orthogonal (hence mass-orthogonal) projector onto null(C) is
    u - C^T (C C^T)^+ C u.  schur_x and schur_y are orthogonal bases in which
    div_x and div_y are block diagonal with 2x2 blocks [[0, s], [-s, 0]]
    (see _schur_basis).  With Z^ = schur_x.T @ Z @ schur_y, C C^T acts as

        G Z^ = d * Z^ + e * Z^[px][:, py],
        d = (1 + c1^2) sx^2 + (1 + c2^2) sy^2,   e = -2 c1 c2 sx sy,

    px and py swapping the two columns of each Schur pair and sx, sy the
    signed Schur values; so G is a set of 2x2 systems [[d, e], [e, d]] with
    eigenvalues d +- e, and its pseudo-inverse on the rank-constraint_rank
    range is Z^ -> A * Z^ + B * Z^[px][:, py], with gram_pinv_coef = (A, B).
    project folds the two bases into C and C^T.  No dense K or Gram is
    formed; the dense constraint, projector and null_basis are built from the
    same kernels on first access, for inspection only.
    """

    basis: SpectralBasis
    chart_coeffs: tuple[float, float]
    trilinear: TrilinearTensor
    div_x: np.ndarray           # (N1, N1) x-direction factor of C
    div_y: np.ndarray           # (N2, N2) y-direction factor of C
    chart_rows: np.ndarray = field(init=False)        # (2, 3) R3, shared with trilinear
    grad1: np.ndarray = field(init=False)             # (M,) <D1 w_p, D1 w_p>
    grad2: np.ndarray = field(init=False)             # (M,) <D2 w_p, D2 w_p>
    stiffness_diag: np.ndarray = field(init=False)    # (M,) diagonal part of -K
    cross_scale: float = field(init=False)            # 2 c1 c2 / m0, the weight of the mixed term
    schur_x: np.ndarray = field(init=False)           # (N1, N1) orthogonal Schur basis of div_x
    schur_y: np.ndarray = field(init=False)           # (N2, N2) orthogonal Schur basis of div_y
    gram_pinv_coef: np.ndarray = field(init=False)    # (2, N1, N2) A, B: (C C^T)^+ in those bases
    constraint_rank: int = field(init=False)
    rank_deficient: bool = field(init=False)
    _factors: tuple = field(init=False, repr=False)   # project's operands: C and C^T in Schur bases

    def __post_init__(self):
        n1, n2 = self.basis.nmodes
        l1, l2 = self.basis.extents
        mm, nn = self.basis.modes.T
        c1, c2 = self.chart_coeffs
        # <D1 w_p, D1 w_p> etc.; derivatives bring mode-number factors, and the
        # 1-D integrals int s_a s_a and int c_a c_a are both L/2.  The
        # off-diagonal entries pair distinct sine modes and are exact zeros.
        object.__setattr__(self, "grad1", (np.pi / l1) ** 2 * (mm * mm) * (0.5 * l1) * (0.5 * l2))
        object.__setattr__(self, "grad2", (np.pi / l2) ** 2 * (nn * nn) * (0.5 * l1) * (0.5 * l2))
        object.__setattr__(self, "chart_rows", self.trilinear.chart_rows)
        object.__setattr__(self, "stiffness_diag",
                           (1.0 + c1 * c1) * self.grad1 + (1.0 + c2 * c2) * self.grad2)
        object.__setattr__(self, "cross_scale", 2.0 * c1 * c2 / self.basis.mass_scale)
        qx, qy, rho, w = self._schur_gram()
        rank = int(np.count_nonzero(w))
        # odd-by-odd mode counts carry one structural left-null direction of the
        # weak divergence (a spurious-mode pair), so full rank is m minus that
        expected_rank = self.nmodes_total - (n1 % 2) * (n2 % 2)
        if rank < expected_rank:
            logger.warning("constraint matrix rank %d below the expected %d; the "
                           "divergence-free subspace is larger than usual", rank, expected_rank)
        # the pseudo-inverse of each 2x2 system: k and k_swap are the inverted
        # kept eigenvalues of an entry and of its partner
        k = np.divide(1.0, w, out=np.zeros_like(w), where=w > 0.0)
        px, py = _pair_swap(n1), _pair_swap(n2)
        k_swap = k[px][:, py]
        object.__setattr__(self, "schur_x", qx)
        object.__setattr__(self, "schur_y", qy)
        object.__setattr__(self, "gram_pinv_coef",
                           np.stack([0.5 * (k + k_swap), 0.5 * rho * (k - k_swap)]))
        object.__setattr__(self, "constraint_rank", rank)
        object.__setattr__(self, "rank_deficient", rank < expected_rank)
        # project's operands; the second of each forward pair is pair-swapped
        left = np.hstack([qx.T @ self.div_x, qx.T])
        right = np.stack([qy, self.div_y.T @ qy])
        object.__setattr__(self, "_factors", (
            np.stack([left, left[px]]),
            np.stack([right, right[:, :, py]]),
            np.vstack([self.div_x.T @ qx, qx]),
            np.stack([qy.T, qy.T @ self.div_y]),
            self.chart_rows.T,
        ))

    def _schur_gram(self) -> tuple:
        """C C^T in the Schur bases of div_x and div_y: (Qx, Qy, rho, w).

        A grid entry a and its partner p (a with both pair swaps applied) form
        the 2x2 system [[d, e], [e, d]] of the class docstring.  Its
        eigenvectors are e_a + rho_a e_p and e_p + rho_p e_a, with eigenvalues
        d + rho_a e and d + rho_p e: rho = +-1, opposite on a and p, and 0 on
        an entry that is its own partner (the null columns of two odd
        counts), where e = 0.  w holds each entry's eigenvalue where the rank
        test keeps it and 0 elsewhere.

        The rank test w > max(w_max * 3M * eps, (1e-12 * scale)^2) is the one
        a dense eigensolve of the Gram would apply: on w = sigma^2 it keeps
        sigma above sqrt(3M eps) sigma_max (6e-7 sigma_max at n = 24).  Here
        d - |e| = sx^2 + sy^2 + (|c1 sx| - |c2 sy|)^2, so w vanishes only where
        both Schur values do, on the null columns of an odd-by-odd count, and
        there it is an exact zero.  For mode counts up to 64 (1.2 x 0.9 box,
        three charts) every other w / w_max is >= 1.4e-4, against 3M eps <=
        2.7e-12.  The absolute floor makes an all-zero Gram read as rank zero.
        The mass is m0 I, so the Euclidean projector is the mass-orthogonal
        one.
        """
        n1, n2 = self.basis.nmodes
        c1, c2 = self.chart_coeffs
        qx, sx = _schur_basis(self.div_x)
        qy, sy = _schur_basis(self.div_y)
        rho = np.where(sx[:, None] != 0.0, np.sign(sx)[:, None], np.sign(sy))
        d = (1.0 + c1 * c1) * sx[:, None] ** 2 + (1.0 + c2 * c2) * sy ** 2
        w = d - 2.0 * c1 * c2 * rho * np.outer(sx, sy)
        scale = np.pi * max(n1, n2) / min(self.basis.extents) * self.basis.mass_scale
        tol = max(w.max() * 3 * self.nmodes_total * np.finfo(float).eps, (1e-12 * scale) ** 2)
        return qx, qy, rho, np.where(w > tol, w, 0.0)

    @property
    def nmodes_total(self) -> int:
        return self.basis.nmodes_total

    # quadratic functionals, exact Parseval-style sums in coefficient space;
    # each takes one (3M,) state or a (..., 3M) stack and then returns per-state arrays
    def energy(self, coeffs: np.ndarray):
        """Kinetic energy 0.5 * ||u||_H^2."""
        u = coeffs.reshape(coeffs.shape[:-1] + (3, self.nmodes_total))
        return 0.5 * _sum_per_state(u * (self.basis.mass_scale * u))

    def norm_h(self, coeffs: np.ndarray):
        return _per_state(np.sqrt(np.maximum(0.0, 2.0 * self.energy(coeffs))))

    def dissipation_terms(self, coeffs: np.ndarray):
        """(||D1 u||^2, ||D2 u||^2, ||(c1 D1 + c2 D2) u||^2) summed over components."""
        u = coeffs.reshape(coeffs.shape[:-1] + (3, self.nmodes_total))
        d1, d2 = self._gradient_terms(u)
        c1, c2 = self.chart_coeffs
        grid = u.reshape(u.shape[:-1] + self.basis.nmodes)
        mixed = _sum_per_state(u * (self.div_x @ grid @ self.div_y).reshape(u.shape))
        mixed *= self.cross_scale
        return d1, d2, c1 * c1 * d1 + c2 * c2 * d2 + mixed

    def grad_norm_sq(self, coeffs: np.ndarray):
        d1, d2 = self._gradient_terms(coeffs.reshape(coeffs.shape[:-1] + (3, self.nmodes_total)))
        return d1 + d2

    def _gradient_terms(self, u: np.ndarray):
        return tuple(_sum_per_state(u * (u * diag)) for diag in (self.grad1, self.grad2))

    def divergence(self, coeffs: np.ndarray) -> np.ndarray:
        """Weak divergence C u of one (3M,) state or a (..., 3M) stack, shaped (..., M)."""
        n1, n2 = self.basis.nmodes
        lead = coeffs.shape[:-1]
        a = (self.chart_rows @ coeffs.reshape(lead + (3, n1 * n2))).reshape(lead + (2, n1, n2))
        div = self.div_x @ a[..., 0, :, :] + a[..., 1, :, :] @ self.div_y.T
        return div.reshape(lead + (n1 * n2,))

    def project(self, coeffs: np.ndarray) -> np.ndarray:
        """u - C^T (C C^T)^+ C u for one (3M,) state or a (..., 3M) stack.

        With a = R3 u the two advecting grids and Dx, Dy, Qx, Qy the factors
        and their Schur bases, the Schur-basis C u is
        z = Qx^T Dx a_1 Qy + Qx^T a_2 Dy^T Qy, one product of [Qx^T Dx, Qx^T]
        with the stacked a_t (Qy, Dy^T Qy)[t]; its pair swap z[px][:, py]
        comes from the same products with swapped rows and columns.  Then
        lam^ = A * z + B * z[px][:, py], and C^T takes lam = Qx lam^ Qy^T as
        (Dx^T lam, lam Dy) = ([Dx^T Qx; Qx] lam^) (Qy^T, Qy^T Dy).  Every
        product is broadcast per state, so a stacked state reads the same
        digits as when it is projected alone (a (K, M) @ W.T GEMM does not).
        """
        n1, n2 = self.basis.nmodes
        lead = coeffs.shape[:-1]
        left, right, back_left, back_right, rows_t = self._factors
        a = (self.chart_rows @ coeffs.reshape(lead + (3, n1 * n2))).reshape(lead + (1, 2, n1, n2))
        z = left @ (a @ right).reshape(lead + (2, 2 * n1, n2))
        lam = (self.gram_pinv_coef * z).sum(axis=-3)
        parts = (back_left @ lam).reshape(lead + (2, n1, n2)) @ back_right
        adjoint = rows_t @ parts.reshape(lead + (2, n1 * n2))
        return coeffs - adjoint.reshape(coeffs.shape)

    def apply_stiffness(self, u: np.ndarray) -> np.ndarray:
        """K u of (..., M) coefficients on the (N1, N2) grids; see the class docstring."""
        mixed = self.div_x @ u.reshape(u.shape[:-1] + self.basis.nmodes) @ self.div_y
        return -(self.stiffness_diag * u + self.cross_scale * mixed.reshape(u.shape))

    @cached_property
    def constraint(self) -> np.ndarray:
        """Dense (M, 3M) weak divergence C, built on first access."""
        return self.divergence(np.eye(3 * self.nmodes_total)).T

    @cached_property
    def projector(self) -> np.ndarray:
        """Dense (3M, 3M) projector I - C^T gram_pinv C, built on first access."""
        return self.project(np.eye(3 * self.nmodes_total)).T

    @cached_property
    def null_basis(self) -> np.ndarray:
        """Orthonormal (3M, 3M - rank) basis of the constraint null space.

        Built on first access: C^T applied to the kept eigenvectors of C C^T,
        Qx (e_a + rho_a e_p) Qy^T (see _schur_gram), spans range(C^T), so the
        trailing columns of its complete QR span the complement null(C).
        """
        n1, n2 = self.basis.nmodes
        m = self.nmodes_total
        qx, qy, rho, w = self._schur_gram()
        kept = np.flatnonzero(w)
        partner = np.arange(m).reshape(n1, n2)[_pair_swap(n1)][:, _pair_swap(n2)].ravel()
        vecs = np.zeros((kept.size, m))
        vecs[np.arange(kept.size), kept] = 1.0
        vecs[np.arange(kept.size), partner[kept]] += rho.ravel()[kept]
        lam = (qx @ vecs.reshape(-1, n1, n2) @ qy.T).reshape(-1, m)
        range_t = self.constraint.T @ lam.T
        return np.linalg.qr(range_t, mode="complete")[0][:, self.constraint_rank:]


def _pair_swap(n: int) -> np.ndarray:
    """Index map that swaps columns 2i and 2i + 1 (a last odd column stays)."""
    return np.minimum(np.arange(n) ^ 1, n - 1)


def _schur_basis(div: np.ndarray) -> tuple:
    """Real Schur form of one antisymmetric divergence factor: (Q, s).

    div couples only mode indices of opposite parity, so with sign = +1 on
    even indices and -1 on odd ones, sign[:, None] * div is symmetric, and
    one real eigh of it gives its eigenpairs (+-s_i, (u_i, +-v_i) / sqrt(2))
    split by parity.  Columns 2i and 2i + 1 of the orthogonal Q are the Schur
    pair u_i (on the even indices) and v_i (on the odd ones); an odd N ends
    with the null vector.  Q^T div Q is zero except Q^T div Q[j, px[j]] =
    s[j], with s[2i] = s_i > 0, s[2i + 1] = -s_i and s = 0 on the null
    column, px = _pair_swap(N).  Raises GalerkinError unless Q is orthogonal
    and Q^T div Q has that form to 1e-12 max|div|.
    """
    n = div.shape[0]
    half = n // 2
    even = np.arange(n) % 2 == 0
    vals, vecs = np.linalg.eigh(np.where(even[:, None], div, -div))
    q = np.zeros((n, n))
    q[even, 0:2 * half:2] = np.sqrt(2.0) * vecs[even, n - half:]
    q[~even, 1:2 * half:2] = np.sqrt(2.0) * vecs[~even, n - half:]
    if n % 2:
        q[even, -1] = vecs[even, half]
    s = np.zeros(n)
    s[0:2 * half:2] = vals[n - half:]
    s[1:2 * half:2] = -vals[n - half:]
    form = q.T @ div @ q
    form[np.arange(n), _pair_swap(n)] -= s
    if (np.max(np.abs(form)) > 1e-12 * np.max(np.abs(div))
            or np.max(np.abs(q.T @ q - np.eye(n))) > 1e-12):
        raise GalerkinError(f"the ({n}, {n}) divergence factor has no real Schur form "
                            "to 1e-12 in its computed basis")
    return q, s


def _trig_tables(n: int, length: float):
    """Exact 1-D integrals over [0, length] of products of the n sine modes.

    With s_a = sin(a pi x / L) and c_a = cos(a pi x / L), returns sc[a, b] =
    int s_a c_b, sss[a, b, c] = int s_a s_b s_c and scs = int s_a c_b s_c,
    each reduced by product-to-sum to the integrals int cos(k pi x / L) =
    L [k = 0] and int sin(k pi x / L) = 2L / (k pi) for odd k, else 0.
    """
    def cos_int(k):
        return np.where(k == 0, length, 0.0)

    def sin_int(k):
        odd = k % 2 == 1
        return np.where(odd, 2.0 * length / (np.pi * np.where(odd, k, 1)), 0.0)

    a = np.arange(1, n + 1)
    i, j = a[:, None], a[None, :]
    sc = 0.5 * (sin_int(i + j) + sin_int(i - j))
    i, j, k = a[:, None, None], a[None, :, None], a[None, None, :]
    sss = 0.25 * (
        sin_int(k + i - j) + sin_int(k - i + j) - sin_int(k + i + j) - sin_int(k - i - j)
    )
    scs = 0.25 * (
        cos_int(i + j - k) + cos_int(i - j - k) - cos_int(i + j + k) - cos_int(i - j + k)
    )
    return sc, sss, scs


def assemble(basis: SpectralBasis, chart: SliceChart) -> OperatorTensors:
    """Assemble the gradient, stiffness, constraint and advection operators exactly."""
    c1, c2 = projected_gradient_coeffs(chart)
    n1, n2 = basis.nmodes
    l1, l2 = basis.extents

    sc1, sss1, scs1 = _trig_tables(n1, l1)
    sc2, sss2, scs2 = _trig_tables(n2, l2)

    # weak derivative pairings <D_i w_q, w_p>.  The sine pair integral is
    # diagonal (L/2), so each pairing acts along one grid direction only:
    # div_x[a, c] is the <D1 w_q, w_p> entry for x-modes p = a+1, q = c+1,
    # div_y likewise in y; the strictly upper triangle mirrored negated makes
    # each exactly antisymmetric
    bmode1 = np.arange(1, n1 + 1)
    bmode2 = np.arange(1, n2 + 1)
    div_x, div_y = (np.triu(d, 1) - np.triu(d, 1).T for d in (
        (np.pi / l1) * bmode1[None, :] * sc1 * (0.5 * l2),
        (np.pi / l2) * bmode2[None, :] * sc2 * (0.5 * l1)))

    # skewed advective factors; antisymmetric in the last two slots
    x1 = 0.5 * (np.pi / l1) * (
        bmode1[None, :, None] * scs1 - bmode1[None, None, :] * np.swapaxes(scs1, 1, 2)
    )
    y2 = 0.5 * (np.pi / l2) * (
        bmode2[None, :, None] * scs2 - bmode2[None, None, :] * np.swapaxes(scs2, 1, 2)
    )
    r3 = np.array([[1.0, 0.0, c1], [0.0, 1.0, c2]])
    trilinear = TrilinearTensor(x=np.stack([x1, sss1]), y=np.stack([sss2, y2]), chart_rows=r3)
    return OperatorTensors(basis=basis, chart_coeffs=(c1, c2), trilinear=trilinear,
                           div_x=div_x, div_y=div_y)


def _checked_state(coeffs, tensors: OperatorTensors) -> np.ndarray:
    """coeffs as a float (3M,) state or (B, 3M) stack; raises on another shape or on NaN/inf."""
    c = np.asarray(coeffs, dtype=float)
    m3 = 3 * tensors.nmodes_total
    if c.ndim not in (1, 2) or c.shape[-1] != m3:
        raise ValueError(f"coeffs must be ({m3},) or a (B, {m3}) stack, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise GalerkinError("non-finite Galerkin coefficients")
    return c


def project_divfree(coeffs, tensors: OperatorTensors) -> np.ndarray:
    """Mass-orthogonal projection onto the weak divergence-free subspace.

    coeffs is a (3M,) state or a (B, 3M) stack; a new array is returned.
    Idempotent and self-adjoint in the mass inner product; states already in
    the subspace are returned unchanged up to round-off.
    """
    return tensors.project(_checked_state(coeffs, tensors))


def divergence_residual(coeffs: np.ndarray, tensors: OperatorTensors):
    """H-norm of the scalar-mode projection of the discrete divergence.

    A float for one state, an array for a (..., 3M) stack of states.
    """
    r = tensors.divergence(coeffs)
    return _per_state(np.sqrt(np.sum(r * r, axis=-1) / tensors.basis.mass_scale))


def _momentum(coeffs: np.ndarray, tensors: OperatorTensors, nu: float) -> np.ndarray:
    """Weak momentum nu K u - B~(u, u) of one (3M,) state or a (..., 3M) stack, a new array."""
    u = coeffs.reshape(coeffs.shape[:-1] + (3, tensors.nmodes_total))
    weak = tensors.apply_stiffness(u).reshape(coeffs.shape)
    weak *= nu
    weak -= tensors.trilinear.apply_pair(coeffs, coeffs)
    return weak


def _rhs(
    coeffs3m: np.ndarray,
    t: float,
    tensors: OperatorTensors,
    f_of_t,
    nu: float,
) -> np.ndarray:
    """Projected coefficient velocity of the Galerkin ODE system.

    coeffs3m is one (3M,) state or a (B, 3M) stack of states at time t, and
    f_of_t a callable t -> (3M,) or None.
    """
    weak = _momentum(coeffs3m, tensors, nu)
    weak /= tensors.basis.mass_scale
    if f_of_t is not None:
        weak += f_of_t(t)
    return tensors.project(weak)


def step(
    coeffs: np.ndarray,
    t: float,
    tensors: OperatorTensors,
    f_of_t,
    nu: float,
    dt: float,
) -> np.ndarray:
    """One explicit RK4 step of the projected Galerkin system from time t.

    coeffs is a float (3M,) state or a (B, 3M) stack, advanced in lockstep;
    the new array holds the state at t + dt.  Every stage is projected, so a
    state in the weak divergence-free subspace stays in it to round-off and
    the result is not projected again.  f_of_t is the forcing in basis
    coordinates, a callable t -> (3M,), or None for no forcing
    (series_forcing builds one from a TimeSeriesField).
    The new state is u0 + (dt/6)(k1 + 2 k2 + 2 k3 + k4).  Raises BlowUpError
    when any coefficient passes 1e12 or is not finite, which signals an
    unstable dt.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if nu <= 0.0:
        raise ValueError("nu must be positive")
    half = 0.5 * dt
    k1 = _rhs(coeffs, t, tensors, f_of_t, nu)
    k2 = _rhs(coeffs + half * k1, t + half, tensors, f_of_t, nu)
    k3 = _rhs(coeffs + half * k2, t + half, tensors, f_of_t, nu)
    k4 = _rhs(coeffs + dt * k3, t + dt, tensors, f_of_t, nu)
    u1 = coeffs + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    # NaN and inf compare false, so this one test also catches them
    if not np.max(np.abs(u1)) <= _BLOWUP_LIMIT:
        raise BlowUpError(
            f"coefficients exceeded {_BLOWUP_LIMIT:.0e} at t = {t + dt:g}; "
            f"reduce dt (rule of thumb: dt <= {RK4_REAL_LIMIT:.3f} / (nu * lambda_max))"
        )
    return u1


def rk4_dt_limit(basis: SpectralBasis, chart: SliceChart, nu: float) -> float:
    """RK4_REAL_LIMIT / (nu * lam): any larger dt makes RK4 amplify a Stokes mode.

    lam = (1 + c1^2) (pi N1 / L1)^2 + (1 + c2^2) (pi N2 / L2)^2 is
    max(stiffness_diag) / m0, the largest diagonal entry of -K / m0 (the mixed
    term has a zero diagonal, its factors being antisymmetric), so
    lambda_max(-K) / m0 >= lam.  By coercivity_check's n_hat (x) v argument
    the eigenvector of lambda_max(-K) is divergence-free, so the projected
    Stokes part has the eigenvalue -nu lambda_max(-K) / m0, and RK4 amplifies
    it once nu dt lam > RK4_REAL_LIMIT.  The bound is a closed form of the
    basis and the chart, with no assembly and no eigensolve.  It is exact on
    an axis-aligned chart; on an oblique one a dt below it may still be
    unstable, which step's blow-up guard catches.
    """
    c1, c2 = projected_gradient_coeffs(chart)
    (n1, n2), (l1, l2) = basis.nmodes, basis.extents
    lam = (1.0 + c1 * c1) * (np.pi * n1 / l1) ** 2 + (1.0 + c2 * c2) * (np.pi * n2 / l2) ** 2
    return RK4_REAL_LIMIT / (nu * lam)


def project_field_to_basis(fld: Field, basis: SpectralBasis) -> np.ndarray:
    """L2 (mass) projection of a sampled 2D field onto the basis: (ncomp * M,) coordinates.

    Uses the trapezoid rule on the vertex grid, which by discrete sine
    orthogonality is exact for fields already in the span as long as the grid
    resolves the modes (dims[i] >= N_i + 2).  The matmul rounds by the
    memory layout of its operand, so the samples are taken in read_field's
    layout (each component's first axis fastest), copied only when they are
    not in it: a field in memory and the same field read back from NSF1
    project to bit-identical coefficients.
    """
    if fld.ndim_grid != 2:
        raise ValueError("project_field_to_basis needs a 2D field")
    n1, n2 = basis.nmodes
    if fld.dims[0] < n1 + 2 or fld.dims[1] < n2 + 2:
        raise ValueError(
            f"grid {fld.dims} too coarse for modes {basis.nmodes}; need dims >= N + 2"
        )
    for axis in range(2):
        if abs(fld.extents[axis] - basis.extents[axis]) > EXTENTS_REL_TOL * basis.extents[axis]:
            raise ValueError(
                f"field extents {fld.extents} do not match basis extents {basis.extents}"
            )
    j1 = fld.dims[0] - 1
    j2 = fld.dims[1] - 1
    s1 = basis.sine_table(0, fld.axis_coords(0))  # (N1, n1grid)
    s2 = basis.sine_table(1, fld.axis_coords(1))
    data = np.ascontiguousarray(fld.data.swapaxes(1, 2)).swapaxes(1, 2)
    grid = (s1 @ data @ s2.T) * (4.0 / (j1 * j2))
    return grid.reshape(-1)


def series_forcing(series: TimeSeriesField, basis: SpectralBasis):
    """Callable t -> (3M,) basis coordinates of a forcing time series.

    Every frame is projected once, here; between sample times the
    projections are interpolated linearly, and outside them the end frames
    are held.
    """
    times = series.times
    frames = np.stack([project_field_to_basis(fr, basis) for fr in series.frames])

    def f_of_t(t):
        if t <= times[0]:
            return frames[0]
        if t >= times[-1]:
            return frames[-1]
        j = int(np.searchsorted(times, t) - 1)
        s = (t - times[j]) / (times[j + 1] - times[j])
        return (1.0 - s) * frames[j] + s * frames[j + 1]

    return f_of_t


def synthesize_field(basis: SpectralBasis, coeffs: np.ndarray, dims) -> Field:
    """Evaluate the expansion on a vertex grid of the basis rectangle.

    coeffs is one (3M,) state, giving the 3-component (N1, N2) field, or a
    (k, 3M) stack of k >= 2 states, giving the 3-component (N1, N2, k) field
    whose frame j, data[..., j], is state j.  The third axis is the frame
    index, with extent k - 1.  A stack is one batched matmul whose per-state
    products are those of the single state, so each frame is bit-identical to
    synthesizing its state alone.
    """
    dims = tuple(int(v) for v in dims)
    s1, s2 = (basis.sine_table(i, np.linspace(0.0, basis.extents[i], dims[i])) for i in range(2))
    data = s1.T @ coeffs.reshape(coeffs.shape[:-1] + (3,) + basis.nmodes) @ s2
    if coeffs.ndim == 1:
        return Field(dims=dims, extents=basis.extents, ncomp=3, data=data)
    k = coeffs.shape[0]
    return Field(dims=dims + (k,), extents=basis.extents + (k - 1.0,), ncomp=3,
                 data=np.moveaxis(data, 0, -1))


@dataclass
class Trace:
    """Per-step record of the coefficient trajectory."""

    times: np.ndarray    # (K,)
    coeffs: np.ndarray   # (K, 3M), or (K, B, 3M) for a stacked state

    def __len__(self) -> int:
        return self.times.size


def step_count(dt: float, t_end: float) -> int:
    """The number of dt steps to t_end; raises ValueError unless it is a whole number >= 1."""
    ratio = t_end / dt
    if not np.isfinite(ratio):
        raise ValueError(f"t_end / dt = {t_end} / {dt} is not finite")
    nsteps = int(round(ratio))
    if nsteps < 1 or abs(nsteps * dt - t_end) > 1e-9 * max(t_end, 1.0):
        raise ValueError(f"t_end {t_end} is not an integer multiple of dt {dt}")
    return nsteps


def solve_from_state(
    coeffs,
    f_of_t,
    tensors: OperatorTensors,
    nu: float,
    dt: float,
    t_end: float,
) -> Trace:
    """Integrate the projected Galerkin system from coefficients at t = 0 to t_end.

    coeffs is a (3M,) state or a (B, 3M) stack of B trajectories integrated
    in lockstep, each bit-identical to its own solve.  f_of_t is the forcing
    in basis coordinates, a callable t -> (3M,), or None for no forcing
    (see step).  Every step is recorded in the returned trace, its last
    state being trace.coeffs[-1]; fields on a grid are left to the caller
    (synthesize_field).
    """
    cur = _checked_state(coeffs, tensors)
    nsteps = step_count(dt, t_end)
    times = np.empty(nsteps + 1)
    trajectory = np.empty((nsteps + 1,) + cur.shape)
    t = 0.0
    times[0] = t
    trajectory[0] = cur
    for k in range(nsteps):
        cur = step(cur, t, tensors, f_of_t, nu, dt)
        # times accumulate as t + dt, the stage times step uses
        t += dt
        times[k + 1] = t
        trajectory[k + 1] = cur
    return Trace(times=times, coeffs=trajectory)


def rhs_dual_norm(
    coeffs: np.ndarray,
    tensors: OperatorTensors,
    f_of_t,
    nu: float,
    t: float,
):
    """Dual (gradient-seminorm) magnitude of the momentum balance right side.

    Diagnostic only: the time-derivative functional nu*A1 u - B~(u, u) + f is
    measured against test functions in the gradient seminorm, i.e.
    sqrt(F^T K^{-1} F) per component with K the (diagonal) gradient Gram
    matrix.  Useful for monitoring how hard the coefficient ODE is being
    driven; no controller consumes it.  coeffs is one (3M,) state or a
    (..., 3M) stack, which gives one magnitude per state; f_of_t is the
    forcing in basis coordinates, a callable t -> (3M,), or None (see step).
    """
    weak = _momentum(coeffs, tensors, nu)
    if f_of_t is not None:
        weak += tensors.basis.mass_scale * f_of_t(t)
    per_mode = weak.reshape(weak.shape[:-1] + (3, tensors.nmodes_total)) ** 2
    return _per_state(np.sqrt(_sum_per_state(per_mode / (tensors.grad1 + tensors.grad2))))


def coercivity_check(tensors: OperatorTensors) -> float:
    """Smallest eigenvalue of the negated stiffness on the div-free subspace.

    The stiffness acts as I3 (x) K and the mass is m0 = basis.mass_scale
    times the identity, so by Courant-Fischer the value is lambda_min(-K) / m0:

    1. n_hat = (-c1, -c2, 1) / norm spans null(R3), so n_hat (x) R^M lies in null(C);
    2. I3 (x) K maps n_hat (x) R^M into itself with the spectrum of K;
    3. a minimum over null(C) is at least the unconstrained one, and 1-2 attain it.

    A positive value certifies discrete ellipticity, but it cannot register a
    loss of ellipticity that the constraint causes; the inf-sup ratio of C
    is the certificate for that.
    """
    neg_k = -tensors.apply_stiffness(np.eye(tensors.nmodes_total))
    return float(np.linalg.eigvalsh(neg_k)[0]) / tensors.basis.mass_scale
