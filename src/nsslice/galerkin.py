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
u - C^T (C C^T)^+ C u: the weak divergence C factors into one matrix per
direction on the (N1, N2) coefficient grid.  C and C^T keep the parity of
m + n, so the (M, M) Gram C C^T is block diagonal over the two parity
classes; the pseudo-inverse of each block is formed once from that block's
eigendecomposition and applied as its own half-size product.  The stiffness
splits the same way, which coercivity_check uses.

A state is a plain float array of length 3M, component-major:
coeffs[c * M + p] is the coefficient of basis mode p (row-major, see
SpectralBasis) in velocity component c, so coeffs.reshape(3, N1, N2)[c, m - 1,
n - 1] is that of w_{mn}.  A (B, 3M) stack holds B states that the solver
advances together; the times of a solve are those of its Trace.

The time integrator is classical RK4 with every stage projected.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fieldio import Field, TimeSeriesField
from .geometry import SliceChart, projected_gradient_coeffs

logger = logging.getLogger(__name__)

#: Largest |R(z)| <= 1 interval of the classical RK4 stability function on
#: the negative real axis; the BlowUpError hint quotes the dt rule of thumb
#: dt <= RK4_REAL_LIMIT / (nu * lambda_max).
RK4_REAL_LIMIT = 2.785

_BLOWUP_LIMIT = 1e12

#: Relative per-axis tolerance within which a field lies on a basis's box.
EXTENTS_REL_TOL = 1e-12


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


def _by_component(coeffs, m: int) -> np.ndarray:
    """View a (3M,) or (3, M) state, or a (..., 3M) stack, as (..., 3, M)."""
    c = np.asarray(coeffs)
    lead = c.shape[:-1] if c.shape[-1] == 3 * m else c.shape[:-2]
    return c.reshape(lead + (3, m))


def _sum_per_state(terms: np.ndarray):
    """Sum a (..., 3, M) array over each state: a float, or an array for a stack."""
    total = terms.reshape(terms.shape[:-2] + (-1,)).sum(axis=-1)
    return float(total) if total.ndim == 0 else total


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
    """

    x: np.ndarray           # (2, N1, N1, N1): X1 (skewed sin*cos'*sin), X2 (sin*sin*sin)
    y: np.ndarray           # (2, N2, N2, N2): Y1 (sin*sin*sin), Y2 (skewed)
    chart_rows: np.ndarray  # (2, 3) R3 = [[1, 0, c1], [0, 1, c2]], rows g1 and g2
    basis: SpectralBasis

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
        n1, n2 = self.basis.nmodes
        return self.y.reshape(2, n2, n2 * n2), self.x.reshape(2 * n1 * n1, n1).T

    def apply_pair(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Weak advection vector <B~(u, v), w_(d,r)>, shaped (..., 3, M).

        u and v are one state each ((3M,) or (3, M)) or matching (..., 3M)
        stacks.  The two terms t (advecting grids A_1 = u1 + c1 u3 and
        A_2 = u2 + c2 u3) are stacked, and the advecting grid is contracted
        with the y factor once and shared by the three transported
        components.  Each contraction is one stacked matmul over (state,
        component, term), so every state sees the same GEMMs as when applied
        alone:

            R[m, n] = sum_{t,a,b,c,d} A_t[a, b] V[c, d] X_t[a, c, m] Y_t[b, d, n].
        """
        n1, n2 = self.basis.nmodes
        lead = u.shape[:-1] if u.shape[-1] == 3 * n1 * n2 else u.shape[:-2]
        y_rows, x_cols = self._factors
        adv = (self.chart_rows @ u.reshape(lead + (3, n1 * n2))).reshape(lead + (2, n1, n2))
        # tmp[t, a, d, n] = sum_b A_t[a, b] Y_t[b, d, n]
        tmp = adv @ y_rows
        # e[k, t, a, c, n] = sum_d V_k[c, d] tmp[t, a, d, n], one GEMM per (k, t, a);
        # the grid V_k of each transported component k is broadcast over t and a
        e = v.reshape(lead + (3, 1, 1, n1, n2)) @ tmp.reshape(lead + (1, 2, n1, n2, n2))
        # R_k[m, n] = sum_{t, a, c} X_t[a, c, m] e[k, t, a, c, n]
        return (x_cols @ e.reshape(lead + (3, 2 * n1 * n1, n2))).reshape(lead + (3, n1 * n2))


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
    parity_order lists the modes with m + n even, then those with m + n odd
    (each class in mode order), and parity_place[p] is the place of mode p
    in that list.  The orthogonal (hence mass-orthogonal) projector onto
    null(C) is applied as u - C^T gram_pinv C u, with gram_pinv the
    pseudo-inverse of C C^T on its rank-constraint_rank range, stored only as
    its two parity blocks gram_pinv_blocks (even, odd), which act on C u
    taken in parity order.  No dense K or gram_pinv is formed; the dense
    constraint, projector and null_basis are built from the same kernels on
    first access, for inspection only.
    """

    basis: SpectralBasis
    chart_coeffs: tuple[float, float]
    chart_rows: np.ndarray      # (2, 3) R3 = [[1, 0, c1], [0, 1, c2]]: u -> advecting velocity
    trilinear: TrilinearTensor
    grad1: np.ndarray           # (M,) <D1 w_p, D1 w_p>
    grad2: np.ndarray           # (M,) <D2 w_p, D2 w_p>
    div_x: np.ndarray           # (N1, N1) x-direction factor of C
    div_y: np.ndarray           # (N2, N2) y-direction factor of C
    stiffness_diag: np.ndarray = field(init=False)    # (M,) diagonal part of -K
    cross_scale: float = field(init=False)            # 2 c1 c2 / m0, the weight of the mixed term
    parity_order: np.ndarray = field(init=False)      # (M,) modes, m + n even first
    parity_place: np.ndarray = field(init=False)      # (M,) inverse of parity_order
    gram_pinv_blocks: tuple = field(init=False)       # per class, pinv of its block of C C^T
    constraint_rank: int = field(init=False)
    rank_deficient: bool = field(init=False)

    def __post_init__(self):
        # The projector needs (C C^T)^+ only, one parity block at a time.  On
        # w = sigma^2 the rank test w > max(w_max * 3M * eps, (1e-12 * scale)^2)
        # keeps sigma above sqrt(3M eps) sigma_max (6e-7 sigma_max at n = 24).
        # For mode counts up to 32 (1.2 x 0.9 box, three charts) the kept
        # w / w_max are >= 2.3e-4 and the odd x odd structural zero reads
        # <= 7.1e-17, far on either side.  The absolute floor makes an
        # all-round-off Gram read as rank zero.  The mass is m0 I, so this
        # Euclidean projector is the mass-orthogonal one.
        n1, n2 = self.basis.nmodes
        c1, c2 = self.chart_coeffs
        order = np.argsort(self.basis.modes.sum(axis=1) % 2, kind="stable")
        object.__setattr__(self, "stiffness_diag",
                           (1.0 + c1 * c1) * self.grad1 + (1.0 + c2 * c2) * self.grad2)
        object.__setattr__(self, "cross_scale", 2.0 * c1 * c2 / self.basis.mass_scale)
        object.__setattr__(self, "parity_order", order)
        object.__setattr__(self, "parity_place", np.argsort(order))
        ranges = self._gram_ranges()
        rank = sum(w.size for w, _ in ranges)
        # odd-by-odd mode counts carry one structural left-null direction of the
        # weak divergence (a spurious-mode pair), so full rank is m minus that
        expected_rank = self.nmodes_total - (n1 % 2) * (n2 % 2)
        if rank < expected_rank:
            logger.warning("constraint matrix rank %d below the expected %d; the "
                           "divergence-free subspace is larger than usual", rank, expected_rank)
        object.__setattr__(self, "gram_pinv_blocks", tuple((v / w) @ v.T for w, v in ranges))
        object.__setattr__(self, "constraint_rank", rank)
        object.__setattr__(self, "rank_deficient", rank < expected_rank)

    @property
    def parity_modes(self) -> tuple:
        """(modes with m + n even, modes with m + n odd), slices of parity_order."""
        n_even = int(np.count_nonzero(self.basis.modes.sum(axis=1) % 2 == 0))
        return self.parity_order[:n_even], self.parity_order[n_even:]

    def _parity_blocks(self, op) -> list:
        """The diagonal parity blocks of the (M, M) matrix whose row j is op(e_j).

        op maps a (k, M) stack of unit rows to (k, M); it is called once per
        class, on that class's unit rows only.
        """
        blocks = []
        for modes in self.parity_modes:
            unit = np.zeros((modes.size, self.nmodes_total))
            unit[np.arange(modes.size), modes] = 1.0
            blocks.append(op(unit)[:, modes])
        return blocks

    def _gram_ranges(self) -> list:
        """Per parity class, the kept eigenpairs (w, v) of its block of C C^T."""
        n1, n2 = self.basis.nmodes
        m = self.nmodes_total
        spectra = [np.linalg.eigh(g) for g in
                   self._parity_blocks(lambda e: self.divergence(self.divergence_adjoint(e)))]
        w_max = max((w.max() for w, _ in spectra if w.size), default=0.0)
        scale = np.pi * max(n1, n2) / min(self.basis.extents) * self.basis.mass_scale
        tol = max(w_max * 3 * m * np.finfo(float).eps, (1e-12 * scale) ** 2)
        return [(w[w > tol], v[:, w > tol]) for w, v in spectra]

    @property
    def nmodes_total(self) -> int:
        return self.basis.nmodes_total

    # quadratic functionals, exact Parseval-style sums in coefficient space;
    # each takes one state or a (..., 3M) stack and then returns per-state arrays
    def energy(self, coeffs: np.ndarray):
        """Kinetic energy 0.5 * ||u||_H^2."""
        u = _by_component(coeffs, self.nmodes_total)
        return 0.5 * _sum_per_state(u * (self.basis.mass_scale * u))

    def norm_h(self, coeffs: np.ndarray):
        norm = np.sqrt(np.maximum(0.0, 2.0 * self.energy(coeffs)))
        return float(norm) if norm.ndim == 0 else norm

    def dissipation_terms(self, coeffs: np.ndarray):
        """(||D1 u||^2, ||D2 u||^2, ||(c1 D1 + c2 D2) u||^2) summed over components."""
        u = _by_component(coeffs, self.nmodes_total)
        d1, d2 = self._gradient_terms(u)
        c1, c2 = self.chart_coeffs
        grid = u.reshape(u.shape[:-1] + self.basis.nmodes)
        mixed = _sum_per_state(u * (self.div_x @ grid @ self.div_y).reshape(u.shape))
        mixed *= self.cross_scale
        return d1, d2, c1 * c1 * d1 + c2 * c2 * d2 + mixed

    def grad_norm_sq(self, coeffs: np.ndarray):
        d1, d2 = self._gradient_terms(_by_component(coeffs, self.nmodes_total))
        return d1 + d2

    def _gradient_terms(self, u: np.ndarray):
        return tuple(_sum_per_state(u * (u * diag)) for diag in (self.grad1, self.grad2))

    @cached_property
    def _transposes(self) -> tuple:  # the transposed views C and C^T read
        return self.div_x.T, self.div_y.T, self.chart_rows.T

    def divergence(self, coeffs: np.ndarray) -> np.ndarray:
        """Weak divergence C u of one state or a (..., 3M) stack, shaped (..., M)."""
        n1, n2 = self.basis.nmodes
        lead = coeffs.shape[:-1] if coeffs.shape[-1] == 3 * n1 * n2 else coeffs.shape[:-2]
        a = (self.chart_rows @ coeffs.reshape(lead + (3, n1 * n2))).reshape(lead + (2, n1, n2))
        div = self.div_x @ a[..., 0, :, :] + a[..., 1, :, :] @ self._transposes[1]
        return div.reshape(lead + (n1 * n2,))

    def divergence_adjoint(self, lam: np.ndarray) -> np.ndarray:
        """C^T lam of one (M,) multiplier or a (..., M) stack, shaped (..., 3, M)."""
        n1, n2 = self.basis.nmodes
        div_xt, _, rows_t = self._transposes
        grid = lam.reshape(lam.shape[:-1] + (n1, n2))
        # the D1 and D2 parts, written side by side for R3^T to combine
        parts = np.empty(lam.shape[:-1] + (2, n1, n2))
        np.matmul(div_xt, grid, out=parts[..., 0, :, :])
        np.matmul(grid, self.div_y, out=parts[..., 1, :, :])
        return rows_t @ parts.reshape(lam.shape[:-1] + (2, n1 * n2))

    def project(self, coeffs: np.ndarray) -> np.ndarray:
        """u - C^T gram_pinv C u for one (3M,) state or a (..., 3M) stack.

        C u is taken in parity order, so each gram_pinv block acts on a
        contiguous half.  Every state gets one GEMV per block, so a stacked
        state reads the same digits as when it is projected alone (a
        (K, M) @ W.T GEMM does not).
        """
        div = self.divergence(coeffs).take(self.parity_order, axis=-1)[..., None]
        lam = np.empty_like(div)
        even, odd = self.gram_pinv_blocks
        k = even.shape[0]
        np.matmul(even, div[..., :k, :], out=lam[..., :k, :])
        np.matmul(odd, div[..., k:, :], out=lam[..., k:, :])
        lam = lam[..., 0].take(self.parity_place, axis=-1)
        return coeffs - self.divergence_adjoint(lam).reshape(coeffs.shape)

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

        Built on first access: C^T applied to the kept eigenvectors of the
        Gram blocks spans range(C^T), so the trailing columns of its complete
        QR span the complement null(C).
        """
        lam = np.zeros((self.constraint_rank, self.nmodes_total))
        row = 0
        for modes, (_, v) in zip(self.parity_modes, self._gram_ranges()):
            lam[row:row + v.shape[1], modes] = v.T
            row += v.shape[1]
        range_t = self.divergence_adjoint(lam).reshape(-1, 3 * self.nmodes_total).T
        return np.linalg.qr(range_t, mode="complete")[0][:, self.constraint_rank:]


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

    mm, nn = basis.modes.T

    # <D1 w_p, D1 w_p> etc.; derivatives bring mode-number factors, and the
    # 1-D integrals int s_a s_a and int c_a c_a are both L/2.  The
    # off-diagonal entries pair distinct sine modes and are exact zeros.
    k1 = (np.pi / l1) ** 2 * (mm * mm) * (0.5 * l1) * (0.5 * l2)
    k2 = (np.pi / l2) ** 2 * (nn * nn) * (0.5 * l1) * (0.5 * l2)

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
    trilinear = TrilinearTensor(x=np.stack([x1, sss1]), y=np.stack([sss2, y2]), chart_rows=r3,
                                basis=basis)
    return OperatorTensors(
        basis=basis,
        chart_coeffs=(c1, c2),
        chart_rows=r3,
        trilinear=trilinear,
        grad1=k1,
        grad2=k2,
        div_x=div_x,
        div_y=div_y,
    )


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
    res = np.sqrt(np.sum(r * r, axis=-1) / tensors.basis.mass_scale)
    return float(res) if res.ndim == 0 else res


def _rhs(
    coeffs3m: np.ndarray,
    t: float,
    tensors: OperatorTensors,
    f_of_t,
    nu: float,
) -> np.ndarray:
    """Projected coefficient velocity of the Galerkin ODE system.

    coeffs3m is one (3M,) state or a (B, 3M) stack of states at time t, and
    f_of_t a callable t -> (3, M) or None.
    """
    u = coeffs3m.reshape(coeffs3m.shape[:-1] + (3, -1))
    weak = tensors.apply_stiffness(u)
    weak *= nu
    weak -= tensors.trilinear.apply_pair(u, u)
    weak /= tensors.basis.mass_scale
    if f_of_t is not None:
        weak += f_of_t(t)
    return tensors.project(weak.reshape(coeffs3m.shape))


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
    coordinates, a callable t -> (3, M), or None for no forcing
    (series_forcing builds one from a TimeSeriesField).
    The stages are combined in place, in the operation order of
    u0 + (dt/6)(k1 + 2 k2 + 2 k3 + k4).  Raises BlowUpError when any
    coefficient passes 1e12 or is not finite, which signals an unstable dt.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if nu <= 0.0:
        raise ValueError("nu must be positive")
    u0 = coeffs
    half = 0.5 * dt
    k1 = _rhs(u0, t, tensors, f_of_t, nu)
    stage = np.multiply(k1, half)
    stage += u0
    k2 = _rhs(stage, t + half, tensors, f_of_t, nu)
    np.multiply(k2, half, out=stage)
    stage += u0
    k3 = _rhs(stage, t + half, tensors, f_of_t, nu)
    np.multiply(k3, dt, out=stage)
    stage += u0
    k4 = _rhs(stage, t + dt, tensors, f_of_t, nu)
    u1 = k1
    k2 *= 2.0
    u1 += k2
    k3 *= 2.0
    u1 += k3
    u1 += k4
    u1 *= dt / 6.0
    u1 += u0
    # NaN and inf compare false, so this one test also catches them
    if not np.max(np.abs(u1)) <= _BLOWUP_LIMIT:
        raise BlowUpError(
            f"coefficients exceeded {_BLOWUP_LIMIT:.0e} at t = {t + dt:g}; "
            f"reduce dt (rule of thumb: dt <= {RK4_REAL_LIMIT:.3f} / (nu * lambda_max))"
        )
    return u1


def project_field_to_basis(fld: Field, basis: SpectralBasis) -> np.ndarray:
    """L2 (mass) projection of a sampled 2D field onto the basis, per component.

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
    return grid.reshape(fld.ncomp, -1)


def series_forcing(series: TimeSeriesField, basis: SpectralBasis):
    """Callable t -> (3, M) basis coordinates of a forcing time series.

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

    coeffs is one state, (3M,) or (ncomp, M), giving a (N1, N2) field, or a
    (k, 3M) stack of k >= 2 states, giving the 3-component (N1, N2, k) field
    whose frame j, data[..., j], is state j.  The third axis is the frame
    index, with extent k - 1.  A stack is one batched matmul whose per-state
    products are those of the single state, so each frame is bit-identical to
    synthesizing its state alone.
    """
    dims = tuple(int(v) for v in dims)
    m = basis.nmodes_total
    u = np.asarray(coeffs)
    s1, s2 = (basis.sine_table(i, np.linspace(0.0, basis.extents[i], dims[i])) for i in range(2))
    if u.ndim == 2 and u.shape[1] == 3 * m:
        k = u.shape[0]
        data = np.moveaxis(s1.T @ u.reshape((k, 3) + basis.nmodes) @ s2, 0, -1)
        return Field(dims=dims + (k,), extents=basis.extents + (k - 1.0,), ncomp=3, data=data)
    u = u.reshape((-1,) + basis.nmodes)
    data = s1.T @ u @ s2
    return Field(dims=dims, extents=basis.extents, ncomp=u.shape[0], data=data)


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
    in basis coordinates, a callable t -> (3, M), or None for no forcing
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
) -> float:
    """Dual (gradient-seminorm) magnitude of the momentum balance right side.

    Diagnostic only: the time-derivative functional nu*A1 u - B~(u, u) + f is
    measured against test functions in the gradient seminorm, i.e.
    sqrt(F^T K^{-1} F) per component with K the (diagonal) gradient Gram
    matrix.  Useful for monitoring how hard the coefficient ODE is being
    driven; no controller consumes it.  f_of_t is the forcing in basis
    coordinates, a callable t -> (3, M), or None (see step).
    """
    u = np.asarray(coeffs).reshape(3, -1)
    weak = nu * tensors.apply_stiffness(u)
    weak -= tensors.trilinear.apply_pair(u, u)
    if f_of_t is not None:
        weak += tensors.basis.mass_scale * f_of_t(t)
    return float(np.sqrt(np.sum(weak**2 / (tensors.grad1 + tensors.grad2))))


def coercivity_check(tensors: OperatorTensors) -> float:
    """Smallest eigenvalue of the negated stiffness on the div-free subspace.

    The stiffness acts as I3 (x) K and the mass is m0 = basis.mass_scale
    times the identity, so by Courant-Fischer the value is lambda_min(-K) / m0:

    1. n_hat = (-c1, -c2, 1) / norm spans null(R3), so n_hat (x) R^M lies in null(C);
    2. I3 (x) K maps n_hat (x) R^M into itself with the spectrum of K;
    3. a minimum over null(C) is at least the unconstrained one, and 1-2 attain it.

    K keeps the parity of m + n, so lambda_min(-K) is the smaller of the
    lowest eigenvalues of its two parity blocks.

    A positive value certifies discrete ellipticity, but it cannot register a
    loss of ellipticity that the constraint causes; the inf-sup ratio of C
    is the certificate for that.
    """
    blocks = tensors._parity_blocks(tensors.apply_stiffness)
    lowest = min(float(np.linalg.eigvalsh(-k)[0]) for k in blocks if k.size)
    return lowest / tensors.basis.mass_scale
