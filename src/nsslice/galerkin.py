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
term and stiffness stay dense.  The advection tensor is stored in
skew-symmetrized form, so its triple contraction with any state vanishes
identically: this is the discrete counterpart of the cancellation that drives
the energy identity, and it holds without assuming the basis itself is
solenoidal.  Incompressibility is enforced weakly (the divergence is tested
against the scalar sine modes) by orthogonal projection onto the constraint
null space; a pointwise-exact discrete divergence would force the advecting
velocity to vanish identically in any finite sine span, so the weak form is
the meaningful discrete choice.  The projection is applied as
u - C^T (C C^T)^+ C u: the weak divergence C factors into one matrix per
direction on the (N1, N2) coefficient grid, and the pseudo-inverse of the
(M, M) Gram C C^T is formed once from its eigendecomposition.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .fieldio import Field, TimeSeriesField
from .geometry import SliceChart, projected_gradient_coeffs

logger = logging.getLogger(__name__)

#: Largest |R(z)| <= 1 interval of the classical RK4 stability function on
#: the negative real axis; the BlowUpError hint quotes the dt rule of thumb
#: dt <= RK4_REAL_LIMIT / (nu * lambda_max).
RK4_REAL_LIMIT = 2.785

_BLOWUP_LIMIT = 1e12


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
        """First Dirichlet eigenvalue, pi^2 (1/L1^2 + 1/L2^2), in closed form."""
        l1, l2 = self.extents
        return float(np.pi**2 * (1.0 / l1**2 + 1.0 / l2**2))

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues.max())

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

    def scatter(self, coeffs: np.ndarray) -> np.ndarray:
        """Modal vector(s) (..., M) -> (..., N1, N2) coefficient grid, a view where possible."""
        c = np.asarray(coeffs)
        return c.reshape(c.shape[:-1] + self.nmodes)

    def gather(self, grid: np.ndarray) -> np.ndarray:
        """(..., N1, N2) coefficient grid -> modal vector(s) (..., M), a view where possible."""
        g = np.asarray(grid)
        return g.reshape(g.shape[:-2] + (-1,))


@dataclass(frozen=True)
class GalerkinState:
    """Time-dependent coefficient vector of the 3-component expansion.

    coeffs is flat of length 3 * M, component-major: coeffs[c * M + p] is the
    coefficient of basis mode p (row-major, see SpectralBasis) in velocity
    component c, so coeffs.reshape(3, N1, N2)[c, m - 1, n - 1] is that of
    w_{mn}.  A (B, 3M) stack holds B states that share the time; the solver
    advances them together.
    """

    coeffs: np.ndarray
    time: float

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim not in (1, 2) or c.shape[-1] % 3 != 0:
            raise ValueError("coeffs must be (3 * nmodes,) or a (B, 3 * nmodes) stack")
        if not np.all(np.isfinite(c)):
            raise GalerkinError("non-finite Galerkin coefficients")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "time", float(self.time))


def _by_component(coeffs, m: int) -> np.ndarray:
    """View a (3M,) or (3, M) state, or a (..., 3M) stack, as (..., 3, M)."""
    c = np.asarray(coeffs)
    lead = c.shape[:-1] if c.shape[-1] == 3 * m else c.shape[:-2]
    return c.reshape(lead + (3, m))


def _sum_per_state(terms: np.ndarray):
    """Sum a (..., 3, M) array over each state: a float, or an array for a stack."""
    total = terms.reshape(terms.shape[:-2] + (-1,)).sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def _matvec(matrix: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """matrix @ c for one vector or for each vector of a (..., n) stack.

    Every vector gets its own GEMV, so a stacked state reads the same digits
    as when it is projected alone (a (K, n) @ matrix.T GEMM does not).
    """
    return (matrix @ coeffs[..., None])[..., 0]


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
        basis = self.basis
        m = basis.nmodes_total
        n1, n2 = basis.nmodes
        adv = basis.scatter(self.chart_rows @ _by_component(u, m))
        # (..., 3, 1, 1, N1, N2): the grid V_k of each transported component
        # k, broadcast over the term t and the row index a of tmp below
        vgrid = basis.scatter(_by_component(v, m))[..., None, None, :, :]
        # tmp[t, a, d, n] = sum_b A_t[a, b] Y_t[b, d, n]
        tmp = adv @ self.y.reshape(2, n2, n2 * n2)
        # e[k, t, a, c, n] = sum_d V_k[c, d] tmp[t, a, d, n], one GEMM per (k, t, a)
        e = vgrid @ tmp.reshape(tmp.shape[:-3] + (1, 2, n1, n2, n2))
        # R_k[m, n] = sum_{t, a, c} X_t[a, c, m] e[k, t, a, c, n]
        r = self.x.reshape(2 * n1 * n1, n1).T @ e.reshape(e.shape[:-4] + (2 * n1 * n1, n2))
        return basis.gather(r)

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.apply_pair(u, u)


@dataclass(frozen=True)
class OperatorTensors:
    """Assembled Galerkin operators for one basis/chart pair.

    The operators act per scalar mode, identically on each velocity
    component.  The mass is basis.mass_scale times the identity and is not
    stored; the gradient Grams grad1 and grad2 are diagonal and stored as
    their (M,) diagonals.  stiffness_A1 and cross couple modes through the
    chart and stay dense (M, M).

    The weak divergence C maps the composite 3M coefficient vector to its
    pairings with the M scalar modes.  Because the sine Gram is diagonal, it
    acts on the (N1, N2) coefficient grids as

        C u = div_x @ grid(u1 + c1 u3) + grid(u2 + c2 u3) @ div_y.T,

    and the orthogonal (hence mass-orthogonal) projector onto its null space
    is applied as u - C^T gram_pinv C u, with gram_pinv the pseudo-inverse of
    C C^T on its rank-constraint_rank range.  gram_range holds the
    orthonormal eigenvectors of that range.  The dense constraint, projector
    and null_basis are read only by the benchmark tracer and the tests; the
    last two are built on first access.
    """

    basis: SpectralBasis
    chart_coeffs: tuple[float, float]
    chart_rows: np.ndarray      # (2, 3) R3 = [[1, 0, c1], [0, 1, c2]]: u -> advecting velocity
    stiffness_A1: np.ndarray    # (M, M), symmetric negative definite weak form
    constraint: np.ndarray      # (M, 3M) weak projected-divergence operator
    trilinear: TrilinearTensor
    grad1: np.ndarray           # (M,) <D1 w_p, D1 w_p>
    grad2: np.ndarray           # (M,) <D2 w_p, D2 w_p>
    cross: np.ndarray           # (M, M) <(c1 D1 + c2 D2) w_p, (c1 D1 + c2 D2) w_q>
    div_x: np.ndarray           # (N1, N1) x-direction factor of C
    div_y: np.ndarray           # (N2, N2) y-direction factor of C
    gram_pinv: np.ndarray       # (M, M) pseudo-inverse of C C^T
    gram_range: np.ndarray      # (M, rank) orthonormal range of C C^T
    constraint_rank: int
    rank_deficient: bool

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
        """(||D1 u||^2, ||D2 u||^2, cross-term norm^2) summed over components."""
        u = _by_component(coeffs, self.nmodes_total)
        return (*self._gradient_terms(u), _sum_per_state(u * (u @ self.cross)))

    def grad_norm_sq(self, coeffs: np.ndarray):
        d1, d2 = self._gradient_terms(_by_component(coeffs, self.nmodes_total))
        return d1 + d2

    def _gradient_terms(self, u: np.ndarray):
        return tuple(_sum_per_state(u * (u * diag)) for diag in (self.grad1, self.grad2))

    def divergence(self, coeffs: np.ndarray) -> np.ndarray:
        """Weak divergence C u of one state or a (..., 3M) stack, shaped (..., M)."""
        a = self.basis.scatter(self.chart_rows @ _by_component(coeffs, self.nmodes_total))
        return self.basis.gather(self.div_x @ a[..., 0, :, :] + a[..., 1, :, :] @ self.div_y.T)

    def project(self, coeffs: np.ndarray) -> np.ndarray:
        """u - C^T gram_pinv C u for one (3M,) state or a (..., 3M) stack.

        Every state gets its own products, so a stacked state reads the same
        digits as when it is projected alone.
        """
        c = np.asarray(coeffs)
        lam = self.basis.scatter(_matvec(self.gram_pinv, self.divergence(c)))
        g = self.basis.gather(np.stack([self.div_x.T @ lam, lam @ self.div_y], axis=-3))
        return c - (self.chart_rows.T @ g).reshape(c.shape)

    @cached_property
    def projector(self) -> np.ndarray:
        """Dense (3M, 3M) projector I - C^T gram_pinv C, built on first access."""
        c = self.constraint
        return np.eye(c.shape[1]) - c.T @ (self.gram_pinv @ c)

    @cached_property
    def null_basis(self) -> np.ndarray:
        """Orthonormal (3M, 3M - rank) basis of the constraint null space.

        Built on first access: C^T gram_range spans range(C^T), so the
        trailing columns of its complete QR span the complement null(C).
        """
        range_t = self.constraint.T @ self.gram_range
        return np.linalg.qr(range_t, mode="complete")[0][:, self.constraint_rank:]


def _trig_tables(n: int, length: float):
    """Exact 1-D integrals over [0, length] of products of the n sine modes.

    With s_a = sin(a pi x / L) and c_a = cos(a pi x / L), returns ss[a, b] =
    int s_a s_b, sc = int s_a c_b, cc = int c_a c_b, sss[a, b, c] =
    int s_a s_b s_c and scs = int s_a c_b s_c, each reduced by product-to-sum
    to the integrals int cos(k pi x / L) = L [k = 0] and
    int sin(k pi x / L) = 2L / (k pi) for odd k, else 0.
    """
    def cos_int(k):
        return np.where(k == 0, length, 0.0)

    def sin_int(k):
        odd = k % 2 == 1
        return np.where(odd, 2.0 * length / (np.pi * np.where(odd, k, 1)), 0.0)

    a = np.arange(1, n + 1)
    i, j = a[:, None], a[None, :]
    ss = 0.5 * (cos_int(i - j) - cos_int(i + j))
    sc = 0.5 * (sin_int(i + j) + sin_int(i - j))
    cc = 0.5 * (cos_int(i - j) + cos_int(i + j))
    i, j, k = a[:, None, None], a[None, :, None], a[None, None, :]
    sss = 0.25 * (
        sin_int(k + i - j) + sin_int(k - i + j) - sin_int(k + i + j) - sin_int(k - i - j)
    )
    scs = 0.25 * (
        cos_int(i + j - k) + cos_int(i - j - k) - cos_int(i + j + k) - cos_int(i - j + k)
    )
    return ss, sc, cc, sss, scs


def assemble(basis: SpectralBasis, chart: SliceChart | None) -> OperatorTensors:
    """Assemble the gradient, stiffness, constraint and advection operators exactly.

    chart=None means an axis-aligned slice (no eliminated-derivative
    coupling).
    """
    if chart is None:
        c1, c2 = 0.0, 0.0
    else:
        c1, c2 = projected_gradient_coeffs(chart)
    n1, n2 = basis.nmodes
    l1, l2 = basis.extents

    ss1, sc1, cc1, sss1, scs1 = _trig_tables(n1, l1)
    ss2, sc2, cc2, sss2, scs2 = _trig_tables(n2, l2)

    mm = basis.modes[:, 0]
    nn = basis.modes[:, 1]
    im = mm - 1
    jn = nn - 1
    ix = np.ix_(im, im)
    iy = np.ix_(jn, jn)

    # <D1 w_p, D1 w_p> etc.; derivatives bring mode-number factors.  The
    # off-diagonal entries pair distinct sine modes and are exact zeros.
    k1 = (np.pi / l1) ** 2 * (mm * mm) * cc1[im, im] * ss2[jn, jn]
    k2 = (np.pi / l2) ** 2 * (nn * nn) * ss1[im, im] * cc2[jn, jn]
    # <D1 w_p, D2 w_q> = (m_p pi/L1)(n_q pi/L2) * int sin_mq cos_mp dx * int sin_np cos_nq dy
    k12 = (np.pi / l1) * (np.pi / l2) * np.outer(mm, nn) * sc1.T[ix] * sc2[iy]
    cross = np.diag(c1 * c1 * k1 + c2 * c2 * k2) + c1 * c2 * (k12 + k12.T)
    stiffness = -(np.diag(k1 + k2) + cross)

    # weak derivative pairings <D_i w_q, w_p>.  ss is diagonal (L/2), so each
    # pairing acts along one grid direction only: div_x[a, c] is the
    # <D1 w_q, w_p> entry for x-modes p = a+1, q = c+1, div_y likewise in y
    g1 = (np.pi / l1) * mm[None, :] * sc1[ix] * ss2[iy]
    g2 = (np.pi / l2) * nn[None, :] * ss1[ix] * sc2[iy]
    m = basis.nmodes_total
    constraint = np.hstack([g1, g2, c1 * g1 + c2 * g2])
    bmode1 = np.arange(1, n1 + 1)
    bmode2 = np.arange(1, n2 + 1)
    div_x = (np.pi / l1) * bmode1[None, :] * sc1 * (0.5 * l2)
    div_y = (np.pi / l2) * bmode2[None, :] * sc2 * (0.5 * l1)

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

    # the projector needs (C C^T)^+ only; the Gram is M x M and well
    # conditioned on its range, so one symmetric eigendecomposition replaces
    # the SVD of C.  Its eigenvalues are w = sigma^2, so the rank test acts on
    # sigma^2:
    #     w > max(w_max * max(C.shape) * eps, (1e-12 * scale_c)^2),
    # i.e. sigma above sqrt(3 M eps) * sigma_max (6e-7 sigma_max at n = 24).
    # For mode counts up to 32, even and odd, the kept w / w_max are >= 2.6e-4
    # (sigma / sigma_max >= 0.016) and the structural zero of odd x odd counts
    # reads |w| / w_max <= 6.6e-17, far on either side of the threshold.  The
    # absolute floor at the operator's natural scale makes an all-round-off
    # matrix read as rank zero.  The mass is a multiple of the identity, so
    # the Euclidean orthogonal projector is the mass-orthogonal one.
    w, v = np.linalg.eigh(constraint @ constraint.T)
    scale_c = np.pi * max(n1, n2) / min(l1, l2) * basis.mass_scale
    tol = max(
        (w[-1] if w.size else 0.0) * max(constraint.shape) * np.finfo(float).eps,
        (1e-12 * scale_c) ** 2,
    )
    keep = w > tol
    rank = int(np.count_nonzero(keep))
    gram_range = v[:, keep]
    gram_pinv = (gram_range / w[keep]) @ gram_range.T
    # odd-by-odd mode counts carry one structural left-null direction of the
    # weak divergence (a spurious-mode pair), so full rank is m minus that
    expected_rank = m - (n1 % 2) * (n2 % 2)
    rank_deficient = rank < expected_rank
    if rank_deficient:
        logger.warning(
            "constraint matrix rank %d below the expected %d; "
            "the divergence-free subspace is larger than usual",
            rank,
            expected_rank,
        )

    return OperatorTensors(
        basis=basis,
        chart_coeffs=(c1, c2),
        chart_rows=r3,
        stiffness_A1=stiffness,
        constraint=constraint,
        trilinear=trilinear,
        grad1=k1,
        grad2=k2,
        cross=cross,
        div_x=div_x,
        div_y=div_y,
        gram_pinv=gram_pinv,
        gram_range=gram_range,
        constraint_rank=rank,
        rank_deficient=rank_deficient,
    )


def project_divfree(state: GalerkinState, tensors: OperatorTensors) -> GalerkinState:
    """Mass-orthogonal projection onto the weak divergence-free subspace.

    Idempotent and self-adjoint in the mass inner product; states already in
    the subspace are returned unchanged up to round-off.
    """
    return GalerkinState(coeffs=tensors.project(state.coeffs), time=state.time)


def divergence_residual(coeffs: np.ndarray, tensors: OperatorTensors):
    """H-norm of the scalar-mode projection of the discrete divergence.

    A float for one state, an array for a (..., 3M) stack of states.
    """
    r = tensors.divergence(coeffs)
    res = np.sqrt(np.sum(r * r, axis=-1) / tensors.basis.mass_scale)
    return float(res) if res.ndim == 0 else res


def _normalize_forcing(forcing, tensors: OperatorTensors):
    """Return callable t -> (3, M) basis coefficients of the forcing.

    A TimeSeriesField has every frame projected onto the basis on each call,
    so callers that evaluate the forcing repeatedly (per trace state, per
    ledger, per solve) must normalise it once and pass the callable on.
    """
    m = tensors.nmodes_total
    if forcing is None:
        zero = np.zeros((3, m))
        return lambda t: zero
    if callable(forcing):
        def wrapped(t):
            f = np.asarray(forcing(t), dtype=float)
            return f.reshape(3, m)
        return wrapped
    if isinstance(forcing, TimeSeriesField):
        times = forcing.times
        frames = np.stack(
            [project_field_to_basis(fr, tensors.basis) for fr in forcing.frames]
        )

        def interp(t):
            if t <= times[0]:
                return frames[0]
            if t >= times[-1]:
                return frames[-1]
            j = int(np.searchsorted(times, t) - 1)
            s = (t - times[j]) / (times[j + 1] - times[j])
            return (1.0 - s) * frames[j] + s * frames[j + 1]

        return interp
    arr = np.asarray(forcing, dtype=float).reshape(3, m)
    return lambda t: arr


def _rhs(coeffs3m: np.ndarray, t: float, tensors: OperatorTensors, f_of_t, nu: float) -> np.ndarray:
    """Projected coefficient velocity of the Galerkin ODE system.

    coeffs3m is one (3M,) state or a (B, 3M) stack of states at time t.
    """
    u = coeffs3m.reshape(coeffs3m.shape[:-1] + (3, -1))
    weak = nu * (u @ tensors.stiffness_A1)
    weak -= tensors.trilinear.apply(u)
    udot = weak / tensors.basis.mass_scale + f_of_t(t)
    return tensors.project(udot.reshape(coeffs3m.shape))


def step(
    state: GalerkinState,
    tensors: OperatorTensors,
    f_coeffs,
    nu: float,
    dt: float,
) -> GalerkinState:
    """One explicit RK4 step of the projected Galerkin system.

    The state may be a (B, 3M) stack, advanced in lockstep.  Every stage is
    projected, so a state in the weak divergence-free subspace stays in it
    to round-off and the result is not projected again.  f_coeffs gives the
    forcing in basis coordinates: a constant (3, M) array, a callable
    t -> (3, M), or None.  Raises BlowUpError when any coefficient passes
    1e12 or is not finite, which signals an unstable dt.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if nu <= 0.0:
        raise ValueError("nu must be positive")
    f_of_t = f_coeffs if callable(f_coeffs) else _normalize_forcing(f_coeffs, tensors)
    u0 = state.coeffs
    t0 = state.time
    k1 = _rhs(u0, t0, tensors, f_of_t, nu)
    k2 = _rhs(u0 + 0.5 * dt * k1, t0 + 0.5 * dt, tensors, f_of_t, nu)
    k3 = _rhs(u0 + 0.5 * dt * k2, t0 + 0.5 * dt, tensors, f_of_t, nu)
    k4 = _rhs(u0 + dt * k3, t0 + dt, tensors, f_of_t, nu)
    u1 = u0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    # NaN and inf compare false, so this one test also catches them
    if not np.max(np.abs(u1)) <= _BLOWUP_LIMIT:
        raise BlowUpError(
            f"coefficients exceeded {_BLOWUP_LIMIT:.0e} at t = {t0 + dt:g}; "
            f"reduce dt (rule of thumb: dt <= {RK4_REAL_LIMIT:.3f} / (nu * lambda_max))"
        )
    return GalerkinState(coeffs=u1, time=t0 + dt)


def project_field_to_basis(fld: Field, basis: SpectralBasis) -> np.ndarray:
    """L2 (mass) projection of a sampled 2D field onto the basis, per component.

    Uses the trapezoid rule on the vertex grid, which by discrete sine
    orthogonality is exact for fields already in the span as long as the grid
    resolves the modes (dims[i] >= N_i + 2).
    """
    if fld.ndim_grid != 2:
        raise ValueError("project_field_to_basis needs a 2D field")
    n1, n2 = basis.nmodes
    if fld.dims[0] < n1 + 2 or fld.dims[1] < n2 + 2:
        raise ValueError(
            f"grid {fld.dims} too coarse for modes {basis.nmodes}; need dims >= N + 2"
        )
    for axis in range(2):
        if abs(fld.extents[axis] - basis.extents[axis]) > 1e-12 * basis.extents[axis]:
            raise ValueError(
                f"field extents {fld.extents} do not match basis extents {basis.extents}"
            )
    j1 = fld.dims[0] - 1
    j2 = fld.dims[1] - 1
    s1 = basis.sine_table(0, fld.axis_coords(0))  # (N1, n1grid)
    s2 = basis.sine_table(1, fld.axis_coords(1))
    grid = (s1 @ fld.data @ s2.T) * (4.0 / (j1 * j2))
    return basis.gather(grid)


@lru_cache(maxsize=8)
def _vertex_sine_tables(nmodes: tuple, extents: tuple, dims: tuple):
    """Read-only sine tables of both axes on a vertex grid, built once per key."""
    basis = SpectralBasis(nmodes, extents)
    tables = [basis.sine_table(i, np.linspace(0.0, extents[i], dims[i])) for i in range(2)]
    for t in tables:
        t.flags.writeable = False
    return tables


def synthesize_field(basis: SpectralBasis, coeffs: np.ndarray, dims) -> Field:
    """Evaluate the expansion on a vertex grid of the basis rectangle."""
    dims = tuple(int(v) for v in dims)
    u = np.asarray(coeffs).reshape(-1, basis.nmodes_total)
    s1, s2 = _vertex_sine_tables(basis.nmodes, basis.extents, dims)
    data = s1.T @ basis.scatter(u) @ s2
    return Field(dims=dims, extents=basis.extents, ncomp=u.shape[0], data=data)


@dataclass
class Trace:
    """Per-step record of the coefficient trajectory."""

    times: np.ndarray    # (K,)
    coeffs: np.ndarray   # (K, 3M), or (K, B, 3M) for a stacked state

    def __len__(self) -> int:
        return self.times.size


@dataclass
class SolveResult:
    trace: Trace
    tensors: OperatorTensors
    final_state: GalerkinState


def solve_from_state(
    state: GalerkinState,
    forcing,
    tensors: OperatorTensors,
    nu: float,
    dt: float,
    t_end: float,
) -> SolveResult:
    """Integrate the projected Galerkin system from coefficient state to t_end.

    forcing may be None, a constant or callable in basis coordinates, or a
    TimeSeriesField restricted to the slice grid (linearly interpolated
    between frames).  A (B, 3M) state integrates B trajectories in lockstep,
    each bit-identical to its own solve.  Every step is recorded in the
    returned trace; fields on a grid are left to the caller
    (synthesize_field).
    """
    nsteps = int(round(t_end / dt))
    if nsteps < 1 or abs(nsteps * dt - t_end) > 1e-9 * max(t_end, 1.0):
        raise ValueError(f"t_end {t_end} is not an integer multiple of dt {dt}")
    f_of_t = _normalize_forcing(forcing, tensors)
    times = np.empty(nsteps + 1)
    coeffs = np.empty((nsteps + 1,) + state.coeffs.shape)
    times[0] = state.time
    coeffs[0] = state.coeffs
    cur = state
    for k in range(nsteps):
        cur = step(cur, tensors, f_of_t, nu, dt)
        times[k + 1] = cur.time
        coeffs[k + 1] = cur.coeffs
    return SolveResult(
        trace=Trace(times=times, coeffs=coeffs),
        tensors=tensors,
        final_state=cur,
    )


def rhs_dual_norm(
    coeffs: np.ndarray,
    tensors: OperatorTensors,
    f_coeffs,
    nu: float,
    t: float,
) -> float:
    """Dual (gradient-seminorm) magnitude of the momentum balance right side.

    Diagnostic only: the time-derivative functional nu*A1 u - B~(u, u) + f is
    measured against test functions in the gradient seminorm, i.e.
    sqrt(F^T K^{-1} F) per component with K the (diagonal) gradient Gram
    matrix.  Useful for monitoring how hard the coefficient ODE is being
    driven; no controller consumes it.  f_coeffs is None, a (3, M) array, a
    TimeSeriesField, or the callable t -> (3, M) that _normalize_forcing
    returns; pass the callable when evaluating many states.
    """
    f_of_t = f_coeffs if callable(f_coeffs) else _normalize_forcing(f_coeffs, tensors)
    u = np.asarray(coeffs).reshape(3, -1)
    weak = nu * (u @ tensors.stiffness_A1)
    weak -= tensors.trilinear.apply(u)
    weak += tensors.basis.mass_scale * f_of_t(t)
    return float(np.sqrt(np.sum(weak**2 / (tensors.grad1 + tensors.grad2))))


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
    return float(np.linalg.eigvalsh(-tensors.stiffness_A1)[0]) / tensors.basis.mass_scale
