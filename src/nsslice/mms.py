"""Manufactured solutions for solver verification.

A stream function psi and a free third component u3b generate an exactly
constraint-compatible velocity

    u = g(t) * (D2 psi - c1 * u3b,  -D1 psi - c2 * u3b,  u3b),

whose projected divergence D1 u1 + D2 u2 + (c1 D1 + c2 D2) u3 vanishes
identically for any psi, u3b.  The matching forcing

    f = d/dt u - nu * A1 u + B1(u, u)

absorbs everything, so the discrete solver must reproduce u to its spatial
and temporal accuracy.  Because the amplitude g(t) is the only time
dependence (u = g(t) U(x, y)), the forcing splits exactly into three fixed
fields,

    f = g'(t) a + g(t) b + g(t)^2 c,   a = U,  b = -nu A1 U,  c = (W . grad) U,

with W = (D2 psi, -D1 psi) the in-plane advecting velocity of U.  The fields
need derivatives of psi up to order 3 and of u3b up to order 2.  They are
evaluated on the grid by forward-mode differentiation: psi and u3b are built
from sines, products, integer powers and exp in order-3 bivariate truncated
Taylor arithmetic (:class:`Jet`), which carries every partial derivative up to
order 3 exactly to round-off (Griewank & Walther, *Evaluating Derivatives*,
2008).  The projections of a, b and c are computed once per basis, so the
forcing at a stage time costs three scaled sums.  Shapes use squared-sine
boundary envelopes times exp(sin(...)) factors: smooth, zero on the boundary,
and with slowly enough decaying sine coefficients that spatial convergence is
measurable above the round-off floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import galerkin
from .galerkin import OperatorTensors, SpectralBasis, Trace, project_divfree, solve_from_state
from .geometry import SliceChart, projected_gradient_coeffs

# A jet holds the Taylor coefficients f_ij = D1^i D2^j f / (i! j!), i + j <= 3,
# degree by degree: 00, 10, 01, 20, 11, 02, 30, 21, 12, 03.
_ORDER = 3
_EXPONENTS = [(i, d - i) for d in range(_ORDER + 1) for i in range(d, -1, -1)]
_INDEX = {e: k for k, e in enumerate(_EXPONENTS)}
# every coefficient pair whose product stays within the order, sorted by the
# index of the product, so one reduceat sums each product coefficient
_PRODUCT, _LEFT, _RIGHT = (
    np.array(v)
    for v in zip(*sorted(
        (_INDEX[(i1 + i2, j1 + j2)], k, m)
        for k, (i1, j1) in enumerate(_EXPONENTS)
        for m, (i2, j2) in enumerate(_EXPONENTS)
        if i1 + i2 + j1 + j2 <= _ORDER
    ))
)
_STARTS = np.searchsorted(_PRODUCT, np.arange(len(_EXPONENTS)))
_FACTORIALS = np.array([math.factorial(i) * math.factorial(j) for i, j in _EXPONENTS], dtype=float)
# the partials of order <= 2 of D1 f and D2 f, read from the partials of f
_UP_TO_SECOND = sum(i + j <= 2 for i, j in _EXPONENTS)
_SHIFT_X = np.array([_INDEX[(i + 1, j)] for i, j in _EXPONENTS[:_UP_TO_SECOND]])
_SHIFT_Y = np.array([_INDEX[(i, j + 1)] for i, j in _EXPONENTS[:_UP_TO_SECOND]])


def gauss_rule(length: float, npoints: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, length]."""
    x, w = np.polynomial.legendre.leggauss(int(npoints))
    return 0.5 * length * (x + 1.0), 0.5 * length * w


class Jet:
    """Order-3 truncated Taylor expansion in (x, y) at every point of a grid.

    coeffs is (10, nx, ny), or (10, nx, 1) and (10, 1, ny) for jets that
    depend on one variable only; products broadcast to the full grid.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: np.ndarray):
        self.coeffs = coeffs

    @classmethod
    def sine(cls, points: np.ndarray, length: float, axis: int) -> "Jet":
        """sin(pi s / length) seeded in s = x (axis 0) or s = y (axis 1)."""
        k = np.pi / length
        s = np.sin(k * points)
        c = np.cos(k * points)
        shape = (points.size, 1) if axis == 0 else (1, points.size)
        coeffs = np.zeros((len(_EXPONENTS), *shape))
        for n, v in enumerate((s, k * c, -k**2 * s / 2, -k**3 * c / 6)):
            coeffs[_INDEX[(n, 0) if axis == 0 else (0, n)]] = v.reshape(shape)
        return cls(coeffs)

    def __mul__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            return Jet(other * self.coeffs)
        terms = self.coeffs[_LEFT] * other.coeffs[_RIGHT]
        return Jet(np.add.reduceat(terms, _STARTS, axis=0))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Jet":
        if n < 1:
            raise ValueError("jet powers must be positive integers")
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def exp(self) -> "Jet":
        """exp(f) = e^f00 (1 + h + h^2/2 + h^3/6) with h = f - f00, since h^4 = 0."""
        h = Jet(self.coeffs.copy())
        h.coeffs[0] = 0.0
        h2 = h * h
        series = h.coeffs + h2.coeffs / 2 + (h2 * h).coeffs / 6
        series[0] = 1.0
        return Jet(np.exp(self.coeffs[0]) * series)

    def partials(self) -> np.ndarray:
        """D1^i D2^j f for every (i, j) of the coefficient order."""
        return self.coeffs * _FACTORIALS[:, None, None]


@dataclass
class _BasisData:
    """Quadrature grid and sine tables of one basis, with what is built on them once."""

    xg: np.ndarray
    wx: np.ndarray
    yg: np.ndarray
    wy: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    u_grid: np.ndarray | None = None       # a = U on the grid
    forcing: tuple | None = None           # projections of a, b, c
    tensors: OperatorTensors | None = None


@dataclass
class ManufacturedSolution:
    """Closed-form solution/forcing pair for a given chart coupling.

    amp_psi scales the advecting stream function, amp_w the third component,
    sigma the non-polynomial spectral richness; omega drives the amplitude
    modulation g(t) = 1 + 0.5 sin(omega t).  Quartic/cubic sine envelopes
    keep the first few even derivatives zero on the walls, so the sine-basis
    coefficients decay like k^-5 and truncation errors like N^-4.5; a pure
    sine basis cannot do better than a fixed algebraic order for velocities
    that actually advect (one in-plane component is always even across each
    wall), so the envelope power is what sets the convergence order.

    The velocity is g(t) U(x, y), so the forcing is g'(t) a + g(t) b +
    g(t)^2 c with a = U, b = -nu A1 U and c = (W . grad) U fixed in time,
    read off the Taylor jets of psi and u3b on the requested grid.  The split
    holds only while g(t) is the sole time dependence of the solution.
    """

    extents: tuple[float, float] = (1.0, 1.0)
    chart: SliceChart | None = None
    nu: float = 0.1
    amp_psi: float = 0.05
    amp_w: float = 0.4
    sigma: float = 4.0
    omega: float = 3.0
    envelope_power: int = 4

    def __post_init__(self):
        if self.chart is None:
            c1v, c2v = 0.0, 0.0
        else:
            c1v, c2v = projected_gradient_coeffs(self.chart)
        self.c1, self.c2 = float(c1v), float(c2v)
        if int(self.envelope_power) < 2:
            raise ValueError("envelope_power must be >= 2")
        self._proj_cache: dict = {}

    def _amplitude(self, t: float) -> tuple[float, float]:
        """g'(t) and g(t) for g(t) = 1 + sin(omega t) / 2."""
        return 0.5 * self.omega * math.cos(self.omega * t), 1.0 + 0.5 * math.sin(self.omega * t)

    def _forcing_fields(self, xg: np.ndarray, yg: np.ndarray):
        """The fixed fields a, b, c, each (3, nx, ny), on the grid xg x yg."""
        l1, l2 = (float(v) for v in self.extents)
        sx = Jet.sine(np.asarray(xg, dtype=float), l1, 0)
        sy = Jet.sine(np.asarray(yg, dtype=float), l2, 1)
        p = int(self.envelope_power)
        psi = (self.amp_psi * sx**p * sy**p * (self.sigma * sx * sy).exp()).partials()
        u3b = self.amp_w * sx ** (p - 1) * sy ** (p - 1) * (0.5 * self.sigma * sy).exp()
        w = u3b.partials()[:_UP_TO_SECOND]
        psi_x, psi_y = psi[_SHIFT_X], psi[_SHIFT_Y]
        c1, c2 = self.c1, self.c2
        # partials of U up to order 2: 1, D1, D2, D1^2, D1 D2, D2^2
        u = np.stack([psi_y - c1 * w, -psi_x - c2 * w, w])
        a1 = (1.0 + c1 * c1) * u[:, 3] + 2.0 * c1 * c2 * u[:, 4] + (1.0 + c2 * c2) * u[:, 5]
        # the advecting velocity W = (U1 + c1 U3, U2 + c2 U3) is (D2 psi, -D1 psi)
        return u[:, 0], -self.nu * a1, psi_y[0] * u[:, 1] - psi_x[0] * u[:, 2]

    def forcing_values(self, t: float, xg: np.ndarray, yg: np.ndarray) -> np.ndarray:
        dg, g = self._amplitude(t)
        a, b, c = self._forcing_fields(xg, yg)
        return dg * a + g * b + g * g * c

    # quadrature plumbing -------------------------------------------------
    def _quad(self, basis: SpectralBasis) -> _BasisData:
        key = basis.nmodes
        if key not in self._proj_cache:
            q = 3 * max(basis.nmodes) + 16
            xg, wx = gauss_rule(basis.extents[0], q)
            yg, wy = gauss_rule(basis.extents[1], q)
            s1 = basis.sine_table(0, xg)
            s2 = basis.sine_table(1, yg)
            self._proj_cache[key] = _BasisData(xg, wx, yg, wy, s1, s2)
        return self._proj_cache[key]

    def _project(self, values: np.ndarray, basis: SpectralBasis) -> np.ndarray:
        quad = self._quad(basis)
        weighted = values * quad.wx[None, :, None] * quad.wy[None, None, :]
        grid = (quad.s1 @ weighted @ quad.s2.T) / basis.mass_scale
        return basis.gather(grid)

    def _split(self, basis: SpectralBasis) -> _BasisData:
        """The basis data with a = U on its grid and a, b, c projected, once per basis."""
        quad = self._quad(basis)
        if quad.forcing is None:
            fields = self._forcing_fields(quad.xg, quad.yg)
            quad.u_grid = fields[0]
            quad.forcing = tuple(self._project(v, basis) for v in fields)
        return quad

    def operators(self, n: int) -> OperatorTensors:
        """Galerkin operators of the n x n basis on this chart, assembled once."""
        basis = SpectralBasis(nmodes=(int(n), int(n)), extents=self.extents)
        quad = self._quad(basis)
        if quad.tensors is None:
            quad.tensors = galerkin.assemble(basis, self.chart)
        return quad.tensors

    def exact_coeffs(self, t: float, basis: SpectralBasis) -> np.ndarray:
        _, g = self._amplitude(t)
        return g * self._split(basis).forcing[0]

    def forcing_coeffs(self, basis: SpectralBasis):
        """Callable t -> (3, M) basis coordinates of the forcing.

        The three fixed fields a, b, c are projected on the first request for
        a basis and kept with its quadrature grid; each call then combines
        the projections with g'(t), g(t) and g(t)^2.
        """
        pa, pb, pc = self._split(basis).forcing

        def f_of_t(t: float) -> np.ndarray:
            dg, g = self._amplitude(t)
            return dg * pa + g * pb + g * g * pc

        return f_of_t

    def l2_error(self, coeffs: np.ndarray, t: float, basis: SpectralBasis) -> float:
        """True L2 distance between the expansion and the exact velocity."""
        quad = self._split(basis)
        _, g = self._amplitude(t)
        grids = basis.scatter(np.asarray(coeffs).reshape(3, -1))
        diff = quad.s1.T @ grids @ quad.s2 - g * quad.u_grid
        return float(np.sqrt(np.sum(diff**2 * quad.wx[None, :, None] * quad.wy[None, None, :])))

    def solve(
        self,
        tensors: OperatorTensors,
        dt: float,
        t_end: float,
    ) -> Trace:
        basis = tensors.basis
        start = project_divfree(self.exact_coeffs(0.0, basis).ravel(), tensors)
        return solve_from_state(start, self.forcing_coeffs(basis), tensors, self.nu, dt, t_end)


def halving_steps(dt_list) -> list[float]:
    """dt_list from the largest step down; raises ValueError unless each step halves the last."""
    dts = sorted((float(d) for d in dt_list), reverse=True)
    if any(abs(a / b - 2.0) > 1e-12 for a, b in zip(dts, dts[1:])):
        raise ValueError("dt_list must halve between entries")
    return dts


def spatial_convergence(
    ms: ManufacturedSolution,
    n_list,
    dt: float,
    t_end: float,
) -> list[dict]:
    """L2 error at t_end for each mode count; errors should drop spectrally."""
    rows = []
    for n in n_list:
        tensors = ms.operators(n)
        err = ms.l2_error(ms.solve(tensors, dt, t_end).coeffs[-1], t_end, tensors.basis)
        rows.append({"n": int(n), "dt": dt, "error": err})
    return rows


def temporal_convergence(
    ms: ManufacturedSolution,
    n: int,
    dt_list,
    t_end: float,
) -> dict:
    """Richardson study on dt halving at fixed mode count.

    Successive-solution differences cancel the spatial error, so the observed
    order reflects the time integrator alone.
    """
    dts = halving_steps(dt_list)
    tensors = ms.operators(n)
    finals = [ms.solve(tensors, dt, t_end).coeffs[-1] for dt in dts]
    diffs = [
        tensors.norm_h(a - b) for a, b in zip(finals, finals[1:])
    ]
    orders = [
        float(np.log2(d0 / d1)) for d0, d1 in zip(diffs, diffs[1:]) if d1 > 0.0
    ]
    return {"dts": dts, "diffs": diffs, "orders": orders}
