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
2008).  The projections of a, b and c are computed once per mode count, so
the forcing at a stage time costs three scaled sums.  Shapes use squared-sine
boundary envelopes times exp(sin(...)) factors: smooth, zero on the boundary,
and with slowly enough decaying sine coefficients that spatial convergence is
measurable above the round-off floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import galerkin
from .galerkin import OperatorTensors, SpectralBasis, project_divfree, solve_from_state
from .geometry import AXIS_ALIGNED_CHART, SliceChart, projected_gradient_coeffs

# A jet holds the Taylor coefficients c[i, j] = D1^i D2^j f / (i! j!) on a
# (4, 4) grid of derivative orders; every cell with i + j > 3 is zero.
_ORDER = 3
_KEPT = [(i, d - i) for d in range(_ORDER + 1) for i in range(d, -1, -1)]
_MASK = (np.add.outer(range(_ORDER + 1), range(_ORDER + 1)) <= _ORDER)[:, :, None, None]
_FACTORIALS = np.array([[math.factorial(i) * math.factorial(j) for j in range(_ORDER + 1)]
                        for i in range(_ORDER + 1)], dtype=float)[:, :, None, None]

# The gates of the study.  Errors fall like N^-4.5 (see ManufacturedSolution),
# about 23 times per doubling of N, and RK4 is fourth order in dt.
MIN_SPATIAL_RATIO = 10.0   # error at the coarsest mode count over that at the finest
MIN_TEMPORAL_ORDER = 3.8   # order observed on the steps 2 dt, dt and dt / 2


def gauss_rule(length: float, npoints: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, length]."""
    x, w = np.polynomial.legendre.leggauss(int(npoints))
    return 0.5 * length * (x + 1.0), 0.5 * length * w


class Jet:
    """Order-3 truncated Taylor expansion in (x, y) at every point of a grid.

    coeffs is (4, 4, nx, ny), or (4, 4, nx, 1) and (4, 4, 1, ny) for jets
    that depend on one variable only; products broadcast to the full grid.
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
        coeffs = np.zeros((_ORDER + 1, _ORDER + 1, *shape))
        for n, v in enumerate((s, k * c, -k**2 * s / 2, -k**3 * c / 6)):
            coeffs[(n, 0) if axis == 0 else (0, n)] = v.reshape(shape)
        return cls(coeffs)

    def __mul__(self, other) -> "Jet":
        if not isinstance(other, Jet):
            return Jet(other * self.coeffs)
        a, b = self.coeffs, other.coeffs
        out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
        for i, j in _KEPT:
            out[i:, j:] += a[i, j] * b[:_ORDER + 1 - i, :_ORDER + 1 - j]
        return Jet(out * _MASK)

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
        h.coeffs[0, 0] = 0.0
        h2 = h * h
        series = h.coeffs + h2.coeffs / 2 + (h2 * h).coeffs / 6
        series[0, 0] = 1.0
        return Jet(np.exp(self.coeffs[0, 0]) * series)

    def partials(self) -> np.ndarray:
        """The (4, 4, ...) grid of D1^i D2^j f."""
        return self.coeffs * _FACTORIALS


@dataclass(frozen=True)
class _Record:
    """The n x n basis on the solution's box and everything built on it, once."""

    basis: SpectralBasis
    xg: np.ndarray           # Gauss grid and weights
    wx: np.ndarray
    yg: np.ndarray
    wy: np.ndarray
    s1: np.ndarray           # sine tables on the grid
    s2: np.ndarray
    u_grid: np.ndarray       # a = U on the grid
    forcing: tuple           # projections of a, b, c
    tensors: OperatorTensors
    finals: dict             # (dt, t_end) -> read-only final state


@dataclass
class ManufacturedSolution:
    """Closed-form solution/forcing pair for a given chart coupling.

    sigma sets the non-polynomial spectral richness.  The class constants
    amp_psi and amp_w scale the advecting stream function and the third
    component, and omega drives the amplitude modulation
    g(t) = 1 + 0.5 sin(omega t).  Quartic/cubic sine envelopes
    keep the first few even derivatives zero on the walls, so the sine-basis
    coefficients decay like k^-5 and truncation errors like N^-4.5; a pure
    sine basis cannot do better than a fixed algebraic order for velocities
    that actually advect (one in-plane component is always even across each
    wall), so the envelope power is what sets the convergence order.

    The velocity is g(t) U(x, y), so the forcing is g'(t) a + g(t) b +
    g(t)^2 c with a = U, b = -nu A1 U and c = (W . grad) U fixed in time,
    read off the Taylor jets of psi and u3b on the requested grid.  The split
    holds only while g(t) is the sole time dependence of the solution.

    Every method that needs a basis takes a mode count n and uses the n x n
    basis on extents; what is built for n is kept and reused.
    """

    extents: tuple[float, float] = (1.0, 1.0)
    chart: SliceChart = AXIS_ALIGNED_CHART
    nu: float = 0.1
    sigma: float = 4.0
    envelope_power: int = 4
    amp_psi: ClassVar[float] = 0.05
    amp_w: ClassVar[float] = 0.4
    omega: ClassVar[float] = 3.0

    def __post_init__(self):
        self.c1, self.c2 = projected_gradient_coeffs(self.chart)
        if int(self.envelope_power) < 2:
            raise ValueError("envelope_power must be >= 2")
        self._records: dict[int, _Record] = {}

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
        w = u3b.partials()[:3, :3]
        psi_x, psi_y = psi[1:, :3], psi[:3, 1:]
        c1, c2 = self.c1, self.c2
        # u[k, i, j] = D1^i D2^j U_k for i + j <= 2
        u = np.stack([psi_y - c1 * w, -psi_x - c2 * w, w])
        a1 = (1.0 + c1 * c1) * u[:, 2, 0] + 2.0 * c1 * c2 * u[:, 1, 1] + (1.0 + c2 * c2) * u[:, 0, 2]
        # the advecting velocity W = (U1 + c1 U3, U2 + c2 U3) is (D2 psi, -D1 psi)
        return u[:, 0, 0], -self.nu * a1, psi_y[0, 0] * u[:, 1, 0] - psi_x[0, 0] * u[:, 0, 1]

    def forcing_values(self, t: float, xg: np.ndarray, yg: np.ndarray) -> np.ndarray:
        dg, g = self._amplitude(t)
        a, b, c = self._forcing_fields(xg, yg)
        return dg * a + g * b + g * g * c

    def _record(self, n: int) -> _Record:
        """The record of the n x n basis, built on the first request for n."""
        n = int(n)
        if n not in self._records:
            basis = SpectralBasis(nmodes=(n, n), extents=self.extents)
            q = 3 * n + 16
            xg, wx = gauss_rule(basis.extents[0], q)
            yg, wy = gauss_rule(basis.extents[1], q)
            s1, s2 = basis.sine_table(0, xg), basis.sine_table(1, yg)
            fields = self._forcing_fields(xg, yg)
            forcing = tuple(
                ((s1 @ (v * wx[None, :, None] * wy[None, None, :]) @ s2.T)
                 / basis.mass_scale).reshape(-1)
                for v in fields
            )
            tensors = galerkin.assemble(basis, self.chart)
            self._records[n] = _Record(basis, xg, wx, yg, wy, s1, s2, fields[0], forcing,
                                       tensors, {})
        return self._records[n]

    def operators(self, n: int) -> OperatorTensors:
        """Galerkin operators of the n x n basis on this chart."""
        return self._record(n).tensors

    def exact_coeffs(self, t: float, n: int) -> np.ndarray:
        """(3M,) state of the exact velocity at t in the n x n basis."""
        _, g = self._amplitude(t)
        return g * self._record(n).forcing[0]

    def forcing_coeffs(self, n: int):
        """Callable t -> (3M,) coordinates of the forcing in the n x n basis.

        Each call combines the projections of the fixed fields a, b, c with
        g'(t), g(t) and g(t)^2.
        """
        pa, pb, pc = self._record(n).forcing

        def f_of_t(t: float) -> np.ndarray:
            dg, g = self._amplitude(t)
            return dg * pa + g * pb + g * g * pc

        return f_of_t

    def l2_error(self, coeffs: np.ndarray, t: float, n: int):
        """True L2 distance between the expansion of each state and the exact velocity.

        coeffs is one (3M,) state, which gives a float, or a (..., 3M) stack,
        which gives one distance per state.
        """
        rec = self._record(n)
        _, g = self._amplitude(t)
        grids = coeffs.reshape(coeffs.shape[:-1] + (3,) + rec.basis.nmodes)
        diff = rec.s1.T @ grids @ rec.s2 - g * rec.u_grid
        sq = diff**2 * rec.wx[None, :, None] * rec.wy[None, None, :]
        return galerkin._per_state(np.sqrt(sq.reshape(coeffs.shape[:-1] + (-1,)).sum(axis=-1)))

    def final(self, n: int, dt: float, t_end: float) -> np.ndarray:
        """Read-only (3M,) state at t_end of the forced solve from the exact start.

        The start is the exact velocity at t = 0 projected on the n x n basis
        and its divergence-free subspace.  Each (dt, t_end) is solved once.
        """
        rec = self._record(n)
        key = (float(dt), float(t_end))
        if key not in rec.finals:
            start = project_divfree(self.exact_coeffs(0.0, n), rec.tensors)
            trace = solve_from_state(start, self.forcing_coeffs(n), rec.tensors, self.nu, dt, t_end)
            state = trace.coeffs[-1].copy()
            state.flags.writeable = False
            rec.finals[key] = state
        return rec.finals[key]


def spatial_convergence(
    ms: ManufacturedSolution,
    n_list,
    dt: float,
    t_end: float,
) -> list[dict]:
    """L2 error at t_end for each mode count; errors should drop spectrally."""
    return [
        {"n": int(n), "dt": dt, "error": ms.l2_error(ms.final(n, dt, t_end), t_end, n)}
        for n in n_list
    ]


def temporal_convergence(
    ms: ManufacturedSolution,
    n: int,
    dt: float,
    t_end: float,
) -> dict:
    """Richardson study on the steps 2 dt, dt and dt / 2 at fixed mode count.

    Successive-solution differences cancel the spatial error, so the observed
    order reflects the time integrator alone.
    """
    dts = [2.0 * dt, dt, dt / 2.0]
    finals = [ms.final(n, dt, t_end) for dt in dts]
    diffs = [ms.operators(n).norm_h(a - b) for a, b in zip(finals, finals[1:])]
    orders = [
        float(np.log2(d0 / d1)) for d0, d1 in zip(diffs, diffs[1:]) if d1 > 0.0
    ]
    return {"dts": dts, "diffs": diffs, "orders": orders}
