"""Manufactured solutions for solver verification.

A stream function psi and a free third component u3b generate an exactly
constraint-compatible velocity

    u = g(t) * (D2 psi - c1 * u3b,  -D1 psi - c2 * u3b,  u3b),

whose projected divergence D1 u1 + D2 u2 + (c1 D1 + c2 D2) u3 vanishes
identically for any psi, u3b.  The matching forcing

    f = d/dt u - nu * A1 u + B1(u, u)

is derived symbolically (sympy) and absorbs everything, so the discrete
solver must reproduce u to its spatial and temporal accuracy.  Because the
amplitude g(t) is the only time dependence (u = g(t) U(x, y)), the forcing
splits exactly into three fixed fields,

    f = g'(t) a + g(t) b + g(t)^2 c,   a = U,  b = -nu A1 U,  c = (W . grad) U,

with W the in-plane advecting velocity of U.  Their projections are computed
once per basis, so the forcing at a stage time costs three scaled sums.
Shapes use squared-sine boundary envelopes times exp(sin(...)) factors:
smooth, zero on the boundary, and with slowly enough decaying sine
coefficients that spatial convergence is measurable above the round-off
floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .fieldio import Field
from .galerkin import (
    OperatorTensors,
    SolveResult,
    SpectralBasis,
    GalerkinState,
    gauss_rule,
    project_divfree,
    solve_from_state,
)
from .geometry import SliceChart, projected_gradient_coeffs


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
    g(t)^2 c with a = U, b = -nu A1 U and c = (W . grad) U fixed in time;
    _u_exprs and _f_exprs hold the full time-dependent expressions.  The
    split holds only while g(t) is the sole time dependence of the solution.
    """

    extents: tuple[float, float] = (1.0, 1.0)
    chart: SliceChart | None = None
    nu: float = 0.1
    amp_psi: float = 0.05
    amp_w: float = 0.4
    sigma: float = 4.0
    omega: float = 3.0
    envelope_power: int = 4
    _u_func: Callable = field(init=False, repr=False)
    _bc_func: Callable = field(init=False, repr=False)

    def __post_init__(self):
        import sympy as sp

        if self.chart is None:
            c1v, c2v = 0.0, 0.0
        else:
            c1v, c2v = projected_gradient_coeffs(self.chart)
        self.c1, self.c2 = float(c1v), float(c2v)
        l1, l2 = (float(v) for v in self.extents)
        t, x, y = sp.symbols("t x y", real=True)
        sx = sp.sin(sp.pi * x / l1)
        sy = sp.sin(sp.pi * y / l2)
        p = int(self.envelope_power)
        if p < 2:
            raise ValueError("envelope_power must be >= 2")
        psi = self.amp_psi * sx**p * sy**p * sp.exp(self.sigma * sx * sy)
        u3b = self.amp_w * sx ** (p - 1) * sy ** (p - 1) * sp.exp(0.5 * self.sigma * sy)
        g = 1 + sp.Rational(1, 2) * sp.sin(self.omega * t)
        self._symbols = (t, x, y)
        shape = [sp.diff(psi, y) - self.c1 * u3b, -sp.diff(psi, x) - self.c2 * u3b, u3b]
        w1 = shape[0] + self.c1 * shape[2]
        w2 = shape[1] + self.c2 * shape[2]
        b = [-self.nu * self._a1(h) for h in shape]
        c = [w1 * sp.diff(h, x) + w2 * sp.diff(h, y) for h in shape]
        self._u_exprs = [g * h for h in shape]
        self._time_factors = sp.lambdify(t, (sp.diff(g, t), g), "numpy")
        self._u_func = sp.lambdify((x, y), shape, "numpy", cse=True)
        self._bc_func = sp.lambdify((x, y), b + c, "numpy", cse=True)
        self._proj_cache: dict = {}

    def _a1(self, h):
        """A1 h = D1^2 h + D2^2 h + (c1 D1 + c2 D2)^2 h, symbolically."""
        import sympy as sp

        _, x, y = self._symbols

        def cross(e):
            return self.c1 * sp.diff(e, x) + self.c2 * sp.diff(e, y)

        return sp.diff(h, x, 2) + sp.diff(h, y, 2) + cross(cross(h))

    @cached_property
    def _f_exprs(self) -> list:
        """Full forcing du/dt - nu A1 u + B1(u, u) per component.

        Built on first access: the solver uses the split fields, and this is
        the definition they are checked against.
        """
        import sympy as sp

        t, x, y = self._symbols
        u1, u2, u3 = self._u_exprs
        v1 = u1 + self.c1 * u3
        v2 = u2 + self.c2 * u3
        return [
            sp.diff(ui, t) - self.nu * self._a1(ui) + v1 * sp.diff(ui, x) + v2 * sp.diff(ui, y)
            for ui in self._u_exprs
        ]

    @staticmethod
    def _on_grid(func, xg: np.ndarray, yg: np.ndarray) -> np.ndarray:
        xm, ym = np.meshgrid(xg, yg, indexing="ij")
        return np.stack([np.broadcast_to(v, xm.shape) for v in func(xm, ym)])

    def _forcing_fields(self, xg: np.ndarray, yg: np.ndarray):
        """The fixed fields a, b, c, each (3, nx, ny), on the grid xg x yg."""
        bc = self._on_grid(self._bc_func, xg, yg)
        return self._on_grid(self._u_func, xg, yg), bc[:3], bc[3:]

    def velocity(self, t: float, xg: np.ndarray, yg: np.ndarray) -> np.ndarray:
        """Exact velocity (3, nx, ny) on the tensor grid xg x yg."""
        _, g = self._time_factors(t)
        return g * self._on_grid(self._u_func, xg, yg)

    def forcing_values(self, t: float, xg: np.ndarray, yg: np.ndarray) -> np.ndarray:
        dg, g = self._time_factors(t)
        a, b, c = self._forcing_fields(xg, yg)
        return dg * a + g * b + g * g * c

    def velocity_field(self, t: float, dims) -> Field:
        xg = np.linspace(0.0, self.extents[0], int(dims[0]))
        yg = np.linspace(0.0, self.extents[1], int(dims[1]))
        return Field(
            dims=(int(dims[0]), int(dims[1])),
            extents=self.extents,
            ncomp=3,
            data=self.velocity(t, xg, yg),
        )

    # quadrature plumbing -------------------------------------------------
    def _quad(self, basis: SpectralBasis):
        key = basis.nmodes
        if key not in self._proj_cache:
            q = 3 * max(basis.nmodes) + 16
            xg, wx = gauss_rule(basis.extents[0], q)
            yg, wy = gauss_rule(basis.extents[1], q)
            s1 = basis.sine_table(0, xg)
            s2 = basis.sine_table(1, yg)
            self._proj_cache[key] = [xg, wx, yg, wy, s1, s2, None]
        return self._proj_cache[key]

    def _project(self, values: np.ndarray, basis: SpectralBasis) -> np.ndarray:
        xg, wx, yg, wy, s1, s2, _ = self._quad(basis)
        weighted = values * wx[None, :, None] * wy[None, None, :]
        grid = (s1 @ weighted @ s2.T) / basis.mass_scale
        return basis.gather(grid)

    def exact_coeffs(self, t: float, basis: SpectralBasis) -> np.ndarray:
        xg, _, yg, _, _, _, _ = self._quad(basis)
        return self._project(self.velocity(t, xg, yg), basis)

    def forcing_coeffs(self, basis: SpectralBasis):
        """Callable t -> (3, M) basis coordinates of the forcing.

        The three fixed fields a, b, c are projected on the first request for
        a basis and kept with its quadrature grid; each call then combines
        the projections with g'(t), g(t) and g(t)^2.
        """
        quad = self._quad(basis)
        if quad[-1] is None:
            xg, _, yg, _, _, _, _ = quad
            quad[-1] = [self._project(v, basis) for v in self._forcing_fields(xg, yg)]
        pa, pb, pc = quad[-1]

        def f_of_t(t: float) -> np.ndarray:
            dg, g = self._time_factors(t)
            return dg * pa + g * pb + g * g * pc

        return f_of_t

    def l2_error(self, coeffs: np.ndarray, t: float, basis: SpectralBasis) -> float:
        """True L2 distance between the expansion and the exact velocity."""
        xg, wx, yg, wy, s1, s2, _ = self._quad(basis)
        grids = basis.scatter(np.asarray(coeffs).reshape(3, -1))
        synth = s1.T @ grids @ s2
        diff = synth - self.velocity(t, xg, yg)
        return float(np.sqrt(np.sum(diff**2 * wx[None, :, None] * wy[None, None, :])))

    def solve(
        self,
        tensors: OperatorTensors,
        dt: float,
        t_end: float,
    ) -> SolveResult:
        basis = tensors.basis
        state = project_divfree(
            GalerkinState(coeffs=self.exact_coeffs(0.0, basis).ravel(), time=0.0),
            tensors,
        )
        return solve_from_state(
            state,
            self.forcing_coeffs(basis),
            tensors,
            self.nu,
            dt,
            t_end,
        )


def spatial_convergence(
    ms: ManufacturedSolution,
    n_list,
    dt: float,
    t_end: float,
) -> list[dict]:
    """L2 error at t_end for each mode count; errors should drop spectrally."""
    from .galerkin import assemble

    rows = []
    for n in n_list:
        basis = SpectralBasis(nmodes=(int(n), int(n)), extents=ms.extents)
        tensors = assemble(basis, ms.chart)
        res = ms.solve(tensors, dt, t_end)
        err = ms.l2_error(res.final_state.coeffs, t_end, basis)
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
    from .galerkin import assemble

    dts = sorted(float(d) for d in dt_list)[::-1]
    for a, b in zip(dts, dts[1:]):
        if abs(a / b - 2.0) > 1e-12:
            raise ValueError("dt_list must halve between entries")
    basis = SpectralBasis(nmodes=(int(n), int(n)), extents=ms.extents)
    tensors = assemble(basis, ms.chart)
    finals = [ms.solve(tensors, dt, t_end).final_state.coeffs for dt in dts]
    diffs = [
        tensors.norm_h(a - b) for a, b in zip(finals, finals[1:])
    ]
    orders = [
        float(np.log2(d0 / d1)) for d0, d1 in zip(diffs, diffs[1:]) if d1 > 0.0
    ]
    return {"dts": dts, "diffs": diffs, "orders": orders}
