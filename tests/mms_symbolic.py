"""Symbolic construction of a ManufacturedSolution: the oracle for its fields.

sympy builds the stream function, the third component, the velocity and the
full time-dependent forcing du/dt - nu A1 u + B1(u, u) from the solution's
public parameters, and differentiates them exactly.  The package evaluates
the same fields with Taylor jets; the tests compare the two.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import sympy as sp


class SymbolicMMS:
    """sympy expressions of the velocity and forcing of a ManufacturedSolution."""

    def __init__(self, ms):
        self.c1, self.c2, self.nu = ms.c1, ms.c2, ms.nu
        l1, l2 = (float(v) for v in ms.extents)
        t, x, y = sp.symbols("t x y", real=True)
        self.symbols = (t, x, y)
        sx = sp.sin(sp.pi * x / l1)
        sy = sp.sin(sp.pi * y / l2)
        p = int(ms.envelope_power)
        psi = ms.amp_psi * sx**p * sy**p * sp.exp(ms.sigma * sx * sy)
        u3b = ms.amp_w * sx ** (p - 1) * sy ** (p - 1) * sp.exp(0.5 * ms.sigma * sy)
        g = 1 + sp.Rational(1, 2) * sp.sin(ms.omega * t)
        self.shape = [sp.diff(psi, y) - self.c1 * u3b, -sp.diff(psi, x) - self.c2 * u3b, u3b]
        self.u_exprs = [g * h for h in self.shape]

    def a1(self, h):
        """A1 h = D1^2 h + D2^2 h + (c1 D1 + c2 D2)^2 h."""
        _, x, y = self.symbols

        def cross(e):
            return self.c1 * sp.diff(e, x) + self.c2 * sp.diff(e, y)

        return sp.diff(h, x, 2) + sp.diff(h, y, 2) + cross(cross(h))

    @cached_property
    def f_exprs(self) -> list:
        """Full forcing du/dt - nu A1 u + B1(u, u) per component."""
        t, x, y = self.symbols
        u1, u2, u3 = self.u_exprs
        v1 = u1 + self.c1 * u3
        v2 = u2 + self.c2 * u3
        return [
            sp.diff(ui, t) - self.nu * self.a1(ui) + v1 * sp.diff(ui, x) + v2 * sp.diff(ui, y)
            for ui in self.u_exprs
        ]

    def split_fields(self, xg: np.ndarray, yg: np.ndarray):
        """a = U, b = -nu A1 U and c = (W . grad) U, each (3, nx, ny), by lambdify."""
        _, x, y = self.symbols
        w1 = self.shape[0] + self.c1 * self.shape[2]
        w2 = self.shape[1] + self.c2 * self.shape[2]
        b = [-self.nu * self.a1(h) for h in self.shape]
        c = [w1 * sp.diff(h, x) + w2 * sp.diff(h, y) for h in self.shape]
        func = sp.lambdify((x, y), self.shape + b + c, "numpy", cse=True)
        xm, ym = np.meshgrid(xg, yg, indexing="ij")
        vals = np.stack([np.broadcast_to(v, xm.shape) for v in func(xm, ym)])
        return vals[:3], vals[3:6], vals[6:]
