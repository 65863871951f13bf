"""Energy accounting and perturbation-contraction experiments on solver runs.

All norms are evaluated in coefficient space (exact for the orthogonal sine
basis), so the checks below are free of grid-quadrature noise:

* the per-step energy balance

      d/dt E + nu * (D1 + D2 + Dcross) = W,

  with E = 0.5 ||u||^2, D1/D2 the squared in-plane gradient norms, Dcross
  the squared chart cross-term norm (which carries the 1/4 factor), and
  W = <f, u>, holds for the semi-discrete system identically; the recorded
  residual measures only the time discretization;
* the cumulative inequality E(t) + nu * int(D1 + D2 + Dcross) <= E(0)
  + int |W| follows from it and is certified with a small accumulation
  tolerance;
* for the difference w of two runs, ||w||(t) must stay under the fitted
  envelope ||w||(0) * exp(2 C int ||grad u||^2 ds).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import galerkin
from .galerkin import OperatorTensors, Trace

logger = logging.getLogger(__name__)

INEQUALITY_RTOL = 1e-8
MONOTONE_SLACK = 1e-12
ENVELOPE_SLACK = 1e-6
DIVERGENCE_TOL = 1e-9   # bound on galerkin.divergence_residual over the states of a solve


class EnergyViolationError(RuntimeError):
    """A ledger holds a negative value of a stored norm."""


def _simpson_pieces(y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Simpson integral over the first interval of each point triple.

    The quadratic through (x_i, x_i+1, x_i+2) integrated over [x_i, x_i+1],
    for unequal widths (Cartwright, "Simpson's rule cumulative integration
    with MS Excel and irregularly-spaced data", eqn 8); applied to the
    reversed data it gives the integral over the second interval.
    """
    x21 = dx[:-1]
    x32 = dx[1:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return x21 / 6 * (coeff1 * y[:-2] + coeff2 * y[1:-1] + coeff3 * y[2:])


def _cumulative(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative integral with Simpson-level accuracy (O(dt^4)).

    Same formula and summation order as scipy.integrate.cumulative_simpson,
    which the tests compare against; the runtime needs numpy only.
    """
    if y.size < 3:
        out = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(x) * (y[1:] + y[:-1]))])
        return out
    dx = np.diff(x)
    if np.any(dx <= 0):
        raise ValueError("Input x must be strictly increasing.")
    first = _simpson_pieces(y, dx)
    second = _simpson_pieces(y[::-1], dx[::-1])[::-1]
    pieces = np.empty(dx.size)
    pieces[:-1:2] = first[::2]
    pieces[1::2] = second[::2]
    # the last interval has no triple that starts on it
    pieces[-1] = second[-1]
    return np.concatenate([[0.0], np.cumsum(pieces)])


@dataclass
class EnergyLedger:
    """Per-step energy, dissipation, work and balance residual of one run."""

    times: np.ndarray
    energy: np.ndarray      # E = 0.5 ||u||^2
    d1: np.ndarray          # ||D1 u||^2
    d2: np.ndarray          # ||D2 u||^2
    dcross: np.ndarray      # 0.25 ||(a1^-1 D1 + a2^-1 D2) u||^2, zero when axis-aligned
    work: np.ndarray        # <f, u>
    residual: np.ndarray    # balance defect with centered time differences
    nu: float

    def __post_init__(self):
        for name in ("energy", "d1", "d2", "dcross"):
            arr = getattr(self, name)
            if np.any(arr < -1e-13 * max(1.0, np.max(np.abs(arr), initial=0.0))):
                raise EnergyViolationError(f"negative stored norm in {name}")

    @property
    def cumulative_dissipation(self) -> np.ndarray:
        return self.nu * _cumulative(self.d1 + self.d2 + self.dcross, self.times)

    @property
    def cumulative_abs_work(self) -> np.ndarray:
        return _cumulative(np.abs(self.work), self.times)

    def inequality_margin(self) -> np.ndarray:
        """RHS - LHS of the cumulative bound; >= -tol_accum everywhere when it holds."""
        lhs = self.energy + self.cumulative_dissipation
        rhs = self.energy[0] + self.cumulative_abs_work
        return rhs - lhs

    def tol_accum(self) -> float:
        return INEQUALITY_RTOL * (self.energy[0] + float(self.cumulative_abs_work[-1]))

    def inequality_holds(self) -> bool:
        return bool(np.all(self.inequality_margin() >= -self.tol_accum()))

    def energy_nonincreasing(self) -> bool:
        """Monotone decay check for unforced runs, with per-step slack MONOTONE_SLACK * E(0)."""
        return bool(np.all(np.diff(self.energy) <= MONOTONE_SLACK * self.energy[0]))

    def to_dict(self) -> dict:
        """The stored fields plus the derived series and the verdict."""
        return {
            **vars(self),
            "cumulative_dissipation": self.cumulative_dissipation,
            "cumulative_abs_work": self.cumulative_abs_work,
            "inequality_margin": self.inequality_margin(),
            "tol_accum": self.tol_accum(),
            "inequality_holds": self.inequality_holds(),
        }


def ledger_from_run(
    trace: Trace,
    tensors: OperatorTensors,
    f_of_t,
    nu: float,
) -> EnergyLedger:
    """Build the per-step ledger from a coefficient trace.

    f_of_t is the forcing the trace was solved with: a callable
    t -> (3M,) in basis coordinates, or None for no forcing.  The time
    derivative in the residual uses centered differences with second-order
    one-sided stencils at the endpoints (np.gradient), so the balance
    residual converges at second order in dt.
    """
    if len(trace) == 0:
        raise ValueError("trace is empty")
    k = len(trace)
    u = trace.coeffs
    e = tensors.energy(u)
    d1, d2, dc = tensors.dissipation_terms(u)
    if f_of_t is None:
        w = np.zeros(k)
    else:
        f = np.stack([f_of_t(t) for t in trace.times])
        w = (f * (tensors.basis.mass_scale * u)).sum(axis=-1)
    if k >= 3:
        dedt = np.gradient(e, trace.times, edge_order=2)
    else:
        dedt = np.gradient(e, trace.times)
    residual = dedt + nu * (d1 + d2 + dc) - w
    return EnergyLedger(
        times=trace.times.copy(),
        energy=e,
        d1=d1,
        d2=d2,
        dcross=dc,
        work=w,
        residual=residual,
        nu=nu,
    )


@dataclass
class ContractionReport:
    """Grönwall-envelope test for the difference of two runs."""

    delta: float
    times: np.ndarray
    w_norm: np.ndarray        # ||u - v|| at each recorded step
    grad_u_sq: np.ndarray     # ||grad u||^2 of the reference run
    fitted_c: float
    bound: np.ndarray         # delta * exp(2 C int ||grad u||^2)
    passed: bool
    scale: float              # ||u0|| of the reference run
    max_w_norm: float


def seeded_state(tensors: OperatorTensors, seed, decay: float = 0.0) -> np.ndarray:
    """Seeded random divergence-free (3M,) state.

    (3, M) standard normals from default_rng(seed), draw i scaled by
    exp(-decay * i) and put on the mode of rank i by increasing eigenvalue,
    then projected.  uniqueness draws from two independent streams of its
    seed, so the perturbation does not lean on the state: the synthetic
    start from [seed, 1] at decay 0.125, and the perturbation direction
    (perturbation_coeffs) from seed at decay 0.
    """
    m = tensors.nmodes_total
    drawn = np.random.default_rng(seed).standard_normal((3, m)) * np.exp(-decay * np.arange(m))
    return tensors.project(drawn[:, tensors.basis.eigen_rank].ravel())


def perturbation_coeffs(tensors: OperatorTensors, seed: int) -> np.ndarray:
    """Unit-norm divergence-free random direction in coefficient space."""
    p = seeded_state(tensors, seed)
    norm = tensors.norm_h(p)
    if norm == 0.0:
        raise ValueError("degenerate perturbation draw")
    return p / norm


def uniqueness_experiment(
    tensors: OperatorTensors,
    u0_coeffs: np.ndarray,
    nu: float,
    dt: float,
    t_end: float,
    delta: float,
    seed: int = 0,
) -> ContractionReport:
    """Run unforced twin solves and test the contraction envelope on their difference.

    The (3M,) state u0_coeffs and its perturbation by delta times a seeded
    unit-norm divergence-free direction are projected onto the
    divergence-free subspace and advance in lockstep as one (2, 3M) state.
    With delta = 0 the twins start from the same state and take the same
    arithmetic, so their difference must be exactly zero.
    """
    if delta < 0.0:
        raise ValueError("delta must be nonnegative")
    # a (3, M) or (M, 3) u0_coeffs does not broadcast with the (3M,) direction
    pair = np.stack([u0_coeffs, u0_coeffs + perturbation_coeffs(tensors, seed) * delta])
    # looked up on the galerkin module, where perfbench/tracer.py wraps them
    start = galerkin.project_divfree(pair, tensors)
    trace = galerkin.solve_from_state(start, None, tensors, nu, dt, t_end)
    return contraction_report(tensors, trace.times, trace.coeffs[:, 0], trace.coeffs[:, 1], delta)


def contraction_report(
    tensors: OperatorTensors,
    times: np.ndarray,
    cu: np.ndarray,
    cv: np.ndarray,
    delta: float,
) -> ContractionReport:
    """Fit the smallest envelope constant and check it covers ||w||(t).

    cu and cv are the (K, 3M) coefficient trajectories of the reference and
    the perturbed run at the K times.  The envelope base is
    max(delta, ||w||(0)); when it is 0 the runs are twins of one state, and
    they pass only if they are bit-identical (every ||w|| is exactly 0).
    """
    if cv.shape != cu.shape or cu.shape[0] != len(times):
        raise ValueError("runs do not share a common time grid")
    w_norm = tensors.norm_h(cu - cv)
    grad_sq = tensors.grad_norm_sq(cu)
    scale = tensors.norm_h(cu[0])
    g_int = _cumulative(grad_sq, times)
    base = max(delta, w_norm[0])
    if base > 0.0:
        with np.errstate(divide="ignore"):
            ratios = np.log(w_norm[1:] / base) / (2.0 * np.maximum(g_int[1:], 1e-300))
        ratios = ratios[np.isfinite(ratios)]
        fitted_c = float(np.max(ratios)) if ratios.size else 0.0
        bound = base * np.exp(2.0 * fitted_c * g_int)
        passed = bool(np.all(w_norm <= bound * (1.0 + ENVELOPE_SLACK)))
    else:
        fitted_c = 0.0
        bound = np.zeros_like(w_norm)
        passed = bool(np.all(w_norm == 0.0))
    return ContractionReport(
        delta=delta,
        times=times.copy(),
        w_norm=w_norm,
        grad_u_sq=grad_sq,
        fitted_c=fitted_c,
        bound=bound,
        passed=passed,
        scale=scale,
        max_w_norm=float(np.max(w_norm)),
    )

