"""Property tests of the divergence projector on random oblique charts, mode
counts 1 to 9 of both parities and extents in [0.5, 2].

project_divfree must be idempotent and mass-self-adjoint and must leave a weak
divergence at round-off, at the tolerances of the square-basis tests in
test_galerkin.py.  The examples are derandomized and bounded, so a rerun draws
the same cases and the module stays short.  Without hypothesis, which comes
with the test extra, the module skips.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from nsslice.galerkin import (  # noqa: E402
    SpectralBasis,
    assemble,
    divergence_residual,
    project_divfree,
)
from nsslice.geometry import CoefficientOverflowError, Hyperplane, make_chart  # noqa: E402

pytestmark = pytest.mark.blas_sensitive

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None, database=None)

MIN_ALPHA = 0.05


@st.composite
def oblique_tensors(draw):
    """Operators of a random basis on an oblique chart, |alpha_i| >= MIN_ALPHA.

    The couplings c_i = -1 / (2 alpha_i) then stay within 10.  The projector's
    round-off grows with them, about as |c| for idempotence and c^2 for the
    divergence, so the fixed tolerances hold only on such charts.
    """
    normal = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3))
    assume(np.linalg.norm(normal) > 0.1)
    try:
        chart = make_chart(Hyperplane.from_vector(normal, 0.3))
    except CoefficientOverflowError:
        # a near-axis-aligned normal: the chart refuses its tiny coefficient
        chart = None
    assume(chart is not None and min(abs(chart.alpha1), abs(chart.alpha2)) >= MIN_ALPHA)
    nmodes = draw(st.tuples(st.integers(1, 9), st.integers(1, 9)))
    extents = draw(st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)))
    return assemble(SpectralBasis(nmodes=nmodes, extents=extents), chart)


@PROPERTY
@given(tens=oblique_tensors(), seed=st.integers(0, 2**32 - 1))
def test_project_divfree_idempotent_at_random_charts(tens, seed):
    u = np.random.default_rng(seed).standard_normal(3 * tens.nmodes_total)
    once = project_divfree(u, tens)
    twice = project_divfree(once, tens)
    assert np.max(np.abs(twice - once)) < 1e-13


@PROPERTY
@given(tens=oblique_tensors())
def test_projector_mass_self_adjoint_at_random_charts(tens):
    # the mass is basis.mass_scale times the identity, so mass-self-adjoint
    # means symmetric
    p = tens.projector
    assert np.allclose(p, p.T, atol=1e-13)
    assert np.allclose(p @ p, p, atol=1e-13)


@PROPERTY
@given(tens=oblique_tensors(), seed=st.integers(0, 2**32 - 1))
def test_project_divfree_leaves_divergence_at_round_off(tens, seed):
    u = np.random.default_rng(seed).standard_normal(3 * tens.nmodes_total)
    assert divergence_residual(project_divfree(u, tens), tens) <= 1e-10
