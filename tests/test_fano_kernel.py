"""The Fano-form rates and readings against the ket-based references.

Tolerances are fixed by the reference, not by the kernel: the reference's
own error on the continuous readout reaches 7.3e-7 bits at the 32x64 rule
(log singularity of the integrand), so the continuous rate must agree to
2e-6.  The reconciled rate integrates the same table on the same nodes, the
two-basis information reads the same 2x2 table, and the sphere-averaged
disturbance is the closed form of the degree-2 average that the reference
takes over nodes which integrate it exactly, so only roundoff separates each
from its reference and they must agree to 1e-12.
"""

import math

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from contqkd import (
    AttackParams,
    DensityMatrix,
    attacked_state,
    bipartite_reductions,
    default_quadrature,
    nonselected_information,
    qber_sphere_averaged,
    reconciled_i_ab,
)
from conftest import fixed_readout_information
import oracle

NONSELECTED_TOL = 2e-6
EXACT_TOL = 1e-12

# Two nonzero 3-vectors, normalized to the parties' reading directions.
DIRECTIONS = arrays(np.float64, (2, 3), elements=st.floats(-1.0, 1.0, allow_subnormal=False))

EXAMPLES = settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _check_against_reference(rho: DensityMatrix, directions: np.ndarray) -> None:
    quad = default_quadrature()
    got = nonselected_information(rho, quad, quad)
    ref = oracle.nonselected_information(rho, quad, quad)
    assert abs(got - ref) <= NONSELECTED_TOL, (got, ref)
    got = reconciled_i_ab(rho, quad)
    ref = oracle.reconciled_i_ab(rho, quad)
    assert abs(got - ref) <= EXACT_TOL, (got, ref)
    norms = np.linalg.norm(directions, axis=1)
    assume(norms.min() > 1e-3)
    n, m = directions / norms[:, None]
    got = fixed_readout_information(rho, n, m)
    ref = oracle.selected_information(rho, n, m)
    assert abs(got - ref) <= EXACT_TOL, (got, ref)


@EXAMPLES
@given(
    arrays(np.float64, (2, 4, 4), elements=st.floats(-1.0, 1.0, allow_subnormal=False)),
    st.integers(1, 4),
    DIRECTIONS,
)
def test_random_states_match_reference(parts, rank, directions):
    g = (parts[0] + 1j * parts[1])[:, :rank]
    m = g @ g.conj().T
    norm = float(np.trace(m).real)
    assume(norm > 1e-3)
    m = m / norm
    _check_against_reference(DensityMatrix(0.5 * (m + m.conj().T), ("A", "B")), directions)


@EXAMPLES
@given(
    st.floats(0.0, math.pi / 4),
    st.floats(0.0, math.pi / 4),
    st.sampled_from([0, 1, 2]),
    DIRECTIONS,
)
def test_attacked_reductions_match_reference(theta, phi, which, directions):
    params = AttackParams(theta, phi)
    got = qber_sphere_averaged(params, default_quadrature())
    ref = oracle.qber_sphere_averaged(params, default_quadrature())
    assert abs(got - ref) <= EXACT_TOL, (got, ref)
    rho = bipartite_reductions(attacked_state(params))[which]
    _check_against_reference(rho, directions)
