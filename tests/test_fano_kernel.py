"""The Fano-form information rates against the double-quadrature reference.

Tolerances are fixed by the reference, not by the kernel: the reference's
own error on the continuous readout reaches 7.3e-7 bits at the 32x64 rule
(log singularity of the integrand), so the continuous rate must agree to
2e-6; the reconciled rate integrates the same table on the same nodes, so
only roundoff separates the two and it must agree to 1e-12.
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
    reconciled_i_ab,
)
import oracle

NONSELECTED_TOL = 2e-6
RECONCILED_TOL = 1e-12

EXAMPLES = settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _check_against_reference(rho: DensityMatrix) -> None:
    quad = default_quadrature()
    got = nonselected_information(rho, quad, quad)
    ref = oracle.nonselected_information(rho, quad, quad)
    assert abs(got - ref) <= NONSELECTED_TOL, (got, ref)
    got = reconciled_i_ab(rho, quad)
    ref = oracle.reconciled_i_ab(rho, quad)
    assert abs(got - ref) <= RECONCILED_TOL, (got, ref)


@EXAMPLES
@given(
    arrays(np.float64, (2, 4, 4), elements=st.floats(-1.0, 1.0, allow_subnormal=False)),
    st.integers(1, 4),
)
def test_random_states_match_reference(parts, rank):
    g = (parts[0] + 1j * parts[1])[:, :rank]
    m = g @ g.conj().T
    norm = float(np.trace(m).real)
    assume(norm > 1e-3)
    m = m / norm
    _check_against_reference(DensityMatrix(0.5 * (m + m.conj().T), ("A", "B")))


@EXAMPLES
@given(
    st.floats(0.0, math.pi / 4),
    st.floats(0.0, math.pi / 4),
    st.sampled_from([0, 1, 2]),
)
def test_attacked_reductions_match_reference(theta, phi, which):
    rho = bipartite_reductions(attacked_state(AttackParams(theta, phi)))[which]
    _check_against_reference(rho)
