"""State-algebra unit tests: density matrices, reductions, and direction readings.

A measurement direction is a unit Bloch vector, or its (u, phi) coordinates
in the sampler.  Two readings of a state along directions remain: the
complex outcome kets of the Monte Carlo sampler (``protosim._basis_kets``)
and the Fano-form outcome densities (``infocalc._fano_form``).
"""

import math

import numpy as np
import pytest

from contqkd import (
    DensityMatrix,
    ProtocolConfig,
    nonselected_information,
    optimal_params,
    partial_trace,
    reconciled_i_ab,
    run_protocol,
    singlet,
)
from contqkd.attack import attacked_pure_state
from contqkd.infocalc import _fano_form
from contqkd.protosim import _basis_kets, _outcome_probabilities
from conftest import cos_polar_azimuth, random_direction
from oracle import maximally_mixed, tensor

KET0 = np.array([1.0, 0.0])


def kets_of(n: np.ndarray) -> np.ndarray:
    """The sampler's two outcome kets (along n, along -n) of one unit vector."""
    u, phi = cos_polar_azimuth(n)
    return _basis_kets(np.array([u]), np.array([phi]))[0]


def fano_density(rho: DensityMatrix, n: np.ndarray, m: np.ndarray) -> float:
    """Outcome density (1 + a.n + b.m + n.T.m)/4 of reading +n, +m."""
    a, b, t = _fano_form(rho)
    return 0.25 * (1.0 + a @ n + b @ m + n @ t @ m)


class TestBlochDirection:
    def test_canonical_ranges(self):
        t = run_protocol(ProtocolConfig(rounds=2000, attack=optimal_params(0.2), seed=3))
        for u, phi in ((t.alice_u, t.alice_phi), (t.bob_u, t.bob_phi)):
            assert np.all((-1.0 <= u) & (u <= 1.0))
            assert np.all((0.0 <= phi) & (phi < 2.0 * math.pi))

    def test_antipode_is_involution(self):
        # The antipode (u, phi) -> (-u, phi + pi) that sifting uses: applied
        # twice it returns the direction, and the first outcome ket of the
        # antipode is the second outcome ket of the direction up to phase.
        rng = np.random.default_rng(7)
        u, phi = cos_polar_azimuth(np.array([random_direction(rng) for _ in range(1000)]))
        ua, pa = -u, np.mod(phi + math.pi, 2.0 * math.pi)
        np.testing.assert_allclose(-ua, u, atol=1e-12)
        np.testing.assert_allclose(np.mod(pa + math.pi, 2.0 * math.pi), phi, atol=1e-12)
        overlap = np.einsum("ni,ni->n", _basis_kets(u, phi)[:, 1].conj(), _basis_kets(ua, pa)[:, 0])
        np.testing.assert_allclose(np.abs(overlap), 1.0, atol=1e-12)

    def test_pole_azimuth_fixed(self):
        # At a pole the azimuth is physically irrelevant: the outcome
        # distribution of every round is the same for every phi.
        state = attacked_pure_state(optimal_params(0.3))
        phis = np.array([0.0, 1.3, 2.2, 5.0])
        ub, pb = np.full(4, 0.4), np.full(4, 1.7)
        for pole in (1.0, -1.0):
            p = _outcome_probabilities(state, np.full(4, pole), phis, ub, pb)
            np.testing.assert_allclose(p, np.broadcast_to(p[0], p.shape), atol=1e-15)


class TestKets:
    def test_north_pole_is_zero_ket(self):
        k = _basis_kets(np.array([1.0]), np.array([2.1]))[0, 0]
        np.testing.assert_allclose(k, [1.0, 0.0], atol=1e-15)

    def test_south_pole_is_one_ket(self):
        k = _basis_kets(np.array([-1.0]), np.array([0.0]))[0, 0]
        np.testing.assert_allclose(k, [0.0, 1.0], atol=1e-15)

    def test_equator_is_balanced(self):
        k = _basis_kets(np.array([0.0]), np.array([0.0]))[0, 0]
        np.testing.assert_allclose(k, [1 / math.sqrt(2)] * 2, atol=1e-15)

    def test_antipodal_kets_orthogonal(self):
        rng = np.random.default_rng(11)
        u, phi = cos_polar_azimuth(np.array([random_direction(rng) for _ in range(1000)]))
        kets = _basis_kets(u, phi)
        cross = np.einsum("ni,ni->n", kets[:, 0].conj(), kets[:, 1])
        assert float(np.abs(cross).max()) < 1e-12

    def test_phase_canonicalization(self):
        # The first amplitude of every outcome ket along n is real and >= 0.
        rng = np.random.default_rng(12)
        u, phi = cos_polar_azimuth(np.array([random_direction(rng) for _ in range(200)]))
        first = _basis_kets(u, phi)[:, 0, 0]
        assert np.all(first.imag == 0.0)
        assert np.all(first.real >= 0.0)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.outer([1.0, 1.0], [1.0, 1.0]), ("A",))
        rng = np.random.default_rng(13)
        u, phi = cos_polar_azimuth(np.array([random_direction(rng) for _ in range(200)]))
        norms = np.linalg.norm(_basis_kets(u, phi), axis=2)
        np.testing.assert_allclose(norms, 1.0, atol=1e-14)


class TestDensityMatrix:
    def test_non_hermitian_rejected(self):
        m = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m, ("A",))

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2, dtype=complex), ("A",))

    def test_negative_matrix_rejected(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(m, ("A",))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            DensityMatrix(np.eye(4, dtype=complex) / 4, ("A", "A"))


class TestSinglet:
    def test_marginal_is_maximally_mixed(self):
        red = partial_trace(singlet(), ("A",))
        np.testing.assert_allclose(red.entries, np.eye(2) / 2, atol=1e-14)

    def test_pure(self):
        rho = singlet().entries
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-13)

    def test_parallel_outcomes_forbidden(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = kets_of(random_direction(rng))[0]
            v = np.kron(k, k)
            assert float((v.conj() @ singlet().entries @ v).real) < 1e-12

    def test_anticorrelation_law(self):
        # Brute-force matrix evaluation on the outcome kets against
        # (1 - cos angle) / 4, and the Fano-form density against the same.
        rng = np.random.default_rng(5)
        for _ in range(200):
            d1, d2 = random_direction(rng), random_direction(rng)
            v = np.kron(kets_of(d1)[0], kets_of(d2)[0])
            expected = (1.0 - float(d1 @ d2)) / 4.0
            assert float((v.conj() @ singlet().entries @ v).real) == pytest.approx(expected, abs=1e-12)
            assert fano_density(singlet(), d1, d2) == pytest.approx(expected, abs=1e-12)


class TestTensor:
    def test_mixed_product(self):
        out = tensor(maximally_mixed(("A",)), maximally_mixed(("B",)))
        np.testing.assert_allclose(out.entries, np.eye(4) / 4, atol=1e-15)

    def test_purity_preserved_on_three_qubits(self):
        probe = DensityMatrix.from_ket(KET0, ("E",))
        out = tensor(singlet(), probe)
        assert out.entries.shape == (8, 8)
        assert np.trace(out.entries @ out.entries).real == pytest.approx(1.0, abs=1e-12)
        assert np.trace(out.entries).real == pytest.approx(1.0, abs=1e-13)

    def test_duplicate_label_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            tensor(singlet(("A", "B")), maximally_mixed(("B",)))


class TestPartialTrace:
    def test_product_state_reduction(self):
        sigma = DensityMatrix.from_ket(KET0, ("E",))
        out = partial_trace(tensor(singlet(), sigma), ("A", "B"))
        np.testing.assert_allclose(out.entries, singlet().entries, atol=1e-14)

    def test_composition_one_at_a_time(self):
        k = _basis_kets(np.array([math.cos(1.1)]), np.array([0.4]))[0, 0]
        rho = tensor(singlet(), DensityMatrix.from_ket(k, ("E",)))
        two_step = partial_trace(partial_trace(rho, ("A", "B")), ("A",))
        one_step = partial_trace(rho, ("A",))
        np.testing.assert_allclose(two_step.entries, one_step.entries, atol=1e-12)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            partial_trace(singlet(), ("Z",))

    def test_keep_must_be_nonempty(self):
        with pytest.raises(ValueError):
            partial_trace(singlet(), ())


class TestExpectation:
    """Fano-form outcome densities (1 + a.n + b.m + n.T.m)/4 of pair states."""

    def test_singlet_anticorrelated_pair(self):
        z = np.array([0.0, 0.0, 1.0])
        assert fano_density(singlet(), z, -z) == pytest.approx(0.5, abs=1e-13)

    def test_maximally_mixed_quarter(self):
        rng = np.random.default_rng(9)
        rho = maximally_mixed(("A", "B"))
        for _ in range(20):
            n, m = random_direction(rng), random_direction(rng)
            assert fano_density(rho, n, m) == pytest.approx(0.25, abs=1e-13)

    def test_ket_count_enforced(self):
        # One direction per party: the Fano form is defined for pairs only.
        with pytest.raises(ValueError, match="two-qubit"):
            _fano_form(maximally_mixed(("A",)))
        with pytest.raises(ValueError, match="two-qubit"):
            _fano_form(maximally_mixed(("A", "B", "E")))

    def test_values_clamped_to_unit_interval(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n, m = random_direction(rng), random_direction(rng)
            assert -1e-15 <= fano_density(singlet(), n, m) <= 0.5 + 1e-15

    def test_corruption_guard(self, quad_light):
        # A state with an eigenvalue at -5e-11 passes construction (the PSD
        # floor is -1e-10); its density dips are roundoff, not corruption.
        eps = 5e-11
        rho = DensityMatrix(np.diag([1.0 + eps, -eps, 0.0, 0.0]).astype(complex), ("A", "B"))
        assert nonselected_information(rho, quad_light, quad_light) >= 0.0
        assert reconciled_i_ab(rho, quad_light) >= 0.0


class TestMeasurementBasis:
    def test_projectors_resolve_identity(self):
        rng = np.random.default_rng(17)
        u, phi = cos_polar_azimuth(np.array([random_direction(rng) for _ in range(100)]))
        kets = _basis_kets(u, phi)
        proj = np.einsum("nki,nkj->nij", kets, kets.conj())
        np.testing.assert_allclose(proj, np.broadcast_to(np.eye(2), proj.shape), atol=1e-12)
