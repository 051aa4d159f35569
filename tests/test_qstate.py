"""State-algebra unit tests: density matrices, reductions, and direction readings.

A measurement direction is a unit Bloch vector, or its (u, phi) coordinates
in the sampler.  Two readings of a state along directions remain: the
complex outcome kets of the reference sampler (``oracle.basis_kets``), whose
Born rule the package's real joint law (``protosim._joint_law``) reproduces,
and the Fano-form outcome densities (``infocalc.fano_form``).
"""

import math
import re

import numpy as np
import pytest

from contqkd import (
    AttackParams,
    DensityMatrix,
    ProtocolConfig,
    attacked_state,
    bipartite_reductions,
    nonselected_information,
    optimal_params,
    partial_trace,
    reconciled_i_ab,
    run_protocol,
    singlet,
)
from contqkd.infocalc import fano_form
from contqkd.protosim import _joint_law, _law_matrix
from contqkd.qstate import ATOL, SINGLET_KET, pauli_tensor
from conftest import cos_polar_azimuth, random_direction
from oracle import basis_kets, maximally_mixed, tensor

KET0 = np.array([1.0, 0.0])
SIGMA = [
    np.eye(2),
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([[0.0, -1j], [1j, 0.0]]),
    np.array([[1.0, 0.0], [0.0, -1.0]]),
]


def kets_of(n: np.ndarray) -> np.ndarray:
    """The reference sampler's two outcome kets (along n, along -n) of one unit vector."""
    u, phi = cos_polar_azimuth(n)
    return basis_kets(np.array([u]), np.array([phi]))[0]


def fano_density(rho: DensityMatrix, n: np.ndarray, m: np.ndarray) -> float:
    """Outcome density (1 + a.n + b.m + n.T.m)/4 of reading +n, +m."""
    a, b, t = fano_form(rho)
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
        overlap = np.einsum("ni,ni->n", basis_kets(u, phi)[:, 1].conj(), basis_kets(ua, pa)[:, 0])
        np.testing.assert_allclose(np.abs(overlap), 1.0, atol=1e-12)

    def test_pole_azimuth_fixed(self):
        # At a pole the azimuth is physically irrelevant: the outcome
        # distribution of every round is the same for every phi.
        w = _law_matrix(attacked_state(optimal_params(0.3)))
        phis = np.array([0.0, 1.3, 2.2, 5.0])
        ub, pb = np.full(4, 0.4), np.full(4, 1.7)
        for pole in (1.0, -1.0):
            p = _joint_law(w, np.full(4, pole), phis, ub, pb)
            np.testing.assert_allclose(p, np.broadcast_to(p[0], p.shape), atol=1e-15)


class TestKets:
    def test_north_pole_is_zero_ket(self):
        k = basis_kets(np.array([1.0]), np.array([2.1]))[0, 0]
        np.testing.assert_allclose(k, [1.0, 0.0], atol=1e-15)

    def test_south_pole_is_one_ket(self):
        k = basis_kets(np.array([-1.0]), np.array([0.0]))[0, 0]
        np.testing.assert_allclose(k, [0.0, 1.0], atol=1e-15)

    def test_equator_is_balanced(self):
        k = basis_kets(np.array([0.0]), np.array([0.0]))[0, 0]
        np.testing.assert_allclose(k, [1 / math.sqrt(2)] * 2, atol=1e-15)

    def test_antipodal_kets_orthogonal(self):
        rng = np.random.default_rng(11)
        u, phi = cos_polar_azimuth(np.array([random_direction(rng) for _ in range(1000)]))
        kets = basis_kets(u, phi)
        cross = np.einsum("ni,ni->n", kets[:, 0].conj(), kets[:, 1])
        assert float(np.abs(cross).max()) < 1e-12

    def test_phase_canonicalization(self):
        # The first amplitude of every outcome ket along n is real and >= 0.
        rng = np.random.default_rng(12)
        u, phi = cos_polar_azimuth(np.array([random_direction(rng) for _ in range(200)]))
        first = basis_kets(u, phi)[:, 0, 0]
        assert np.all(first.imag == 0.0)
        assert np.all(first.real >= 0.0)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.outer([1.0, 1.0], [1.0, 1.0]))
        rng = np.random.default_rng(13)
        u, phi = cos_polar_azimuth(np.array([random_direction(rng) for _ in range(200)]))
        norms = np.linalg.norm(basis_kets(u, phi), axis=2)
        np.testing.assert_allclose(norms, 1.0, atol=1e-14)


class TestDensityMatrix:
    def test_non_hermitian_rejected(self):
        m = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m)

    @pytest.mark.parametrize("unit", [1.0, 1j], ids=["real", "imaginary"])
    @pytest.mark.parametrize("scale, passes", [(0.5, True), (2.0, False)], ids=["ATOL/2", "2 ATOL"])
    def test_hermiticity_floor_is_atol(self, unit, scale, passes):
        # One off-diagonal entry ``scale`` ATOL away from its mirror's conjugate.
        m = np.array([[0.5, 0.0], [scale * ATOL * unit, 0.5]], dtype=complex)
        if passes:
            DensityMatrix(m)
        else:
            with pytest.raises(ValueError, match="Hermitian"):
                DensityMatrix(m)

    @pytest.mark.parametrize(
        "entry", [math.inf, -math.inf, complex(0.0, math.inf), math.nan], ids=["inf", "-inf", "inf j", "nan"]
    )
    def test_non_finite_entries_rejected(self, entry):
        # An infinite pair is its own conjugate mirror, so only the finiteness check names it.
        m = np.array([[0.5, entry], [np.conj(entry), 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="non-finite entries"):
            DensityMatrix(m)

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_negative_matrix_rejected(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(m)

    @pytest.mark.parametrize("shape", [(2, 4), (3, 3), (1, 1), (2, 2, 2)], ids=["2x4", "3x3", "1x1", "3-d"])
    def test_shape_not_2n_square_rejected(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"shape {shape} is not 2^n x 2^n")):
            DensityMatrix(np.full(shape, 1.0 / shape[0]))


class TestSinglet:
    def test_one_read_only_ket(self):
        assert not SINGLET_KET.flags.writeable
        np.testing.assert_allclose(singlet().entries, np.outer(SINGLET_KET, SINGLET_KET.conj()), atol=1e-15)

    def test_marginal_is_maximally_mixed(self):
        red = partial_trace(singlet(), (0,))
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
        out = tensor(maximally_mixed(1), maximally_mixed(1))
        np.testing.assert_allclose(out.entries, np.eye(4) / 4, atol=1e-15)

    def test_purity_preserved_on_three_qubits(self):
        probe = DensityMatrix.from_ket(KET0)
        out = tensor(singlet(), probe)
        assert out.entries.shape == (8, 8)
        assert np.trace(out.entries @ out.entries).real == pytest.approx(1.0, abs=1e-12)
        assert np.trace(out.entries).real == pytest.approx(1.0, abs=1e-13)


class TestPartialTrace:
    def test_product_state_reduction(self):
        sigma = DensityMatrix.from_ket(KET0)
        out = partial_trace(tensor(singlet(), sigma), (0, 1))
        np.testing.assert_allclose(out.entries, singlet().entries, atol=1e-14)
        # Keeping every qubit, in either order, drops nothing: the state itself, in its tensor order.
        for keep in ((0, 1), (1, 0)):
            np.testing.assert_array_equal(partial_trace(singlet(), keep).entries, singlet().entries)

    def test_positions_kept_in_original_order(self):
        # Three distinct one-qubit states: keeping (2, 0) gives the first, then the third.
        kets = [KET0, np.array([0.6, 0.8]), np.array([0.8, 0.6j])]
        first, second, third = (DensityMatrix.from_ket(k) for k in kets)
        rho = tensor(tensor(first, second), third)
        proj = [np.outer(k, k.conj()) for k in kets]
        for keep in ((2, 0), (1, 2), (0, 1)):
            i, j = sorted(keep)
            np.testing.assert_allclose(partial_trace(rho, keep).entries, np.kron(proj[i], proj[j]), atol=1e-15)

    def test_composition_one_at_a_time(self):
        k = basis_kets(np.array([math.cos(1.1)]), np.array([0.4]))[0, 0]
        rho = tensor(singlet(), DensityMatrix.from_ket(k))
        two_step = partial_trace(partial_trace(rho, (0, 1)), (0,))
        one_step = partial_trace(rho, (0,))
        np.testing.assert_allclose(two_step.entries, one_step.entries, atol=1e-12)

    @pytest.mark.parametrize("keep", [(2,), (0, -1), (0.0,)], ids=["past the end", "negative", "not an integer"])
    def test_position_out_of_range_rejected(self, keep):
        with pytest.raises(ValueError, match=re.escape("qubit position must be an integer in [0, 2)")):
            partial_trace(singlet(), keep)

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
        rho = maximally_mixed(2)
        for _ in range(20):
            n, m = random_direction(rng), random_direction(rng)
            assert fano_density(rho, n, m) == pytest.approx(0.25, abs=1e-13)

    def test_ket_count_enforced(self):
        # One direction per party: the Fano form is defined for pairs only.
        with pytest.raises(ValueError, match="two-qubit"):
            fano_form(maximally_mixed(1))
        with pytest.raises(ValueError, match="two-qubit"):
            fano_form(maximally_mixed(3))

    def test_values_clamped_to_unit_interval(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n, m = random_direction(rng), random_direction(rng)
            assert -1e-15 <= fano_density(singlet(), n, m) <= 0.5 + 1e-15

    def test_corruption_guard(self, quad_light):
        # A state with an eigenvalue at -5e-11 passes construction (the PSD
        # floor is -1e-10); its density dips are roundoff, not corruption.
        eps = 5e-11
        rho = DensityMatrix(np.diag([1.0 + eps, -eps, 0.0, 0.0]).astype(complex))
        assert nonselected_information(rho, quad_light, quad_light) >= 0.0
        assert reconciled_i_ab(rho, quad_light) >= 0.0


class TestMeasurementBasis:
    def test_projectors_resolve_identity(self):
        rng = np.random.default_rng(17)
        u, phi = cos_polar_azimuth(np.array([random_direction(rng) for _ in range(100)]))
        kets = basis_kets(u, phi)
        proj = np.einsum("nki,nkj->nij", kets, kets.conj())
        np.testing.assert_allclose(proj, np.broadcast_to(np.eye(2), proj.shape), atol=1e-12)


class TestPauliTensor:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_kron_trace_on_random_states(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            g = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
            rho = DensityMatrix(g @ g.conj().T / np.trace(g @ g.conj().T))
            c = pauli_tensor(rho)
            assert c.shape == (4,) * n and c.dtype == float
            for idx in np.ndindex(c.shape):
                op = np.ones((1, 1))
                for i in idx:
                    op = np.kron(op, SIGMA[i])
                assert abs(c[idx] - np.trace(rho.entries @ op).real) <= 1e-14

    def test_slices_are_the_fano_forms_of_the_reductions(self):
        # With the third index (or the second, or the first) on the identity,
        # C of the attacked state holds the Fano form of the pair it leaves.
        rng = np.random.default_rng(11)
        for theta, phi in rng.uniform(0.0, math.pi / 4, size=(200, 2)):
            st = attacked_state(AttackParams(theta, phi))
            c = pauli_tensor(st)
            pairs = zip(bipartite_reductions(st), (c[:, :, 0], c[:, 0, :], c[0, :, :]))
            for reduction, block in pairs:
                a, b, t = fano_form(reduction)
                np.testing.assert_allclose(block[1:, 0], a, rtol=0.0, atol=1e-15)
                np.testing.assert_allclose(block[0, 1:], b, rtol=0.0, atol=1e-15)
                np.testing.assert_allclose(block[1:, 1:], t, rtol=0.0, atol=1e-15)

    def test_rejects_more_than_three_qubits(self):
        with pytest.raises(ValueError, match="1 to 3 qubits"):
            pauli_tensor(maximally_mixed(4))
