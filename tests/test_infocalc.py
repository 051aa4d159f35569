"""Information functionals: discrete tables, quadrature, continuous readout."""

import math

import numpy as np
import pytest

from contqkd import (
    AttackParams,
    DensityMatrix,
    NumericalCorruptionError,
    SphereQuadrature,
    attacked_state,
    bipartite_reductions,
    nonselected_information,
    selected_information,
    singlet,
    reconciled_i_ab,
)
from conftest import SINGLET_BITS, binary_entropy, direction_at_angle, random_direction
import oracle
from oracle import (
    JointTable,
    averaged_selected_information,
    maximally_mixed,
    mutual_information,
    tensor,
)

# Direct evaluation of the entropy functional for the table
# [[3/8, 1/8], [1/8, 3/8]]: 1 + (3/4) log2(3/4) + (1/4) log2(1/4).
SKEWED_TABLE_BITS = 1.0 + 0.75 * math.log2(0.75) + 0.25 * math.log2(0.25)


class TestJointTable:
    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            JointTable(np.array([[0.6, -0.1], [0.3, 0.2]]))

    def test_bad_normalization_rejected(self):
        with pytest.raises(ValueError, match="sums"):
            JointTable(np.array([[0.5, 0.5], [0.5, 0.5]]))


class TestMutualInformation:
    def test_perfect_anticorrelation(self):
        t = JointTable(np.array([[0.0, 0.5], [0.5, 0.0]]))
        assert mutual_information(t) == pytest.approx(1.0, abs=1e-14)

    def test_independence(self):
        t = JointTable(np.full((2, 2), 0.25))
        assert mutual_information(t) == pytest.approx(0.0, abs=1e-14)

    def test_skewed_table(self):
        t = JointTable(np.array([[0.375, 0.125], [0.125, 0.375]]))
        assert mutual_information(t) == pytest.approx(SKEWED_TABLE_BITS, abs=1e-14)
        assert SKEWED_TABLE_BITS == pytest.approx(0.18872187554086717, abs=1e-15)


class TestSphereQuadrature:
    def test_weights_sum_to_sphere_volume(self, quad_light):
        assert math.fsum(quad_light.weights.tolist()) == pytest.approx(2.0, abs=1e-10)

    def test_moment_exactness_enforced(self):
        # Construction itself runs the degree-2 moment test; a rule that
        # breaks it must be rejected.
        with pytest.raises(ValueError):
            SphereQuadrature(np.array([0.5, -0.5]), np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize(
        "array, bad",
        [("weights", math.nan), ("u", math.nan), ("phi", math.inf)],
        ids=["nan-weight", "nan-u", "inf-phi"],
    )
    def test_nonfinite_rule_rejected(self, array, bad):
        # A NaN compares false against every bound, so without an explicit
        # finiteness check such a rule would pass and read as zero information.
        q = SphereQuadrature.gauss_product(8, 16)
        arrays = {"u": q.u.copy(), "phi": q.phi.copy(), "weights": q.weights.copy()}
        arrays[array][5] = bad
        with pytest.raises(ValueError, match="finite"):
            SphereQuadrature(**arrays)

    def test_minimum_resolution_enforced(self):
        with pytest.raises(ValueError):
            SphereQuadrature.gauss_product(1, 64)

    def test_directions_roundtrip(self, quad_light):
        v = quad_light.vectors
        assert v.shape == (len(quad_light), 3)
        np.testing.assert_allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-15)
        np.testing.assert_allclose(v[:, 2], quad_light.u, atol=1e-15)
        np.testing.assert_allclose(np.mod(np.arctan2(v[:, 1], v[:, 0]), 2 * math.pi), quad_light.phi, atol=1e-12)


class TestSelectedInformation:
    def test_singlet_shared_basis_is_one_bit(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            n = random_direction(rng)
            assert selected_information(singlet(), n, n) == pytest.approx(1.0, abs=1e-12)

    def test_singlet_perpendicular_bases_carry_nothing(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            d1 = random_direction(rng)
            d2 = direction_at_angle(d1, math.pi / 2, rng)
            assert selected_information(singlet(), d1, d2) == pytest.approx(0.0, abs=1e-10)

    def test_product_state_carries_nothing(self):
        rng = np.random.default_rng(23)
        rho = maximally_mixed(("A", "B"))
        for _ in range(5):
            val = selected_information(rho, random_direction(rng), random_direction(rng))
            assert val == pytest.approx(0.0, abs=1e-12)

    def test_depends_only_on_relative_angle(self):
        # Oracle: for the anticorrelated pair the two-basis information is
        # 1 - H2((1 - cos angle)/2), independent of absolute orientation.
        rng = np.random.default_rng(29)
        for angle in (0.3, 1.0, 2.0):
            expected = 1.0 - binary_entropy((1.0 - math.cos(angle)) / 2.0)
            for _ in range(5):
                d1 = random_direction(rng)
                d2 = direction_at_angle(d1, angle, rng)
                assert selected_information(singlet(), d1, d2) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize(
        "bad", [[0.0, 0.0, 2.0], [0.0, 0.0, 0.0], [math.nan, 0.0, 1.0], [1.0, 0.0], [math.inf, 0.0, 0.0]]
    )
    def test_rejects_non_unit_directions(self, bad):
        z = np.array([0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="unit"):
            selected_information(singlet(), np.array(bad), z)
        with pytest.raises(ValueError, match="unit"):
            selected_information(singlet(), z, np.array(bad))


class TestNonselectedInformation:
    def test_singlet_closed_form(self, quad_light):
        val = nonselected_information(singlet(), quad_light, quad_light)
        assert val == pytest.approx(SINGLET_BITS, abs=1e-12)

    def test_product_states_carry_nothing(self, quad_light):
        rho = tensor(
            DensityMatrix.from_ket(np.array([0.6, 0.8j]), ("A",)),
            maximally_mixed(("B",)),
        )
        assert nonselected_information(rho, quad_light, quad_light) == pytest.approx(0.0, abs=1e-10)

    def test_swapped_pair_reduction_reaches_singlet_value(self, quad_light):
        _, rae, _ = bipartite_reductions(attacked_state(AttackParams(math.pi / 4, 0.0)))
        val = nonselected_information(rae, quad_light, quad_light)
        assert val == pytest.approx(SINGLET_BITS, abs=1e-12)

    def test_quadrature_convergence(self):
        coarse = SphereQuadrature.gauss_product(16, 32)
        fine = SphereQuadrature.gauss_product(32, 64)
        # The double-quadrature reference converges strictly on the singlet.
        v1 = oracle.nonselected_information(singlet(), coarse, coarse)
        v2 = oracle.nonselected_information(singlet(), fine, fine)
        assert abs(v2 - v1) < 1e-4
        assert abs(v2 - SINGLET_BITS) < abs(v1 - SINGLET_BITS)
        # With the inner integral exact, the singlet is exact to roundoff at
        # both rules, so only a reduction with no closed form can show the
        # outer rule converging.
        for quad in (coarse, fine):
            err = abs(nonselected_information(singlet(), quad, quad) - SINGLET_BITS)
            assert err <= 4 * math.ulp(SINGLET_BITS)
        _, _, rbe = bipartite_reductions(attacked_state(AttackParams(0.7, 0.2)))
        ref = nonselected_information(rbe, SphereQuadrature.gauss_product(128, 256))
        e1 = abs(nonselected_information(rbe, coarse, coarse) - ref)
        e2 = abs(nonselected_information(rbe, fine, fine) - ref)
        assert e2 < e1

    @pytest.mark.parametrize("rule", [(16, 32), (32, 64)])
    def test_decoupled_reductions_are_exactly_zero(self, rule):
        # Decoupled pairs carry exactly nothing; the surface benchmark checks
        # the (0, pi/4) probe rates for an exact 0.0.
        quad = SphereQuadrature.gauss_product(*rule)
        _, rae, rbe = bipartite_reductions(attacked_state(AttackParams(0.0, math.pi / 4)))
        assert nonselected_information(rae, quad, quad) == 0.0
        assert nonselected_information(rbe, quad, quad) == 0.0
        rab, _, rbe = bipartite_reductions(attacked_state(AttackParams(math.pi / 4, 0.0)))
        assert nonselected_information(rab, quad, quad) == 0.0
        assert nonselected_information(rbe, quad, quad) == 0.0

    def test_monotone_along_optimal_line(self, quad_light):
        thetas = np.linspace(0.0, math.pi / 4, 33)
        vals = []
        for t in thetas:
            rab, _, _ = bipartite_reductions(attacked_state(AttackParams(t, math.pi / 4 - t)))
            vals.append(nonselected_information(rab, quad_light, quad_light))
        assert all(vals[i + 1] <= vals[i] + 1e-9 for i in range(len(vals) - 1))

    def test_requires_two_qubits(self, quad_light):
        with pytest.raises(ValueError):
            nonselected_information(maximally_mixed(("A",)), quad_light, quad_light)


def _unchecked_pair(a, b, t) -> DensityMatrix:
    """Two-qubit operator with Fano form (a, b, T), built without validation."""
    pauli = [
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]]),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    eye = np.eye(2)
    m = np.eye(4, dtype=complex)
    for i in range(3):
        m = m + a[i] * np.kron(pauli[i], eye) + b[i] * np.kron(eye, pauli[i])
        for j in range(3):
            m = m + t[i][j] * np.kron(pauli[i], pauli[j])
    rho = object.__new__(DensityMatrix)
    object.__setattr__(rho, "entries", m / 4.0)
    object.__setattr__(rho, "labels", ("A", "B"))
    return rho


class TestPositivityChecks:
    ZERO = (0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "fano",
        [
            ((1.2, 0.0, 0.0), ZERO, np.zeros((3, 3))),
            (ZERO, (0.0, 0.0, 1.2), np.zeros((3, 3))),
            (ZERO, ZERO, -1.5 * np.eye(3)),
        ],
        ids=["first-marginal", "second-marginal", "joint"],
    )
    def test_negative_densities_raise(self, fano, quad_light):
        rho = _unchecked_pair(*fano)
        with pytest.raises(NumericalCorruptionError, match="dipped"):
            nonselected_information(rho, quad_light, quad_light)
        with pytest.raises(NumericalCorruptionError, match="dipped"):
            reconciled_i_ab(rho, quad_light)
        with pytest.raises(NumericalCorruptionError, match="dipped"):
            averaged_selected_information(rho, quad_light, quad_light)


class TestOrientationAverage:
    def test_matches_continuous_readout_on_singlet(self, quad_light):
        av = averaged_selected_information(singlet(), quad_light, quad_light)
        ns = nonselected_information(singlet(), quad_light, quad_light)
        assert av == pytest.approx(ns, abs=2e-3)

    def test_matches_on_attacked_reduction(self, quad_light):
        rab, _, _ = bipartite_reductions(attacked_state(AttackParams(0.3, math.pi / 4 - 0.3)))
        av = averaged_selected_information(rab, quad_light, quad_light)
        ns = nonselected_information(rab, quad_light, quad_light)
        assert av == pytest.approx(ns, abs=2e-3)

    def test_product_and_mixed_states_vanish(self, quad_light):
        assert averaged_selected_information(
            maximally_mixed(("A", "B")), quad_light, quad_light
        ) == pytest.approx(0.0, abs=1e-10)
