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
    singlet,
    reconciled_i_ab,
)
from contqkd.infocalc import _sphere_relative_entropy, default_quadrature, table_information
from contqkd.qstate import PSD_FLOOR
from conftest import (
    SINGLET_BITS,
    binary_entropy,
    direction_at_angle,
    fixed_readout_information,
    random_direction,
)
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

# g(x) = [(1 + x)^2 ln(1 + x) - (1 - x)^2 ln(1 - x)] / (2x) - 1, the inner-sphere kernel at alpha = 1, at the
# binary value of each x, to 40 significant digits.  Generated with mpmath 1.3.0 at 60 digits:
#     mpmath.mp.dps = 60; m = mpmath.mpf(x)
#     g = ((1 + m) ** 2 * mpmath.log1p(m) - (1 - m) ** 2 * mpmath.log1p(-m)) / (2 * m) - 1
#     mpmath.nstr(g, 40, min_fixed=0, max_fixed=0)
# The grid spans both sides of the series switch ``infocalc._SERIES_X`` (1e-2).
SPHERE_KERNEL = (
    (0.0001, "3.333333336666666995668717028177194293098e-9"),
    (0.0003, "3.000000027000000168664517639275034845227e-8"),
    (0.001, "3.333333666666762043579493155521413323957e-7"),
    (0.003, "3.000002700006943008079005811459684601029e-6"),
    (0.005, "8.333354166815478087541555582724995653889e-6"),
    (0.008, "2.133346986916334365708920292376655640269e-5"),
    (0.0099, "3.267032020763684916762219834730412295023e-5"),
    (0.01, "3.333366667619087442388273919611862880561e-5"),
    (0.0101, "3.400368021144680944148863426799748762576e-5"),
    (0.012, "4.800069122843965125726926451041338926379e-5"),
    (0.015, "7.500168760849230867177229187742449029457e-5"),
    (0.02, "1.33338667276292089735266560802590749838e-4"),
    (0.03, "3.000270069454618856060920737193316006236e-4"),
    (0.05, "8.3354181563139805973790276954094068675e-4"),
    (0.07, "1.634134789426675841518885564411075076551e-3"),
    (0.09, "2.702192078495660031503165003174471220511e-3"),
    (0.1, "3.336676230361923608106998273946128611567e-3"),
    (0.15, "7.516984510965839610725135763319853728705e-3"),
    (0.2, "1.338728656097226508060442185233372865945e-2"),
    (0.3, "3.027721580006457041659781803817130152474e-2"),
    (0.5, "8.558328838335618680483754015932969930585e-2"),
    (0.7, "1.727665699707190369646466005642130907579e-1"),
    (0.9, "3.000657666734920159857578347464887064413e-1"),
    (0.99, "3.76536616100313384253832991749015802215e-1"),
    (0.999, "3.852979150416984447362679389626522833688e-1"),
)
# Fixed before the first comparison: the kernel is within 5e-16 of mpmath over 800 points of [1e-4, 0.999];
# with the series switch at 1e-1 instead, the closed form's cancellation just above 1e-2 leaves 1.9e-13.
SPHERE_KERNEL_ATOL = 2e-15


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

    @pytest.mark.parametrize(
        "n_polar, n_azimuth", [(2, 4), (2, 5), (3, 7), (8, 16), (9, 13), (32, 64), (128, 256)]
    )
    def test_product_rule_is_exact_to_degree_two(self, n_polar, n_azimuth):
        # The bound, 1e-10, is the one every rule was checked against when it was built; the worst deviation
        # over 80 count pairs (n_polar 2 to 160, n_azimuth 4 to 64) is 2.4e-14.
        q = SphereQuadrature.gauss_product(n_polar, n_azimuth)
        assert q.weights.size == n_polar * n_azimuth
        assert np.isfinite(q.weights).all() and q.weights.min() > 0.0
        assert abs(math.fsum(q.weights.tolist()) - 2.0) <= 1e-10
        np.testing.assert_allclose(q.weights @ q.vectors, 0.0, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose((q.vectors.T * q.weights) @ q.vectors, (2.0 / 3.0) * np.eye(3), rtol=0.0, atol=1e-10)

    def test_product_rule_is_the_one_constructor(self):
        with pytest.raises(TypeError):
            SphereQuadrature(np.array([0.5, -0.5]), np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    def test_rule_is_read_only(self, quad_light):
        with pytest.raises(ValueError, match="read-only"):
            quad_light.weights[0] = 0.0
        with pytest.raises(AttributeError):
            quad_light.weights = np.ones(2)

    def test_rule_counts_have_no_default(self):
        # The caller picks every rule; ``default_quadrature`` names the default one.
        with pytest.raises(TypeError):
            SphereQuadrature.gauss_product()

    def test_minimum_resolution_enforced(self):
        with pytest.raises(ValueError):
            SphereQuadrature.gauss_product(1, 64)

    @pytest.mark.parametrize(
        "n_polar, n_azimuth",
        [(32.5, 64), (32.0, 64.0), (math.inf, 8), (32, 64.5), (8, math.nan), ("8", 16), (8, 3)],
    )
    def test_non_integer_counts_rejected(self, n_polar, n_azimuth):
        with pytest.raises(ValueError, match="must be an integer"):
            SphereQuadrature.gauss_product(n_polar, n_azimuth)

    def test_rule_is_built_once_and_a_float_count_still_rejected(self):
        rule = SphereQuadrature.gauss_product(32, 64)
        assert SphereQuadrature.gauss_product(32, 64) is rule and default_quadrature() is rule
        # The cache is keyed by type too, so the integral float never finds the int's rule.
        with pytest.raises(ValueError, match="must be an integer"):
            SphereQuadrature.gauss_product(32.0, 64)

    def test_numpy_integer_counts_accepted(self):
        q = SphereQuadrature.gauss_product(np.int64(8), np.int64(16))
        ref = SphereQuadrature.gauss_product(8, 16)
        assert np.array_equal(q.vectors, ref.vectors) and np.array_equal(q.weights, ref.weights)

    def test_directions_roundtrip(self, quad_light):
        # quad_light is the 16x32 rule; its vectors are the product grid's directions.
        u, phi = oracle.product_nodes(16, 32)
        v = quad_light.vectors
        assert v.shape == (u.size, 3) and quad_light.weights.shape == (u.size,)
        np.testing.assert_allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-15)
        np.testing.assert_allclose(v[:, 2], u, atol=1e-15)
        np.testing.assert_allclose(np.mod(np.arctan2(v[:, 1], v[:, 0]), 2 * math.pi), phi, atol=1e-12)


class TestSelectedInformation:
    # Fixed readouts, read through the production kernel ``table_information``.

    def test_singlet_shared_basis_is_one_bit(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            n = random_direction(rng)
            assert fixed_readout_information(singlet(), n, n) == pytest.approx(1.0, abs=1e-12)

    def test_singlet_perpendicular_bases_carry_nothing(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            d1 = random_direction(rng)
            d2 = direction_at_angle(d1, math.pi / 2, rng)
            assert fixed_readout_information(singlet(), d1, d2) == pytest.approx(0.0, abs=1e-10)

    def test_product_state_carries_nothing(self):
        rng = np.random.default_rng(23)
        rho = maximally_mixed(2)
        for _ in range(5):
            val = fixed_readout_information(rho, random_direction(rng), random_direction(rng))
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
                assert fixed_readout_information(singlet(), d1, d2) == pytest.approx(expected, abs=1e-10)


class TestNonselectedInformation:
    def test_singlet_closed_form(self, quad_light):
        val = nonselected_information(singlet(), quad_light, quad_light)
        assert val == pytest.approx(SINGLET_BITS, abs=1e-12)

    def test_product_states_carry_nothing(self, quad_light):
        rho = tensor(
            DensityMatrix.from_ket(np.array([0.6, 0.8j])),
            maximally_mixed(1),
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
            nonselected_information(maximally_mixed(1), quad_light, quad_light)


class TestSphereKernel:
    def test_matches_mpmath(self):
        x = np.array([row[0] for row in SPHERE_KERNEL])
        reference = np.array([float(row[1]) for row in SPHERE_KERNEL])
        got = _sphere_relative_entropy(1.0, x)
        assert np.abs(got - reference).max() <= SPHERE_KERNEL_ATOL


def _same_bytes(got, ref) -> bool:
    """Equal bit for bit, so that -0.0 against 0.0 or a differing nan payload counts."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return got.shape == ref.shape and got.tobytes() == ref.tobytes()


class TestKernelExactness:
    """The kernel computes each lane's branch only, and the rate sums ``r``'s squares explicitly and
    takes the receiver's term as the kernel's last lane; both match ``oracle``'s first versions bit for bit."""

    def test_mixed_lanes_match_all_lanes_reference(self):
        # alpha, r pairs: series lanes, closed-form lanes on both sides of the switch, x clipped at 1
        # (r = alpha and r > alpha), alpha = 0, alpha < 0 (a -0.0 result) and alpha = -0.0.
        pairs = [
            (0.25, 0.0), (0.25, 2.5e-5), (0.25, 0.0024), (0.5, 0.00495), (0.25, 0.0025), (0.25, 0.003),
            (0.3, 0.15), (0.25, 0.2497), (0.25, 0.25), (0.2, 0.3), (0.0, 0.0), (0.0, 1e-20),
            (-1e-18, 0.0), (-0.0, 0.0), (0.5, 0.45), (1e-300, 5e-301),
        ]
        alpha, r = (np.array(column) for column in zip(*pairs))
        ref = oracle.sphere_relative_entropy(alpha, r)
        assert _same_bytes(_sphere_relative_entropy(alpha, r), ref)
        assert np.signbit(ref[12]) and ref[12] == 0.0  # the alpha < 0 lane really is -0.0
        rng = np.random.default_rng(5)
        for scale in (1e-3, 1e-2, 0.3, 1.5):
            alpha = rng.uniform(-0.05, 0.5, size=(7, 301))
            r = np.abs(alpha) * scale * rng.uniform(0.0, 1.2, size=alpha.shape)
            assert _same_bytes(_sphere_relative_entropy(alpha, r), oracle.sphere_relative_entropy(alpha, r))

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.25])
    def test_scalar_alpha_broadcasts_as_the_reference(self, alpha):
        x = np.array([row[0] for row in SPHERE_KERNEL] + [1.0, 1.25, 0.0])
        got = _sphere_relative_entropy(alpha, alpha * x)
        assert _same_bytes(got, oracle.sphere_relative_entropy(alpha, alpha * x))

    @pytest.mark.parametrize("rule", [(2, 4), (8, 16), (32, 64)], ids=["2x4", "8x16", "32x64"])
    def test_rates_match_reference_on_the_attack_grid(self, rule):
        quad = SphereQuadrature.gauss_product(*rule)
        angles = np.linspace(0.0, math.pi / 4, 5)
        for theta in angles:
            for phi in angles:
                for rho in bipartite_reductions(attacked_state(AttackParams(float(theta), float(phi)))):
                    ref = oracle.single_sphere_information(rho, quad)
                    assert _same_bytes(nonselected_information(rho, quad), ref), (theta, phi)

    def test_receiver_term_rounds_squares_as_the_joint_lanes(self):
        # The one exception to bit-for-bit: the reference's receiver term is a 0-d call, and numpy
        # squares a 0-d value with the C library's pow, which may round a near-halfway square the
        # other way; as the kernel's last lane it is squared as every joint lane is.  At these two
        # attacks that moves the rate by 1.6e-16 and 3.2e-16 bits (glibc 2.36, numpy 2.4.6, x86-64).
        quad = SphereQuadrature.gauss_product(8, 16)
        for theta, phi in ((0.03959990739819067, 0.21119950612368357), (0.1121997376282069, 0.772198194264718)):
            for rho in bipartite_reductions(attacked_state(AttackParams(theta, phi))):
                got, ref = nonselected_information(rho, quad), oracle.single_sphere_information(rho, quad)
                assert abs(got - ref) <= 1e-15, (theta, phi, got, ref)


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
    return rho


class TestPositivityChecks:
    ZERO = (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("arg", range(3), ids=["an", "bm", "corr"])
    def test_nan_table_raises(self, arg):
        # A nan density fails the floor check as a negative one does.
        args = [np.array(0.0)] * 3
        args[arg] = np.array(math.nan)
        with pytest.raises(NumericalCorruptionError, match="dipped"):
            table_information(*args)

    @pytest.mark.parametrize(
        "fano",
        [
            ((1.2, 0.0, 0.0), ZERO, np.zeros((3, 3))),
            (ZERO, (0.0, 0.0, 1.2), np.zeros((3, 3))),
            (ZERO, ZERO, -1.5 * np.eye(3)),
            # The joint density's minimum (1 - c)/4 at twice ``PSD_FLOOR``: just past the floor.
            (ZERO, ZERO, -(1.0 - 8.0 * PSD_FLOOR) * np.eye(3)),
        ],
        ids=["first-marginal", "second-marginal", "joint", "joint-past-floor"],
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
            maximally_mixed(2), quad_light, quad_light
        ) == pytest.approx(0.0, abs=1e-10)
