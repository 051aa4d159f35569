"""Probe-coupling construction and the induced tripartite dynamics."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contqkd import (
    AttackParams,
    DensityMatrix,
    EveIsometry,
    attacked_state,
    bipartite_reductions,
    build_isometry,
    partial_trace,
    singlet,
)
from contqkd.attack import attacked_pure_state
from contqkd.infocalc import fano_form
from contqkd.qstate import ATOL
import oracle

QUARTER = math.pi / 4

# Hand-computed reductions at the full-swap point (pi/4, 0): the sender-probe
# pair carries the entire anticorrelation and the receiver is left in the
# fixed balanced state.
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]])
SWAP_AB = np.kron(np.eye(2) / 2, PLUS)
SINGLET4 = 0.5 * np.array(
    [
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, -1.0, 0.0],
        [0.0, -1.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ]
)


def coefficients(p: AttackParams) -> np.ndarray:
    """g[m, n] read off the probe rows (g00, g01), (g10, g11), (g11, g10), (g01, g00)."""
    rows = build_isometry(p).probe_components
    np.testing.assert_array_equal(rows[2:], rows[1::-1, ::-1])
    return rows[:2].real


class TestCouplingCoefficient:
    @pytest.mark.parametrize("theta, phi", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.1)])
    def test_non_finite_angle_rejected(self, theta, phi):
        with pytest.raises(ValueError, match="attack angles must be finite"):
            AttackParams(theta, phi)

    def test_zero_angles(self):
        g = coefficients(AttackParams(0.0, 0.0))
        assert g[0, 0] == pytest.approx(1.0)
        assert g[1, 1] == pytest.approx(0.0, abs=1e-16)

    def test_diagonal_point(self):
        g = coefficients(AttackParams(QUARTER, QUARTER))
        assert g[1, 1] == pytest.approx(-0.5, abs=1e-15)

    def test_closed_forms(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            t, f = rng.uniform(0, 2 * math.pi, size=2)
            g = coefficients(AttackParams(t, f))
            assert g[0, 0] == pytest.approx(math.cos(t) * math.cos(f), abs=1e-14)
            assert g[0, 1] == pytest.approx(math.cos(t) * math.sin(f), abs=1e-14)
            assert g[1, 0] == pytest.approx(math.sin(t) * math.cos(f), abs=1e-14)
            assert g[1, 1] == pytest.approx(-math.sin(t) * math.sin(f), abs=1e-14)


class TestIsometryIdentities:
    def test_orthogonality_and_normalization(self):
        # Algebraic identities of the coefficient formula, checked over the
        # full angle plane.
        rng = np.random.default_rng(23)
        for _ in range(1000):
            t, f = rng.uniform(0.0, 2.0 * math.pi, size=2)
            iso = build_isometry(AttackParams(t, f))
            rows = iso.probe_components
            cross = np.vdot(rows[0], rows[2]) + np.vdot(rows[1], rows[3])
            n0 = np.vdot(rows[0], rows[0]).real + np.vdot(rows[1], rows[1]).real
            n1 = np.vdot(rows[2], rows[2]).real + np.vdot(rows[3], rows[3]).real
            assert abs(cross) < 1e-12
            assert n0 == pytest.approx(1.0, abs=1e-12)
            assert n1 == pytest.approx(1.0, abs=1e-12)

    def test_invalid_rows_rejected(self):
        bad = np.array([[1, 0], [0, 0], [1, 0], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="not orthogonal"):
            EveIsometry(bad)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_rows_rejected(self, value):
        # A non-finite residual fails the tolerance checks as a large one does.
        with pytest.raises(ValueError, match="not orthogonal|not normalized"):
            EveIsometry(np.full((4, 2), value))

    @pytest.mark.parametrize("shape", [(2, 4), (4, 2, 1), (8,)])
    def test_rows_must_be_four_by_two(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"must be 4x2, got {shape}")):
            EveIsometry(np.zeros(shape))

    def test_normalization_tolerance_is_atol(self):
        # Columns of squared norm 1 + ATOL/2 pass; 1 + 2 ATOL is rejected.
        rows = build_isometry(AttackParams(0.0, QUARTER)).probe_components
        EveIsometry(rows * math.sqrt(1.0 + 0.5 * ATOL))
        with pytest.raises(ValueError, match="normalized"):
            EveIsometry(rows * math.sqrt(1.0 + 2.0 * ATOL))


class TestCouplingStructure:
    def test_line_start_decouples_probe(self):
        # At (0, pi/4) the channel qubit passes untouched and the probe ends
        # in the balanced state regardless of the letter.
        iso = build_isometry(AttackParams(0.0, QUARTER))
        rows = iso.probe_components
        bal = np.array([1.0, 1.0]) / math.sqrt(2.0)
        np.testing.assert_allclose(rows[0], bal, atol=1e-15)
        np.testing.assert_allclose(rows[3], bal, atol=1e-15)
        np.testing.assert_allclose(rows[1], 0.0, atol=1e-15)
        np.testing.assert_allclose(rows[2], 0.0, atol=1e-15)

    def test_line_end_swaps_letter_into_probe(self):
        # At (pi/4, 0): |0>|0> -> |+>|0> and |1>|0> -> |+>|1>, so the probe
        # captures the letter and the receiver gets a constant state.  Row
        # (b, c) is the probe ket beside |c>_B for the letter b.
        rows = build_isometry(AttackParams(QUARTER, 0.0)).probe_components
        s = 1.0 / math.sqrt(2.0)
        expected = np.array(
            [
                [s, 0.0],
                [s, 0.0],
                [0.0, s],
                [0.0, s],
            ],
            dtype=complex,
        )
        np.testing.assert_allclose(rows, expected, atol=1e-15)

    def test_zero_corner_follows_row_layout(self):
        # (0, 0) is a basis-copy coupling, not the identity: the fourth row
        # of the coefficient layout puts the probe in |1> for the letter |1>.
        rows = build_isometry(AttackParams(0.0, 0.0)).probe_components
        np.testing.assert_allclose(rows[0], [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(rows[3], [0.0, 1.0], atol=1e-15)


class TestApplyAttack:
    """The coupling applied to singlet (x) |0>_E, as ``attacked_state`` builds it."""

    def test_line_start_reproduces_input(self):
        out = attacked_state(AttackParams(0.0, QUARTER))
        np.testing.assert_allclose(partial_trace(out, (0, 1)).entries, singlet().entries, atol=1e-13)
        assert np.trace(out.entries @ out.entries).real == pytest.approx(1.0, abs=1e-12)

    def test_full_swap_reductions(self):
        out = attacked_state(AttackParams(QUARTER, 0.0))
        np.testing.assert_allclose(partial_trace(out, (0, 2)).entries, SINGLET4, atol=1e-13)
        np.testing.assert_allclose(partial_trace(out, (0, 1)).entries, SWAP_AB, atol=1e-13)

    def test_trace_and_purity_for_random_angles(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            out = attacked_state(AttackParams(*rng.uniform(0, 2 * math.pi, 2)))
            assert np.trace(out.entries).real == pytest.approx(1.0, abs=1e-12)
            assert np.trace(out.entries @ out.entries).real == pytest.approx(1.0, abs=1e-10)

    def test_matches_pure_state_path(self):
        # Reference: the Kronecker-extended isometry acting on the density
        # matrix of singlet (x) |0>_E.
        rng = np.random.default_rng(37)
        init = oracle.tensor(singlet(), DensityMatrix.from_ket(np.array([1.0, 0.0])))
        for _ in range(20):
            params = AttackParams(*rng.uniform(0, QUARTER, 2))
            via_reference = oracle.apply_attack(init, build_isometry(params))
            via_pure_state = attacked_state(params)
            np.testing.assert_allclose(via_reference.entries, via_pure_state.entries, atol=1e-13)

    def test_pure_state_vector_normalized(self):
        psi = attacked_pure_state(AttackParams(0.3, 0.2))
        assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-13)


class TestBipartiteReductions:
    def test_two_party_state_rejected(self):
        with pytest.raises(ValueError, match="expected a three-party state"):
            bipartite_reductions(singlet())

    def test_line_start_products(self):
        rab, rae, rbe = bipartite_reductions(attacked_state(AttackParams(0.0, QUARTER)))
        np.testing.assert_allclose(rab.entries, singlet().entries, atol=1e-13)
        np.testing.assert_allclose(rae.entries, np.kron(np.eye(2) / 2, PLUS), atol=1e-13)
        np.testing.assert_allclose(rbe.entries, np.kron(np.eye(2) / 2, PLUS), atol=1e-13)

    def test_full_swap_products(self):
        rab, rae, rbe = bipartite_reductions(attacked_state(AttackParams(QUARTER, 0.0)))
        np.testing.assert_allclose(rae.entries, SINGLET4, atol=1e-13)
        np.testing.assert_allclose(rab.entries, SWAP_AB, atol=1e-13)

    def test_sender_marginal_invariant(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            st = attacked_state(AttackParams(*rng.uniform(0, 2 * math.pi, 2)))
            red = partial_trace(st, (0,))
            np.testing.assert_allclose(red.entries, np.eye(2) / 2, atol=1e-12)

    def test_swap_symmetry_at_line_endpoints(self):
        rab0, _, _ = bipartite_reductions(attacked_state(AttackParams(0.0, QUARTER)))
        _, rae1, _ = bipartite_reductions(attacked_state(AttackParams(QUARTER, 0.0)))
        np.testing.assert_allclose(rab0.entries, rae1.entries, atol=1e-13)

    def test_all_reductions_valid_states(self):
        for red in bipartite_reductions(attacked_state(AttackParams(0.2, 0.5))):
            assert np.trace(red.entries).real == pytest.approx(1.0, abs=1e-12)
            assert float(np.linalg.eigvalsh(red.entries)[0]) > -1e-12


class TestDirectionLayout:
    def test_probe_reads_letter_at_full_swap(self):
        # With the letter fixed to |1>, the probe bit after the full swap is
        # deterministically 1: check via the coupled pure state.
        psi = attacked_pure_state(AttackParams(QUARTER, 0.0))
        # Sender outcome |0> heralds letter |1> on the channel (singlet).
        amp_e1 = psi[0, :, 1]
        amp_e0 = psi[0, :, 0]
        assert np.linalg.norm(amp_e0) < 1e-12
        assert np.linalg.norm(amp_e1) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_direction_angle_helper(self):
        k1 = oracle.basis_kets(np.array([math.cos(0.3)]), np.array([1.0]))[0, 0]
        assert abs(np.vdot(k1, k1)) == pytest.approx(1.0, abs=1e-12)


class TestClosedForm:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi))
    def test_reductions_match_closed_forms(self, theta, phi):
        # Trig polynomials worked out by hand, so the isometry is checked from outside.
        reductions = bipartite_reductions(attacked_state(AttackParams(theta, phi)))
        for pair, rho, form in zip(("AB", "AE", "BE"), reductions, oracle.attack_fano_forms(theta, phi)):
            for got, ref in zip(fano_form(rho), form):
                np.testing.assert_allclose(got, ref, rtol=0.0, atol=oracle.CLOSED_FORM_TOL, err_msg=pair)
