"""Threshold analysis: curves, crossings, error-rate figures, dimension scaling."""

import math

import numpy as np
import pytest

from contqkd import (
    AttackParams,
    InfoCurve,
    accessible_information,
    attacked_state,
    bipartite_reductions,
    cier,
    critical_point,
    nonselected_information,
    optimal_params,
    qber,
    qber_sphere_averaged,
    reconciled_i_ab,
    singlet,
    sweep_curve,
)
from contqkd import security
from contqkd.attack import attacked_pure_state
from contqkd.protosim import _outcome_probabilities
from contqkd.security import (
    NONSELECTED_MAX_BITS,
    BracketError,
    dimension_table,
    pair_fidelity_deficit,
)
from conftest import SINGLET_BITS
from oracle import critical_cier_dim, maximally_mixed

QUARTER = math.pi / 4


def sphere_disturbance_closed_form(t: float, p: float) -> float:
    # Hand average of the channel fidelity over the sphere:
    # <F> = (2/3) cos^2 t + (1/3)(sin^2 t + cos^2 t sin 2p).
    return 1.0 - ((2.0 / 3.0) * math.cos(t) ** 2 + (math.sin(t) ** 2 + math.cos(t) ** 2 * math.sin(2 * p)) / 3.0)


class TestOptimalParams:
    def test_endpoints_and_midpoint(self):
        assert optimal_params(0.0) == AttackParams(0.0, QUARTER)
        assert optimal_params(QUARTER) == AttackParams(QUARTER, 0.0)
        mid = optimal_params(math.pi / 8)
        assert mid.theta == pytest.approx(mid.phi, abs=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            optimal_params(-0.01)
        with pytest.raises(ValueError):
            optimal_params(QUARTER + 0.01)


class TestSweepCurve:
    def test_endpoint_rates(self, quad_light):
        curve = sweep_curve(np.linspace(0.0, QUARTER, 5), reconciled=False, quad=quad_light)
        assert curve.i_ab[0] == pytest.approx(SINGLET_BITS, abs=2e-5)
        assert curve.i_ae[0] == pytest.approx(0.0, abs=1e-9)
        assert curve.i_ab[-1] == pytest.approx(0.0, abs=1e-9)
        assert curve.i_ae[-1] == pytest.approx(SINGLET_BITS, abs=2e-5)

    def test_monotone_rates(self, quad_light):
        curve = sweep_curve(np.linspace(0.0, QUARTER, 9), quad=quad_light)
        assert np.all(np.diff(curve.i_ab) <= 1e-9)
        assert np.all(np.diff(curve.i_ae) >= -1e-9)

    def test_role_swap_symmetry(self, quad_light):
        grid = np.linspace(0.0, QUARTER, 9)
        curve = sweep_curve(grid, quad=quad_light)
        np.testing.assert_allclose(curve.i_ae, curve.i_ab[::-1], atol=1e-3)

    def test_single_sign_change(self, quad_light):
        curve = sweep_curve(np.linspace(0.0, QUARTER, 33), quad=quad_light)
        signs = np.sign(curve.i_ab - curve.i_ae)
        flips = np.count_nonzero(np.diff(signs[signs != 0.0]))
        assert flips == 1

    def test_reconciled_start_is_one_bit(self, quad_light):
        curve = sweep_curve(np.array([0.0, 0.2]), reconciled=True, quad=quad_light)
        assert curve.i_ab[0] == pytest.approx(1.0, abs=1e-6)

    def test_curve_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            InfoCurve(np.array([0.2, 0.1]), np.zeros(2), np.zeros(2), np.zeros(2), False)
        with pytest.raises(ValueError, match="dominance"):
            InfoCurve(np.array([0.1, 0.2]), np.zeros(2), np.zeros(2), np.full(2, 0.1), False)


class TestReconciledRate:
    def test_undisturbed_pair_gives_one_bit(self, quad_light):
        assert reconciled_i_ab(singlet(), quad_light) == pytest.approx(1.0, abs=1e-6)

    def test_maximally_mixed_gives_zero(self, quad_light):
        assert reconciled_i_ab(maximally_mixed(("A", "B")), quad_light) == pytest.approx(0.0, abs=1e-10)

    def test_full_swap_gives_zero(self, quad_light):
        rab, _, _ = bipartite_reductions(attacked_state(AttackParams(QUARTER, 0.0)))
        assert reconciled_i_ab(rab, quad_light) == pytest.approx(0.0, abs=1e-10)


class TestQber:
    def test_zero_at_zero_strength_for_every_phase(self):
        for phi in (0.0, 0.3, QUARTER, 1.2, 5.0):
            assert qber(AttackParams(0.0, phi)) == 0.0

    def test_half_at_full_swap(self):
        assert qber(AttackParams(QUARTER, 0.0)) == pytest.approx(0.5, abs=1e-12)

    def test_squared_sine_law(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            t, p = rng.uniform(0.0, QUARTER, size=2)
            assert qber(AttackParams(t, p)) == pytest.approx(math.sin(t) ** 2, abs=1e-12)

    def test_matches_shared_z_basis_error_of_full_dynamics(self):
        # Independent route: exact per-round outcome distribution with both
        # parties measuring along z; error = probability of equal bits.
        one, zero = np.array([1.0]), np.array([0.0])
        rng = np.random.default_rng(47)
        for _ in range(20):
            params = AttackParams(*rng.uniform(0.0, QUARTER, size=2))
            state = attacked_pure_state(params)
            probs = _outcome_probabilities(state, one, zero, one, zero).reshape(2, 2, 2)
            err = float(probs[0, 0, :].sum() + probs[1, 1, :].sum())
            assert qber(params) == pytest.approx(err, abs=1e-12)

    def test_sphere_average_matches_hand_formula(self, quad_light):
        rng = np.random.default_rng(53)
        for _ in range(10):
            t, p = rng.uniform(0.0, QUARTER, size=2)
            got = qber_sphere_averaged(AttackParams(t, p), quad_light)
            assert got == pytest.approx(sphere_disturbance_closed_form(t, p), abs=1e-10)

    def test_nondecreasing_along_line(self):
        vals = [qber(optimal_params(t)) for t in np.linspace(0.0, QUARTER, 33)]
        assert vals[0] == 0.0
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_pair_fidelity_deficit_closed_form(self):
        for t in (0.0, 0.3, QUARTER):
            got = pair_fidelity_deficit(optimal_params(t))
            assert got == pytest.approx(1.0 - math.cos(t) ** 4, abs=1e-12)


class TestCier:
    def test_extremes(self):
        assert cier(0.5, 0.5) == pytest.approx(0.0, abs=1e-15)
        assert cier(0.0, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_ratio(self):
        assert cier(0.11, NONSELECTED_MAX_BITS) == pytest.approx(0.605244, abs=1e-5)

    def test_rejects_excess_information(self):
        with pytest.raises(ValueError, match="exceeds"):
            cier(0.4, NONSELECTED_MAX_BITS)

    def test_rejects_bad_max(self):
        with pytest.raises(ValueError, match="positive"):
            cier(0.1, 0.0)

    def test_quadrature_overshoot_clamps(self):
        assert cier(NONSELECTED_MAX_BITS + 5e-5, NONSELECTED_MAX_BITS) == 0.0


class TestCriticalPoint:
    def test_unreconciled_threshold(self, quad_mid):
        report = critical_point(reconciled=False, quad=quad_mid, tol=1e-4)
        assert report.theta0 == pytest.approx(math.pi / 8, abs=2e-3)
        assert report.i0 == pytest.approx(0.117, abs=2e-3)
        assert report.q0 == pytest.approx(math.sin(math.pi / 8) ** 2, abs=1e-3)
        assert not report.reconciled

    def test_tolerance_contract(self, quad_light):
        r1 = critical_point(quad=quad_light, tol=1e-3)
        r2 = critical_point(quad=quad_light, tol=1e-5)
        assert abs(r1.theta0 - r2.theta0) <= 1e-3

    def test_reconciled_threshold_lies_past_unreconciled(self, quad_light):
        rec = critical_point(reconciled=True, quad=quad_light, tol=1e-3)
        unrec = critical_point(reconciled=False, quad=quad_light, tol=1e-3)
        assert rec.theta0 > unrec.theta0
        assert 0.0 < rec.i0 < 1.0
        assert 0.0 <= rec.q_cier0 <= 1.0

    def test_bracket_failure_raises(self, monkeypatch):
        def rigged(rab, rae, reconciled, quad):
            return (0.1, 0.2)  # probe always dominates: no sign change

        monkeypatch.setattr(security, "_info_pair", rigged)
        with pytest.raises(BracketError):
            critical_point()

    def test_threshold_reading_computes_only_the_receiver_rate(self, monkeypatch, quad_light):
        calls = []
        real = security.nonselected_information
        monkeypatch.setattr(security, "nonselected_information", lambda *a: calls.append(1) or real(*a))
        critical_point(quad=quad_light, tol=0.1)
        # The two endpoints and each bisection step compare i_ab with i_ae;
        # the report at theta0 needs i_ab only.
        steps = math.ceil(math.log2(QUARTER / 0.1))
        assert len(calls) == 2 * (2 + steps) + 1

    def test_tol_must_be_positive(self):
        for tol in (0.0, -1e-3, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol"):
                critical_point(tol=tol)


class TestDimensionScaling:
    def test_qubit_value_matches_continuous_readout_constant(self):
        assert accessible_information(2) == pytest.approx(SINGLET_BITS, abs=1e-15)

    def test_dimension_four(self):
        expected = 2.0 - (1.0 / 2 + 1.0 / 3 + 1.0 / 4) / math.log(2.0)
        assert accessible_information(4) == pytest.approx(expected, abs=1e-13)
        assert expected == pytest.approx(0.43708, abs=1e-5)

    def test_large_dimension_plateau(self):
        v = accessible_information(10**6)
        assert 0.60 < v < 0.62

    def test_monotone_increasing(self):
        vals = [accessible_information(d) for d in range(2, 65)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            accessible_information(1)

    def test_error_threshold_by_dimension(self):
        assert critical_cier_dim(2) == pytest.approx(0.7213, abs=1e-4)
        assert critical_cier_dim(4) == pytest.approx(0.7815, abs=1e-4)
        vals = [critical_cier_dim(d) for d in range(2, 65)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(0.72 < v < 1.0 for v in vals)

    def test_table_matches_scalar_routes(self):
        ds, acc, imax, q = dimension_table(16)
        for i, d in enumerate(ds):
            assert acc[i] == pytest.approx(accessible_information(int(d)), abs=1e-12)
            assert q[i] == pytest.approx(critical_cier_dim(int(d)), abs=1e-12)
            assert imax[i] == pytest.approx(math.log2(int(d)), abs=1e-13)
