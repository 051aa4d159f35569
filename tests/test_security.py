"""Threshold analysis: curves, crossings, error-rate figures, dimension scaling."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contqkd
from contqkd import (
    AttackParams,
    InfoCurve,
    SphereQuadrature,
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
from contqkd import cli, security
from contqkd.attack import attacked_pure_state
from contqkd.infocalc import default_quadrature, fano_form
from contqkd.protosim import ProtocolConfig, SiftingPartition, run_protocol
from contqkd.qstate import NumericalCorruptionError
from contqkd.security import (
    NONSELECTED_MAX_BITS,
    BracketError,
    dimension_table,
    pair_fidelity_deficit,
)
from conftest import SINGLET_BITS
from oracle import CLOSED_FORM_TOL, attack_readings, critical_cier_dim, itp, maximally_mixed, outcome_probabilities

QUARTER = math.pi / 4

# (theta, (i_ab, i_ae, i_be, reconciled i_ab)) in bits on the optimal line, to 30 significant digits.  Generated
# with mpmath 1.3.0 by ``oracle.line_rates_mpmath(theta, 40)``, which reads ``oracle.attack_fano_forms`` and
# integrates each rate in n_x; its values at 60 digits agree to 1e-35.
LINE_RATES = (
    (0.05, ("2.73985148631028302617198545083e-1", "2.37231318432254846814246655856e-3",
            "2.34842784911895505001182131583e-3", "9.69876115617765539406589289208e-1")),
    (0.2, ("2.18568577857304535480003299903e-1", "3.47706138622333346395561054735e-2",
           "2.92282746646076099886110403625e-2", "7.3360792143741341687147037629e-1")),
    (0.5139, ("6.10467227212644410516667971273e-2", "1.81322205772201209639679780759e-1",
              "4.3782834841682378502679978934e-2", "1.81313720546438470106954784878e-1")),
    (0.7, ("6.80242684355966598983779160804e-3", "2.65572294636084543149817139757e-1",
           "6.60173975302994049143135159231e-3", "1.63330603731955062769079287996e-2")),
)
# Bounds of the default 32x64 rule, and for the reconciled rate of the fixed line rule, fixed before the first
# comparison.  Measured at these angles: i_ab and i_ae within 2.7e-16, i_be within 1.5e-10 (at 0.7), and the
# reconciled rate within 2.3e-16 (on the 32x64 rule it was up to 1.7e-7 low, at 0.7).
LINE_RATE_TOL = (1e-14, 1e-14, 1e-9, 1e-14)
# The reconciled threshold (theta0, cier0) to 17 significant digits.  Generated with mpmath 1.3.0 by
# ``oracle.reconciled_root_mpmath(40)``, whose values at 50 digits agree to 3e-42.
RECONCILED_ROOT = (0.51389546249523687, 0.81868022796018290)


def itp_step_bound(tol: float) -> int:
    """ITP's worst case inside [0, pi/4]: one evaluation more than bisection."""
    return math.ceil(math.log2(QUARTER / tol)) + 1


def count_rate_readings(monkeypatch) -> tuple[list, list]:
    """Log the i_ae readings (one per g evaluation) and i_ab readings of ``security``.

    An i_ae reading is a rate of the pair that ``_reductions`` returns second.
    """
    i_ae, i_ab, sender_probe = [], [], []
    real_reductions, real_ns = security._reductions, security.nonselected_information
    real_rate = security._receiver_rate

    def reductions(params):
        pairs = real_reductions(params)
        sender_probe.append(pairs[1])
        return pairs

    def ns(rho, *rules):
        if any(rho is rae for rae in sender_probe):
            i_ae.append(rho)
        return real_ns(rho, *rules)

    def rate(*args):
        i_ab.append(args)
        return real_rate(*args)

    monkeypatch.setattr(security, "_reductions", reductions)
    monkeypatch.setattr(security, "nonselected_information", ns)
    monkeypatch.setattr(security, "_receiver_rate", rate)
    return i_ae, i_ab


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

    @pytest.mark.parametrize(
        "thetas, sizes, says",
        [
            ([], (0, 0, 0), "equal-length and nonempty"),
            ([0.1, 0.2], (2, 1, 2), "equal-length and nonempty"),
            ([0.1, 0.2], (2, 2, 3), "equal-length and nonempty"),
            ([-0.01, 0.2], (2, 2, 2), r"within \[0, pi/4\]"),
            ([0.1, QUARTER + 1e-9], (2, 2, 2), r"within \[0, pi/4\]"),
            ([0.1, 0.1], (2, 2, 2), "strictly increasing"),
        ],
        ids=["empty", "short i_ab", "long i_be", "below 0", "past pi/4", "repeated theta"],
    )
    def test_curve_arrays_rejected(self, thetas, sizes, says):
        with pytest.raises(ValueError, match=says):
            InfoCurve(np.array(thetas), *(np.zeros(n) for n in sizes))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["thetas", "i_ab", "i_ae", "i_be"])
    def test_non_finite_curve_rejected(self, name, value):
        arrays = {"thetas": np.array([0.1, 0.2]), "i_ab": np.zeros(2), "i_ae": np.zeros(2), "i_be": np.zeros(2)}
        arrays[name][1] = value
        with pytest.raises(ValueError, match="curve arrays must be finite"):
            InfoCurve(**arrays)

    def test_curve_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            InfoCurve(np.array([0.2, 0.1]), np.zeros(2), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="dominance"):
            InfoCurve(np.array([0.1, 0.2]), np.zeros(2), np.zeros(2), np.full(2, 0.1))


class TestReconciledRate:
    def test_undisturbed_pair_gives_one_bit(self, quad_light):
        assert reconciled_i_ab(singlet(), quad_light) == pytest.approx(1.0, abs=1e-6)

    def test_maximally_mixed_gives_zero(self, quad_light):
        assert reconciled_i_ab(maximally_mixed(2), quad_light) == pytest.approx(0.0, abs=1e-10)

    def test_full_swap_gives_zero(self, quad_light):
        rab, _, _ = bipartite_reductions(attacked_state(AttackParams(QUARTER, 0.0)))
        assert reconciled_i_ab(rab, quad_light) == pytest.approx(0.0, abs=1e-10)


class TestLineRates:
    @pytest.mark.parametrize("theta, references", LINE_RATES, ids=[str(t) for t, _ in LINE_RATES])
    def test_default_rule_matches_mpmath(self, theta, references):
        params = optimal_params(theta)
        i_ab, i_ae, i_be = security.information_rates(params, default_quadrature())
        reconciled = security.information_rates(params, default_quadrature(), reconciled=True)[0]
        for got, ref, tol in zip((i_ab, i_ae, i_be, reconciled), references, LINE_RATE_TOL):
            assert abs(got - float(ref)) <= tol


class TestLineRule:
    def test_reconciled_threshold_is_the_exact_root(self):
        report = critical_point(reconciled=True, quad=default_quadrature(), tol=1e-12)
        assert abs(report.theta0 - RECONCILED_ROOT[0]) <= 1e-12
        assert abs(report.q_cier0 - RECONCILED_ROOT[1]) <= 1e-12

    def test_rule_is_the_tanh_sinh_rule_on_one_great_circle(self):
        rule = security._LINE_RULE
        assert rule.weights.size == security.LINE_RULE["nodes"] == 51
        assert abs(math.fsum(rule.weights.tolist()) - 2.0) <= 1e-15
        assert np.all(rule.weights > 0.0) and not rule.weights.flags.writeable
        np.testing.assert_allclose(np.linalg.norm(rule.vectors, axis=1), 1.0, atol=1e-15)
        assert np.all(rule.vectors[:, 2] == 0.0) and np.all(np.diff(rule.vectors[:, 0]) >= 0.0)

    @pytest.mark.parametrize("params", [AttackParams(0.3, 0.2), AttackParams(0.1, 0.0), AttackParams(0.7, 1.0)])
    def test_pair_off_symmetry_rejected(self, quad_light, params):
        security.information_rates(params, quad_light)  # the continuous rates hold anywhere
        with pytest.raises(NumericalCorruptionError, match="symmetry about x"):
            security.information_rates(params, quad_light, reconciled=True)

    def test_full_swap_reads_exact_zero(self):
        # The line rule leaves 7.2e-17 bits of roundoff there (5.6e-18 on the 32x64 rule), at or below ZERO_BITS.
        assert security.information_rates(optimal_params(QUARTER), default_quadrature(), reconciled=True)[0] == 0.0


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
            probs = outcome_probabilities(state, one, zero, one, zero).reshape(2, 2, 2)
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

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi))
    def test_readings_match_closed_forms(self, quad_light, theta, phi):
        params = AttackParams(theta, phi)
        got = (qber(params), qber_sphere_averaged(params, quad_light), pair_fidelity_deficit(params))
        for name, value, ref in zip(("qber", "sphere", "deficit"), got, attack_readings(theta, phi)):
            # Each reading snaps roundoff of an exact zero, at or below 1e-12, to 0.0.
            expected = 0.0 if value == 0.0 and ref <= 1e-12 + CLOSED_FORM_TOL else ref
            assert abs(value - expected) <= CLOSED_FORM_TOL, (name, value, ref)

    def test_sphere_average_reads_no_rule(self):
        # A closed form of T: no rule's nodes enter it, down to the last bit.
        coarse, fine = SphereQuadrature.gauss_product(8, 16), SphereQuadrature.gauss_product(32, 64)
        points = [AttackParams(t, p) for t, p in np.random.default_rng(59).uniform(0.0, QUARTER, size=(50, 2))]
        assert [qber_sphere_averaged(p, coarse) for p in points] == [qber_sphere_averaged(p, fine) for p in points]


class TestCier:
    def test_extremes(self):
        assert cier(0.5, 0.5) == pytest.approx(0.0, abs=1e-15)
        assert cier(0.0, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_ratio(self):
        assert cier(0.11, NONSELECTED_MAX_BITS) == pytest.approx(0.605244, abs=1e-5)

    def test_rejects_excess_information(self):
        with pytest.raises(ValueError, match="exceeds"):
            cier(0.4, NONSELECTED_MAX_BITS)

    def test_rejects_negative_information(self):
        # Roundoff of an exact zero, down to -1e-12, reads as Q = 1; below that a rate is a fault.
        assert cier(-1e-13, NONSELECTED_MAX_BITS) == 1.0
        with pytest.raises(ValueError, match="information -1e-06 is negative"):
            cier(-1e-6, NONSELECTED_MAX_BITS)

    def test_rejects_bad_max(self):
        with pytest.raises(ValueError, match="positive"):
            cier(0.1, 0.0)

    def test_quadrature_overshoot_clamps(self):
        assert cier(NONSELECTED_MAX_BITS + 5e-5, NONSELECTED_MAX_BITS) == 0.0

    def test_overshoot_past_the_clamp_rejected(self):
        # Twice the 1e-4 clamp: a rate that far above the maximum is a fault, not quadrature error.
        with pytest.raises(ValueError, match="exceeds"):
            cier(NONSELECTED_MAX_BITS + 2e-4, NONSELECTED_MAX_BITS)

    @pytest.mark.parametrize("i, i_max", [(math.nan, 1.0), (0.1, math.nan), (0.1, math.inf), (math.inf, 1.0)])
    def test_rejects_non_finite_input(self, i, i_max):
        with pytest.raises(ValueError, match="finite"):
            cier(i, i_max)


class TestSecurityReport:
    VALID = dict(theta0=0.3, i0=0.1, q0=0.1, q_cier0=0.5, reconciled=False)

    @pytest.mark.parametrize(
        "field, value, says",
        [
            ("theta0", 0.0, "threshold 0.0 outside"),
            ("theta0", QUARTER, "outside \\(0, pi/4\\)"),
            ("i0", -1e-3, "information at the threshold cannot be negative"),
            ("q0", -1e-3, "threshold error rate -0.001 outside"),
            ("q0", 0.5 + 1e-9, "threshold error rate 0.500000001 outside"),
            ("q_cier0", -1e-3, "threshold information error rate -0.001 outside"),
            ("q_cier0", 1.0 + 1e-9, "threshold information error rate 1.000000001 outside"),
            ("i0", math.nan, "information at the threshold cannot be negative or nan, got nan"),
        ],
    )
    def test_figure_out_of_range_rejected(self, field, value, says):
        security.SecurityReport(**self.VALID)
        with pytest.raises(ValueError, match=says):
            security.SecurityReport(**{**self.VALID, field: value})


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

    def test_bracket_failure_raises(self, monkeypatch, quad_light):
        def rigged(rab, reconciled, quad):
            return 0.0  # the receiver learns nothing, so the probe never trails: no sign change

        monkeypatch.setattr(security, "_receiver_rate", rigged)
        with pytest.raises(BracketError):
            critical_point(quad=quad_light, tol=1e-4)

    def test_threshold_reading_computes_only_the_receiver_rate(self, monkeypatch, quad_light):
        i_ae, i_ab = count_rate_readings(monkeypatch)
        critical_point(reconciled=False, quad=quad_light, tol=0.1)
        # The two endpoints and the first ITP step, which lands on pi/8 where
        # the unreconciled g is exactly 0; the report reuses that evaluation.
        assert (len(i_ae), len(i_ab)) == (3, 3)
        del i_ae[:], i_ab[:]
        critical_point(reconciled=True, quad=quad_light, tol=0.1)
        # The two endpoints and three ITP steps compare i_ab with i_ae; the
        # report at the midpoint of the final bracket needs i_ab only.
        assert (len(i_ae), len(i_ab)) == (5, 6)

    @pytest.mark.parametrize("reconciled", [False, True])
    def test_itp_keeps_the_bisection_guarantee(self, monkeypatch, quad_light, reconciled):
        ref = critical_point(reconciled, quad=quad_light, tol=1e-13).theta0
        i_ae, _ = count_rate_readings(monkeypatch)
        for k in range(1, 16):
            tol = 10.0**-k
            del i_ae[:]
            theta0 = critical_point(reconciled, quad=quad_light, tol=tol).theta0
            assert len(i_ae) - 2 <= itp_step_bound(tol), tol
            # Both final brackets hold the crossing, so the two readings are at
            # most (tol + 1e-13)/2 apart: within tol down to tol = 1e-13.
            assert abs(theta0 - ref) <= 0.5 * (tol + 1e-13), tol

    def test_itp_bound_holds_where_regula_falsi_stalls(self, monkeypatch, quad_light):
        # g = i_ab - i_ae with a rigged i_ab that is flat, then drops steeply
        # near the full swap: the secant keeps landing on the flat side.
        def flat_then_steep(theta):
            return 0.25 * (1.0 - (theta / QUARTER) ** 64)

        def rigged(rab, reconciled, quad):
            t_zz = float(fano_form(rab)[2][2, 2])  # -cos(2 theta) on the line
            return flat_then_steep(0.5 * math.acos(min(1.0, max(-1.0, -t_zz))))

        def g(theta):
            rae = bipartite_reductions(attacked_state(optimal_params(theta)))[1]
            return flat_then_steep(theta) - nonselected_information(rae, quad_light, quad_light)

        tol = 1e-6
        lo, hi, g_lo, g_hi = 0.0, QUARTER, g(0.0), g(QUARTER)
        for _ in range(itp_step_bound(tol)):  # plain regula falsi on the same g
            x = (g_hi * lo - g_lo * hi) / (g_hi - g_lo)
            g_x = g(x)
            if g_x > 0.0:
                lo, g_lo = x, g_x
            else:
                hi, g_hi = x, g_x
        assert hi - lo > 1e3 * tol

        monkeypatch.setattr(security, "_receiver_rate", rigged)
        ref = critical_point(quad=quad_light, tol=1e-13).theta0
        assert g(ref - 1e-6) > 0.0 > g(ref + 1e-6)
        i_ae, _ = count_rate_readings(monkeypatch)
        for k in range(1, 16):
            tol = 10.0**-k
            del i_ae[:]
            theta0 = critical_point(quad=quad_light, tol=tol).theta0
            assert len(i_ae) - 2 <= itp_step_bound(tol), tol
            assert abs(theta0 - ref) <= 0.5 * (tol + 1e-13), tol

    @pytest.mark.parametrize(
        "i_ab",
        [lambda theta: 0.25 * (1.0 - (theta / QUARTER) ** 64), lambda theta: 0.9 if theta < 0.3 else 0.05],
        ids=["flat then steep", "unequal step"],
    )
    def test_itp_steps_match_the_reference(self, monkeypatch, quad_light, i_ab):
        # A rigged i_ab on which the projection fires: critical_point evaluates the points of
        # the reference ITP on the same g, in the same order, and reports its estimate.
        def rigged(rab, reconciled, quad):
            t_zz = float(fano_form(rab)[2][2, 2])  # -cos(2 theta) on the line
            return i_ab(0.5 * math.acos(min(1.0, max(-1.0, -t_zz))))

        def minus_g(theta):  # the reference brackets f(a) < 0 < f(b); critical_point has g(0) > 0 > g(pi/4)
            rab, rae, _ = security._reductions(optimal_params(theta))
            return nonselected_information(rae, quad_light) - rigged(rab, False, quad_light)

        evaluated = []

        def logged_params(theta):
            evaluated.append(theta)
            return optimal_params(theta)

        monkeypatch.setattr(security, "_receiver_rate", rigged)
        monkeypatch.setattr(security, "optimal_params", logged_params)
        for tol in (1e-3, 1e-6, 1e-9):
            del evaluated[:]
            report = critical_point(quad=quad_light, tol=tol)
            # critical_point stops at a bracket tol wide, but projects as if to one two ulps of pi/4
            # narrower on each side, which covers the rounding a step can add.
            kappas = (security._ITP_KAPPA1, security._ITP_KAPPA2, security._ITP_N0)
            guard = 0.5 * tol - 2.0 * math.ulp(QUARTER)
            points, projected, estimate = itp(minus_g, 0.0, QUARTER, 0.5 * tol, guard, *kappas)
            assert projected >= 1, tol
            assert evaluated == [0.0, QUARTER, *points, estimate], tol
            assert report.theta0 == estimate, tol

    def test_tol_must_be_positive(self, quad_light):
        for tol in (0.0, -1e-3, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol"):
                critical_point(quad=quad_light, tol=tol)

    def test_tol_below_double_spacing_returns(self):
        # Near pi/8 doubles are 5.6e-17 apart, so the search to a smaller tol
        # never shrinks the bracket below it; it must stop at adjacent doubles.
        # A subprocess with a timeout turns a hang into a failure.
        code = (
            "from contqkd import SphereQuadrature, critical_point\n"
            "quad = SphereQuadrature.gauss_product(4, 8)\n"
            "for tol in (1e-17, 1e-300, 5e-324):\n"
            "    print(repr(critical_point(quad=quad, tol=tol).theta0))\n"
        )
        src = str(Path(contqkd.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        thetas = [float(line) for line in done.stdout.split()]
        assert len(thetas) == 3
        for theta0 in thetas:
            assert abs(theta0 - math.pi / 8) <= 1e-15


def count_reductions(monkeypatch) -> list:
    """Log each attacked state that ``security`` reduces, starting from an empty ``_reductions`` cache."""
    reduced = []
    real = security.bipartite_reductions

    def counted(rho_abe):
        reduced.append(rho_abe)
        return real(rho_abe)

    security._reductions.cache_clear()
    monkeypatch.setattr(security, "bipartite_reductions", counted)
    return reduced


def clear_before(monkeypatch, module, *names) -> None:
    """Empty the ``_reductions`` cache before every call of each ``module.name``."""
    for name in names:
        real = getattr(module, name)

        def cleared(*args, _real=real, **kwargs):
            security._reductions.cache_clear()
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, cleared)


def line_summary(quad):
    """``cli.simulate_summary`` of a short run at theta = pi/8 on the optimal line."""
    cfg = ProtocolConfig(rounds=2000, attack=optimal_params(math.pi / 8), seed=3)
    binning = SiftingPartition(cli.MI_CELLS_U, cli.MI_CELLS_PHI)
    return cli.simulate_summary(cfg, quad, binning, run_protocol(cfg))


class TestReductionCache:
    # The readings that follow a search or the rates at the same point reuse its reductions.
    @pytest.mark.parametrize("reconciled", [False, True], ids=["continuous", "reconciled"])
    def test_report_reduces_no_more_than_the_search(self, monkeypatch, quad_light, reconciled):
        reduced = count_reductions(monkeypatch)
        critical_point(reconciled, quad=quad_light, tol=1e-3)
        searched = len(reduced)
        del reduced[:]
        security._reductions.cache_clear()
        cli.critical_report(reconciled, quad_light, 1e-3)
        assert len(reduced) == searched

    def test_summary_reduces_its_attack_point_once(self, monkeypatch, quad_light):
        reduced = count_reductions(monkeypatch)
        summary = line_summary(quad_light)
        assert summary["quadrature_reference"] is not None
        assert len(reduced) == 1

    @pytest.mark.parametrize("reconciled", [False, True], ids=["continuous", "reconciled"])
    def test_report_is_bit_equal_without_the_cache(self, monkeypatch, quad_light, reconciled):
        security._reductions.cache_clear()
        kept = cli.critical_report(reconciled, quad_light, 1e-3)
        clear_before(monkeypatch, cli, "qber_sphere_averaged", "pair_fidelity_deficit")
        assert repr(cli.critical_report(reconciled, quad_light, 1e-3)) == repr(kept)

    def test_summary_is_bit_equal_without_the_cache(self, monkeypatch, quad_light):
        security._reductions.cache_clear()
        kept = line_summary(quad_light)
        clear_before(monkeypatch, cli, "information_rates", "qber", "qber_sphere_averaged")
        assert repr(line_summary(quad_light)) == repr(kept)


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

    # An integral float is not an integer (``qstate.check_int``), as for every count.
    @pytest.mark.parametrize("d_max", [math.inf, -math.inf, math.nan, 1, 2.5, 16.0, np.float64(16.0)])
    def test_non_integer_dimension_rejected(self, d_max):
        with pytest.raises(ValueError, match="d_max"):
            dimension_table(d_max)

    @pytest.mark.parametrize("d_max", [16, np.int64(16)])
    def test_integral_dimension_of_any_type_accepted(self, d_max):
        assert np.array_equal(dimension_table(d_max)[3], dimension_table(16)[3])

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
