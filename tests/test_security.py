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
from contqkd import security
from contqkd.attack import attacked_pure_state
from contqkd.infocalc import fano_form
from contqkd.security import (
    NONSELECTED_MAX_BITS,
    BracketError,
    dimension_table,
    pair_fidelity_deficit,
)
from conftest import SINGLET_BITS
from oracle import CLOSED_FORM_TOL, attack_readings, critical_cier_dim, maximally_mixed, outcome_probabilities

QUARTER = math.pi / 4


def itp_step_bound(tol: float) -> int:
    """ITP's worst case inside [0, pi/4]: one evaluation more than bisection."""
    return math.ceil(math.log2(QUARTER / tol)) + 1


def count_rate_readings(monkeypatch) -> tuple[list, list]:
    """Log the i_ae readings (one per g evaluation) and i_ab readings of ``security``."""
    i_ae, i_ab = [], []
    real_ns, real_rate = security.nonselected_information, security._receiver_rate

    def ns(rho, *rules):
        if rho.labels == ("A", "E"):
            i_ae.append(rho)
        return real_ns(rho, *rules)

    def rate(*args):
        i_ab.append(args)
        return real_rate(*args)

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

    def test_rejects_bad_max(self):
        with pytest.raises(ValueError, match="positive"):
            cier(0.1, 0.0)

    def test_quadrature_overshoot_clamps(self):
        assert cier(NONSELECTED_MAX_BITS + 5e-5, NONSELECTED_MAX_BITS) == 0.0

    @pytest.mark.parametrize("i, i_max", [(math.nan, 1.0), (0.1, math.nan), (0.1, math.inf), (math.inf, 1.0)])
    def test_rejects_non_finite_input(self, i, i_max):
        with pytest.raises(ValueError, match="finite"):
            cier(i, i_max)


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
