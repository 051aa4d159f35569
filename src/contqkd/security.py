"""Security analysis: information curves, critical points, error-rate figures.

Everything here works along or around the optimal-eavesdropping line
theta + phi = pi/4.  At theta = 0 the probe decouples and the receiver keeps
the full per-letter information; at theta = pi/4 the roles of the receiver
and the probe are exactly swapped.  The security threshold is the parameter
where the receiver's information stops dominating the probe's.

Three disturbance figures are computed, each a closed form linear in the
correlation tensor T of the attacked sender-receiver pair (Fano form, see
``infocalc``), with one zero rule (``_snap_zero``: roundoff reads 0.0):

* ``qber`` = (1 + T_zz)/2 — the error probability of the transmission-basis
  letters, both parties reading along z.  For the two-angle coupling this
  equals sin(theta)^2 for every phi, reproducing the anchor values 0 (no
  attack), 1/2 (full swap) and sin(pi/8)^2 ~ 0.146 at the unreconciled
  threshold.
* ``qber_sphere_averaged`` = (1 + tr T / 3)/2 — the sphere mean of
  (1 + n.T.n)/2: the same error with both parties reading along a shared
  uniformly random direction n.  It is the quantity the sifted Monte Carlo
  error rate estimates, and it differs from ``qber`` (e.g. 0.181 instead of
  0.146 at the unreconciled threshold).
* ``pair_fidelity_deficit`` = (3 + tr T)/4 — one minus the overlap of the
  attacked pair state with the undisturbed singlet.  On the optimal line it
  equals 1 - cos(theta)^4 = 1 - (1 - sin(theta)^2)^2, and at the reconciled
  threshold it is the reading that matches the published q0 ~ 0.42
  alongside the published Q0 ~ 0.81.

Reports carry all three so the discrepancy between published readings stays
visible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Sequence

import numpy as np

from .attack import AttackParams, attacked_state, bipartite_reductions
from .infocalc import SPHERE_VOLUME, ZERO_BITS, SphereQuadrature, fano_form, nonselected_information, table_information
from .qstate import ATOL, DensityMatrix, NumericalCorruptionError, check_int

QUARTER_PI = 0.25 * math.pi

# Per-letter information of the undisturbed channel under the continuous
# readout: 1 - 1/(2 ln 2) bits.  This is the unreconciled CIER normalization.
NONSELECTED_MAX_BITS = 1.0 - 1.0 / (2.0 * math.log(2.0))

# After ideal basis reconciliation the undisturbed channel carries one full
# bit per kept letter; that is the reconciled CIER normalization.
RECONCILED_MAX_BITS = 1.0


def i_max_bits(reconciled: bool) -> float:
    """The CIER normalization of a receiver rate, reconciled or not."""
    return RECONCILED_MAX_BITS if reconciled else NONSELECTED_MAX_BITS


# ITP constants of ``critical_point``: truncation kappa1 = 0.2 / (initial
# bracket width) and kappa2 = 2, and n0 = 1 step of slack over bisection.
_ITP_KAPPA1 = 0.2 / QUARTER_PI
_ITP_KAPPA2 = 2.0
_ITP_N0 = 1


# The fixed rule of the receiver's reconciled rate on the optimal line
# (``_LINE_RULE``), as the manifests of ``critical`` and ``curve`` name it.
LINE_RULE = MappingProxyType({"kind": "tanh-sinh", "step": 0.125, "nodes": 51})


def _tanh_sinh_line_rule(step: float, nodes: int) -> SphereQuadrature:
    """The tanh-sinh rule of ``nodes`` (odd) nodes at ``step``, on a great circle through x.

    Takahasi & Mori, Publ. RIMS 9, 721 (1974): x_k = tanh(pi/2 sinh(k h)) with
    weights h (pi/2) cosh(k h) / cosh(pi/2 sinh(k h))^2, for |k| <= (nodes - 1)/2
    at h = ``step``; it integrates over [-1, 1] with the endpoint singularities
    of the information integrands.  Node k is the vector (x_k, sqrt(1 - x_k^2), 0),
    the root taken as 1 / cosh(pi/2 sinh(k h)), and the weights sum to 2.
    Under the sphere measure n_x is uniform on [-1, 1], so the rule integrates
    an integrand that depends on n through n_x alone as the 1-D rule does, to
    roundoff at the ``LINE_RULE`` settings.  It is exact only for such
    integrands: a pair's are so when its Fano form is symmetric about x
    (``_require_line_symmetry``), and the rule is no sphere rule otherwise.
    """
    t = step * np.arange(-(nodes // 2), nodes // 2 + 1)
    s = 0.5 * math.pi * np.sinh(t)
    c = np.cosh(s)
    rule = SphereQuadrature()
    vectors = np.stack([np.tanh(s), 1.0 / c, np.zeros_like(s)], axis=1)
    for name, arr in (("weights", step * 0.5 * math.pi * np.cosh(t) / (c * c)), ("vectors", vectors)):
        arr.setflags(write=False)
        object.__setattr__(rule, name, arr)
    return rule


_LINE_RULE = _tanh_sinh_line_rule(LINE_RULE["step"], LINE_RULE["nodes"])


class BracketError(RuntimeError):
    """The threshold search found no sign change over its bracket."""


@dataclass(frozen=True, eq=False)
class InfoCurve:
    """Sampled information rates along the optimal line theta + phi = pi/4.

    ``i_ab`` is the receiver's rate, continuous-readout or reconciled as its
    sweep chose; ``i_ae`` and ``i_be`` are the probe's rates against sender
    and receiver, always continuous-readout values.
    """

    thetas: np.ndarray
    i_ab: np.ndarray
    i_ae: np.ndarray
    i_be: np.ndarray

    def __post_init__(self) -> None:
        names = ("thetas", "i_ab", "i_ae", "i_be")
        arrays = {name: np.asarray(getattr(self, name), dtype=float) for name in names}
        th, iab, iae, ibe = arrays.values()
        if not (th.size and th.size == iab.size == iae.size == ibe.size):
            raise ValueError("curve arrays must be equal-length and nonempty")
        if not all(np.isfinite(arr).all() for arr in arrays.values()):
            raise ValueError("curve arrays must be finite")
        if not np.all(np.diff(th) > 0.0):
            raise ValueError("theta grid must be strictly increasing")
        if not (th[0] >= -1e-12 and th[-1] <= QUARTER_PI + 1e-12):
            raise ValueError("theta grid must lie within [0, pi/4]")
        gap = float((iae - ibe).min())
        if not gap >= -1e-6:
            raise ValueError(f"probe-vs-receiver dominance violated: margin {gap:.3e}")
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class SecurityReport:
    """Critical-point summary: threshold angle and the figures evaluated there."""

    theta0: float
    i0: float
    q0: float
    q_cier0: float
    reconciled: bool

    def __post_init__(self) -> None:
        if not (0.0 < self.theta0 < QUARTER_PI):
            raise ValueError(f"threshold {self.theta0!r} outside (0, pi/4)")
        if not self.i0 >= 0.0:
            raise ValueError(f"information at the threshold cannot be negative or nan, got {self.i0!r}")
        if not (0.0 <= self.q0 <= 0.5):
            raise ValueError(f"threshold error rate {self.q0!r} outside [0, 1/2]")
        if not (0.0 <= self.q_cier0 <= 1.0):
            raise ValueError(f"threshold information error rate {self.q_cier0!r} outside [0, 1]")


def optimal_params(theta: float) -> AttackParams:
    """Attack angles (theta, pi/4 - theta) on the optimal-eavesdropping line."""
    t = float(theta)
    if not (-1e-12 <= t <= QUARTER_PI + 1e-12):
        raise ValueError(f"line parameter {t!r} outside [0, pi/4]")
    t = min(max(t, 0.0), QUARTER_PI)
    return AttackParams(t, QUARTER_PI - t)


def reconciled_i_ab(rho_ab: DensityMatrix, quad: SphereQuadrature) -> float:
    """Receiver information after ideal basis reconciliation, in bits.

    Averages the shared-basis selected information over a single basis
    direction with the sphere measure, discretized by the caller's rule
    ``quad`` (zero-width reconciliation cells; the finite-cell version lives
    in the protocol simulator).  With both parties reading along +-n, the
    2x2 table of the Fano form is (1 +- a.n +- b.n +- n.T.n)/4.  Values at or
    below ``infocalc.ZERO_BITS`` read as 0.0, as the continuous rates do.
    """
    a, b, t = fano_form(rho_ab)
    n = quad.vectors
    info = table_information(n @ a, n @ b, ((n @ t) * n).sum(axis=1))
    value = math.fsum((info * quad.weights).tolist()) / SPHERE_VOLUME
    return value if value > ZERO_BITS else 0.0


@functools.lru_cache(maxsize=1)
def _reductions(params: AttackParams) -> tuple[DensityMatrix, DensityMatrix, DensityMatrix]:
    """(rho_ab, rho_ae, rho_be) of the singlet attacked with ``params``, kept for the last point.

    ``AttackParams`` is frozen and a ``DensityMatrix`` immutable, so the kept
    reductions are safe to share: a disturbance reading taken right after the
    rates or the threshold search at the same point (``cli.critical_report``,
    ``cli.simulate_summary``) reuses them.  The cache keeps one entry.  With
    more, a second threshold search would skip the endpoints 0 and pi/4 the
    first one reduced, so a search's evaluations would depend on what ran
    before it, and a sweep would need one entry per grid point.
    """
    return bipartite_reductions(attacked_state(params))


def _pair_correlations(params: AttackParams) -> np.ndarray:
    """Correlation tensor T of the attacked sender-receiver pair."""
    return fano_form(_reductions(params)[0])[2]


def _snap_zero(q: float) -> float:
    """The error rate ``q``, or 0.0 at or below 1e-12: roundoff of an exact zero (no attack)."""
    return q if q > 1e-12 else 0.0


def _transmission_error(t: np.ndarray) -> float:
    """(1 + T_zz)/2, with roundoff snapped to exact zero (``_snap_zero``)."""
    return _snap_zero(0.5 * (1.0 + float(t[2, 2])))


def qber(params: AttackParams) -> float:
    """Transmission-basis error probability of the induced channel.

    Both parties read along z; an error is a pair of equal bits, of
    probability (1 + T_zz)/2 on the attacked pair.  For the two-angle
    coupling this is sin(theta)^2 independently of phi.  Roundoff snaps to
    exact zero (``_snap_zero``) so the no-attack case reads 0.0.
    """
    return _transmission_error(_pair_correlations(params))


def qber_sphere_averaged(params: AttackParams, quad: SphereQuadrature) -> float:
    """Heralded-state disturbance averaged over the sphere: (1 + tr T / 3)/2.

    The error of a shared reading direction n, (1 + n.T.n)/2, has this sphere
    mean exactly, as n_i n_j has mean delta_ij / 3, so no node enters it.
    ``quad`` is not read: the acceptance gate calls the two-argument form.
    Roundoff snaps to exact zero as for ``qber``.  The sifted Monte Carlo
    error rate converges to this.
    """
    return _snap_zero(0.5 * (1.0 + float(np.trace(_pair_correlations(params))) / 3.0))


def pair_fidelity_deficit(params: AttackParams) -> float:
    """1 - overlap of the attacked pair state with the undisturbed singlet.

    The singlet overlap is (1 - tr T)/4, so the deficit is (3 + tr T)/4;
    roundoff snaps to exact zero as for ``qber``.  A third reading, reported
    for diagnosis: on the optimal line it equals 1 - cos(theta)^4 and is
    what the published reconciled error figure (~0.42) matches.
    """
    return _snap_zero(0.25 * (3.0 + float(np.trace(_pair_correlations(params)))))


def _require_line_symmetry(rab: DensityMatrix) -> None:
    """NumericalCorruptionError unless a and b lie along x and T = diag(t1, t2, t2), to ``qstate.ATOL``."""
    a, b, t = fano_form(rab)
    want = np.diag([t[0, 0], t[1, 1], t[1, 1]])
    off = float(max(np.abs(a[1:]).max(), np.abs(b[1:]).max(), np.abs(t - want).max()))
    if not off <= ATOL:
        raise NumericalCorruptionError(f"pair is {off:.3e} off symmetry about x, where the line rule is exact")


def _receiver_rate(rab: DensityMatrix, reconciled: bool, quad: SphereQuadrature) -> float:
    """i_ab: the reconciled rate on ``_LINE_RULE``, or the continuous-readout rate on ``quad``.

    The reconciled rate holds only for pairs symmetric about x, as every
    pair on the optimal line is; any other raises NumericalCorruptionError.
    """
    if reconciled:
        _require_line_symmetry(rab)
        return reconciled_i_ab(rab, _LINE_RULE)
    return nonselected_information(rab, quad)


def information_rates(
    params: AttackParams, quad: SphereQuadrature, reconciled: bool = False
) -> tuple[float, float, float]:
    """(i_ab, i_ae, i_be) of the attacked singlet, in bits.

    The probe's rates are continuous-readout values on the rule ``quad``;
    ``i_ab`` is too unless ``reconciled``, when it is the shared-basis rate of
    ``reconciled_i_ab`` on the fixed line rule ``LINE_RULE``, exact to
    roundoff.  That reading holds on the optimal line only (its callers are
    ``sweep_curve`` and the line-rate tests): off it, ``reconciled`` raises
    NumericalCorruptionError.
    """
    rab, rae, rbe = _reductions(params)
    return (
        _receiver_rate(rab, reconciled, quad),
        nonselected_information(rae, quad),
        nonselected_information(rbe, quad),
    )


def sweep_curve(thetas: Sequence[float], reconciled: bool = False, *, quad: SphereQuadrature) -> InfoCurve:
    """Evaluate the three information rates on a grid along the optimal line.

    The continuous-readout rates use the rule ``quad``; a ``reconciled``
    i_ab uses the fixed line rule (``information_rates``).
    """
    grid = np.asarray(list(thetas), dtype=float)
    iab = np.empty(grid.size)
    iae = np.empty(grid.size)
    ibe = np.empty(grid.size)
    for idx, t in enumerate(grid):
        iab[idx], iae[idx], ibe[idx] = information_rates(optimal_params(float(t)), quad, reconciled)
    return InfoCurve(grid, iab, iae, ibe)


def cier(i: float, i_max: float) -> float:
    """Information error rate Q = 1 - i / i_max, dimensionless in [0, 1].

    Rates integrated on a rule can overshoot the analytic maximum by the
    rule's error (the caller's rule can be as coarse as 2x4) or by roundoff
    (the fixed line rule of the reconciled rate), so overshoot up to 1e-4
    clamps to Q = 0; anything larger, and a non-finite ``i`` or ``i_max``,
    is a usage error.
    """
    if not (math.isfinite(i) and math.isfinite(i_max)):
        raise ValueError(f"information {i!r} and its maximum {i_max!r} must be finite")
    if i_max <= 0.0:
        raise ValueError("i_max must be positive")
    if i < -1e-12:
        raise ValueError(f"information {i!r} is negative")
    if i > i_max + 1e-4:
        raise ValueError(f"information {i!r} exceeds its maximum {i_max!r}")
    return min(1.0, max(0.0, 1.0 - float(i) / float(i_max)))


def critical_point(reconciled: bool = False, *, quad: SphereQuadrature, tol: float) -> SecurityReport:
    """Locate the security threshold on the optimal line by the ITP method.

    Finds the root of g(theta) = i_ab(theta) - i_ae(theta) over [0, pi/4],
    with the continuous-readout rates integrated by the rule ``quad`` and a
    ``reconciled`` i_ab by the fixed line rule (``information_rates``), to within ``tol``
    radians, which must be finite and positive; a ``tol`` below the spacing
    of doubles there stops at two adjacent doubles.  The bracket endpoints
    must straddle the root (g > 0 with no attack, g < 0 at the full swap);
    anything else signals a modeling bug and raises BracketError.

    ITP (interpolate, truncate, project; Oliveira & Takahashi, ACM TOMS
    47(1), 2020) keeps bisection's guarantee: the search stops once the
    bracket is at most ``tol`` wide, and for tol >= 1e-15 after at most
    ceil(log2(pi/4 / tol)) + 1 evaluations inside it, one more than
    bisection.  On a smooth g it converges superlinearly instead.  An exact
    zero of g ends the search there.  The report is read at the zero, or at
    the midpoint of the final bracket.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")

    def g(t: float) -> tuple[float, DensityMatrix, float]:
        """(g(t), rho_ab, i_ab) at one line point."""
        rab, rae, _ = _reductions(optimal_params(t))
        i_ab = _receiver_rate(rab, reconciled, quad)
        return i_ab - nonselected_information(rae, quad), rab, i_ab

    lo, hi = 0.0, QUARTER_PI
    g_lo, g_hi = g(lo)[0], g(hi)[0]
    if not (g_lo > 0.0 and g_hi < 0.0):
        raise BracketError(
            f"no sign change over the line: g({lo:.2e})={g_lo:.3e}, g({hi:.4f})={g_hi:.3e}"
        )
    # Step budget, in logarithms so that a subnormal tol cannot overflow the
    # quotient (hi - lo) / tol.  The target half-width eps = tol/2 gives up
    # two ulps of pi/4, which cover the rounding one step can add to the
    # bracket, so that it is within tol after n_max steps in floating point
    # too.  Where that would take more than half of eps (tol below ~9e-16,
    # a few doubles), eps is tol/4.
    n_max = math.ceil(math.log2(hi - lo) - math.log2(tol)) + _ITP_N0
    eps = max(0.5 * tol - 2.0 * math.ulp(QUARTER_PI), 0.25 * tol)
    j = 0
    theta0 = None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are adjacent doubles
            break
        # Interpolate: the secant point, pulled toward the midpoint by delta.
        x_f = (g_hi * lo - g_lo * hi) / (g_hi - g_lo)
        sigma = math.copysign(1.0, mid - x_f)
        delta = _ITP_KAPPA1 * (hi - lo) ** _ITP_KAPPA2
        x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
        # Project into the ball around the midpoint whose radius keeps the
        # bracket within 2 eps after n_max steps.
        r = math.ldexp(eps, n_max - j) - 0.5 * (hi - lo)
        x = x_t if abs(x_t - mid) <= r else mid - sigma * max(r, 0.0)
        if not lo < x < hi:
            x = mid
        j += 1
        g_x, rab, i0 = g(x)
        if g_x == 0.0:  # an exact zero: the report reuses this evaluation
            theta0 = x
            break
        if g_x > 0.0:
            lo, g_lo = x, g_x
        else:
            hi, g_hi = x, g_x
    if theta0 is None:
        theta0 = 0.5 * (lo + hi)
        rab = _reductions(optimal_params(theta0))[0]
        i0 = _receiver_rate(rab, reconciled, quad)
    return SecurityReport(
        theta0=theta0,
        i0=i0,
        q0=_transmission_error(fano_form(rab)[2]),
        q_cier0=cier(i0, i_max_bits(reconciled)),
        reconciled=reconciled,
    )


def accessible_information(d: int) -> float:
    """Per-letter information ceiling of the uniform pure-state alphabet, bits.

    log2(d) - (1/ln 2) * sum_{k=2..d} 1/k; strictly increasing in d with
    limit (1 - euler_gamma)/ln 2 ~ 0.61 bits: the last row of ``dimension_table(d)``.
    """
    return float(dimension_table(d)[1][-1])


def dimension_table(d_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (d, accessible_bits, i_max_bits, critical_cier) for d = 2..d_max.

    ``d_max`` must be an integer (``qstate.check_int``): 16.0 raises ValueError.
    """
    check_int("d_max", d_max, 2)
    ds = np.arange(2, int(d_max) + 1, dtype=np.int64)
    tail = np.cumsum(1.0 / ds)
    log2d = np.log2(ds)
    acc = log2d - tail / math.log(2.0)
    return ds, acc, log2d, 1.0 - acc / log2d
