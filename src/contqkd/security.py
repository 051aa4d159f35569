"""Security analysis: information curves, critical points, error-rate figures.

Everything here works along or around the optimal-eavesdropping line
theta + phi = pi/4.  At theta = 0 the probe decouples and the receiver keeps
the full per-letter information; at theta = pi/4 the roles of the receiver
and the probe are exactly swapped.  The security threshold is the parameter
where the receiver's information stops dominating the probe's.

Three disturbance figures are computed:

* ``qber`` — the error probability of the transmission-basis letters under
  the induced channel, 1 - mean_b <b| L(|b><b|) |b>.  For the two-angle
  coupling this equals sin(theta)^2 for every phi, reproducing the anchor
  values 0 (no attack), 1/2 (full swap) and sin(pi/8)^2 ~ 0.146 at the
  unreconciled threshold.
* ``qber_sphere_averaged`` — the same conditional disturbance averaged over
  every heralded pure state with the sphere measure.  It is the quantity the
  sifted Monte Carlo error rate estimates, and it differs from ``qber``
  (e.g. 0.181 instead of 0.146 at the unreconciled threshold).
* ``pair_fidelity_deficit`` — one minus the overlap of the attacked pair
  state with the undisturbed singlet.  On the optimal line it equals
  1 - cos(theta)^4 = 1 - (1 - sin(theta)^2)^2, and at the reconciled
  threshold it is the reading that matches the published q0 ~ 0.42
  alongside the published Q0 ~ 0.81.

Reports carry all three so the discrepancy between published readings stays
visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .attack import AttackParams, attacked_state, bipartite_reductions, build_isometry
from .infocalc import (
    SPHERE_VOLUME,
    SphereQuadrature,
    _fano_form,
    _table_information,
    default_quadrature,
    nonselected_information,
)
from .qstate import DensityMatrix, partial_trace, singlet

QUARTER_PI = 0.25 * math.pi

# Per-letter information of the undisturbed channel under the continuous
# readout: 1 - 1/(2 ln 2) bits.  This is the unreconciled CIER normalization.
NONSELECTED_MAX_BITS = 1.0 - 1.0 / (2.0 * math.log(2.0))

# After ideal basis reconciliation the undisturbed channel carries one full
# bit per kept letter; that is the reconciled CIER normalization.
RECONCILED_MAX_BITS = 1.0


class BracketError(RuntimeError):
    """The threshold search found no sign change over its bracket."""


@dataclass(frozen=True, eq=False)
class InfoCurve:
    """Sampled information rates along the optimal line theta + phi = pi/4.

    ``i_ab`` is the receiver's rate (continuous readout, or sifted selected
    readout when ``reconciled``); ``i_ae`` and ``i_be`` are the probe's rates
    against sender and receiver, always continuous-readout values.
    """

    thetas: np.ndarray
    i_ab: np.ndarray
    i_ae: np.ndarray
    i_be: np.ndarray
    reconciled: bool

    def __init__(
        self,
        thetas: np.ndarray,
        i_ab: np.ndarray,
        i_ae: np.ndarray,
        i_be: np.ndarray,
        reconciled: bool,
    ) -> None:
        th = np.asarray(thetas, dtype=float)
        iab = np.asarray(i_ab, dtype=float)
        iae = np.asarray(i_ae, dtype=float)
        ibe = np.asarray(i_be, dtype=float)
        if not (th.size and th.size == iab.size == iae.size == ibe.size):
            raise ValueError("curve arrays must be equal-length and nonempty")
        if np.any(np.diff(th) <= 0.0):
            raise ValueError("theta grid must be strictly increasing")
        if th[0] < -1e-12 or th[-1] > QUARTER_PI + 1e-12:
            raise ValueError("theta grid must lie within [0, pi/4]")
        gap = float((iae - ibe).min())
        if gap < -1e-6:
            raise ValueError(f"probe-vs-receiver dominance violated: margin {gap:.3e}")
        for arr in (th, iab, iae, ibe):
            arr.setflags(write=False)
        object.__setattr__(self, "thetas", th)
        object.__setattr__(self, "i_ab", iab)
        object.__setattr__(self, "i_ae", iae)
        object.__setattr__(self, "i_be", ibe)
        object.__setattr__(self, "reconciled", bool(reconciled))


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
        if self.i0 < 0.0:
            raise ValueError("information at the threshold cannot be negative")
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


def reconciled_i_ab(rho_ab: DensityMatrix, quad: SphereQuadrature | None = None) -> float:
    """Receiver information after ideal basis reconciliation, in bits.

    Averages the shared-basis selected information over a single basis
    direction with the sphere measure (zero-width reconciliation cells; the
    finite-cell version lives in the protocol simulator).  With both parties
    reading along +-n, the 2x2 table of the Fano form is
    (1 +- a.n +- b.n +- n.T.n)/4.
    """
    q = quad if quad is not None else default_quadrature()
    a, b, t = _fano_form(rho_ab)
    n = q.vectors
    info = _table_information(n @ a, n @ b, ((n @ t) * n).sum(axis=1))
    value = math.fsum((info * q.weights).tolist()) / SPHERE_VOLUME
    return max(0.0, value)


def qber(params: AttackParams) -> float:
    """Transmission-basis error probability of the induced channel.

    q = 1 - (<0|L(|0><0|)|0> + <1|L(|1><1|)|1>) / 2, which for the two-angle
    coupling evaluates to sin(theta)^2 independently of phi.  Values below
    roundoff (1e-12) snap to exact zero so the no-attack case reads 0.0.
    """
    a0, a1 = build_isometry(params).kraus()
    f0 = abs(a0[0, 0]) ** 2 + abs(a1[0, 0]) ** 2
    f1 = abs(a0[1, 1]) ** 2 + abs(a1[1, 1]) ** 2
    q = 1.0 - 0.5 * float(f0 + f1)
    return q if q > 1e-12 else 0.0


def qber_sphere_averaged(params: AttackParams, quad: SphereQuadrature | None = None) -> float:
    """Heralded-state disturbance averaged over the sphere.

    q = 1 - (1/V) integral of <psi| L(|psi><psi|) |psi> over all pure states.
    This is what the sifted Monte Carlo error rate converges to.
    """
    q = quad if quad is not None else default_quadrature()
    a0, a1 = build_isometry(params).kraus()
    fid = np.zeros(len(q))
    for a in (a0, a1):
        amp = np.einsum("ia,ab,ib->i", q.kets.conj(), a, q.kets)
        fid += amp.real**2 + amp.imag**2
    avg = math.fsum((fid * q.weights).tolist()) / SPHERE_VOLUME
    return max(0.0, 1.0 - avg)


def pair_fidelity_deficit(params: AttackParams) -> float:
    """1 - overlap of the attacked pair state with the undisturbed singlet.

    A third disturbance reading, reported for diagnosis: on the optimal line
    it equals 1 - cos(theta)^4 and is what the published reconciled error
    figure (~0.42) matches.
    """
    st = attacked_state(params)
    rab = partial_trace(st, st.labels[:2])
    ref = singlet(rab.labels).entries
    overlap = float(np.trace(ref @ rab.entries).real)
    return max(0.0, 1.0 - overlap)


def _line_reductions(theta: float) -> tuple[DensityMatrix, DensityMatrix, DensityMatrix]:
    """(rho_ab, rho_ae, rho_be) at one optimal-line point."""
    return bipartite_reductions(attacked_state(optimal_params(theta)))


def _info_pair(
    rab: DensityMatrix, rae: DensityMatrix, reconciled: bool, quad: SphereQuadrature
) -> tuple[float, float]:
    """(i_ab, i_ae) from two line reductions; the pair the threshold compares."""
    if reconciled:
        iab = reconciled_i_ab(rab, quad)
    else:
        iab = nonselected_information(rab, quad, quad)
    return iab, nonselected_information(rae, quad, quad)


def _line_infos(
    theta: float, reconciled: bool, quad: SphereQuadrature
) -> tuple[float, float, float]:
    """(i_ab, i_ae, i_be) at one optimal-line point."""
    rab, rae, rbe = _line_reductions(theta)
    return (*_info_pair(rab, rae, reconciled, quad), nonselected_information(rbe, quad, quad))


def sweep_curve(
    thetas: Sequence[float] | None = None,
    reconciled: bool = False,
    quad: SphereQuadrature | None = None,
) -> InfoCurve:
    """Evaluate the three information rates on a grid along the optimal line."""
    grid = (
        np.linspace(0.0, QUARTER_PI, 33)
        if thetas is None
        else np.asarray(list(thetas), dtype=float)
    )
    q = quad if quad is not None else default_quadrature()
    iab = np.empty(grid.size)
    iae = np.empty(grid.size)
    ibe = np.empty(grid.size)
    for idx, t in enumerate(grid):
        iab[idx], iae[idx], ibe[idx] = _line_infos(float(t), reconciled, q)
    return InfoCurve(grid, iab, iae, ibe, reconciled)


def cier(i: float, i_max: float) -> float:
    """Information error rate Q = 1 - i / i_max, dimensionless in [0, 1].

    Rates computed by quadrature can overshoot the analytic maximum by the
    outer-rule error (a few 1e-9 bits at the default 32x64 resolution, up
    to ~3e-7 at 16x32), so overshoot up to 1e-4 clamps to Q = 0; anything
    larger is a usage error.
    """
    if i_max <= 0.0:
        raise ValueError("i_max must be positive")
    if i < -1e-12:
        raise ValueError(f"information {i!r} is negative")
    if i > i_max + 1e-4:
        raise ValueError(f"information {i!r} exceeds its maximum {i_max!r}")
    return min(1.0, max(0.0, 1.0 - float(i) / float(i_max)))


def critical_point(
    reconciled: bool = False,
    quad: SphereQuadrature | None = None,
    tol: float = 1e-4,
    _evaluator: Callable[[float], tuple[float, float]] | None = None,
) -> SecurityReport:
    """Locate the security threshold on the optimal line by bisection.

    Finds the root of g(theta) = i_ab(theta) - i_ae(theta) over [0, pi/4] to
    within ``tol`` radians.  The bracket endpoints must straddle the root
    (g > 0 with no attack, g < 0 at the full swap); anything else signals a
    modeling bug and raises BracketError.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    q = quad if quad is not None else default_quadrature()
    evaluate = _evaluator if _evaluator is not None else (
        lambda t: _info_pair(*_line_reductions(t)[:2], reconciled, q)
    )

    def g(t: float) -> float:
        iab, iae = evaluate(t)
        return iab - iae

    lo, hi = 0.0, QUARTER_PI
    g_lo, g_hi = g(lo), g(hi)
    if not (g_lo > 0.0 and g_hi < 0.0):
        raise BracketError(
            f"no sign change over the line: g({lo:.2e})={g_lo:.3e}, g({hi:.4f})={g_hi:.3e}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    theta0 = 0.5 * (lo + hi)
    i0 = evaluate(theta0)[0]
    i_max = RECONCILED_MAX_BITS if reconciled else NONSELECTED_MAX_BITS
    return SecurityReport(
        theta0=theta0,
        i0=i0,
        q0=qber(optimal_params(theta0)),
        q_cier0=cier(i0, i_max),
        reconciled=reconciled,
    )


def accessible_information(d: int) -> float:
    """Per-letter information ceiling of the uniform pure-state alphabet, bits.

    log2(d) - (1/ln 2) * sum_{k=2..d} 1/k; strictly increasing in d with
    limit (1 - euler_gamma)/ln 2 ~ 0.61 bits.
    """
    if int(d) != d or d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d!r}")
    d = int(d)
    tail = float(np.sum(1.0 / np.arange(2, d + 1, dtype=float)))
    return math.log2(d) - tail / math.log(2.0)


def critical_cier_dim(d: int) -> float:
    """Threshold information error rate in dimension d: 1 - accessible / log2(d).

    Strictly increasing in d and approaching 1, so a large enough alphabet
    tolerates any error rate below unity.
    """
    acc = accessible_information(d)
    return 1.0 - acc / math.log2(d)


def dimension_table(d_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (d, accessible_bits, i_max_bits, critical_cier) for d = 2..d_max."""
    if int(d_max) != d_max or d_max < 2:
        raise ValueError(f"d_max must be an integer >= 2, got {d_max!r}")
    ds = np.arange(2, int(d_max) + 1, dtype=np.int64)
    tail = np.cumsum(1.0 / ds)
    log2d = np.log2(ds)
    acc = log2d - tail / math.log(2.0)
    return ds, acc, log2d, 1.0 - acc / log2d
