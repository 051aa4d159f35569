"""Security analysis: information curves, critical points, error-rate figures.

Everything here works along or around the optimal-eavesdropping line
theta + phi = pi/4.  At theta = 0 the probe decouples and the receiver keeps
the full per-letter information; at theta = pi/4 the roles of the receiver
and the probe are exactly swapped.  The security threshold is the parameter
where the receiver's information stops dominating the probe's.

Three disturbance figures are computed, each linear in the correlation
tensor T of the attacked sender-receiver pair (Fano form, see ``infocalc``):

* ``qber`` = (1 + T_zz)/2 — the error probability of the transmission-basis
  letters, both parties reading along z.  For the two-angle coupling this
  equals sin(theta)^2 for every phi, reproducing the anchor values 0 (no
  attack), 1/2 (full swap) and sin(pi/8)^2 ~ 0.146 at the unreconciled
  threshold.
* ``qber_sphere_averaged`` = mean over the sphere of (1 + n.T.n)/2 — the
  same error with both parties reading along a shared uniformly random
  direction n, i.e. (1 + tr T / 3)/2.  It is the quantity the sifted Monte
  Carlo error rate estimates, and it differs from ``qber`` (e.g. 0.181
  instead of 0.146 at the unreconciled threshold).
* ``pair_fidelity_deficit`` = (3 + tr T)/4 — one minus the overlap of the
  attacked pair state with the undisturbed singlet.  On the optimal line it
  equals 1 - cos(theta)^4 = 1 - (1 - sin(theta)^2)^2, and at the reconciled
  threshold it is the reading that matches the published q0 ~ 0.42
  alongside the published Q0 ~ 0.81.

Reports carry all three so the discrepancy between published readings stays
visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .attack import AttackParams, attacked_state, bipartite_reductions
from .infocalc import (
    SPHERE_VOLUME,
    SphereQuadrature,
    _fano_form,
    _table_information,
    default_quadrature,
    nonselected_information,
)
from .qstate import DensityMatrix, partial_trace

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


def _attacked_pair(params: AttackParams) -> DensityMatrix:
    """Sender-receiver reduction of the attacked singlet."""
    st = attacked_state(params)
    return partial_trace(st, st.labels[:2])


def _transmission_error(rab: DensityMatrix) -> float:
    """(1 + T_zz)/2, snapped to exact zero below roundoff (1e-12)."""
    q = 0.5 * (1.0 + float(_fano_form(rab)[2][2, 2]))
    return q if q > 1e-12 else 0.0


def qber(params: AttackParams) -> float:
    """Transmission-basis error probability of the induced channel.

    Both parties read along z; an error is a pair of equal bits, of
    probability (1 + T_zz)/2 on the attacked pair.  For the two-angle
    coupling this is sin(theta)^2 independently of phi.  Values below
    roundoff (1e-12) snap to exact zero so the no-attack case reads 0.0.
    """
    return _transmission_error(_attacked_pair(params))


def qber_sphere_averaged(params: AttackParams, quad: SphereQuadrature | None = None) -> float:
    """Heralded-state disturbance averaged over the sphere.

    Both parties read along a shared direction n; the error probability
    (1 + n.T.n)/2 is averaged over the nodes of ``quad``.  The rule
    integrates degree-2 polynomials exactly, so the value is
    (1 + tr T / 3)/2 to roundoff; values below 1e-12 snap to exact zero as
    for ``qber``.  This is what the sifted Monte Carlo error rate converges
    to.
    """
    q = quad if quad is not None else default_quadrature()
    t = _fano_form(_attacked_pair(params))[2]
    err = 0.5 * (1.0 + ((q.vectors @ t) * q.vectors).sum(axis=1))
    avg = math.fsum((err * q.weights).tolist()) / SPHERE_VOLUME
    return avg if avg > 1e-12 else 0.0


def pair_fidelity_deficit(params: AttackParams) -> float:
    """1 - overlap of the attacked pair state with the undisturbed singlet.

    The singlet overlap is (1 - tr T)/4, so the deficit is (3 + tr T)/4.  A
    third disturbance reading, reported for diagnosis: on the optimal line
    it equals 1 - cos(theta)^4 and is what the published reconciled error
    figure (~0.42) matches.
    """
    t = _fano_form(_attacked_pair(params))[2]
    return max(0.0, 0.25 * (3.0 + float(np.trace(t))))


def _line_reductions(theta: float) -> tuple[DensityMatrix, DensityMatrix, DensityMatrix]:
    """(rho_ab, rho_ae, rho_be) at one optimal-line point."""
    return bipartite_reductions(attacked_state(optimal_params(theta)))


def _receiver_rate(rab: DensityMatrix, reconciled: bool, quad: SphereQuadrature) -> float:
    """i_ab: reconciled shared-basis rate, or the continuous-readout rate."""
    if reconciled:
        return reconciled_i_ab(rab, quad)
    return nonselected_information(rab, quad, quad)


def _info_pair(
    rab: DensityMatrix, rae: DensityMatrix, reconciled: bool, quad: SphereQuadrature
) -> tuple[float, float]:
    """(i_ab, i_ae) from two line reductions; the pair the threshold compares."""
    return _receiver_rate(rab, reconciled, quad), nonselected_information(rae, quad, quad)


def information_rates(
    params: AttackParams, quad: SphereQuadrature, reconciled: bool = False
) -> tuple[float, float, float]:
    """(i_ab, i_ae, i_be) of the attacked singlet, in bits.

    The probe's rates are continuous-readout values; ``i_ab`` is too unless
    ``reconciled``, when it is the shared-basis rate of ``reconciled_i_ab``.
    """
    rab, rae, rbe = bipartite_reductions(attacked_state(params))
    return (*_info_pair(rab, rae, reconciled, quad), nonselected_information(rbe, quad, quad))


def sweep_curve(
    thetas: Sequence[float],
    reconciled: bool = False,
    quad: SphereQuadrature | None = None,
) -> InfoCurve:
    """Evaluate the three information rates on a grid along the optimal line."""
    grid = np.asarray(list(thetas), dtype=float)
    q = quad if quad is not None else default_quadrature()
    iab = np.empty(grid.size)
    iae = np.empty(grid.size)
    ibe = np.empty(grid.size)
    for idx, t in enumerate(grid):
        iab[idx], iae[idx], ibe[idx] = information_rates(optimal_params(float(t)), q, reconciled)
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
) -> SecurityReport:
    """Locate the security threshold on the optimal line by bisection.

    Finds the root of g(theta) = i_ab(theta) - i_ae(theta) over [0, pi/4] to
    within ``tol`` radians, which must be finite and positive.  The bracket
    endpoints must straddle the root (g > 0 with no attack, g < 0 at the
    full swap); anything else signals a modeling bug and raises BracketError.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    q = quad if quad is not None else default_quadrature()

    def g(t: float) -> float:
        iab, iae = _info_pair(*_line_reductions(t)[:2], reconciled, q)
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
    rab = _line_reductions(theta0)[0]
    i0 = _receiver_rate(rab, reconciled, q)
    i_max = RECONCILED_MAX_BITS if reconciled else NONSELECTED_MAX_BITS
    return SecurityReport(
        theta0=theta0,
        i0=i0,
        q0=_transmission_error(rab),
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


def dimension_table(d_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (d, accessible_bits, i_max_bits, critical_cier) for d = 2..d_max."""
    if int(d_max) != d_max or d_max < 2:
        raise ValueError(f"d_max must be an integer >= 2, got {d_max!r}")
    ds = np.arange(2, int(d_max) + 1, dtype=np.int64)
    tail = np.cumsum(1.0 / ds)
    log2d = np.log2(ds)
    acc = log2d - tail / math.log(2.0)
    return ds, acc, log2d, 1.0 - acc / log2d
