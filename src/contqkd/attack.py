"""Two-parameter eavesdropping transformation on the transmitted qubit.

The eavesdropper couples the channel qubit (Bob's) to a fresh two-dimensional
probe prepared in |0>.  The coupling is fixed by two angles (theta, phi): each
computational input |b>|0> is sent to a superposition over Bob's basis with
probe components built from products of cosines of the two angles.  theta
controls how much of the letter leaks into the probe; phi rotates where the
leak sits.  The full analysis range is the square [0, pi/4]^2, and the
one-parameter family theta + phi = pi/4 is the optimal trade-off line studied
by the security module.

The transformation is stored as an isometry from B x span{|0>_E} into B x E;
its completion to a unitary on the full four-dimensional space is gauge
freedom that never affects any reduced state, so it is not represented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qstate import DensityMatrix, partial_trace

_HALF_PI = 0.5 * math.pi


@dataclass(frozen=True)
class AttackParams:
    """Eavesdropping angles (theta, phi), radians.

    The coefficient formula is total, so any finite reals are accepted; the
    canonical analysis range used by the reporting layer is [0, pi/4]^2.
    """

    theta: float
    phi: float

    def __post_init__(self) -> None:
        t, p = float(self.theta), float(self.phi)
        if not (math.isfinite(t) and math.isfinite(p)):
            raise ValueError(f"attack angles must be finite, got ({t!r}, {p!r})")
        object.__setattr__(self, "theta", t)
        object.__setattr__(self, "phi", p)


def coupling_coefficient(m: int, n: int, params: AttackParams) -> float:
    """Real coefficient (-1)^{mn} cos(theta - m*pi/2) cos(phi - n*pi/2).

    Explicitly: (0,0) -> cos t cos p, (0,1) -> cos t sin p,
    (1,0) -> sin t cos p, (1,1) -> -sin t sin p.
    """
    if m not in (0, 1) or n not in (0, 1):
        raise ValueError(f"indices must be bits, got ({m}, {n})")
    sign = -1.0 if (m == 1 and n == 1) else 1.0
    return sign * math.cos(params.theta - m * _HALF_PI) * math.cos(params.phi - n * _HALF_PI)


@dataclass(frozen=True, eq=False)
class EveIsometry:
    """Probe coupling as four un-normalized probe kets, one per (b, c) pair.

    Row order is (b=0,c=0), (0,1), (1,0), (1,1): the input letter b goes to
    sum_c |c>_B (x) |row_{bc}>_E.  Construction enforces the isometry
    identities: the two output columns are unit vectors and mutually
    orthogonal in the combined B x E space.
    """

    probe_components: np.ndarray  # shape (4, 2), rows over |0>_E, |1>_E

    def __init__(self, probe_components: np.ndarray) -> None:
        rows = np.array(probe_components, dtype=complex)
        if rows.shape != (4, 2):
            raise ValueError(f"probe component array must be 4x2, got {rows.shape}")
        cross = np.vdot(rows[0], rows[2]) + np.vdot(rows[1], rows[3])
        if abs(cross) > 1e-12:
            raise ValueError(f"isometry columns not orthogonal: residual {abs(cross):.3e}")
        n0 = np.vdot(rows[0], rows[0]).real + np.vdot(rows[1], rows[1]).real
        n1 = np.vdot(rows[2], rows[2]).real + np.vdot(rows[3], rows[3]).real
        if abs(n0 - 1.0) > 1e-12 or abs(n1 - 1.0) > 1e-12:
            raise ValueError(f"isometry columns not normalized: {n0!r}, {n1!r}")
        rows.setflags(write=False)
        object.__setattr__(self, "probe_components", rows)

    def extension_matrix(self) -> np.ndarray:
        """4x2 isometry V mapping |b>_B to B x E, rows ordered (c, e)."""
        # probe_components[2b + c, e] -> v[2c + e, b]
        v = self.probe_components.reshape(2, 2, 2).transpose(1, 2, 0).reshape(4, 2)
        v.setflags(write=False)
        return v


def build_isometry(params: AttackParams) -> EveIsometry:
    """Assemble the probe coupling from the closed-form coefficients.

    With g_mn = coupling_coefficient(m, n), the rows are
    (g00, g01), (g10, g11), (g11, g10), (g01, g00).
    """
    g00 = coupling_coefficient(0, 0, params)
    g01 = coupling_coefficient(0, 1, params)
    g10 = coupling_coefficient(1, 0, params)
    g11 = coupling_coefficient(1, 1, params)
    rows = np.array(
        [
            [g00, g01],
            [g10, g11],
            [g11, g10],
            [g01, g00],
        ],
        dtype=complex,
    )
    return EveIsometry(rows)


@lru_cache(maxsize=256)
def attacked_pure_state(params: AttackParams) -> np.ndarray:
    """Exact post-attack pure state of singlet (x) |0>_E, shape (2, 2, 2) over (A, B, E)."""
    v = build_isometry(params).extension_matrix()
    psi_ab = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex) / math.sqrt(2.0)
    psi = np.einsum("ab,vb->av", psi_ab, v).reshape(2, 2, 2)
    psi.setflags(write=False)
    return psi


def attacked_state(params: AttackParams) -> DensityMatrix:
    """Density matrix of the attacked singlet on ("A", "B", "E"), ready for the three reductions."""
    return DensityMatrix.from_ket(attacked_pure_state(params).reshape(-1), ("A", "B", "E"))


def bipartite_reductions(
    rho_abe: DensityMatrix,
) -> tuple[DensityMatrix, DensityMatrix, DensityMatrix]:
    """The three two-party reductions (sender-receiver, sender-probe, receiver-probe)."""
    if len(rho_abe.labels) != 3:
        raise ValueError("expected a three-party state")
    a, b, e = rho_abe.labels
    return (
        partial_trace(rho_abe, (a, b)),
        partial_trace(rho_abe, (a, e)),
        partial_trace(rho_abe, (b, e)),
    )
