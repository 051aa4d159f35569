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
The singlet is ``qstate.SINGLET_KET``; ``attacked_pure_state`` couples its
second qubit to the probe in one contraction, and every path reads the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qstate import ATOL, SINGLET_KET, DensityMatrix, partial_trace

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
        if not abs(cross) <= ATOL:
            raise ValueError(f"isometry columns not orthogonal: residual {abs(cross):.3e}")
        n0 = np.vdot(rows[0], rows[0]).real + np.vdot(rows[1], rows[1]).real
        n1 = np.vdot(rows[2], rows[2]).real + np.vdot(rows[3], rows[3]).real
        if not (abs(n0 - 1.0) <= ATOL and abs(n1 - 1.0) <= ATOL):
            raise ValueError(f"isometry columns not normalized: {n0!r}, {n1!r}")
        rows.setflags(write=False)
        object.__setattr__(self, "probe_components", rows)


def build_isometry(params: AttackParams) -> EveIsometry:
    """Probe coupling from the coefficients g_mn = (-1)^{mn} cos(theta - m pi/2) cos(phi - n pi/2).

    That is g00 = cos t cos p, g01 = cos t sin p, g10 = sin t cos p and g11 = -sin t sin p;
    the rows are (g00, g01), (g10, g11), (g11, g10), (g01, g00).
    """
    cos_t = [math.cos(params.theta - m * _HALF_PI) for m in (0, 1)]
    cos_p = [math.cos(params.phi - n * _HALF_PI) for n in (0, 1)]
    g = [[(-1.0 if m and n else 1.0) * cos_t[m] * cos_p[n] for n in (0, 1)] for m in (0, 1)]
    return EveIsometry([g[0], g[1], g[1][::-1], g[0][::-1]])


def attacked_pure_state(params: AttackParams) -> np.ndarray:
    """Exact post-attack pure state of ``SINGLET_KET`` (x) |0>_E, shape (2, 2, 2) over (A, B, E)."""
    rows = build_isometry(params).probe_components.reshape(2, 2, 2)
    psi = np.einsum("ab,bce->ace", SINGLET_KET.reshape(2, 2), rows)
    psi.setflags(write=False)
    return psi


def attacked_state(params: AttackParams) -> DensityMatrix:
    """Density matrix of the attacked singlet, qubits in (A, B, E) order: sender, receiver, probe."""
    return DensityMatrix.from_ket(attacked_pure_state(params).reshape(-1))


def bipartite_reductions(
    rho_abe: DensityMatrix,
) -> tuple[DensityMatrix, DensityMatrix, DensityMatrix]:
    """Sender-receiver, sender-probe and receiver-probe: positions (0, 1), (0, 2), (1, 2) of an (A, B, E) state."""
    if rho_abe.entries.shape != (8, 8):
        raise ValueError(f"expected a three-party state, got shape {rho_abe.entries.shape}")
    return (
        partial_trace(rho_abe, (0, 1)),
        partial_trace(rho_abe, (0, 2)),
        partial_trace(rho_abe, (1, 2)),
    )
