"""Reference implementations of the two-qubit information rates and readings,
and the small state and table algebra that only the tests use.

The information rates are the original double-sphere evaluations: the joint
outcome density is built node pair by node pair from the eigendecomposition
of the state and the complex outcome kets of the quadrature, and the
integrand p log2(p / (p_x p_y)) is summed over both spheres.  They are slow
(O(N^2) per call) and carry the integrable log singularity of the integrand,
so their own error at the 32x64 rule reaches ~7e-7 bits on the singlet.

The two-basis information, the sphere-averaged disturbance and the attack
itself are evaluated here the original way too: Born-rule expectations on
complex kets, the Kraus pair of the induced channel, and the Kronecker-
extended isometry acting on a three-qubit density matrix.  The package
computes all of these from the Fano form or the cached post-attack ket; the
tests compare the two.

The discrete 2x2 mutual information (``JointTable``, ``mutual_information``),
the orientation average of the two-basis information
(``averaged_selected_information``), the product and maximally mixed states
(``tensor``, ``maximally_mixed``) and the scalar dimension threshold
(``critical_cier_dim``) are test helpers: no package path computes with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from contqkd import (
    AttackParams,
    DensityMatrix,
    EveIsometry,
    NumericalCorruptionError,
    SphereQuadrature,
    accessible_information,
    build_isometry,
    partial_trace,
)
from contqkd.infocalc import _fano_form, _table_information

SPHERE_VOLUME = 2.0
DENSITY_FLOOR = 1e-300

_BLOCK = 256  # row block size for the orientation-average sweep


def maximally_mixed(labels: Sequence[str]) -> DensityMatrix:
    """Identity / dim on the given qubit labels."""
    dim = 2 ** len(labels)
    return DensityMatrix(np.eye(dim, dtype=complex) / dim, labels)


def tensor(rho: DensityMatrix, sigma: DensityMatrix) -> DensityMatrix:
    """Kronecker product with concatenated labels; colliding labels raise ValueError."""
    overlap = set(rho.labels) & set(sigma.labels)
    if overlap:
        raise ValueError(f"labels occur on both factors: {sorted(overlap)}")
    return DensityMatrix(np.kron(rho.entries, sigma.entries), rho.labels + sigma.labels)


@dataclass(frozen=True, eq=False)
class JointTable:
    """2x2 joint probability table of two binary measurements."""

    probs: np.ndarray

    def __init__(self, probs: np.ndarray) -> None:
        p = np.array(probs, dtype=float)
        if p.shape != (2, 2):
            raise ValueError(f"joint table must be 2x2, got shape {p.shape}")
        if p.min() < -1e-12:
            raise ValueError(f"negative probability {p.min()!r} in joint table")
        p = np.clip(p, 0.0, None)
        total = float(p.sum())
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"joint table sums to {total!r}, expected 1")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)


def _entropy_bits(p: np.ndarray) -> float:
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def mutual_information(table: JointTable) -> float:
    """I = S_X + S_Y - S_XY in bits, with the 0 log 0 = 0 convention.

    For a valid 2x2 table the result lies in [0, 1]; tiny negative roundoff
    is clamped to 0.
    """
    p = table.probs
    i = _entropy_bits(p.sum(axis=1)) + _entropy_bits(p.sum(axis=0)) - _entropy_bits(p.reshape(-1))
    return max(0.0, i)


def averaged_selected_information(
    rho_xy: DensityMatrix, quad_x: SphereQuadrature, quad_y: SphereQuadrature
) -> float:
    """Orientation average of the two-basis mutual information, in bits.

    Averages the selected information of the Fano-form tables over both
    basis spheres with the volume measure, normalized by V^2 = 4; the tests
    check that this average reproduces the continuous-readout value.
    """
    a, b, t = _fano_form(rho_xy)
    bm = (quad_y.vectors @ b)[None, :]
    row_totals = np.zeros(len(quad_x))
    for start in range(0, len(quad_x), _BLOCK):
        nx = quad_x.vectors[start : start + _BLOCK]
        info = _table_information((nx @ a)[:, None], bm, (nx @ t) @ quad_y.vectors.T)
        row_totals[start : start + _BLOCK] = (info * quad_y.weights[None, :]).sum(axis=1)
    total = math.fsum((row_totals * quad_x.weights).tolist())
    return max(0.0, total / (SPHERE_VOLUME**2))


def critical_cier_dim(d: int) -> float:
    """Threshold information error rate in dimension d: 1 - accessible / log2(d)."""
    return 1.0 - accessible_information(d) / math.log2(d)


def node_kets(quad: SphereQuadrature) -> tuple[np.ndarray, np.ndarray]:
    """Outcome kets of every node and of its antipode, each shape (N, 2)."""
    return outcome_kets(quad.u, quad.phi)


def outcome_kets(u: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outcome kets of the directions (u, phi) and of their antipodes, each shape (N, 2)."""
    c = np.sqrt((1.0 + u) / 2.0)
    s = np.sqrt((1.0 - u) / 2.0)
    ph = np.exp(1j * phi)
    kets = np.stack([c.astype(complex), ph * s], axis=1)
    anti = np.stack([s.astype(complex), -ph * c], axis=1)
    return kets, anti


def _pair_density(rho4: np.ndarray, kets_x: np.ndarray, kets_y: np.ndarray) -> np.ndarray:
    """Joint density <v_i w_j| rho |v_i w_j> for all node pairs, shape (N, M)."""
    evals, evecs = np.linalg.eigh(rho4)
    p = np.zeros((kets_x.shape[0], kets_y.shape[0]))
    for r in range(4):
        lam = float(evals[r])
        if abs(lam) < 1e-16:
            continue
        psi = evecs[:, r].reshape(2, 2)
        amp = (kets_x.conj() @ psi) @ kets_y.conj().T
        p += lam * (amp.real**2 + amp.imag**2)
    low = float(p.min())
    if low < -1e-10:
        raise NumericalCorruptionError(f"joint density dipped to {low!r}")
    return np.clip(p, 0.0, None)


def _marginal_density(rho2: np.ndarray, kets: np.ndarray) -> np.ndarray:
    d = np.einsum("ia,ab,ib->i", kets.conj(), rho2, kets).real
    low = float(d.min())
    if low < -1e-10:
        raise NumericalCorruptionError(f"marginal density dipped to {low!r}")
    return np.clip(d, 0.0, None)


def _mi_integrand(p: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    lp = np.log2(np.maximum(p, DENSITY_FLOOR))
    lx = np.log2(np.maximum(px, DENSITY_FLOOR))
    ly = np.log2(np.maximum(py, DENSITY_FLOOR))
    return p * (lp - lx[:, None] - ly[None, :])


def _weighted_sum(values: np.ndarray, w_rows: np.ndarray, w_cols: np.ndarray) -> float:
    rows = (values * w_cols[None, :]).sum(axis=1)
    return math.fsum((rows * w_rows).tolist())


def _marginals(rho_xy: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    rho_x = partial_trace(rho_xy, (rho_xy.labels[0],)).entries
    rho_y = partial_trace(rho_xy, (rho_xy.labels[1],)).entries
    return rho_x, rho_y


def nonselected_information(
    rho_xy: DensityMatrix, quad_x: SphereQuadrature, quad_y: SphereQuadrature
) -> float:
    """Double-quadrature mutual information of the all-states readout, bits."""
    kx, _ = node_kets(quad_x)
    ky, _ = node_kets(quad_y)
    rho_x, rho_y = _marginals(rho_xy)
    p = _pair_density(rho_xy.entries, kx, ky)
    px = _marginal_density(rho_x, kx)
    py = _marginal_density(rho_y, ky)
    total = _weighted_sum(_mi_integrand(p, px, py), quad_x.weights, quad_y.weights)
    return max(0.0, total)


def reconciled_i_ab(rho_ab: DensityMatrix, quad: SphereQuadrature) -> float:
    """Shared-basis selected information averaged over one sphere, bits."""
    kets = node_kets(quad)
    rx, ry = _marginals(rho_ab)
    px = (_marginal_density(rx, kets[0]), _marginal_density(rx, kets[1]))
    py = (_marginal_density(ry, kets[0]), _marginal_density(ry, kets[1]))

    evals, evecs = np.linalg.eigh(rho_ab.entries)
    total = np.zeros(len(quad))
    for k in (0, 1):
        for l in (0, 1):
            p = np.zeros(len(quad))
            for r in range(4):
                lam = float(evals[r])
                if abs(lam) < 1e-16:
                    continue
                psi = evecs[:, r].reshape(2, 2)
                amp = np.einsum("ia,ab,ib->i", kets[k].conj(), psi, kets[l].conj())
                p += lam * (amp.real**2 + amp.imag**2)
            p = np.clip(p, 0.0, None)
            total += p * (
                np.log2(np.maximum(p, DENSITY_FLOOR))
                - np.log2(np.maximum(px[k], DENSITY_FLOOR))
                - np.log2(np.maximum(py[l], DENSITY_FLOOR))
            )
    value = math.fsum((total * quad.weights).tolist()) / SPHERE_VOLUME
    return max(0.0, value)


def vector_kets(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outcome kets of the unit Bloch vector n and of its antipode -n."""
    kets, anti = outcome_kets(np.clip(n[2:], -1.0, 1.0), np.arctan2(n[1:2], n[0:1]))
    return kets[0], anti[0]


def selected_information(rho_xy: DensityMatrix, n: np.ndarray, m: np.ndarray) -> float:
    """Two-basis mutual information from the Born rule on complex kets, bits."""
    kx, ky = vector_kets(n), vector_kets(m)
    probs = np.empty((2, 2))
    for k in (0, 1):
        for l in (0, 1):
            v = np.kron(kx[k], ky[l])
            probs[k, l] = float((v.conj() @ rho_xy.entries @ v).real)
    return mutual_information(JointTable(probs / probs.sum()))


def extension_matrix(iso: EveIsometry) -> np.ndarray:
    """The 4x2 isometry V of ``iso`` entry by entry: v[2c + e, b] = rows[2b + c, e]."""
    v = np.zeros((4, 2), dtype=complex)
    for b in (0, 1):
        for c in (0, 1):
            for e in (0, 1):
                v[2 * c + e, b] = iso.probe_components[2 * b + c, e]
    return v


def kraus_pair(params: AttackParams) -> tuple[np.ndarray, np.ndarray]:
    """Kraus operators of the induced channel on the receiver, by probe outcome."""
    v = build_isometry(params).extension_matrix()
    return v[0::2, :], v[1::2, :]


def qber_sphere_averaged(params: AttackParams, quad: SphereQuadrature) -> float:
    """1 - sphere mean of the channel fidelity <psi| L(|psi><psi|) |psi>."""
    kets, _ = node_kets(quad)
    fid = np.zeros(len(quad))
    for a in kraus_pair(params):
        amp = np.einsum("ia,ab,ib->i", kets.conj(), a, kets)
        fid += amp.real**2 + amp.imag**2
    avg = math.fsum((fid * quad.weights).tolist()) / SPHERE_VOLUME
    return max(0.0, 1.0 - avg)


def apply_attack(initial: DensityMatrix, iso: EveIsometry) -> DensityMatrix:
    """Evolve a (sender, channel, probe) state whose probe is in |0> through the coupling."""
    arr = initial.entries.reshape(2, 2, 2, 2, 2, 2)
    sigma = np.ascontiguousarray(arr[:, :, 0, :, :, 0]).reshape(4, 4)
    k = np.kron(np.eye(2, dtype=complex), iso.extension_matrix())
    return DensityMatrix(k @ sigma @ k.conj().T, initial.labels)
