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

The Monte Carlo round law is the original complex Born rule too: the two
outcome kets of each direction (``basis_kets``) contracted with the post-attack
ket in one three-operand ``einsum`` (``outcome_probabilities``).  The package
samples from the real law (v_A (x) v_B) @ W instead; the tests compare the two.

``attack_fano_forms`` and ``attack_readings`` are the attack in closed form:
the Fano forms of the three reductions of the attacked singlet, and the
three disturbance readings, as trigonometric polynomials of (theta, phi)
worked out by hand.  They do not go through the isometry, so they check it
from outside; no package path reads them.

``render_transcript`` is the original round-by-round transcript renderer, the
reference for the column-wise CSV writer and the JSON transcript rows.
``sift``, ``party_codes`` and ``plugin_mi`` are the original whole-array
sift, histogram symbols and plug-in information count, the references for
the package's block-wise ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from contqkd import (
    AttackParams,
    DensityMatrix,
    EveIsometry,
    NumericalCorruptionError,
    SphereQuadrature,
    build_isometry,
    partial_trace,
)
from contqkd.infocalc import fano_form, table_information

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
    a, b, t = fano_form(rho_xy)
    bm = (quad_y.vectors @ b)[None, :]
    row_totals = np.zeros(quad_x.u.size)
    for start in range(0, quad_x.u.size, _BLOCK):
        nx = quad_x.vectors[start : start + _BLOCK]
        info = table_information((nx @ a)[:, None], bm, (nx @ t) @ quad_y.vectors.T)
        row_totals[start : start + _BLOCK] = (info * quad_y.weights[None, :]).sum(axis=1)
    total = math.fsum((row_totals * quad_x.weights).tolist())
    return max(0.0, total / (SPHERE_VOLUME**2))


def critical_cier_dim(d: int) -> float:
    """Threshold information error rate in dimension d: 1 - accessible / log2(d).

    The accessible information log2(d) - (1/ln 2) sum_{k=2..d} 1/k is summed
    here with ``math.fsum``, independently of the package's table.
    """
    accessible = math.log2(d) - math.fsum(1.0 / k for k in range(2, d + 1)) / math.log(2.0)
    return 1.0 - accessible / math.log2(d)


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


def basis_kets(u: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Stack of the two basis kets (along n, along -n) per direction, shape (n, 2, 2)."""
    return np.stack(outcome_kets(u, phi), axis=1)


def outcome_probabilities(
    state: np.ndarray, u_a: np.ndarray, phi_a: np.ndarray, u_b: np.ndarray, phi_b: np.ndarray
) -> np.ndarray:
    """Joint Born distribution over (alice_bit, bob_bit, eve_bit), shape (n, 8), from complex kets."""
    ka = basis_kets(u_a, phi_a)
    kb = basis_kets(u_b, phi_b)
    amps = np.einsum("naj,nbk,jke->nabe", ka.conj(), kb.conj(), state)
    return (amps.real**2 + amps.imag**2).reshape(-1, 8)


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
    total = np.zeros(quad.u.size)
    for k in (0, 1):
        for l in (0, 1):
            p = np.zeros(quad.u.size)
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
    v = extension_matrix(build_isometry(params))
    return v[0::2, :], v[1::2, :]


def qber_sphere_averaged(params: AttackParams, quad: SphereQuadrature) -> float:
    """1 - sphere mean of the channel fidelity <psi| L(|psi><psi|) |psi>."""
    kets, _ = node_kets(quad)
    fid = np.zeros(quad.u.size)
    for a in kraus_pair(params):
        amp = np.einsum("ia,ab,ib->i", kets.conj(), a, kets)
        fid += amp.real**2 + amp.imag**2
    avg = math.fsum((fid * quad.weights).tolist()) / SPHERE_VOLUME
    return max(0.0, 1.0 - avg)


# Entrywise bound of the package's Fano forms and readings against the closed
# forms below.  Measured on 5,000 uniform points per range, the worst entry
# is 6.7e-16 on [0, pi/4]^2, 1.1e-15 on [-pi, pi]^2 and 1.8e-15 on [-7, 7]^2,
# and the readings stay within 7.8e-16.
CLOSED_FORM_TOL = 4e-15


def attack_fano_forms(theta: float, phi: float) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Fano forms (a, b, T) of rho_AB, rho_AE and rho_BE of the attacked singlet.

    With c = cos, s = sin and x the unit x vector:
    rho_AB has a = 0, b = c2phi s2theta x, T = -diag(s2phi c2theta, s2phi, c2theta);
    rho_AE has a = 0, b = s2phi c2theta x, T = -diag(c2phi s2theta, s2theta, c2phi);
    rho_BE has a = c2phi s2theta x, b = s2phi c2theta x, T = diag(0, s2theta s2phi, c2theta c2phi).
    """
    c2t, s2t, c2p, s2p = math.cos(2.0 * theta), math.sin(2.0 * theta), math.cos(2.0 * phi), math.sin(2.0 * phi)
    x, zero = np.array([1.0, 0.0, 0.0]), np.zeros(3)
    return (
        (zero, c2p * s2t * x, -np.diag([s2p * c2t, s2p, c2t])),
        (zero, s2p * c2t * x, -np.diag([c2p * s2t, s2t, c2p])),
        (c2p * s2t * x, s2p * c2t * x, np.diag([0.0, s2t * s2p, c2t * c2p])),
    )


def attack_readings(theta: float, phi: float) -> tuple[float, float, float]:
    """(qber, sphere-averaged disturbance, pair-fidelity deficit) of the attack, in closed form.

    qber = sin^2 theta; with tr T = -(s2phi c2theta + s2phi + c2theta) of rho_AB,
    the sphere average is (1 + tr T / 3)/2 and the deficit (3 + tr T)/4,
    which is 1 - cos^4 theta on the optimal line.
    """
    c2t, s2p = math.cos(2.0 * theta), math.sin(2.0 * phi)
    trace = -(s2p * c2t + s2p + c2t)
    return math.sin(theta) ** 2, 0.5 * (1.0 + trace / 3.0), 0.25 * (3.0 + trace)


def apply_attack(initial: DensityMatrix, iso: EveIsometry) -> DensityMatrix:
    """Evolve a (sender, channel, probe) state whose probe is in |0> through the coupling."""
    arr = initial.entries.reshape(2, 2, 2, 2, 2, 2)
    sigma = np.ascontiguousarray(arr[:, :, 0, :, :, 0]).reshape(4, 4)
    k = np.kron(np.eye(2, dtype=complex), extension_matrix(iso))
    return DensityMatrix(k @ sigma @ k.conj().T, initial.labels)


def render_transcript(transcript) -> str:
    """Transcript file text, one round at a time in the documented field order."""
    lines = ["round,disclosed,alice_u,alice_phi,alice_bit,bob_u,bob_phi,bob_bit,eve_bit"]
    for i in range(len(transcript)):
        lines.append(
            ",".join(
                (
                    str(i),
                    str(int(transcript.disclosed[i])),
                    repr(float(transcript.alice_u[i])),
                    repr(float(transcript.alice_phi[i])),
                    str(int(transcript.alice_bit[i])),
                    repr(float(transcript.bob_u[i])),
                    repr(float(transcript.bob_phi[i])),
                    str(int(transcript.bob_bit[i])),
                    str(int(transcript.eve_bit[i])),
                )
            )
        )
    return "\n".join(lines) + "\n"


def _antipode(u: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return -u, np.mod(phi + math.pi, 2.0 * math.pi)


def sift(transcript, partition):
    """Same-or-antipodal cell sift over whole columns, the receiver's bit flipped on antipodal matches."""
    cell_a = partition.cell_index(transcript.alice_u, transcript.alice_phi)
    cell_b = partition.cell_index(transcript.bob_u, transcript.bob_phi)
    cell_b_anti = partition.cell_index(*_antipode(transcript.bob_u, transcript.bob_phi))
    same = cell_a == cell_b
    anti = (cell_a == cell_b_anti) & ~same
    kept = transcript.subset(same | anti)
    flip = anti[same | anti]
    bob_bit = kept.bob_bit.copy()
    bob_bit[flip] ^= 1
    return replace(kept, bob_bit=bob_bit)


def party_codes(transcript, party: str, binning, fold_antipodal: bool) -> np.ndarray:
    """Histogram symbol of each round of one party over whole columns: direction cell and bit."""
    u, phi, bit = (getattr(transcript, f"{party}_{column}") for column in ("u", "phi", "bit"))
    if fold_antipodal:
        anti = binning.cell_index(*_antipode(u, phi))
        return np.where(bit.astype(bool), anti, binning.cell_index(u, phi))
    return binning.cell_index(u, phi) * 2 + bit.astype(np.int64)


def plugin_mi(codes_x: np.ndarray, codes_y: np.ndarray, miller_madow: bool) -> float:
    """Plug-in mutual information of two whole integer code streams, in bits."""
    n = codes_x.size
    if n == 0:
        raise ValueError("cannot estimate information from an empty record set")
    span = int(codes_y.max()) + 1
    pairs = codes_x.astype(np.int64) * span + codes_y.astype(np.int64)
    uj, cj = np.unique(pairs, return_counts=True)
    ux, cx = np.unique(codes_x, return_counts=True)
    uy, cy = np.unique(codes_y, return_counts=True)
    nx = cx[np.searchsorted(ux, uj // span)]
    ny = cy[np.searchsorted(uy, uj % span)]
    mi = float(np.sum((cj / n) * np.log2(cj.astype(float) * n / (nx * ny))))
    if miller_madow:
        mi -= (uj.size - ux.size - uy.size + 1) / (2.0 * n * math.log(2.0))
    return max(0.0, mi)
