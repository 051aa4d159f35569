"""Reference implementations of the two-qubit information rates.

These are the original double-sphere evaluations: the joint outcome density
is built node pair by node pair from the eigendecomposition of the state and
the complex outcome kets of the quadrature, and the integrand
p log2(p / (p_x p_y)) is summed over both spheres.  They are slow (O(N^2)
per call) and carry the integrable log singularity of the integrand, so
their own error at the 32x64 rule reaches ~7e-7 bits on the singlet.  The
package computes the same rates from the Fano form; the tests compare the
two.
"""

from __future__ import annotations

import math

import numpy as np

from contqkd import DensityMatrix, NumericalCorruptionError, SphereQuadrature, partial_trace

SPHERE_VOLUME = 2.0
DENSITY_FLOOR = 1e-300


def node_kets(quad: SphereQuadrature) -> tuple[np.ndarray, np.ndarray]:
    """Outcome kets of every node and of its antipode, each shape (N, 2)."""
    c = np.sqrt((1.0 + quad.u) / 2.0)
    s = np.sqrt((1.0 - quad.u) / 2.0)
    ph = np.exp(1j * quad.phi)
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
