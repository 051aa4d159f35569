"""Information functionals over qubit pairs.

Two routes to a mutual-information number live here:

* ``selected_information`` — Shannon mutual information, in bits, of a pair
  state read out along fixed unit Bloch vectors n and m (one orthogonal
  basis per party).
* ``nonselected_information`` — the continuous-measurement variant: both
  parties read out with the resolution of the identity over *all* pure
  states, d(measure) = sin(theta) dtheta dphi / (2 pi), and the mutual
  information of the resulting joint density is evaluated by spherical
  quadrature.

Every two-qubit state enters in its Fano form (U. Fano, Rev. Mod. Phys. 55,
855 (1983); R. and M. Horodecki, Phys. Rev. A 54, 1838 (1996)): Bloch vectors
a, b and correlation tensor T, with joint outcome density
p(n, m) = (1 + a.n + b.m + n.T.m)/4.  Being linear in m for fixed n, it has
a closed-form inner sphere integral, and only the outer sphere is discretized
by a product rule: Gauss-Legendre in u = cos(theta) times a uniform periodic
rule in phi.  The singlet value is exact to roundoff; on generic states the
default 32x64 rule agrees with a 128x256 rule to a few 1e-9 bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qstate import DensityMatrix, NumericalCorruptionError

# Total sphere volume under the measure sin(theta) dtheta dphi / (2 pi).
SPHERE_VOLUME = 2.0

# Below this a probability density is treated as exactly zero (0 log 0 = 0).
DENSITY_FLOOR = 1e-300

# A continuous-readout rate below this many bits is roundoff of an exactly
# zero rate (product states come out within +-3e-16) and reads as 0.0.
ZERO_BITS = 1e-14

# Below this ratio r/alpha the inner sphere integral uses its Taylor series.
_SERIES_X = 1e-2

# Identity and Pauli matrices x, y, z stacked along the first axis.
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


@dataclass(frozen=True, eq=False)
class SphereQuadrature:
    """Node/weight set discretizing the Bloch-sphere measure.

    ``u``, ``phi`` and ``weights`` are flat arrays of equal length; weights
    sum to the sphere volume 2 and integrate degree <= 2 polynomials in the
    Cartesian direction components exactly.  ``vectors`` caches the unit
    Bloch vector of every node, shape (N, 3).
    """

    u: np.ndarray
    phi: np.ndarray
    weights: np.ndarray
    vectors: np.ndarray

    def __init__(self, u: np.ndarray, phi: np.ndarray, weights: np.ndarray) -> None:
        u = np.asarray(u, dtype=float).reshape(-1)
        phi = np.asarray(phi, dtype=float).reshape(-1)
        w = np.asarray(weights, dtype=float).reshape(-1)
        if not (u.size == phi.size == w.size) or u.size == 0:
            raise ValueError("u, phi and weights must be equal-length nonempty arrays")
        if not (np.isfinite(u).all() and np.isfinite(phi).all() and np.isfinite(w).all()):
            raise ValueError("quadrature nodes and weights must be finite")
        if w.min() <= 0.0:
            raise ValueError("quadrature weights must be positive")
        if abs(math.fsum(w.tolist()) - SPHERE_VOLUME) > 1e-10:
            raise ValueError("quadrature weights do not sum to the sphere volume 2")
        sin_t = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
        vectors = np.stack([sin_t * np.cos(phi), sin_t * np.sin(phi), u], axis=1)
        residual = _moment_residual(vectors, w)
        if residual > 1e-10:
            raise ValueError(f"quadrature fails the degree-2 moment test: residual {residual:.3e}")

        for arr in (u, phi, w, vectors):
            arr.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "vectors", vectors)

    @classmethod
    def gauss_product(cls, n_polar: int = 32, n_azimuth: int = 64) -> "SphereQuadrature":
        """Gauss-Legendre x uniform-azimuth product rule.

        n_polar >= 2 Legendre nodes in u = cos(theta); n_azimuth >= 4
        midpoint nodes in phi (exact for trigonometric polynomials of degree
        < n_azimuth by periodicity).
        """
        if n_polar < 2 or n_azimuth < 4:
            raise ValueError("need at least 2 polar and 4 azimuthal nodes")
        x, wx = np.polynomial.legendre.leggauss(int(n_polar))
        phi = (np.arange(n_azimuth) + 0.5) * (2.0 * math.pi / n_azimuth)
        u = np.repeat(x, n_azimuth)
        ph = np.tile(phi, n_polar)
        w = np.repeat(wx, n_azimuth) / float(n_azimuth)
        return cls(u, ph, w)

    def __len__(self) -> int:
        return int(self.u.size)


def _moment_residual(vectors: np.ndarray, w: np.ndarray) -> float:
    """Worst deviation of the first and second direction moments.

    Exact values under the sphere measure: integral of n_i is 0, of
    n_i n_j is (2/3) delta_ij.
    """
    first = np.abs(w @ vectors).max()
    second = np.abs((vectors.T * w) @ vectors - (2.0 / 3.0) * np.eye(3)).max()
    return float(max(first, second))


@lru_cache(maxsize=1)
def default_quadrature() -> SphereQuadrature:
    """Shared default 32x64 rule; cached because its nodes are reused heavily."""
    return SphereQuadrature.gauss_product()


def _require_two_qubits(rho: DensityMatrix) -> None:
    if len(rho.labels) != 2:
        raise ValueError(f"expected a two-qubit state, got labels {rho.labels}")


def _require_density(low: float, kind: str) -> None:
    """Raise when the lowest value of a density lies beyond roundoff below 0."""
    if low < -1e-10:
        raise NumericalCorruptionError(f"{kind} density dipped to {low!r}")


def _fano_form(rho_xy: DensityMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local Bloch vectors ``a``, ``b`` and correlation tensor ``T`` of a pair.

    a_i = Tr rho (s_i x 1), b_j = Tr rho (1 x s_j) and T_ij = Tr rho (s_i x s_j),
    so the outcome density of directions n, m is (1 + a.n + b.m + n.T.m)/4
    and the one-party densities are (1 + a.n)/2 and (1 + b.m)/2.  A marginal
    density that would dip below -1e-10 somewhere on the sphere raises
    NumericalCorruptionError.
    """
    _require_two_qubits(rho_xy)
    r = rho_xy.entries.reshape(2, 2, 2, 2)  # <ij| rho |kl> at [i, j, k, l]
    corr = np.einsum("ijkl,pki,qlj->pq", r, _PAULI, _PAULI).real
    a, b, t = corr[1:, 0], corr[0, 1:], corr[1:, 1:]
    _require_density(0.5 - 0.5 * float(max(np.linalg.norm(a), np.linalg.norm(b))), "marginal")
    return a, b, t


def _sphere_relative_entropy(alpha: np.ndarray | float, r: np.ndarray | float) -> np.ndarray:
    """Sphere integral of p ln(p / alpha), nats, for p(m) = alpha + c.m, |c| = r.

    The integral of p ln p is [h(alpha + r) - h(alpha - r)] / r with
    h(x) = x^2 ln(x)/2 - x^2/4, which equals 2 alpha ln(alpha) + alpha g(r/alpha)
    for g(x) = [(1 + x)^2 ln(1 + x) - (1 - x)^2 ln(1 - x)] / (2x) - 1.  This
    returns alpha g(r/alpha), with the Taylor series of g for r << alpha;
    lanes with alpha <= 0 (where positivity forces r ~ 0) give 0.
    """
    x = np.divide(r, alpha, out=np.zeros(np.broadcast(alpha, r).shape), where=alpha > 0.0)
    x = np.minimum(x, 1.0)
    x2 = x * x
    series = x2 * (1.0 / 3.0 + x2 * (1.0 / 30.0 + x2 * (1.0 / 105.0 + x2 / 252.0)))
    xs = np.where(x < _SERIES_X, 1.0, x)
    tail = (1.0 - xs) ** 2 * np.log1p(-np.where(xs < 1.0, xs, 0.0))
    closed = ((1.0 + xs) ** 2 * np.log1p(xs) - tail) / (2.0 * xs) - 1.0
    return alpha * np.where(x < _SERIES_X, series, closed)


def nonselected_information(
    rho_xy: DensityMatrix,
    quad_x: SphereQuadrature | None = None,
    quad_y: SphereQuadrature | None = None,
) -> float:
    """Mutual information of the all-states continuous readout, in bits.

    I = integral p ln p - integral p_x ln p_x - integral p_y ln p_y.  For each
    direction n the Fano-form density is linear in m, with alpha = (1 + a.n)/4
    and r = |b + T^T n|/4, so the inner integral is exact and ``quad_y`` is
    not used.  Since p_x = 2 alpha node by node and the p_y term is the same
    closed form at alpha = 1/2, r = |b|/2, the p ln(alpha) parts of the three
    terms cancel and only the bounded remainder is summed over ``quad_x``, in
    a fixed order, so the result is bit-reproducible.  Values below
    ``ZERO_BITS`` read as 0.0.
    """
    qx = quad_x if quad_x is not None else default_quadrature()
    a, b, t = _fano_form(rho_xy)
    alpha = 0.25 * (1.0 + qx.vectors @ a)
    r = 0.25 * np.linalg.norm(b + qx.vectors @ t, axis=1)
    _require_density(float((alpha - r).min()), "joint")
    joint = math.fsum((qx.weights * _sphere_relative_entropy(alpha, r)).tolist())
    marginal = float(_sphere_relative_entropy(0.5, 0.5 * float(np.linalg.norm(b))))
    value = (joint - marginal) / math.log(2.0)
    return value if value > ZERO_BITS else 0.0


def _plog2p(p: np.ndarray) -> np.ndarray:
    _require_density(float(p.min()), "table")
    p = np.clip(p, 0.0, None)
    return p * np.log2(np.maximum(p, DENSITY_FLOOR))


def _table_information(an: np.ndarray, bm: np.ndarray, corr: np.ndarray) -> np.ndarray:
    """Mutual information, bits, of the 2x2 tables (1 +- a.n +- b.m +- n.T.m)/4.

    Row k of a table reads the first qubit along +-n, column l the second
    along +-m; the arguments broadcast to one table per element.
    """
    s = np.array([1.0, -1.0]).reshape((2,) + (1,) * np.ndim(corr))
    sx, sy = s[:, None], s[None, :]
    joint = 0.25 * (1.0 + sx * an + sy * bm + (sx * sy) * corr)
    px = 0.5 * (1.0 + s * an)
    py = 0.5 * (1.0 + s * bm)
    return _plog2p(joint).sum(axis=(0, 1)) - _plog2p(px).sum(axis=0) - _plog2p(py).sum(axis=0)


def _unit_vector(v: np.ndarray, name: str) -> np.ndarray:
    n = np.asarray(v, dtype=float)
    if n.shape != (3,) or not np.isfinite(n).all() or abs(float(np.linalg.norm(n)) - 1.0) > 1e-9:
        raise ValueError(f"{name} must be a finite unit Bloch vector, got {v!r}")
    return n


def selected_information(rho_xy: DensityMatrix, n: np.ndarray, m: np.ndarray) -> float:
    """Mutual information of fixed orthogonal readouts at both parties, bits.

    The first party reads along the unit Bloch vector +-n, the second along
    +-m, so the outcome table is (1 +- a.n +- b.m +- n.T.m)/4.  Symmetric
    under simultaneously swapping the parties and their directions.
    """
    n, m = _unit_vector(n, "n"), _unit_vector(m, "m")
    a, b, t = _fano_form(rho_xy)
    return max(0.0, float(_table_information(n @ a, m @ b, n @ t @ m)))
