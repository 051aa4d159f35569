"""Information functionals over qubit pairs.

Two routes to a mutual-information number live here:

* ``table_information`` — Shannon mutual information, in bits, of the 2x2
  outcome tables of a pair state read out along fixed unit Bloch vectors n
  and m (one orthogonal basis per party); ``security.reconciled_i_ab``
  averages its shared-basis value (m = n) over the sphere of directions.
* ``nonselected_information`` — the continuous-measurement variant: both
  parties read out with the resolution of the identity over *all* pure
  states, d(measure) = sin(theta) dtheta dphi / (2 pi), and the mutual
  information of the resulting joint density is evaluated by spherical
  quadrature.

Every two-qubit state enters in its Fano form (U. Fano, Rev. Mod. Phys. 55,
855 (1983); R. and M. Horodecki, Phys. Rev. A 54, 1838 (1996)): Bloch vectors
a, b and correlation tensor T, with joint outcome density
p(n, m) = (1 + a.n + b.m + n.T.m)/4.  Being linear in m for fixed n, it has
a closed-form inner sphere integral, and only the outer sphere is discretized,
by a ``SphereQuadrature``: the product of Gauss-Legendre in u = cos(theta)
and a uniform periodic rule in phi, built by its one public constructor
``SphereQuadrature.gauss_product``, for every rule a caller picks (the one
other rule, ``security``'s fixed rule for the reconciled rate on the optimal
line, is private to it).  The singlet value is exact
to roundoff; against a 128x256 rule ``DEFAULT_RULE`` is off by up to 3.8e-8
bits at the points of the CLI's default 17x17 ``surface`` grid (``i_be`` at
theta 0.7363, phi 0).  ``surface`` evaluates only the first point of each
symmetry orbit, where theta is small, and copies the rest, so what it prints
on its 9x9 and 17x17 grids is within 8.1e-10 bits of a 256x512 rule.
This module owns directions: ``bloch_vectors`` maps (u, phi) to the unit
Bloch vector for the quadrature nodes and for every direction ``protosim`` draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qstate import PSD_FLOOR, DensityMatrix, NumericalCorruptionError, check_int, pauli_tensor

# Total sphere volume under the measure sin(theta) dtheta dphi / (2 pi).
SPHERE_VOLUME = 2.0

# Below this a probability density is treated as exactly zero (0 log 0 = 0).
DENSITY_FLOOR = 1e-300

# A continuous-readout rate below this many bits is roundoff of an exactly
# zero rate (product states come out within +-3e-16) and reads as 0.0.
ZERO_BITS = 1e-14

# Below this ratio r/alpha the inner sphere integral uses its Taylor series.
_SERIES_X = 1e-2

# (polar, azimuth) node counts of ``default_quadrature`` and the command-line defaults.
DEFAULT_RULE = (32, 64)


def bloch_vectors(u: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Unit Bloch vectors (s cos phi, s sin phi, u), s = sqrt(1 - u^2) clipped at 0, shape (m, 3)."""
    sin_t = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
    return np.stack([sin_t * np.cos(phi), sin_t * np.sin(phi), u], axis=1)


@dataclass(frozen=True, eq=False, init=False)
class SphereQuadrature:
    """Gauss-Legendre x uniform-azimuth product rule on the Bloch sphere.

    ``gauss_product`` is the one public constructor (K. Atkinson, "Numerical
    integration on the sphere", J. Austral. Math. Soc. B 23, 332 (1982)).
    A rule is its nodes' unit Bloch vectors ``vectors``, shape (N, 3), and
    their ``weights``, shape (N,), read-only in a rule ``gauss_product`` built
    (a pickled or deep-copied rule has writeable arrays sharing no memory with
    the original's).  In a rule ``gauss_product`` built, the weights are
    positive, sum to the sphere volume 2 and integrate degree <= 2
    polynomials in the direction components exactly, by construction;
    ``security``'s private line rule is an instance too, exact only for
    integrands symmetric about x, and none of this holds for it.
    """

    weights: np.ndarray
    vectors: np.ndarray

    @classmethod
    @lru_cache(maxsize=8, typed=True)
    def gauss_product(cls, n_polar: int, n_azimuth: int) -> "SphereQuadrature":
        """The product rule of n_polar x n_azimuth nodes.

        n_polar >= 2 Legendre nodes in u = cos(theta); n_azimuth >= 4
        midpoint nodes in phi (exact for trigonometric polynomials of degree
        < n_azimuth by periodicity), polar-major.  Both counts must be integers
        (``qstate.check_int``); anything else raises ValueError.  The last 8
        rules are cached and shared, which their read-only arrays make safe;
        the cache is keyed by type too, so 32.0 never finds the rule of 32.
        """
        check_int("n_polar", n_polar, 2)
        check_int("n_azimuth", n_azimuth, 4)
        x, wx = np.polynomial.legendre.leggauss(int(n_polar))
        phi = (np.arange(n_azimuth) + 0.5) * (2.0 * math.pi / n_azimuth)
        u = np.repeat(x, n_azimuth)
        ph = np.tile(phi, n_polar)
        w = np.repeat(wx, n_azimuth) / float(n_azimuth)
        rule = cls()
        for name, arr in (("weights", w), ("vectors", bloch_vectors(u, ph))):
            arr.setflags(write=False)
            object.__setattr__(rule, name, arr)
        return rule


def default_quadrature() -> SphereQuadrature:
    """The ``DEFAULT_RULE`` product rule of the command-line defaults.

    ``gauss_product`` caches it, so every call returns the one instance.  No
    function here falls back to it: every rate takes its rule from the caller.
    """
    return SphereQuadrature.gauss_product(*DEFAULT_RULE)


def _require_two_qubits(rho: DensityMatrix) -> None:
    if rho.entries.shape != (4, 4):
        raise ValueError(f"expected a two-qubit state, got shape {rho.entries.shape}")


def _require_density(low: float, kind: str) -> None:
    """Raise when the lowest value of a density lies below ``qstate.PSD_FLOOR``."""
    if not PSD_FLOOR <= low:
        raise NumericalCorruptionError(f"{kind} density dipped to {low!r}")


def fano_form(rho_xy: DensityMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local Bloch vectors ``a``, ``b`` and correlation tensor ``T`` of a pair.

    a_i = Tr rho (s_i x 1), b_j = Tr rho (1 x s_j) and T_ij = Tr rho (s_i x s_j),
    so the outcome density of directions n, m is (1 + a.n + b.m + n.T.m)/4
    and the one-party densities are (1 + a.n)/2 and (1 + b.m)/2.  A marginal
    density that would dip below ``qstate.PSD_FLOOR`` somewhere on the sphere
    raises NumericalCorruptionError.
    """
    _require_two_qubits(rho_xy)
    corr = pauli_tensor(rho_xy)
    a, b, t = corr[1:, 0], corr[0, 1:], corr[1:, 1:]
    _require_density(0.5 - 0.5 * float(max(np.linalg.norm(a), np.linalg.norm(b))), "marginal")
    return a, b, t


def _sphere_relative_entropy(alpha: np.ndarray | float, r: np.ndarray | float) -> np.ndarray:
    """Sphere integral of p ln(p / alpha), nats, for p(m) = alpha + c.m, |c| = r.

    The integral of p ln p is [h(alpha + r) - h(alpha - r)] / r with
    h(x) = x^2 ln(x)/2 - x^2/4, which equals 2 alpha ln(alpha) + alpha g(r/alpha)
    for g(x) = [(1 + x)^2 ln(1 + x) - (1 - x)^2 ln(1 - x)] / (2x) - 1.  This
    returns alpha g(r/alpha), with the Taylor series of g for r << alpha;
    lanes with alpha <= 0 (where positivity forces r ~ 0) give 0.  Each lane
    computes only its own branch, the series below ``_SERIES_X`` and the
    closed form from there on, and gets the bits it would get if both were
    computed on every lane of the array and one picked.
    """
    x = np.divide(r, alpha, out=np.zeros(np.broadcast(alpha, r).shape), where=alpha > 0.0)
    np.minimum(x, 1.0, out=x)
    series = x < _SERIES_X
    closed = ~series
    g = np.empty_like(x)
    x2 = np.square(x[series])
    g[series] = x2 * (1.0 / 3.0 + x2 * (1.0 / 30.0 + x2 * (1.0 / 105.0 + x2 / 252.0)))
    xs = x[closed]
    tail = (1.0 - xs) ** 2 * np.log1p(-np.where(xs < 1.0, xs, 0.0))
    g[closed] = ((1.0 + xs) ** 2 * np.log1p(xs) - tail) / (2.0 * xs) - 1.0
    return alpha * g


def nonselected_information(
    rho_xy: DensityMatrix,
    quad_x: SphereQuadrature,
    quad_y: SphereQuadrature | None = None,
) -> float:
    """Mutual information of the all-states continuous readout, in bits.

    I = integral p ln p - integral p_x ln p_x - integral p_y ln p_y.  For each
    direction n the Fano-form density is linear in m, with alpha = (1 + a.n)/4
    and r = |b + T^T n|/4, so the inner integral is exact and ``quad_y`` is
    not used.  Since p_x = 2 alpha node by node and the p_y term is the same
    closed form at alpha = 1/2, r = |b|/2, the p ln(alpha) parts of the three
    terms cancel and only the bounded remainder is summed over the caller's
    rule ``quad_x``, in a fixed order, so the result is bit-reproducible.
    Each r sums its three squared components in order, which gives the bits
    of ``np.linalg.norm`` over the rows, and the p_y term is the last lane of
    the one kernel call.  Values below ``ZERO_BITS`` read as 0.0.
    """
    a, b, t = fano_form(rho_xy)
    alpha = 0.25 * (1.0 + quad_x.vectors @ a)
    tn = quad_x.vectors @ t
    c = [tn[:, j] + b[j] for j in range(3)]  # per column: b added to (N, 3) rows loops 3 lanes at a time
    r = 0.25 * np.sqrt(c[0] * c[0] + c[1] * c[1] + c[2] * c[2])
    _require_density(float((alpha - r).min()), "joint")
    rel = _sphere_relative_entropy(np.append(alpha, 0.5), np.append(r, 0.5 * float(np.linalg.norm(b))))
    joint = math.fsum((quad_x.weights * rel[:-1]).data)  # a memoryview yields Python floats, with no list
    value = (joint - float(rel[-1])) / math.log(2.0)
    return value if value > ZERO_BITS else 0.0


def _plog2p(p: np.ndarray) -> np.ndarray:
    _require_density(float(p.min()), "table")
    p = np.clip(p, 0.0, None)
    return p * np.log2(np.maximum(p, DENSITY_FLOOR))


def table_information(an: np.ndarray, bm: np.ndarray, corr: np.ndarray) -> np.ndarray:
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
