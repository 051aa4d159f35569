import math

import numpy as np
import pytest

from contqkd import SphereQuadrature
from contqkd.infocalc import fano_form, table_information

# Closed-form per-letter information of the undisturbed channel under the
# all-states readout: 1 - 1/(2 ln 2).  Derived by reducing the double sphere
# integral of p log2(4 p), p = (1 - cos(angle))/4, to
# (1/2) * integral_0^2 of t log2(t) dt = 1 - 1/(2 ln 2).
SINGLET_BITS = 1.0 - 1.0 / (2.0 * math.log(2.0))


@pytest.fixture(scope="session")
def quad_light():
    """Cheap rule for module tests; singlet value is good to ~1e-5 here."""
    return SphereQuadrature.gauss_product(16, 32)


@pytest.fixture(scope="session")
def quad_mid():
    return SphereQuadrature.gauss_product(24, 48)


def random_direction(rng: np.random.Generator) -> np.ndarray:
    """Unit Bloch vector drawn uniformly from the sphere."""
    u = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    s = math.sqrt(1.0 - u * u)
    return np.array([s * math.cos(phi), s * math.sin(phi), u])


def direction_at_angle(base: np.ndarray, angle: float, rng: np.random.Generator) -> np.ndarray:
    """A unit vector at the given geodesic angle from the unit vector ``base``, azimuth random."""
    helper = np.array([1.0, 0.0, 0.0]) if abs(base[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(base, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(base, e1)
    psi = rng.uniform(0.0, 2.0 * math.pi)
    v = math.cos(angle) * base + math.sin(angle) * (math.cos(psi) * e1 + math.sin(psi) * e2)
    return v / np.linalg.norm(v)


def cos_polar_azimuth(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u, phi) sampler coordinates of unit vectors, shape (..., 3) -> (...), (...)."""
    v = np.asarray(v, dtype=float)
    return np.clip(v[..., 2], -1.0, 1.0), np.mod(np.arctan2(v[..., 1], v[..., 0]), 2.0 * math.pi)


def assert_same_text(actual: str, expected: str) -> None:
    """Assert that two texts are equal, reporting only the first line where they differ.

    pytest's own report of two long unequal strings is a difflib diff that can
    run for minutes; this one costs one pass over the lines.
    """
    if actual == expected:
        return
    got, want = actual.splitlines(keepends=True), expected.splitlines(keepends=True)
    k = next((k for k, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
    shown = [repr(lines[k]) if k < len(lines) else "no line" for lines in (got, want)]
    raise AssertionError(f"texts differ first at line {k + 1}: {shown[0]} != {shown[1]} (expected)")


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def fixed_readout_information(rho, n: np.ndarray, m: np.ndarray) -> float:
    """Mutual information, bits, of a pair read along the unit Bloch vectors +-n and +-m.

    The production kernel's composition: ``table_information`` of the 2x2
    table (1 +- a.n +- b.m +- n.T.m)/4 of the state's ``fano_form``.
    """
    a, b, t = fano_form(rho)
    return float(table_information(n @ a, m @ b, n @ t @ m))
