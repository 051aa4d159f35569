"""Density matrices on labeled qubit registers and their reductions.

States live on tensor products of qubit subsystems that are identified by
string labels rather than positions, so the three distinct reductions of a
tripartite state cannot be confused with one another.  All storage is dense
complex arithmetic; the largest space used anywhere in this package is
8 = 2**3.  Measurement directions are not represented here: every reading of
a pair state goes through its Fano form (``infocalc._fano_form``) along unit
Bloch vectors.

Every type is immutable after construction and every operation is a pure
function, so everything here is safe to evaluate concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

# Entrywise tolerance for Hermiticity, trace and normalization checks.
ATOL = 1e-12
# Eigenvalue / probability floor below which a value signals a logic bug
# rather than accumulated roundoff.
PSD_FLOOR = -1e-10


class NumericalCorruptionError(ArithmeticError):
    """A probability or spectrum check failed beyond roundoff tolerance."""


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian unit-trace operator on a labeled tensor product of qubits.

    ``labels`` name the subsystems in tensor order; every subsystem is a
    qubit, so ``entries`` is 2**n x 2**n for n labels.  Construction
    validates Hermiticity, unit trace and positive semidefiniteness up to
    roundoff, so a successfully built instance is always a physical state.
    """

    entries: np.ndarray
    labels: tuple[str, ...]

    def __init__(self, entries: np.ndarray, labels: Sequence[str]) -> None:
        mat = np.array(entries, dtype=complex)
        labels = tuple(str(x) for x in labels)
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate subsystem labels: {labels}")
        dim = 2 ** len(labels)
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match {len(labels)} qubits")
        if not np.allclose(mat, mat.conj().T, atol=ATOL, rtol=0.0):
            raise ValueError("matrix is not Hermitian within tolerance")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > ATOL:
            raise ValueError(f"trace is {tr!r}, expected 1")
        min_eig = float(np.linalg.eigvalsh(mat)[0])
        if min_eig < PSD_FLOOR:
            raise ValueError(f"matrix has eigenvalue {min_eig!r} below the PSD floor")
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_ket(cls, vector: np.ndarray, labels: Sequence[str]) -> "DensityMatrix":
        v = np.asarray(vector, dtype=complex).reshape(-1)
        v = v / math.sqrt(float(np.vdot(v, v).real))
        return cls(np.outer(v, v.conj()), labels)


def singlet(labels: Sequence[str] = ("A", "B")) -> DensityMatrix:
    """Projector onto the antisymmetric two-qubit state (|01> - |10>)/sqrt(2)."""
    if len(labels) != 2:
        raise ValueError("singlet needs exactly two labels")
    vec = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    return DensityMatrix.from_ket(vec, labels)


def partial_trace(rho: DensityMatrix, keep: Sequence[str]) -> DensityMatrix:
    """Reduce to the subsystems in ``keep`` (in their original label order)."""
    keep_set = set(keep)
    if not keep_set:
        raise ValueError("keep must name at least one subsystem")
    unknown = keep_set - set(rho.labels)
    if unknown:
        raise ValueError(f"unknown subsystem labels {sorted(unknown)} (have {rho.labels})")

    n = len(rho.labels)
    keep_pos = [i for i, lab in enumerate(rho.labels) if lab in keep_set]
    drop_pos = [i for i, lab in enumerate(rho.labels) if lab not in keep_set]
    if not drop_pos:
        return rho

    arr = rho.entries.reshape((2,) * (2 * n))
    perm = keep_pos + drop_pos + [n + i for i in keep_pos] + [n + i for i in drop_pos]
    arr = arr.transpose(perm)
    d_keep, d_drop = 2 ** len(keep_pos), 2 ** len(drop_pos)
    arr = arr.reshape(d_keep, d_drop, d_keep, d_drop)
    reduced = np.einsum("ajbj->ab", arr)
    return DensityMatrix(reduced, tuple(rho.labels[i] for i in keep_pos))

