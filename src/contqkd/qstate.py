"""Density matrices on labeled qubit registers and their reductions.

States live on tensor products of qubit subsystems that are identified by
string labels rather than positions, so the three distinct reductions of a
tripartite state cannot be confused with one another.  All storage is dense
complex arithmetic; the largest space used anywhere in this package is
8 = 2**3.  Measurement directions are not represented here: every reading of
a pair state goes through its Fano form (``infocalc.fano_form``) along unit
Bloch vectors (``infocalc.bloch_vectors``).  ``pauli_tensor`` is the one
expansion of a state in the Pauli basis (identity, x, y, z); every reader of
a state's Pauli coefficients goes through it.  ``SINGLET_KET`` is the one
singlet ket; ``check_int`` is the one integer check, of every count the
package and its command line take.

Every type is immutable after construction and every operation is a pure
function, so everything here is safe to evaluate concurrently.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

# Entrywise tolerance of Hermiticity, trace and normalization checks: here, on
# ``attack.EveIsometry``'s columns and on the rows of ``protosim._joint_law``.
ATOL = 1e-12
# Eigenvalue / probability floor below which a value signals a logic bug
# rather than accumulated roundoff; ``infocalc`` holds its densities to it.
PSD_FLOOR = -1e-10

# Identity and Pauli matrices x, y, z stacked along the first axis.
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_PAULI.setflags(write=False)

# The singlet (|01> - |10>)/sqrt(2) in the computational basis, sender first.
SINGLET_KET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
SINGLET_KET.setflags(write=False)


class NumericalCorruptionError(ArithmeticError):
    """A probability or spectrum check failed beyond roundoff tolerance."""


def check_int(name: str, value: object, low: int, high: float = math.inf) -> None:
    """ValueError unless ``value`` is an integer in [low, high); an integral float is not one."""
    try:
        ok = low <= operator.index(value) < high
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be an integer in [{low}, {high}), got {value!r}")


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


def singlet() -> DensityMatrix:
    """Projector onto ``SINGLET_KET``, the antisymmetric two-qubit state, on ("A", "B")."""
    return DensityMatrix.from_ket(SINGLET_KET, ("A", "B"))


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

    arr = rho.entries.reshape((2,) * (2 * n))
    perm = keep_pos + drop_pos + [n + i for i in keep_pos] + [n + i for i in drop_pos]
    arr = arr.transpose(perm)
    d_keep, d_drop = 2 ** len(keep_pos), 2 ** len(drop_pos)
    arr = arr.reshape(d_keep, d_drop, d_keep, d_drop)
    reduced = np.einsum("ajbj->ab", arr)
    return DensityMatrix(reduced, tuple(rho.labels[i] for i in keep_pos))


def pauli_tensor(rho: DensityMatrix) -> np.ndarray:
    """Real tensor C[i1, .., in] = Tr rho (s_i1 x .. x s_in) of a 1-3 qubit state.

    Indices run over (identity, x, y, z), so C[0, .., 0] = 1 and, for a
    pair, C[1:, 0], C[0, 1:] and C[1:, 1:] are its Fano form.  One plain
    ``np.einsum`` contraction with a fixed summation order.
    """
    n = len(rho.labels)
    if not 1 <= n <= 3:
        raise ValueError(f"expected 1 to 3 qubits, got labels {rho.labels}")
    rows, cols, out = "abc"[:n], "def"[:n], "xyz"[:n]
    # <rows| rho |cols> times s_o[col, row] for each subsystem, summed.
    spec = rows + cols + "," + ",".join(o + c + r for o, c, r in zip(out, cols, rows)) + "->" + out
    return np.einsum(spec, rho.entries.reshape((2,) * (2 * n)), *[_PAULI] * n).real
