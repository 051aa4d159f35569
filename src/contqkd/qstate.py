"""Density matrices on qubit registers and their reductions.

A qubit is named by its position in tensor order: the attacked state is
(sender, receiver, probe), and ``attack.bipartite_reductions`` is the one
place that says which pair of positions is which reduction.  All storage is
dense complex arithmetic; the largest space used anywhere in this package is
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
    """Hermitian unit-trace operator on a tensor product of n >= 1 qubits.

    ``entries`` is 2**n x 2**n, its qubits in tensor order.  Construction
    validates the shape, finite entries, Hermiticity (every entry within
    ``ATOL`` of its mirror's conjugate), unit trace and positive
    semidefiniteness up to roundoff, so a successfully built instance is
    always a physical state.
    """

    entries: np.ndarray

    def __init__(self, entries: np.ndarray) -> None:
        mat = np.array(entries, dtype=complex)
        n = mat.shape[0].bit_length() - 1 if mat.ndim == 2 else 0
        if n < 1 or mat.shape != (2**n, 2**n):
            raise ValueError(f"matrix shape {mat.shape} is not 2^n x 2^n for any n >= 1")
        if not np.isfinite(mat).all():
            raise ValueError("matrix has non-finite entries")
        if np.abs(mat - mat.conj().T).max() > ATOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > ATOL:
            raise ValueError(f"trace is {tr!r}, expected 1")
        min_eig = float(np.linalg.eigvalsh(mat)[0])
        if min_eig < PSD_FLOOR:
            raise ValueError(f"matrix has eigenvalue {min_eig!r} below the PSD floor")
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)

    @classmethod
    def from_ket(cls, vector: np.ndarray) -> "DensityMatrix":
        v = np.asarray(vector, dtype=complex).reshape(-1)
        v = v / math.sqrt(float((v.real * v.real + v.imag * v.imag).sum()))  # no BLAS: the same sum on every kernel
        return cls(np.outer(v, v.conj()))


def singlet() -> DensityMatrix:
    """Projector onto ``SINGLET_KET``, the antisymmetric two-qubit state, sender first."""
    return DensityMatrix.from_ket(SINGLET_KET)


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Reduce to the qubits at the positions in ``keep``, in their original order."""
    n = rho.entries.shape[0].bit_length() - 1
    keep_pos = sorted(set(keep))
    if not keep_pos:
        raise ValueError("keep must name at least one qubit")
    for pos in keep_pos:
        check_int("qubit position", pos, 0, n)
    drop_pos = [i for i in range(n) if i not in keep_pos]

    arr = rho.entries.reshape((2,) * (2 * n))
    perm = keep_pos + drop_pos + [n + i for i in keep_pos] + [n + i for i in drop_pos]
    arr = arr.transpose(perm)
    d_keep, d_drop = 2 ** len(keep_pos), 2 ** len(drop_pos)
    arr = arr.reshape(d_keep, d_drop, d_keep, d_drop)
    reduced = np.einsum("ajbj->ab", arr)
    return DensityMatrix(reduced)


def pauli_tensor(rho: DensityMatrix) -> np.ndarray:
    """Real tensor C[i1, .., in] = Tr rho (s_i1 x .. x s_in) of a 1-3 qubit state.

    Indices run over (identity, x, y, z), so C[0, .., 0] = 1 and, for a
    pair, C[1:, 0], C[0, 1:] and C[1:, 1:] are its Fano form.  One plain
    ``np.einsum`` contraction with a fixed summation order.
    """
    n = rho.entries.shape[0].bit_length() - 1
    if not 1 <= n <= 3:
        raise ValueError(f"expected 1 to 3 qubits, got {n}")
    rows, cols, out = "abc"[:n], "def"[:n], "xyz"[:n]
    # <rows| rho |cols> times s_o[col, row] for each subsystem, summed.
    spec = rows + cols + "," + ",".join(o + c + r for o, c, r in zip(out, cols, rows)) + "->" + out
    return np.einsum(spec, rho.entries.reshape((2,) * (2 * n)), *[_PAULI] * n).real
