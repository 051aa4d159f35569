"""Monte Carlo simulation of the protocol, one vectorised sampler.

One round: the sender measures its half of the shared singlet along a
uniformly random sphere direction, the eavesdropper's probe couples to the
channel qubit, the receiver measures along its own uniformly random
direction, and the probe is read out in its computational basis.  The three
bits are drawn from the exact joint Born distribution of the 8-dimensional
post-attack pure state, so the transcript statistics match the analytic
reductions by construction.  ``run_protocol`` samples every round; there is
no per-round driver.

Randomness is counter-based: round i consumes row i of a (rounds, 5) uniform
block drawn from a Philox generator keyed by the seed, in the column order
(sender u, sender phi, receiver u, receiver phi, outcome pick), so a
transcript is a pure function of (seed, rounds, attack), a shorter run is a
prefix of a longer one, and runs are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .attack import AttackParams, attacked_pure_state
from .qstate import NumericalCorruptionError, TWO_PI

_CHUNK = 1 << 17
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class ProtocolConfig:
    """Run parameters; the seed fully determines the transcript."""

    rounds: int
    attack: AttackParams
    cells_u: int = 16
    cells_phi: int = 32
    seed: int = 0
    disclose_fraction: float = 0.1

    def __post_init__(self) -> None:
        if int(self.rounds) != self.rounds or self.rounds < 1:
            raise ValueError(f"rounds must be a positive integer, got {self.rounds!r}")
        if self.cells_u < 1 or self.cells_phi < 1:
            raise ValueError("cell counts must be >= 1")
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit in 64 unsigned bits")
        if not (0.0 < self.disclose_fraction < 1.0):
            raise ValueError("disclose_fraction must lie in (0, 1)")


@dataclass(frozen=True)
class SiftingPartition:
    """Equal-measure rectangular partition of the sphere in (cos theta, phi).

    Every cell is a band in u = cos(theta) crossed with an azimuth sector,
    so each of the ``cells_u * cells_phi`` cells has measure
    2 / (cells_u * cells_phi) under the sphere volume.
    """

    cells_u: int
    cells_phi: int

    def __post_init__(self) -> None:
        if self.cells_u < 1 or self.cells_phi < 1:
            raise ValueError("cell counts must be >= 1")

    @property
    def n_cells(self) -> int:
        return self.cells_u * self.cells_phi

    def cell_index(self, u: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """Flat cell index of each (u, phi) pair."""
        iu = np.clip(
            ((np.asarray(u) + 1.0) * 0.5 * self.cells_u).astype(np.int64),
            0,
            self.cells_u - 1,
        )
        ip = np.clip(
            (np.asarray(phi) / TWO_PI * self.cells_phi).astype(np.int64),
            0,
            self.cells_phi - 1,
        )
        return iu * self.cells_phi + ip

    def expected_keep_rate(self) -> float:
        """Acceptance probability of same-or-antipodal cell matching.

        Same-cell and antipodal-cell matches each occur with probability
        1/n. They coincide only when a cell contains its own antipode, which
        for this grid requires a single azimuth sector and an odd band count.
        """
        n = self.n_cells
        rate = 2.0 / n
        if self.cells_phi == 1 and self.cells_u % 2 == 1:
            rate -= 1.0 / (self.cells_u * self.cells_u)
        return rate


@dataclass(frozen=True, eq=False)
class Transcript:
    """Column-oriented record of a simulated run."""

    alice_u: np.ndarray
    alice_phi: np.ndarray
    alice_bit: np.ndarray
    bob_u: np.ndarray
    bob_phi: np.ndarray
    bob_bit: np.ndarray
    eve_bit: np.ndarray
    disclosed: np.ndarray

    def __post_init__(self) -> None:
        columns = [getattr(self, f.name) for f in fields(self)]
        if any(c.size != columns[0].size for c in columns):
            raise ValueError("transcript columns must have equal length")
        for c in columns:
            c.setflags(write=False)

    def __len__(self) -> int:
        return int(self.alice_u.size)

    def subset(self, mask: np.ndarray) -> "Transcript":
        return Transcript(*(getattr(self, f.name)[mask] for f in fields(self)))


def _basis_kets(u: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Stack of the two basis kets per direction, shape (n, 2, 2)."""
    c = np.sqrt((1.0 + u) * 0.5)
    s = np.sqrt((1.0 - u) * 0.5)
    ph = np.exp(1j * phi)
    kets = np.empty((u.size, 2, 2), dtype=complex)
    kets[:, 0, 0] = c
    kets[:, 0, 1] = ph * s
    kets[:, 1, 0] = s
    kets[:, 1, 1] = -ph * c
    return kets


def _outcome_probabilities(
    state: np.ndarray, u_a: np.ndarray, phi_a: np.ndarray, u_b: np.ndarray, phi_b: np.ndarray
) -> np.ndarray:
    """Joint Born distribution over (alice_bit, bob_bit, eve_bit), shape (n, 8).

    Validates that each row sums to 1 within 1e-10.
    """
    ka = _basis_kets(u_a, phi_a)
    kb = _basis_kets(u_b, phi_b)
    amps = np.einsum("naj,nbk,jke->nabe", ka.conj(), kb.conj(), state)
    p = (amps.real**2 + amps.imag**2).reshape(-1, 8)
    deviation = float(np.abs(p.sum(axis=1) - 1.0).max())
    if deviation > 1e-10:
        raise NumericalCorruptionError(f"round probabilities sum off by {deviation:.3e}")
    return p


def _pick(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    cum = np.cumsum(p, axis=1)
    return (cum < r[:, None] * cum[:, -1:]).sum(axis=1)


def run_protocol(cfg: ProtocolConfig) -> Transcript:
    """Simulate ``cfg.rounds`` elementary steps; deterministic given the seed.

    The first floor(disclose_fraction * rounds) rounds are flagged as
    disclosed for parameter estimation and excluded from key material.
    """
    state = attacked_pure_state(cfg.attack)
    gen = np.random.Generator(np.random.Philox(key=cfg.seed))
    n = int(cfg.rounds)

    alice_u = np.empty(n)
    alice_phi = np.empty(n)
    bob_u = np.empty(n)
    bob_phi = np.empty(n)
    bits = np.empty(n, dtype=np.int8)

    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        draws = gen.random((stop - start, 5))
        ua = 2.0 * draws[:, 0] - 1.0
        pa = TWO_PI * draws[:, 1]
        ub = 2.0 * draws[:, 2] - 1.0
        pb = TWO_PI * draws[:, 3]
        p = _outcome_probabilities(state, ua, pa, ub, pb)
        idx = _pick(p, draws[:, 4])
        alice_u[start:stop] = ua
        alice_phi[start:stop] = pa
        bob_u[start:stop] = ub
        bob_phi[start:stop] = pb
        bits[start:stop] = idx.astype(np.int8)

    n_disclosed = int(n * cfg.disclose_fraction)
    disclosed = np.zeros(n, dtype=bool)
    disclosed[:n_disclosed] = True
    return Transcript(
        alice_u=alice_u,
        alice_phi=alice_phi,
        alice_bit=((bits >> 2) & 1).astype(np.int8),
        bob_u=bob_u,
        bob_phi=bob_phi,
        bob_bit=((bits >> 1) & 1).astype(np.int8),
        eve_bit=(bits & 1).astype(np.int8),
        disclosed=disclosed,
    )


def sift(transcript: Transcript, partition: SiftingPartition) -> Transcript:
    """Keep rounds whose measurement directions share a cell, up to antipode.

    Antipodal directions define the same two-outcome observable with swapped
    labels, so rounds where the receiver's antipodal direction lands in the
    sender's cell are kept with the receiver's bit flipped.
    """
    cell_a = partition.cell_index(transcript.alice_u, transcript.alice_phi)
    cell_b = partition.cell_index(transcript.bob_u, transcript.bob_phi)
    cell_b_anti = partition.cell_index(
        -transcript.bob_u, np.mod(transcript.bob_phi + math.pi, TWO_PI)
    )
    same = cell_a == cell_b
    anti = (cell_a == cell_b_anti) & ~same
    kept = transcript.subset(same | anti)
    flip = anti[same | anti]
    bob_bit = kept.bob_bit.copy()
    bob_bit[flip] ^= 1
    return replace(kept, bob_bit=bob_bit)


def _plugin_mi(codes_x: np.ndarray, codes_y: np.ndarray, miller_madow: bool) -> float:
    """Plug-in mutual information of two integer code streams, in bits."""
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
        mi -= (uj.size - ux.size - uy.size + 1) / (2.0 * n * _LN2)
    return max(0.0, mi)


def _party_codes(
    u: np.ndarray,
    phi: np.ndarray,
    bit: np.ndarray,
    binning: SiftingPartition,
    fold_antipodal: bool,
) -> np.ndarray:
    if fold_antipodal:
        # Bin the effective outcome direction (basis direction, or its
        # antipode when the second outcome fired).  The dropped "which
        # description" bit is independent noise, so the mutual information
        # is unchanged while the alphabet shrinks fourfold.
        flip = bit.astype(bool)
        ue = np.where(flip, -u, u)
        pe = np.where(flip, np.mod(phi + math.pi, TWO_PI), phi)
        return binning.cell_index(ue, pe)
    return binning.cell_index(u, phi) * 2 + bit.astype(np.int64)


def empirical_mi(
    transcript: Transcript,
    binning_a: SiftingPartition,
    binning_b: SiftingPartition,
    miller_madow: bool = False,
    fold_antipodal: bool = False,
) -> float:
    """Histogram mutual information between the two parties' outcomes, bits.

    Symbols are (direction cell, bit) pairs; with ``fold_antipodal`` the bit
    is folded into the direction before binning (valid because antipodal
    basis relabeling is independent of everything else).  ``miller_madow``
    applies the occupancy-count small-sample bias correction.  The result is
    clamped to be nonnegative.
    """
    if len(transcript) == 0:
        raise ValueError("cannot estimate information from an empty record set")
    ca = _party_codes(transcript.alice_u, transcript.alice_phi, transcript.alice_bit, binning_a, fold_antipodal)
    cb = _party_codes(transcript.bob_u, transcript.bob_phi, transcript.bob_bit, binning_b, fold_antipodal)
    return _plugin_mi(ca, cb, miller_madow)


def empirical_mi_with_probe(
    transcript: Transcript,
    binning: SiftingPartition,
    party: str = "alice",
    miller_madow: bool = False,
    fold_antipodal: bool = False,
) -> float:
    """Histogram mutual information between one party and the probe bit."""
    if party == "alice":
        codes = _party_codes(transcript.alice_u, transcript.alice_phi, transcript.alice_bit, binning, fold_antipodal)
    elif party == "bob":
        codes = _party_codes(transcript.bob_u, transcript.bob_phi, transcript.bob_bit, binning, fold_antipodal)
    else:
        raise ValueError(f"party must be 'alice' or 'bob', got {party!r}")
    return _plugin_mi(codes, transcript.eve_bit.astype(np.int64), miller_madow)


def sifted_error_rate(transcript: Transcript) -> float:
    """Fraction of sifted rounds where the receiver's bit fails to anticorrelate."""
    if len(transcript) == 0:
        raise ValueError("no sifted rounds")
    return float((transcript.alice_bit == transcript.bob_bit).mean())


_TRANSCRIPT_FIELDS = (
    "round",
    "disclosed",
    "alice_u",
    "alice_phi",
    "alice_bit",
    "bob_u",
    "bob_phi",
    "bob_bit",
    "eve_bit",
)


def write_transcript(transcript: Transcript, path: str) -> None:
    """One record per line in the documented field order; floats round-trip."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_TRANSCRIPT_FIELDS) + "\n")
        for i in range(len(transcript)):
            fh.write(
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
                + "\n"
            )


def read_transcript(path: str) -> Transcript:
    """Parse a transcript file written by write_transcript."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != _TRANSCRIPT_FIELDS:
            raise ValueError(f"unexpected transcript header {header}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    n = len(rows)
    cols = list(zip(*rows)) if n else [[]] * len(_TRANSCRIPT_FIELDS)
    return Transcript(
        alice_u=np.array([float(x) for x in cols[2]]),
        alice_phi=np.array([float(x) for x in cols[3]]),
        alice_bit=np.array([int(x) for x in cols[4]], dtype=np.int8),
        bob_u=np.array([float(x) for x in cols[5]]),
        bob_phi=np.array([float(x) for x in cols[6]]),
        bob_bit=np.array([int(x) for x in cols[7]], dtype=np.int8),
        eve_bit=np.array([int(x) for x in cols[8]], dtype=np.int8),
        disclosed=np.array([bool(int(x)) for x in cols[1]]),
    )
