"""Monte Carlo simulation of the protocol, one vectorised sampler.

One round: the sender measures its half of the shared singlet along a
uniformly random sphere direction, the eavesdropper's probe couples to the
channel qubit, the receiver measures along its own uniformly random
direction, and the probe is read out in its computational basis.  The three
bits are drawn from the exact joint Born distribution of the 8-dimensional
post-attack pure state, so the transcript statistics match the analytic
reductions by construction.  ``run_protocol`` samples every round; there is
no per-round driver.  The law is real: with v = (1, n) for each party's unit
Bloch vector n, p(a, b, e) = (v_A (x) v_B) @ W, where the fixed 16x8 matrix W
is read once per run off ``qstate.pauli_tensor`` of ``attacked_state``, the
same density matrix and the same Pauli expansion the analysis reads; n is
``infocalc.bloch_vectors``, and ``_antipode`` is the one antipode, read by
``sift`` and the folded information estimates.  Rounds
go in blocks of ``_BLOCK`` (16,384): each block is sampled with one real
matmul, rendered to transcript text as one task, parsed back with one
``np.loadtxt`` call, sifted as one slice, and binned and counted into the
sparse joint table of an information estimate as one slice.  So beyond the
transcript's own columns (36 bytes per round) these paths hold whole-run
arrays only for their results and ``sift``'s two masks; the information
estimates hold none.

Randomness is counter-based: round i consumes row i of a (rounds, 5) uniform
array drawn from a Philox generator keyed by the seed, in the column order
(sender u, sender phi, receiver u, receiver phi, outcome pick), so a
transcript is a pure function of (seed, rounds, attack), a shorter run is a
prefix of a longer one, and runs are reproducible bit for bit within one
Python/numpy/BLAS environment.

A transcript file is csv: the round index, then ``Transcript``'s fields in
their order.  Those fields are the one declaration of the columns: each
one's kind gives its dtype, its csv format and its valid values, so
``run_protocol`` allocates, ``write_transcript`` formats and
``read_transcript`` checks and casts every column by it.
``write_transcript`` is the only writer: float ``repr`` bounds it, so a pool
of spawned processes, one per usable core, renders each block to a part file
beside the output, and the calling process copies the parts in round order
into a file beside them, moved onto the output only once it is whole.  The
rendered text never enters the calling process.  ``read_transcript`` counts a
file's lines in one binary pass, allocates the columns once at that length,
parses and checks the rows one block at a time into them, and rejects a file
that breaks the schema; its peak is the columns plus about two blocks,
whatever the length of the run, and each blank line leaves 36 bytes
allocated behind the returned columns.
"""

from __future__ import annotations

import itertools
import math
import os
import shutil
import tempfile
import warnings
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, fields, replace
from typing import BinaryIO, NamedTuple

import numpy as np

from .attack import AttackParams, attacked_state
from .infocalc import bloch_vectors
from .qstate import DensityMatrix, NumericalCorruptionError, TWO_PI, check_int, pauli_tensor

_BLOCK = 1 << 14  # rounds sampled, rendered, read, sifted, binned and counted at a time
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
        check_int("rounds", self.rounds, 1)
        check_int("cells_u", self.cells_u, 1)
        check_int("cells_phi", self.cells_phi, 1)
        check_int("seed", self.seed, 0, 2**64)
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
        check_int("cells_u", self.cells_u, 1)
        check_int("cells_phi", self.cells_phi, 1)

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


class _Kind(NamedTuple):
    """A transcript column's kind: how it is stored, written to csv and checked when read back."""

    dtype: type
    fmt: str  # %r of a Python float is its shortest round-trip repr; %d of a bool is 0/1
    valid: Callable[[np.ndarray], np.ndarray]  # the parsed float values the column accepts


_BIT = _Kind(np.int8, "%d", lambda col: (col == 0.0) | (col == 1.0))
_FLAG = _BIT._replace(dtype=np.bool_)
_U = _Kind(np.float64, "%r", lambda col: (col >= -1.0) & (col <= 1.0))
_PHI = _Kind(np.float64, "%r", lambda col: (col >= 0.0) & (col < TWO_PI))


@dataclass(frozen=True, eq=False, kw_only=True)
class Transcript:
    """Column-oriented record of a simulated run; the fields, in order and by kind, are the file's columns."""

    disclosed: np.ndarray = field(metadata={"kind": _FLAG})
    alice_u: np.ndarray = field(metadata={"kind": _U})
    alice_phi: np.ndarray = field(metadata={"kind": _PHI})
    alice_bit: np.ndarray = field(metadata={"kind": _BIT})
    bob_u: np.ndarray = field(metadata={"kind": _U})
    bob_phi: np.ndarray = field(metadata={"kind": _PHI})
    bob_bit: np.ndarray = field(metadata={"kind": _BIT})
    eve_bit: np.ndarray = field(metadata={"kind": _BIT})

    def __post_init__(self) -> None:
        columns = [getattr(self, f.name) for f in fields(self)]
        if any(c.size != columns[0].size for c in columns):
            raise ValueError("transcript columns must have equal length")
        for c in columns:
            c.setflags(write=False)

    def __len__(self) -> int:
        return int(self.alice_u.size)

    def subset(self, mask: np.ndarray) -> "Transcript":
        return Transcript(**{f.name: getattr(self, f.name)[mask] for f in fields(self)})


# Each column's kind by name, in ``Transcript``'s field order.
_KINDS: dict[str, _Kind] = {f.name: f.metadata["kind"] for f in fields(Transcript)}
# The csv header, and the format of one row: the round index, then the columns.
_TRANSCRIPT_FIELDS = ("round", *_KINDS)
_ROW_FORMAT = ",".join(["%d", *(kind.fmt for kind in _KINDS.values())]) + "\n"


def _law_matrix(rho: DensityMatrix) -> np.ndarray:
    """The fixed 16x8 real matrix W of the joint law p(a, b, e) = (v_A (x) v_B) @ W.

    With C_ijk = Tr rho (sigma_i (x) sigma_j (x) sigma_k) the Pauli tensor of
    the attacked state and the probe read along z,
    W[(i, j), (a, b, e)] = (-1)^{a [i > 0]} (-1)^{b [j > 0]} (C_ij0 + (-1)^e C_ij3) / 8.
    """
    c = pauli_tensor(rho)
    flip = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, -1.0, -1.0]])  # flip[a, i] = (-1)^{a [i > 0]}
    probe = np.stack([c[:, :, 0] + c[:, :, 3], c[:, :, 0] - c[:, :, 3]], axis=-1)
    return (np.einsum("ai,bj,ije->ijabe", flip, flip, probe) / 8.0).reshape(16, 8)


def _bloch_rows(u: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Rows v = (1, n) of the directions, n = ``infocalc.bloch_vectors(u, phi)``, shape (m, 4)."""
    return np.concatenate([np.ones((u.size, 1)), bloch_vectors(u, phi)], axis=1)


def _antipode(u: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The antipodal directions (-u, (phi + pi) mod 2 pi)."""
    return -u, np.mod(phi + math.pi, TWO_PI)


def _joint_law(
    w: np.ndarray, u_a: np.ndarray, phi_a: np.ndarray, u_b: np.ndarray, phi_b: np.ndarray
) -> np.ndarray:
    """Joint Born distribution over (alice_bit, bob_bit, eve_bit), shape (m, 8).

    One real matmul (v_A (x) v_B) @ W; validates that each row sums to 1
    within 1e-10.
    """
    va = _bloch_rows(u_a, phi_a)
    vb = _bloch_rows(u_b, phi_b)
    p = (va[:, :, None] * vb[:, None, :]).reshape(-1, 16) @ w
    deviation = float(np.abs(p.sum(axis=1) - 1.0).max())
    if deviation > 1e-10:
        raise NumericalCorruptionError(f"round probabilities sum off by {deviation:.3e}")
    return p


def _pick(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    cum = np.cumsum(p, axis=1)
    return (cum < r[:, None] * cum[:, -1:]).sum(axis=1)


def _blocks(n: int) -> list[slice]:
    """Slices of ``_BLOCK`` rounds, stops clipped to n, covering rounds 0..n-1 once each in order.

    The one walk over a run of known length: sampling, sifting, binning and
    rendering all go through it.  ``read_transcript`` walks with a counter
    instead: before its last block it knows only an upper bound on n.
    """
    return [slice(start, min(start + _BLOCK, n)) for start in range(0, n, _BLOCK)]


def run_protocol(cfg: ProtocolConfig) -> Transcript:
    """Simulate ``cfg.rounds`` elementary steps; deterministic given the seed.

    The first floor(disclose_fraction * rounds) rounds are flagged as
    disclosed for parameter estimation.  The flag is only recorded: ``sift``,
    the information estimates and the error rates read every round, and the
    run summary only counts the flagged ones.
    """
    w = _law_matrix(attacked_state(cfg.attack))
    gen = np.random.Generator(np.random.Philox(key=cfg.seed))
    n = int(cfg.rounds)
    n_disclosed = int(n * cfg.disclose_fraction)
    columns = {name: np.empty(n, dtype=kind.dtype) for name, kind in _KINDS.items()}
    for s in _blocks(n):
        draws = gen.random((s.stop - s.start, 5))
        ua = 2.0 * draws[:, 0] - 1.0
        pa = TWO_PI * draws[:, 1]
        ub = 2.0 * draws[:, 2] - 1.0
        pb = TWO_PI * draws[:, 3]
        idx = _pick(_joint_law(w, ua, pa, ub, pb), draws[:, 4])
        block = dict(
            disclosed=np.arange(s.start, s.stop) < n_disclosed,
            alice_u=ua, alice_phi=pa, alice_bit=(idx >> 2) & 1,
            bob_u=ub, bob_phi=pb, bob_bit=(idx >> 1) & 1,
            eve_bit=idx & 1,
        )
        for name, col in columns.items():
            col[s] = block[name]
    return Transcript(**columns)


def sift(transcript: Transcript, partition: SiftingPartition) -> Transcript:
    """Keep rounds whose measurement directions share a cell, up to antipode.

    Antipodal directions define the same two-outcome observable with swapped
    labels, so rounds where the receiver's antipodal direction lands in the
    sender's cell are kept with the receiver's bit flipped.  The keep and flip
    masks are built one block of ``_BLOCK`` rounds at a time, so the only
    whole-run temporaries are the two masks.
    """
    n = len(transcript)
    keep = np.empty(n, dtype=bool)
    anti = np.empty(n, dtype=bool)
    for s in _blocks(n):
        cell_a = partition.cell_index(transcript.alice_u[s], transcript.alice_phi[s])
        cell_b = partition.cell_index(transcript.bob_u[s], transcript.bob_phi[s])
        cell_b_anti = partition.cell_index(*_antipode(transcript.bob_u[s], transcript.bob_phi[s]))
        same = cell_a == cell_b
        anti[s] = (cell_a == cell_b_anti) & ~same
        keep[s] = same | anti[s]
    kept = transcript.subset(keep)
    return replace(kept, bob_bit=kept.bob_bit ^ anti[keep])


def _merged_counts(keys: list[np.ndarray], counts: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct keys, each with its summed count, from sorted parts that may share keys."""
    k = np.concatenate(keys)
    order = np.argsort(k, kind="stable")  # timsort: the parts are sorted runs
    k = k[order]
    starts = np.flatnonzero(np.diff(k, prepend=-1))
    return k[starts], np.add.reduceat(np.concatenate(counts)[order], starts)


def _joint_counts(
    blocks: Iterable[tuple[np.ndarray, np.ndarray]], size_y: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sparse joint table of code pairs given block by block: the sorted keys and their counts.

    A pair (x, y) has key x * size_y + y.  Each block is counted by
    ``np.unique``, and the blocks' counts wait until their keys outnumber
    the table's, which is then rebuilt with them in one stable sort.  So
    memory is one block plus a few times the occupied pairs, never the
    length of the streams, and the table doubles between rebuilds when
    most pairs are new, so rebuilding costs O(n log n) in all.
    """
    keys = np.empty(0, dtype=np.int64)
    counts = np.empty(0, dtype=np.int64)
    new_keys: list[np.ndarray] = []
    new_counts: list[np.ndarray] = []
    for codes_x, codes_y in blocks:
        uk, ck = np.unique(codes_x * size_y + codes_y, return_counts=True)
        del codes_x, codes_y  # the block's codes are not needed through a rebuild
        new_keys.append(uk)
        new_counts.append(ck)
        if sum(k.size for k in new_keys) > keys.size:
            keys, counts = _merged_counts([keys, *new_keys], [counts, *new_counts])
            new_keys, new_counts = [], []
    return _merged_counts([keys, *new_keys], [counts, *new_counts])


def _plugin_mi(
    blocks: Iterable[tuple[np.ndarray, np.ndarray]], size_x: int, size_y: int, miller_madow: bool
) -> float:
    """Plug-in mutual information, in bits, of two int64 code streams given block by block.

    Codes lie in [0, size_x) and [0, size_y); the joint counts come from
    ``_joint_counts``.  Both marginals are read off them by one rule: the
    table's x codes (its y codes) are indexed by ``np.unique``, and each
    symbol's count is the ``np.bincount`` of the joint counts over that index.
    The counts are integers below 2^53, so the float sums are exact.
    """
    if size_x * size_y > np.iinfo(np.int64).max:  # Python ints, checked before anything is allocated
        raise ValueError(f"{size_x} x {size_y} symbol pairs overflow a 64-bit pair key")
    keys, cj = _joint_counts(blocks, size_y)
    n = int(cj.sum())
    if n == 0:
        raise ValueError("cannot estimate information from an empty record set")
    ix, iy = (np.unique(codes, return_inverse=True)[1] for codes in np.divmod(keys, size_y))
    cx, cy = (np.bincount(index, weights=cj) for index in (ix, iy))
    mi = float(np.sum((cj / n) * np.log2(cj.astype(float) * n / (cx[ix] * cy[iy]))))
    if miller_madow:
        mi -= (keys.size - cx.size - cy.size + 1) / (2.0 * n * _LN2)
    return max(0.0, mi)


def _party_codes(
    transcript: Transcript, party: str, binning: SiftingPartition, fold_antipodal: bool, block: slice
) -> np.ndarray:
    """Integer symbol of each round in ``block`` of ``party`` ('alice' or 'bob'): direction cell and bit.

    Codes lie in [0, ``_alphabet_size(binning, fold_antipodal)``).
    """
    u, phi, bit = (getattr(transcript, f"{party}_{column}")[block] for column in ("u", "phi", "bit"))
    if not fold_antipodal:
        return binning.cell_index(u, phi) * 2 + bit
    # Bin the effective outcome direction (basis direction, or its antipode
    # when the second outcome fired).  The dropped "which description" bit is
    # independent noise, so the mutual information is unchanged while the
    # alphabet shrinks fourfold.
    flip = bit.astype(bool)
    anti_u, anti_phi = _antipode(u, phi)
    return binning.cell_index(np.where(flip, anti_u, u), np.where(flip, anti_phi, phi))


def _alphabet_size(binning: SiftingPartition, fold_antipodal: bool) -> int:
    """Number of party symbols: one per cell folded, one per (cell, bit) unfolded."""
    return binning.n_cells if fold_antipodal else 2 * binning.n_cells


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
    clamped to be nonnegative.  Rounds are binned and counted one block of
    ``_BLOCK`` at a time; ValueError if the two alphabets' pairs overflow a
    64-bit key.
    """
    codes = (
        (
            _party_codes(transcript, "alice", binning_a, fold_antipodal, s),
            _party_codes(transcript, "bob", binning_b, fold_antipodal, s),
        )
        for s in _blocks(len(transcript))
    )
    size_a, size_b = (_alphabet_size(b, fold_antipodal) for b in (binning_a, binning_b))
    return _plugin_mi(codes, size_a, size_b, miller_madow)


def empirical_mi_with_probe(
    transcript: Transcript,
    binning: SiftingPartition,
    party: str = "alice",
    miller_madow: bool = False,
    fold_antipodal: bool = False,
) -> float:
    """Histogram mutual information between one party and the probe bit, one block at a time."""
    if party not in ("alice", "bob"):
        raise ValueError(f"party must be 'alice' or 'bob', got {party!r}")
    codes = (
        (_party_codes(transcript, party, binning, fold_antipodal, s), transcript.eve_bit[s])
        for s in _blocks(len(transcript))
    )
    return _plugin_mi(codes, _alphabet_size(binning, fold_antipodal), 2, miller_madow)


def sifted_error_rate(transcript: Transcript) -> float:
    """Fraction of sifted rounds where the receiver's bit fails to anticorrelate."""
    if len(transcript) == 0:
        raise ValueError("no sifted rounds")
    return float((transcript.alice_bit == transcript.bob_bit).mean())


def _render_rows(block: tuple) -> str:
    """CSV text of one block of rounds: (first round index, *column slices in field order)."""
    start, *columns = block
    rows = zip(range(start, start + len(columns[0])), *(c.tolist() for c in columns))
    return "".join([_ROW_FORMAT % row for row in rows])


def _render_part(parts: str, block: tuple) -> str:
    """Render one block (``_render_rows``) to its own file in the directory ``parts``; returns the file's path."""
    part = os.path.join(parts, f"{block[0]}.csv")
    with open(part, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_render_rows(block))
    return part


def write_transcript(transcript: Transcript, path: str) -> None:
    """One CSV record per round in ``_TRANSCRIPT_FIELDS`` order; floats round-trip.

    Float ``repr`` bounds the writer, so a pool of spawned processes, at most
    one per usable core and one per block, renders blocks of ``_BLOCK``
    rounds, each worker to its own part file (``_render_part``) in a
    temporary directory beside ``path``.  This process writes the header to
    a file in that directory, then copies the parts into it in block order,
    removing each once it is copied: the file does not depend on the worker
    count, and the rendered text never enters this process.  With one block
    or one core this process renders that file alone.  Only after the last
    block does ``os.replace`` move it onto ``path`` (a symlink there is
    replaced, not written through), so a failed write leaves ``path`` as it
    was; the directory goes on every exit path.  Spawned
    workers start fresh interpreters, so nothing forks a process whose BLAS
    threads run, and they import the caller's main module, which must
    therefore guard its entry point with ``if __name__ == "__main__"`` (an
    unguarded one kills the workers, which raises OSError chained from
    ``BrokenProcessPool``).  Each task carries its own column slices;
    ``read_transcript`` parses the file back in the same blocks.
    """
    columns = [getattr(transcript, name) for name in _KINDS]
    slices = _blocks(len(transcript))
    blocks = ((s.start, *(c[s] for c in columns)) for s in slices)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cpus, len(slices))
    # Beside the output, so the parts and the file share its filesystem and the last step is a rename.
    with tempfile.TemporaryDirectory(dir=os.path.dirname(os.path.abspath(path))) as tmp:
        staged = os.path.join(tmp, "transcript")  # no part takes this name: parts are named by their first round
        with open(staged, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(_TRANSCRIPT_FIELDS) + "\n")
            if workers < 2:
                fh.writelines(map(_render_rows, blocks))
            else:
                # Imported here, not at import time: it would add to every command's start-up.
                import multiprocessing
                from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

                fh.flush()  # the parts are copied in as bytes, below the text layer
                # The pool shuts down before the directory goes, so no worker writes into a removed one.
                # A worker that dies, say on importing an unguarded main module, breaks the executor:
                # an OSError below, as the file cannot be written.  A multiprocessing.Pool would respawn it forever.
                try:
                    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
                        for part in pool.map(_render_part, itertools.repeat(tmp), blocks):
                            with open(part, "rb") as src:
                                shutil.copyfileobj(src, fh.buffer, 1 << 16)
                            os.remove(part)
                except BrokenExecutor as exc:
                    raise OSError(f"a transcript worker died: {exc}") from exc
        os.replace(staged, path)


def _row_bound(fh: BinaryIO) -> int:
    """The lines after the first in a binary file, split as the text reader splits them.

    A line ends at '\n', '\r\n' or a bare '\r' (universal newlines).  Blank
    lines count too, so this bounds the rows from above, and it is the row
    count of a file ``write_transcript`` wrote.  Reads one chunk at a time.
    """
    lines, tail = 0, b""
    while chunk := fh.read(1 << 20):
        if chunk.endswith(b"\r"):  # so a '\r\n' is not split between chunks
            chunk += fh.read(1)
        codes = np.frombuffer(chunk, dtype=np.uint8)
        lines += np.count_nonzero(codes == ord("\n"))
        if b"\r" in chunk:  # a '\r' ends a line unless a '\n' follows it
            lines += np.count_nonzero(codes == ord("\r")) - chunk.count(b"\r\n")
        tail = chunk[-1:]
    lines += tail not in (b"", b"\n", b"\r")  # a last line with no line end
    return max(lines - 1, 0)


def _cast_block(table: np.ndarray, start: int, columns: dict[str, np.ndarray]) -> None:
    """Check one parsed block whose first row is round ``start`` and cast it into its rows of ``columns``."""
    width = len(_TRANSCRIPT_FIELDS)
    rows = table.shape[0]
    if rows and table.shape[1] != width:
        raise ValueError(f"every transcript row must have {width} fields")
    parsed = dict(zip(_TRANSCRIPT_FIELDS, table.reshape(rows, width).T))  # views into the table
    if not np.array_equal(parsed.pop("round"), np.arange(start, start + rows)):
        raise ValueError("transcript rounds must run 0..n-1 in order")
    for name, kind in _KINDS.items():
        ok = kind.valid(parsed[name])  # checked as parsed, so a cast cannot hide a bad value
        if not ok.all():
            raise ValueError(f"transcript {name} out of range in row {start + int(np.argmin(ok))}")
        columns[name][start : start + rows] = parsed[name]


def read_transcript(path: str) -> Transcript:
    """Parse a file written by write_transcript; ValueError if it breaks the schema.

    Valid rows have one field per column and rounds 0..n-1, and each column's
    values pass the check of its kind on ``Transcript``, before they are cast
    to its dtype.  Blank lines are skipped; a '#' line is a malformed row, not a comment.
    A first pass counts the file's lines in binary (``_row_bound``), and the
    columns are allocated once at that length.  The rows are then parsed by
    ``np.loadtxt`` one block of ``_BLOCK`` at a time, and each block is checked
    and cast straight into its rows of the columns.  Peak memory is the
    columns (36 bytes per round) plus about two blocks, whatever the length
    of the run.  The columns returned are the allocated ones cut to the n
    rows read, so each blank line leaves 36 bytes allocated behind them.
    """
    with open(path, "rb") as raw:
        capacity = _row_bound(raw)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != _TRANSCRIPT_FIELDS:
            raise ValueError(f"unexpected transcript header {header}")
        columns = {name: np.empty(capacity, dtype=kind.dtype) for name, kind in _KINDS.items()}
        lines = filter(str.strip, fh)
        with warnings.catch_warnings():
            # A header-only file, or one a whole number of blocks long, ends in an empty block.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            # Every block but the last is full, so block k starts at round k * _BLOCK.
            for start in itertools.count(0, _BLOCK):
                table = np.loadtxt(
                    itertools.islice(lines, _BLOCK), delimiter=",", dtype=float, ndmin=2, comments=None
                )
                _cast_block(table, start, columns)
                if table.shape[0] < _BLOCK:
                    break
    n = start + table.shape[0]
    return Transcript(**{name: col[:n] for name, col in columns.items()})
