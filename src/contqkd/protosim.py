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
prefix of a longer one, and it is byte-identical across BLAS kernels and
numpy SIMD targets.

A transcript file is csv: the round index, then ``Transcript``'s fields in
their order.  Those fields are the one declaration of the columns: each
one's kind gives its dtype, its column renderer and its valid values, so
``run_protocol`` allocates, ``write_transcript`` checks and renders, and
``read_transcript`` checks and casts every column by it; the writer refuses
a column its reader would reject.  ``write_transcript`` is the only writer.
Each block is rendered column by column (floats by ``repr``, bits as one
ASCII string) into one flat list of fields that is joined once, to its own
part file beside the output, by a pool of spawned processes, one per usable
core, as ``repr`` bounds the writer, or, with one block or one core, by the
calling process; the caller copies the parts in round order into a file
beside them, moved onto the output only once it is whole.
``read_transcript`` counts a file's rows in one binary pass, allocates the
columns once at that count, parses and checks the rows one block at a time
into them, and rejects a file that breaks the schema, a blank line
included; its peak is the columns plus about two blocks, whatever the
length of the run.
"""

from __future__ import annotations

import itertools
import math
import os
import shutil
import tempfile
import warnings
from collections.abc import Callable, Iterable
from contextlib import ExitStack
from dataclasses import dataclass, field, fields, replace
from typing import BinaryIO, NamedTuple

import numpy as np

from .attack import AttackParams, attacked_state
from .infocalc import bloch_vectors
from .qstate import ATOL, DensityMatrix, NumericalCorruptionError, TWO_PI, check_int, pauli_tensor

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
    """A transcript column's kind: how it is stored, rendered to csv and checked, when written and when read back."""

    dtype: type
    render: Callable[[np.ndarray], Iterable[str]]  # a whole column of valid values to its csv fields, one per round
    valid: Callable[[np.ndarray], np.ndarray]  # the values, of any dtype, the column accepts


# The repr of a Python float is its shortest round-trip form.  A bit column, of any dtype, is one ASCII
# string of '0'/'1' characters: ``astype``, not ``view``, so that a float 0.0/1.0 column renders the same.
_BIT = _Kind(
    np.int8, lambda col: (col.astype(np.uint8) + 48).tobytes().decode(), lambda col: (col == 0.0) | (col == 1.0)
)
_FLAG = _BIT._replace(dtype=np.bool_)
_U = _Kind(np.float64, lambda col: map(repr, col.tolist()), lambda col: (col >= -1.0) & (col <= 1.0))
_PHI = _U._replace(valid=lambda col: (col >= 0.0) & (col < TWO_PI))


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
# The csv header: the round index, then the columns; ``_HEADER`` is its line, without the line end.
_TRANSCRIPT_FIELDS = ("round", *_KINDS)
_HEADER = ",".join(_TRANSCRIPT_FIELDS)
# One row's fields, each followed by its separator: ``_render_part`` fills the fields column by column.
_ROW_TEMPLATE = [None, ","] * len(_KINDS) + [None, "\n"]


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
    within ``qstate.ATOL``.
    """
    va = _bloch_rows(u_a, phi_a)
    vb = _bloch_rows(u_b, phi_b)
    p = (va[:, :, None] * vb[:, None, :]).reshape(-1, 16) @ w
    deviation = float(np.abs(p.sum(axis=1) - 1.0).max())
    if not deviation <= ATOL:
        raise NumericalCorruptionError(f"round probabilities sum off by {deviation:.3e}")
    return p


def _pick(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    cum = np.cumsum(p, axis=1)
    return (cum < r[:, None] * cum[:, -1:]).sum(axis=1)


def _blocks(n: int) -> list[slice]:
    """Slices of ``_BLOCK`` rounds, stops clipped to n, covering rounds 0..n-1 once each in order.

    The one block walk: sampling, sifting, binning, rendering and reading
    all go through it.
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


def _check_column(name: str, col: np.ndarray, start: int) -> None:
    """ValueError unless every value of column ``name``, whose first row is round ``start``, passes its kind's check."""
    ok = _KINDS[name].valid(col)
    if not ok.all():
        raise ValueError(f"transcript {name} out of range in row {start + int(np.argmin(ok))}")


def _render_part(parts: str, block: tuple) -> str:
    """Render a block (first round, *column slices in field order) to a csv file in ``parts``; return its path.

    Each column is checked as the reader checks it, then rendered whole into
    its slot of every row.
    """
    start, *columns = block
    n = len(columns[0])
    step = len(_ROW_TEMPLATE)
    flat = _ROW_TEMPLATE * n
    flat[0::step] = map(str, range(start, start + n))
    for slot, ((name, kind), col) in enumerate(zip(_KINDS.items(), columns), 1):
        _check_column(name, col, start)  # before the render: a bit's cast would wrap or warn on a bad value
        flat[2 * slot :: step] = kind.render(col)
    part = os.path.join(parts, f"{start}.csv")
    with open(part, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(flat))
    return part


def write_transcript(transcript: Transcript, path: str) -> None:
    """One CSV record per round in ``_TRANSCRIPT_FIELDS`` order; floats round-trip.

    ValueError, and no file written, if a column holds a value that its kind's
    check, the one ``read_transcript`` makes, rejects.  Every block of
    ``_BLOCK`` rounds is checked and rendered column by column to its own part
    file (``_render_part``) in a temporary directory beside ``path``: with one
    block or one usable core by this process, otherwise, as the floats'
    ``repr`` bounds the writer, by a pool of spawned processes, at most one
    per usable core and one per block.  This process writes the header to a
    file in that directory, then copies the parts into it in block order,
    removing each once it is copied: the file does not depend on the worker
    count, and on the pool route the rendered text never enters this process.
    Only after the last block does ``os.replace`` move it onto ``path`` (a
    symlink there is replaced, not written through), so a failed write leaves
    ``path`` as it was; the directory goes on every exit path.  Spawned
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
    render, broken = map, ()  # one block or one core: this process renders every part, and no pool can break
    # Beside the output, so the parts and the file share its filesystem and the last step is a rename.
    # The pool, entered last, shuts down first, so no worker writes into a removed directory.
    with tempfile.TemporaryDirectory(dir=os.path.dirname(os.path.abspath(path))) as tmp, ExitStack() as stack:
        if workers > 1:
            # Imported here, not at import time: it would add to every command's start-up.
            import multiprocessing
            from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))
            render, broken = stack.enter_context(pool).map, BrokenExecutor
        staged = os.path.join(tmp, "transcript")  # no part takes this name: parts are named by their first round
        with open(staged, "wb") as fh:
            fh.write((_HEADER + "\n").encode())
            # A worker that dies, say on importing an unguarded main module, breaks the executor: an OSError, as
            # the file cannot be written.  A multiprocessing.Pool would respawn it forever.
            try:
                for part in render(_render_part, itertools.repeat(tmp), blocks):
                    with open(part, "rb") as src:
                        shutil.copyfileobj(src, fh, 1 << 16)
                    os.remove(part)
            except broken as exc:
                raise OSError(f"a transcript worker died: {exc}") from exc
        os.replace(staged, path)


def _row_count(fh: BinaryIO) -> int:
    """The lines after the first in a binary file, split at '\n' only, as the reader's text layer splits them.

    A '\r' ends no line, and a last line needs no line end.  This is the row
    count of every file ``read_transcript`` accepts.
    """
    lines, tail = 0, b""
    while chunk := fh.read(1 << 20):
        lines += np.count_nonzero(np.frombuffer(chunk, dtype=np.uint8) == ord("\n"))
        tail = chunk[-1:]
    lines += tail not in (b"", b"\n")  # a last line with no line end
    return max(lines - 1, 0)


def _cast_block(table: np.ndarray, block: slice, columns: dict[str, np.ndarray]) -> None:
    """Check the parsed rows of the rounds in ``block`` and cast them into those rows of ``columns``."""
    rows = table.shape[0]
    if rows != block.stop - block.start:  # np.loadtxt skips a blank line, and only a blank line
        raise ValueError(f"transcript rounds {block.start}..{block.stop - 1} parse to {rows} rows: a blank line is no row")
    width = len(_TRANSCRIPT_FIELDS)
    if table.shape[1] != width:
        raise ValueError(f"every transcript row must have {width} fields")
    parsed = dict(zip(_TRANSCRIPT_FIELDS, table.T))  # views into the table
    if not np.array_equal(parsed.pop("round"), np.arange(block.start, block.stop)):
        raise ValueError("transcript rounds must run 0..n-1 in order")
    for name in _KINDS:
        _check_column(name, parsed[name], block.start)  # checked as parsed, so a cast cannot hide a bad value
        columns[name][block] = parsed[name]


def read_transcript(path: str) -> Transcript:
    """Parse a file written by write_transcript; ValueError if it breaks the schema.

    Valid rows have one field per column and rounds 0..n-1, and each column's
    values pass the check of its kind on ``Transcript``, before they are cast
    to its dtype.  Every line after the header is a row: a blank or '#' line is a malformed one.
    Lines end at '\n' only, so a CRLF file reads the same ('\r' is whitespace) and one with
    bare '\r' line ends is rejected; the first line, its end included, is the header and at most 3 more characters.
    A first pass counts the file's rows in binary (``_row_count``), and the
    columns are allocated once at that count.  The rows are then parsed by
    ``np.loadtxt`` one block of ``_BLOCK`` at a time, as ``_blocks`` walks
    them, and each block is checked and cast straight into its rows of the
    columns; a block ``np.loadtxt`` rejects raises a ValueError that names the
    block's rounds, chained from numpy's.  Peak memory is the columns (36
    bytes per round) plus about two blocks, whatever the length of the run.
    """
    with open(path, "rb") as raw:
        n = _row_count(raw)
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        first = fh.readline(len(_HEADER) + 3)  # the header and a '\r\n' fit; a longer first line is not read whole
        if first.strip() != _HEADER or len(first) == len(_HEADER) + 3 and not first.endswith("\n"):
            raise ValueError(f"unexpected transcript header line {first!r}")
        columns = {name: np.empty(n, dtype=kind.dtype) for name, kind in _KINDS.items()}
        with warnings.catch_warnings():
            # A block of only blank lines parses to no data: its row count rejects it, not a warning.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            for s in _blocks(n):
                try:
                    table = np.loadtxt(
                        itertools.islice(fh, s.stop - s.start), delimiter=",", dtype=float, ndmin=2, comments=None
                    )
                except ValueError as exc:  # numpy counts rows within the block; name the block's rounds
                    raise ValueError(f"transcript rounds {s.start}..{s.stop - 1} do not parse: {exc}") from exc
                _cast_block(table, s, columns)
    return Transcript(**columns)
