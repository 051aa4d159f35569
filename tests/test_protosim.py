"""Monte Carlo driver: sampling exactness, sifting, empirical information."""

import io
import itertools
import math
import multiprocessing
import os
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contqkd
from contqkd import (
    AttackParams,
    NumericalCorruptionError,
    ProtocolConfig,
    SiftingPartition,
    Transcript,
    attacked_state,
    empirical_mi,
    optimal_params,
    qber_sphere_averaged,
    read_transcript,
    run_protocol,
    sift,
    write_transcript,
)
from contqkd.attack import attacked_pure_state
from contqkd.infocalc import DEFAULT_RULE, bloch_vectors, default_quadrature
from contqkd.protosim import (
    _BLOCK,
    _HEADER,
    _KINDS,
    _TRANSCRIPT_FIELDS,
    _alphabet_size,
    _antipode,
    _bloch_rows,
    _blocks,
    _joint_law,
    _law_matrix,
    _party_codes,
    _pick,
    _plugin_mi,
    _row_count,
    empirical_mi_with_probe,
    sifted_error_rate,
)
from contqkd.qstate import ATOL
from conftest import assert_same_text, cos_polar_azimuth, random_direction
import oracle

NO_ATTACK = optimal_params(0.0)
Z = np.array([0.0, 0.0, 1.0])

# The real law and the complex Born rule differ by roundoff only (max |dp|
# measured at 3.9e-16 to 5.6e-16 over random attacks and directions).
LAW_TOL = 1e-15


def born(attack: AttackParams, dirs_a: np.ndarray, dirs_b: np.ndarray) -> np.ndarray:
    """Exact outcome distributions, shape (n, 2, 2, 2), for unit-vector rows."""
    p = _joint_law(
        _law_matrix(attacked_state(attack)), *cos_polar_azimuth(dirs_a), *cos_polar_azimuth(dirs_b)
    )
    return p.reshape(-1, 2, 2, 2)


def sample_bits(
    attack: AttackParams, dirs_a: np.ndarray, dirs_b: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """(alice, bob, eve) bits of one round per direction row, shape (n, 3)."""
    idx = _pick(born(attack, dirs_a, dirs_b).reshape(-1, 8), rng.random(len(dirs_a)))
    return np.stack([(idx >> 2) & 1, (idx >> 1) & 1, idx & 1], axis=1)


def random_directions(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.array([random_direction(rng) for _ in range(n)])


def make_transcript(alice_bits, bob_bits) -> Transcript:
    n = len(alice_bits)
    zeros = np.zeros(n)
    return Transcript(
        alice_u=zeros.copy(),
        alice_phi=zeros.copy(),
        alice_bit=np.asarray(alice_bits, dtype=np.int8),
        bob_u=zeros.copy(),
        bob_phi=zeros.copy(),
        bob_bit=np.asarray(bob_bits, dtype=np.int8),
        eve_bit=np.zeros(n, dtype=np.int8),
        disclosed=np.zeros(n, dtype=bool),
    )


class TestConfig:
    def test_zero_rounds_rejected(self):
        with pytest.raises(ValueError, match="rounds"):
            ProtocolConfig(rounds=0, attack=NO_ATTACK)

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError, match="disclose"):
            ProtocolConfig(rounds=10, attack=NO_ATTACK, disclose_fraction=1.0)

    def test_bad_cells_rejected(self):
        with pytest.raises(ValueError, match="cell"):
            ProtocolConfig(rounds=10, attack=NO_ATTACK, cells_u=0)

    @pytest.mark.parametrize(
        "field, value",
        [("seed", 1.7), ("seed", 1.0), ("seed", -1), ("seed", 2**64), ("rounds", 10.0), ("cells_phi", 4.0)],
    )
    def test_non_integer_or_out_of_range_count_rejected(self, field, value):
        # Philox would truncate a float key, so seed=1.7 would run as seed 1.
        with pytest.raises(ValueError, match=field):
            ProtocolConfig(**{"rounds": 10, "attack": NO_ATTACK, field: value})

    def test_numpy_integers_accepted(self):
        cfg = ProtocolConfig(rounds=np.int64(10), attack=NO_ATTACK, seed=np.uint64(2**64 - 1))
        assert len(run_protocol(cfg)) == 10

    @pytest.mark.parametrize("cells", [(2.5, 4), (2, 4.0), (0, 4)])
    def test_partition_counts_must_be_positive_integers(self, cells):
        with pytest.raises(ValueError, match="cells_"):
            SiftingPartition(*cells)


class TestRoundSampling:
    def test_probabilities_normalized(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = born(
                AttackParams(*rng.uniform(0, math.pi / 4, 2)),
                random_directions(rng, 4),
                random_directions(rng, 4),
            )
            np.testing.assert_allclose(p.sum(axis=(1, 2, 3)), 1.0, atol=1e-10)
            assert p.min() >= 0.0

    def test_shared_direction_anticorrelates_without_attack(self):
        rng = np.random.default_rng(5)
        d = random_directions(rng, 200)
        bits = sample_bits(NO_ATTACK, d, d, rng)
        assert np.all(bits[:, 1] != bits[:, 0])

    def test_relative_angle_law(self):
        # Empirical anticorrelation rate against (1 + cos angle)/2.
        rng = np.random.default_rng(7)
        n = 4000
        def unit(theta, phi):
            v = [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
            return np.tile(v, (n, 1))

        for angle in (0.6, 1.4):
            bits = sample_bits(NO_ATTACK, unit(1.0, 2.0), unit(1.0 + angle, 2.0), rng)
            hits = int((bits[:, 0] != bits[:, 1]).sum())
            expected = (1.0 + math.cos(angle)) / 2.0
            sigma = math.sqrt(expected * (1 - expected) / n)
            assert abs(hits / n - expected) < 3.5 * sigma

    def test_probe_reads_letter_at_full_swap(self):
        rng = np.random.default_rng(9)
        swap = AttackParams(math.pi / 4, 0.0)
        bits = sample_bits(swap, np.repeat(Z[None, :], 200, axis=0), random_directions(rng, 200), rng)
        assert np.all(bits[:, 2] != bits[:, 0])

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        angles=st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_real_law_matches_complex_born_rule(self, angles, seed):
        rng = np.random.default_rng(seed)
        attack = AttackParams(*angles)
        ua, pa = cos_polar_azimuth(random_directions(rng, 16))
        ub, pb = cos_polar_azimuth(random_directions(rng, 16))
        ua[:2], ub[1:3] = (1.0, -1.0), (1.0, -1.0)  # poles, where sin(theta) vanishes
        got = _joint_law(_law_matrix(attacked_state(attack)), ua, pa, ub, pb)
        ref = oracle.outcome_probabilities(attacked_pure_state(attack), ua, pa, ub, pb)
        assert float(np.abs(got - ref).max()) <= LAW_TOL

    def test_off_normal_law_rejected(self):
        # The floor is qstate.ATOL: rows summing to 1 + ATOL/2 pass, 1 + 2 ATOL and 1.01 do not.
        w = _law_matrix(attacked_state(optimal_params(0.3)))
        u, phi = np.array([0.3, -0.8]), np.array([1.0, 4.0])
        _joint_law(w * (1.0 + 0.5 * ATOL), u, phi, u, phi)
        for scale, says in ((1.0 + 2.0 * ATOL, "2.000e-12"), (1.01, "1.000e-02")):
            with pytest.raises(NumericalCorruptionError, match=f"round probabilities sum off by {says}"):
                _joint_law(w * scale, u, phi, u, phi)

    def test_bloch_rows_are_the_quadrature_vectors(self):
        # One direction map: the sampler's rows carry the quadrature's unit
        # vectors bit for bit, on every node of the default rule.
        u, phi = oracle.product_nodes(*DEFAULT_RULE)
        rows = _bloch_rows(u, phi)
        assert np.array_equal(rows[:, 0], np.ones(u.size))
        assert np.array_equal(rows[:, 1:], default_quadrature().vectors)

    def test_antipode_negates_the_vector(self):
        rng = np.random.default_rng(17)
        u, phi = rng.uniform(-1.0, 1.0, 1000), rng.uniform(0.0, 2.0 * math.pi, 1000)
        anti_u, anti_phi = _antipode(u, phi)
        assert np.all((0.0 <= anti_phi) & (anti_phi < 2.0 * math.pi))
        np.testing.assert_allclose(bloch_vectors(anti_u, anti_phi), -bloch_vectors(u, phi), atol=1e-15)

    def test_run_round_consumes_five_uniforms(self):
        # Each round of a run consumes five uniforms whatever the run length,
        # so a shorter run is a prefix of a longer one.
        attack = optimal_params(0.2)
        short = run_protocol(ProtocolConfig(rounds=7, attack=attack, seed=11))
        long = run_protocol(ProtocolConfig(rounds=12, attack=attack, seed=11))
        for name in ("alice_u", "alice_phi", "alice_bit", "bob_u", "bob_phi", "bob_bit", "eve_bit"):
            np.testing.assert_array_equal(getattr(short, name), getattr(long, name)[:7])
        assert set(np.unique(long.alice_bit)) <= {0, 1} and set(np.unique(long.eve_bit)) <= {0, 1}


class TestRunProtocol:
    def test_determinism(self):
        cfg = ProtocolConfig(rounds=500, attack=optimal_params(0.2), seed=99)
        t1 = run_protocol(cfg)
        t2 = run_protocol(cfg)
        for name in ("alice_u", "alice_phi", "alice_bit", "bob_u", "bob_phi", "bob_bit", "eve_bit"):
            np.testing.assert_array_equal(getattr(t1, name), getattr(t2, name))

    def test_stream_contract_across_chunk_seam(self):
        # Round i is row i of one (rounds, 5) Philox array: directions from
        # columns 0-3, the outcome picked from the Born distribution by
        # column 4.  The runs span a sampling-block seam, with a short last
        # block and with a whole number of blocks; the array is drawn whole,
        # and the reference law is the complex Born rule of the oracle.
        for rounds in (_BLOCK + 3, 2 * _BLOCK):
            cfg = ProtocolConfig(rounds=rounds, attack=optimal_params(0.15), seed=12345)
            t = run_protocol(cfg)
            draws = np.random.Generator(np.random.Philox(key=cfg.seed)).random((cfg.rounds, 5))
            two_pi = 2.0 * math.pi
            np.testing.assert_array_equal(t.alice_u, 2.0 * draws[:, 0] - 1.0)
            np.testing.assert_array_equal(t.alice_phi, two_pi * draws[:, 1])
            np.testing.assert_array_equal(t.bob_u, 2.0 * draws[:, 2] - 1.0)
            np.testing.assert_array_equal(t.bob_phi, two_pi * draws[:, 3])
            p = oracle.outcome_probabilities(
                attacked_pure_state(cfg.attack), t.alice_u, t.alice_phi, t.bob_u, t.bob_phi
            )
            idx = _pick(p, draws[:, 4])
            np.testing.assert_array_equal(t.alice_bit, (idx >> 2) & 1)
            np.testing.assert_array_equal(t.bob_bit, (idx >> 1) & 1)
            np.testing.assert_array_equal(t.eve_bit, idx & 1)

    def test_disclosure_prefix(self):
        cfg = ProtocolConfig(rounds=1000, attack=NO_ATTACK, seed=1, disclose_fraction=0.25)
        t = run_protocol(cfg)
        assert int(t.disclosed.sum()) == 250
        assert bool(t.disclosed[:250].all()) and not bool(t.disclosed[250:].any())

    def test_sender_bit_unbiased(self):
        cfg = ProtocolConfig(rounds=100_000, attack=optimal_params(0.3), seed=17)
        t = run_protocol(cfg)
        mean = float(t.alice_bit.mean())
        assert abs(mean - 0.5) < 4.0 * math.sqrt(0.25 / cfg.rounds)


class TestSift:
    def test_error_rate_of_no_rounds_rejected(self):
        with pytest.raises(ValueError, match="no sifted rounds"):
            sifted_error_rate(make_transcript([], []))

    def test_single_cell_keeps_everything(self):
        cfg = ProtocolConfig(rounds=300, attack=NO_ATTACK, seed=2)
        t = run_protocol(cfg)
        assert len(sift(t, SiftingPartition(1, 1))) == len(t)

    def test_keep_rate_matches_partition_measure(self):
        # (3, 1) has a cell that holds its own antipode: its rounds are kept once, unflipped.
        cfg = ProtocolConfig(rounds=200_000, attack=NO_ATTACK, seed=4)
        t = run_protocol(cfg)
        for part in (SiftingPartition(8, 16), SiftingPartition(3, 1)):
            kept = len(sift(t, part))
            expected = part.expected_keep_rate()
            sigma = math.sqrt(expected * (1 - expected) * cfg.rounds)
            assert abs(kept - expected * cfg.rounds) < 4.0 * sigma, part

    def test_antipodal_match_flips_receiver_bit(self):
        # Receiver measuring the antipodal direction reports inverted labels;
        # after the sift flip the no-attack rounds anticorrelate again.
        rng = np.random.default_rng(31)
        n = 400
        dirs = random_directions(rng, n)
        bits = sample_bits(NO_ATTACK, dirs, -dirs, rng).astype(np.int8)
        alice_u, alice_phi = cos_polar_azimuth(dirs)
        t = Transcript(
            alice_u=alice_u,
            alice_phi=alice_phi,
            alice_bit=bits[:, 0].copy(),
            bob_u=-alice_u,
            bob_phi=np.mod(alice_phi + math.pi, 2 * math.pi),
            bob_bit=bits[:, 1].copy(),
            eve_bit=bits[:, 2].copy(),
            disclosed=np.zeros(n, dtype=bool),
        )
        sifted = sift(t, SiftingPartition(8, 16))
        assert len(sifted) == n
        assert sifted_error_rate(sifted) == 0.0

    def test_fine_partition_error_matches_sphere_disturbance(self, quad_light):
        theta = math.pi / 8
        cfg = ProtocolConfig(rounds=150_000, attack=optimal_params(theta), seed=8)
        sifted = sift(run_protocol(cfg), SiftingPartition(16, 32))
        err = sifted_error_rate(sifted)
        ref = qber_sphere_averaged(optimal_params(theta), quad_light)
        sigma = math.sqrt(ref * (1 - ref) / len(sifted))
        assert abs(err - ref) < 3.0 * sigma + 0.01  # finite-cell widening allowance


class TestEmpiricalMi:
    def test_anticorrelated_bits_single_cell(self):
        bits = np.tile([0, 1], 500)
        t = make_transcript(bits, 1 - bits)
        one = SiftingPartition(1, 1)
        assert empirical_mi(t, one, one) == pytest.approx(1.0, abs=1e-12)

    def test_independent_bits_with_correction(self):
        rng = np.random.default_rng(6)
        a = rng.integers(0, 2, 20_000)
        b = rng.integers(0, 2, 20_000)
        one = SiftingPartition(1, 1)
        val = empirical_mi(make_transcript(a, b), one, one, miller_madow=True)
        assert val < 3.0 / (2.0 * 20_000 * math.log(2)) + 3e-4

    def test_folding_preserves_information(self):
        # On a fine grid the folded and unfolded symbolizations estimate the
        # same quantity; check they agree within sampling noise.
        cfg = ProtocolConfig(rounds=100_000, attack=NO_ATTACK, seed=21)
        t = run_protocol(cfg)
        part = SiftingPartition(4, 8)
        plain = empirical_mi(t, part, part, miller_madow=True)
        folded = empirical_mi(t, part, part, miller_madow=True, fold_antipodal=True)
        assert folded == pytest.approx(plain, abs=0.01)

    def test_empty_rejected(self):
        t = make_transcript(np.array([], dtype=np.int8), np.array([], dtype=np.int8))
        one = SiftingPartition(1, 1)
        with pytest.raises(ValueError, match="empty"):
            empirical_mi(t, one, one)

    def test_unknown_party_rejected_before_any_block(self):
        one = SiftingPartition(1, 1)
        for rounds in (0, 3):
            t = make_transcript(np.zeros(rounds, dtype=np.int8), np.zeros(rounds, dtype=np.int8))
            with pytest.raises(ValueError, match="party must be"):
                empirical_mi_with_probe(t, one, "eve")

    def test_pair_keys_that_would_wrap_rejected(self):
        # 1e11 folded cells per party: pair keys up to 1e22 do not fit in an int64.
        t = run_protocol(ProtocolConfig(rounds=10, attack=NO_ATTACK, seed=2))
        fine = SiftingPartition(10**6, 10**5)
        with pytest.raises(ValueError, match="overflow"):
            empirical_mi(t, fine, fine, fold_antipodal=True)

    def test_pair_key_limit_checked_before_any_block(self):
        def blocks():
            raise AssertionError("a block was read")
            yield

        largest = [(np.array([2**32 - 1]), np.array([2**31 - 2]))]
        assert _plugin_mi(iter(largest), 2**32, 2**31 - 1, False) == 0.0
        with pytest.raises(ValueError, match="overflow"):
            _plugin_mi(blocks(), 2**32, 2**31, False)

    def test_sifted_rate_approaches_one_bit(self):
        cfg = ProtocolConfig(rounds=300_000, attack=NO_ATTACK, seed=23)
        sifted = sift(run_protocol(cfg), SiftingPartition(16, 32))
        one = SiftingPartition(1, 1)
        val = empirical_mi(sifted, one, one, miller_madow=True)
        assert val == pytest.approx(1.0, abs=0.08)


def _set_field(name: str, value: str):
    def edit(fields: list[str], header: list[str]) -> None:
        fields[header.index(name)] = value

    return edit


# One record of a valid transcript, broken in one way each, and the error it
# raises: "{row}" stands for the record's round, and "{first}".."{last}" for the
# rounds of its read block, by which a row numpy's parser rejects is named.
UNPARSED = r"^transcript rounds {first}\.\.{last} do not parse: "
BROKEN_RECORDS = {
    "bit 7": (_set_field("alice_bit", "7"), "alice_bit out of range in row {row}$"),
    "u 3.0": (_set_field("alice_u", "3.0"), "alice_u out of range in row {row}$"),
    "phi -9": (_set_field("bob_phi", "-9"), "bob_phi out of range in row {row}$"),
    "phi 2pi": (_set_field("alice_phi", repr(2.0 * math.pi)), "alice_phi out of range in row {row}$"),
    "disclosed 2": (_set_field("disclosed", "2"), "disclosed out of range in row {row}$"),
    "u nan": (_set_field("bob_u", "nan"), "bob_u out of range in row {row}$"),
    # Non-integral bits and values just outside a range: checked before the cast to the column's dtype.
    "bit 0.5": (_set_field("alice_bit", "0.5"), "alice_bit out of range in row {row}$"),
    "disclosed 0.5": (_set_field("disclosed", "0.5"), "disclosed out of range in row {row}$"),
    "u above 1": (_set_field("bob_u", "1.0000000000000002"), "bob_u out of range in row {row}$"),
    "phi nan": (_set_field("alice_phi", "nan"), "alice_phi out of range in row {row}$"),
    "repeated round": (_set_field("round", "0"), "rounds must run 0..n-1"),
    "extra field": (lambda fields, header: fields.append("0"), UNPARSED),
    "short row": (lambda fields, header: fields.pop(), UNPARSED),
    "u abc": (_set_field("bob_u", "abc"), UNPARSED + ".*'abc'"),
}

# A valid transcript one block and four rounds long: its lines 1.._BLOCK hold
# the first read block and line _BLOCK + 1 starts the second.
SEAM_ROUNDS = _BLOCK + 4


@pytest.fixture(scope="module")
def seam_transcript(tmp_path_factory):
    t = run_protocol(ProtocolConfig(rounds=SEAM_ROUNDS, attack=optimal_params(0.1), seed=3))
    path = tmp_path_factory.mktemp("seam") / "transcript.csv"
    write_transcript(t, str(path))
    return t, path.read_text().splitlines()


# A transcript's lines (header first) laid out as file text: '\r\n' line ends
# and a missing last line end.  The reader accepts each.
LINE_LAYOUTS = {
    "crlf": lambda lines: "\r\n".join(lines) + "\r\n",
    "no final newline": lambda lines: "\n".join(lines),
}

# Blank or whitespace-only lines after the last round: every line after the
# header is a row, so the reader rejects each.
TRAILING_BLANK_LAYOUTS = {
    "blank": lambda lines: "\n".join(lines) + "\n\n\n",
    "whitespace": lambda lines: "\n".join(lines) + "\n  \t\n \r\n\t",
}

# Layouts with bare '\r' line ends, which end no line, and the error each
# raises: None leaves the wording to numpy's parser.
BARE_CR_LAYOUTS = {
    "bare cr": (lambda lines: "\r".join(lines) + "\r", "header"),
    "mixed": (lambda lines: "".join(line + ("\n", "\r\n", "\r")[i % 3] for i, line in enumerate(lines)), None),
}


@pytest.fixture(scope="module")
def ending_transcript(tmp_path_factory):
    t = run_protocol(ProtocolConfig(rounds=2 * _BLOCK + 3, attack=optimal_params(0.15), seed=17))
    path = tmp_path_factory.mktemp("endings") / "transcript.csv"
    write_transcript(t, str(path))
    return t, path.read_text().splitlines()


# A value the reader rejects, by the column it is put in, as a column of the value's own type: the writer refuses each.
UNWRITABLE = {
    "nan bit": ("eve_bit", math.nan),
    "bit 2": ("bob_bit", 2),
    "bit -1": ("alice_bit", -1),
    "u above 1": ("alice_u", 1.0000000000000002),
    "phi 2 pi": ("bob_phi", 2.0 * math.pi),
}

# Floats at the edges of the float kinds' ranges and of repr's forms: signed zeros, the smallest subnormal,
# exponent form (below 1e-4) and the largest double below 2 pi.  Each float column draws those its kind accepts.
EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e-7, -2.5e-7, 1.0, -1.0, float(np.nextafter(2.0 * math.pi, 0.0))]


@st.composite
def written_transcripts(draw):
    """A transcript of in-range columns; each bit column is bool, int8 or float 0.0/1.0."""
    n = draw(st.integers(1, 12))
    columns = {}
    for name, kind in _KINDS.items():
        if kind.dtype is np.float64:
            edges = [x for x in EDGE_FLOATS if kind.valid(np.array(x))]
            value = st.one_of(st.sampled_from(edges), st.floats(-1.0, 2.0 * math.pi, exclude_max=True))
            values = st.lists(value.filter(lambda x, valid=kind.valid: valid(np.array(x))), min_size=n, max_size=n)
            columns[name] = np.array(draw(values))
        else:
            bits = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            columns[name] = np.array(bits, dtype=draw(st.sampled_from([np.bool_, np.int8, np.float64])))
    return Transcript(**columns)


def assert_same_transcript(got: Transcript, want: Transcript) -> None:
    for f in fields(Transcript):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name


class TestTranscriptIO:
    def test_field_order_is_the_column_order(self):
        # The header after the round index is Transcript's fields, in their order.
        assert _TRANSCRIPT_FIELDS[0] == "round"
        assert _TRANSCRIPT_FIELDS[1:] == tuple(f.name for f in fields(Transcript))

    def test_sampled_columns_have_the_file_dtypes(self):
        # The dtypes the reader gives back, which replays compare byte for byte.
        t = run_protocol(ProtocolConfig(rounds=10, attack=optimal_params(0.1), seed=1))
        dtypes = {f.name: getattr(t, f.name).dtype for f in fields(Transcript)}
        assert dtypes == {
            "disclosed": np.bool_, "alice_u": np.float64, "alice_phi": np.float64, "alice_bit": np.int8,
            "bob_u": np.float64, "bob_phi": np.float64, "bob_bit": np.int8, "eve_bit": np.int8,
        }

    def test_columns_of_unequal_length_rejected(self):
        columns = {f.name: np.zeros(3, dtype=_KINDS[f.name].dtype) for f in fields(Transcript)}
        with pytest.raises(ValueError, match="transcript columns must have equal length"):
            Transcript(**{**columns, "eve_bit": np.zeros(2, dtype=np.int8)})

    def test_positional_construction_rejected(self):
        # Keyword-only, so no caller can fill a column by its position.
        with pytest.raises(TypeError):
            Transcript(*[np.zeros(2)] * len(fields(Transcript)))

    @pytest.mark.parametrize("cpus", [None, 1, 4], ids=["affinity", "1cpu", "4cpu"])
    @pytest.mark.parametrize("rounds", [3, _BLOCK + 3, 2 * _BLOCK + 3])
    def test_writer_matches_rowwise_reference_across_block_seams(self, tmp_path, monkeypatch, rounds, cpus):
        # The file is the same whatever the number of rendering workers, one block rendered in this process
        # included, and each part file goes as soon as it is copied in: at the final rename the staging
        # directory holds the staged file alone.
        if cpus is not None:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        staged = []

        def replace(src, dst, rename=os.replace):
            staged.append(sorted(os.listdir(os.path.dirname(src))))
            rename(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        t = run_protocol(ProtocolConfig(rounds=rounds, attack=optimal_params(0.25), seed=31))
        path = tmp_path / "transcript.csv"
        write_transcript(t, str(path))
        assert_same_text(path.read_text(), oracle.render_transcript(t))
        assert staged == [["transcript"]]
        assert [p.name for p in tmp_path.iterdir()] == ["transcript.csv"]  # no part file survives

    def test_empty_transcript_is_the_header_line(self, tmp_path):
        t = run_protocol(ProtocolConfig(rounds=50, attack=NO_ATTACK, seed=2))
        empty = t.subset(np.zeros(len(t), dtype=bool))
        path = tmp_path / "transcript.csv"
        write_transcript(empty, str(path))
        assert_same_text(path.read_text(), oracle.render_transcript(empty))
        assert path.read_text().count("\n") == 1

    def test_cpu_count_stands_in_for_a_missing_affinity_call(self, tmp_path, monkeypatch):
        # Platforms without os.sched_getaffinity (macOS, Windows) size the pool by os.cpu_count.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        t = run_protocol(ProtocolConfig(rounds=2 * _BLOCK + 3, attack=optimal_params(0.25), seed=32))
        path = tmp_path / "transcript.csv"
        write_transcript(t, str(path))
        assert_same_text(path.read_text(), oracle.render_transcript(t))

    def test_worker_failure_raises_and_leaves_no_worker(self, tmp_path):
        # A NaN bit fails its kind's check, so the worker holding the second
        # block raises.
        t = run_protocol(ProtocolConfig(rounds=3 * _BLOCK, attack=NO_ATTACK, seed=5))
        eve_bit = t.eve_bit.astype(float)
        eve_bit[_BLOCK + 1] = math.nan
        with pytest.raises(ValueError, match=f"^transcript eve_bit out of range in row {_BLOCK + 1}$"):
            write_transcript(replace(t, eve_bit=eve_bit), str(tmp_path / "transcript.csv"))
        assert multiprocessing.active_children() == []
        assert list(tmp_path.iterdir()) == []  # no transcript, no part: the failed write left nothing

    @pytest.mark.parametrize("rounds", [3, 3 * _BLOCK], ids=["in process", "pool"])
    def test_failed_write_leaves_an_existing_file_unchanged(self, tmp_path, rounds):
        path = tmp_path / "transcript.csv"
        path.write_bytes(b"an earlier run\n")
        t = run_protocol(ProtocolConfig(rounds=rounds, attack=NO_ATTACK, seed=5))
        eve_bit = t.eve_bit.astype(float)
        eve_bit[-1] = math.nan  # the last block cannot be rendered
        with pytest.raises(ValueError, match=f"^transcript eve_bit out of range in row {rounds - 1}$"):
            write_transcript(replace(t, eve_bit=eve_bit), str(path))
        assert path.read_bytes() == b"an earlier run\n"
        assert [p.name for p in tmp_path.iterdir()] == ["transcript.csv"]

    @pytest.mark.parametrize("column, value", list(UNWRITABLE.values()), ids=list(UNWRITABLE))
    @pytest.mark.parametrize("rounds", [3, 3 * _BLOCK], ids=["in process", "pool"])
    def test_value_the_reader_rejects_is_not_written(self, tmp_path, rounds, column, value):
        # The writer checks each column as the reader would, so no value it renders is one the reader rejects; the
        # bad value sits in the middle block of a pooled write.
        t = run_protocol(ProtocolConfig(rounds=rounds, attack=NO_ATTACK, seed=5))
        row = rounds // 2
        col = getattr(t, column).astype(type(value))
        col[row] = value
        with pytest.raises(ValueError, match=f"^transcript {column} out of range in row {row}$"):
            write_transcript(replace(t, **{column: col}), str(tmp_path / "transcript.csv"))
        assert multiprocessing.active_children() == []
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=60, deadline=None)
    @given(written_transcripts())
    def test_render_is_repr_and_reads_back(self, t):
        # Any in-range column renders as the row-wise reference does, repr for a float and 0/1 for a bit of any
        # dtype, and the file reads back bit for bit at the kinds' dtypes.
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "transcript.csv")
            write_transcript(t, path)
            with open(path, encoding="utf-8", newline="") as fh:
                assert fh.read() == oracle.render_transcript(t)
            back = read_transcript(path)
        assert_same_transcript(back, Transcript(**{n: getattr(t, n).astype(k.dtype) for n, k in _KINDS.items()}))

    def test_unguarded_script_fails_instead_of_hanging(self, tmp_path):
        # Spawned workers import the main module; one without a __main__
        # guard starts a pool while bootstrapping, which must fail, not hang.
        script = tmp_path / "unguarded.py"
        script.write_text(
            "import os\n"
            "from contqkd import ProtocolConfig, optimal_params, run_protocol, write_transcript\n"
            "from contqkd.protosim import _BLOCK\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "t = run_protocol(ProtocolConfig(rounds=_BLOCK + 1, attack=optimal_params(0.0), seed=1))\n"
            f"write_transcript(t, {str(tmp_path / 'transcript.csv')!r})\n"
        )
        src = str(Path(contqkd.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode != 0
        assert "BrokenProcessPool" in out.stderr

    def test_roundtrip(self, tmp_path):
        cfg = ProtocolConfig(rounds=200, attack=optimal_params(0.1), seed=3)
        t = run_protocol(cfg)
        path = str(tmp_path / "transcript.csv")
        write_transcript(t, path)
        back = read_transcript(path)
        np.testing.assert_array_equal(back.alice_u, t.alice_u)
        np.testing.assert_array_equal(back.bob_phi, t.bob_phi)
        np.testing.assert_array_equal(back.eve_bit, t.eve_bit)
        np.testing.assert_array_equal(back.disclosed, t.disclosed)

    @pytest.mark.parametrize(
        "edit, message, line",
        [(*broken, line) for line in (2, _BLOCK + 2) for broken in BROKEN_RECORDS.values()],
        ids=[*BROKEN_RECORDS, *(f"{name} in the second block" for name in BROKEN_RECORDS)],
    )
    def test_record_outside_the_schema_rejected(self, tmp_path, seam_transcript, edit, message, line):
        lines = list(seam_transcript[1])  # a copy: the fixture is shared
        record = lines[line].split(",")
        edit(record, lines[0].split(","))
        lines[line] = ",".join(record)
        path = tmp_path / "transcript.csv"
        path.write_text("\n".join(lines) + "\n")
        first = (line - 1) // _BLOCK * _BLOCK
        last = min(first + _BLOCK, SEAM_ROUNDS) - 1
        with pytest.raises(ValueError, match=message.format(row=line - 1, first=first, last=last)) as err:
            read_transcript(str(path))
        if message.startswith(UNPARSED):
            assert isinstance(err.value.__cause__, ValueError)  # numpy's own error, chained

    @pytest.mark.parametrize("rounds", [_BLOCK, 2 * _BLOCK + 3])
    def test_roundtrip_across_block_seams(self, tmp_path, rounds):
        # A whole number of blocks, and a partial last block.
        t = run_protocol(ProtocolConfig(rounds=rounds, attack=optimal_params(0.2), seed=13))
        path = tmp_path / "transcript.csv"
        path.write_text(oracle.render_transcript(t))
        assert_same_transcript(read_transcript(str(path)), t)

    def test_boundary_values_accepted(self, tmp_path):
        path = tmp_path / "transcript.csv"
        path.write_text(
            "round,disclosed,alice_u,alice_phi,alice_bit,bob_u,bob_phi,bob_bit,eve_bit\n"
            "0,1,-1.0,0.0,0,1.0,6.283185307179585,1,1\n"
        )
        t = read_transcript(str(path))
        assert (t.alice_u[0], t.bob_u[0], t.alice_phi[0]) == (-1.0, 1.0, 0.0)
        assert t.bob_phi[0] < 2.0 * math.pi
        assert t.disclosed.dtype == bool and t.bob_bit.dtype == np.int8

    def test_rows_all_one_field_short_rejected(self, tmp_path):
        # np.loadtxt rejects a ragged block itself, so the reader's own field count is reached only
        # when every row of a block has the same wrong count: here 8 fields, the eve_bit column missing.
        path = tmp_path / "transcript.csv"
        path.write_text(",".join(_TRANSCRIPT_FIELDS) + "\n0,1,-1.0,0.0,0,1.0,0.5,1\n1,0,0.5,1.0,1,0.0,0.5,0\n")
        with pytest.raises(ValueError, match=f"every transcript row must have {len(_TRANSCRIPT_FIELDS)} fields"):
            read_transcript(str(path))

    def test_header_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_transcript(str(path))

    def test_record_on_the_header_line_rejected(self, tmp_path, seam_transcript):
        # The header is read only a few characters past its length; what follows on its line is no record.
        lines = seam_transcript[1]
        path = tmp_path / "transcript.csv"
        path.write_text(lines[0] + "\t\t\t" + lines[1] + "\n")
        with pytest.raises(ValueError, match="header"):
            read_transcript(str(path))

    def test_header_only_file_is_empty(self, tmp_path):
        path = tmp_path / "transcript.csv"
        path.write_text("round,disclosed,alice_u,alice_phi,alice_bit,bob_u,bob_phi,bob_bit,eve_bit\n")
        t = read_transcript(str(path))
        assert len(t) == 0
        assert t.disclosed.dtype == bool and t.eve_bit.dtype == np.int8 and t.alice_u.dtype == float

    def test_blank_lines_rejected(self, tmp_path, seam_transcript):
        # One blank or whitespace-only line goes right after the header, before,
        # at or after the read-block seam between lines _BLOCK and _BLOCK + 1,
        # or after the last round; a header and one blank line is rejected too.
        # Each is a malformed row, and no warning escapes.  np.loadtxt skips a
        # blank line ('\r' is whitespace), so its block comes up short, and it
        # rejects a whitespace-only one, which then names the rounds of its block.
        lines = seam_transcript[1]
        path = tmp_path / "transcript.csv"
        blanks = {"": "a blank line is no row", "\r": "a blank line is no row", "  \t": UNPARSED}
        for blank, at in itertools.product(blanks, [1, 3, _BLOCK, _BLOCK + 1, _BLOCK + 2, len(lines)]):
            path.write_text("\n".join([*lines[:at], blank, *lines[at:]]) + "\n")
            first = (at - 1) // _BLOCK * _BLOCK
            last = min(first + _BLOCK, SEAM_ROUNDS + 1) - 1
            with pytest.raises(ValueError, match=blanks[blank].format(first=first, last=last)) as err:
                read_transcript(str(path))
            assert len(str(err.value)) < 200, (blank, at)
        for blank, message in blanks.items():
            path.write_text(f"{_HEADER}\n{blank}\n")
            with pytest.raises(ValueError, match=message.format(first=0, last=0)):
                read_transcript(str(path))

    @pytest.mark.parametrize("rounds", [_BLOCK, 2 * _BLOCK + 3], ids=["whole blocks", "partial block"])
    @pytest.mark.parametrize("layout", LINE_LAYOUTS, ids=list(LINE_LAYOUTS))
    def test_line_endings_and_trailing_lines_read_back(self, tmp_path, ending_transcript, layout, rounds):
        # The reader sizes its columns from a count of line ends; every layout
        # reads back exactly the n rounds written, bit for bit.
        t, lines = ending_transcript
        t = t.subset(slice(0, rounds))
        path = tmp_path / "transcript.csv"
        path.write_bytes(LINE_LAYOUTS[layout](lines[: rounds + 1]).encode())
        back = read_transcript(str(path))
        assert all(getattr(back, f.name).size == rounds for f in fields(Transcript))
        assert_same_transcript(back, t)

    @pytest.mark.parametrize("rounds", [_BLOCK, 2 * _BLOCK + 3], ids=["whole blocks", "partial block"])
    @pytest.mark.parametrize("layout", TRAILING_BLANK_LAYOUTS, ids=list(TRAILING_BLANK_LAYOUTS))
    def test_trailing_blank_lines_rejected(self, tmp_path, ending_transcript, layout, rounds):
        lines = ending_transcript[1]
        path = tmp_path / "transcript.csv"
        path.write_bytes(TRAILING_BLANK_LAYOUTS[layout](lines[: rounds + 1]).encode())
        with pytest.raises(ValueError) as err:
            read_transcript(str(path))
        assert len(str(err.value)) < 200

    @pytest.mark.parametrize("rounds", [_BLOCK, 2 * _BLOCK + 3], ids=["whole blocks", "partial block"])
    @pytest.mark.parametrize("layout", BARE_CR_LAYOUTS, ids=list(BARE_CR_LAYOUTS))
    def test_bare_carriage_return_is_rejected(self, tmp_path, ending_transcript, layout, rounds):
        # A bare '\r' ends no line, so the lines it separates run together and break the schema.
        lines = ending_transcript[1]
        render, message = BARE_CR_LAYOUTS[layout]
        path = tmp_path / "transcript.csv"
        path.write_bytes(render(lines[: rounds + 1]).encode())
        with pytest.raises(ValueError, match=message) as err:
            read_transcript(str(path))
        assert len(str(err.value)) < 200

    def test_file_without_line_ends_is_rejected_with_a_short_message(self, tmp_path, ending_transcript):
        # The header read is bounded: a file of one line of 3.7 MB is not read whole into the error.
        path = tmp_path / "transcript.csv"
        path.write_text("".join(ending_transcript[1]))
        assert path.stat().st_size > 1 << 20
        with pytest.raises(ValueError, match="header") as err:
            read_transcript(str(path))
        assert len(str(err.value)) < 200

    @pytest.mark.parametrize("offset", range(-3, 3))
    def test_row_bound_counts_a_crlf_split_across_read_chunks(self, offset):
        # Lines long enough that the '\n' of a '\r\n' lands on either side of
        # the first 1 MiB read chunk's end, then a last line with a bare '\r'
        # and no line end; the count is that of splitting at '\n'.
        data = b"h\r\n" + b"x" * ((1 << 20) - 4 + offset) + b"\r\n" + b"y\rz"
        lines = io.TextIOWrapper(io.BytesIO(data), newline="\n").readlines()
        assert _row_count(io.BytesIO(data)) == len(lines) - 1 == 2

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.text(alphabet="x, \t\r\n", max_size=40))
    def test_row_bound_is_the_text_layer_line_count(self, text):
        lines = io.TextIOWrapper(io.BytesIO(text.encode()), newline="\n").readlines()
        assert _row_count(io.BytesIO(text.encode())) == max(len(lines) - 1, 0)

    def test_comment_line_rejected(self, tmp_path):
        t = run_protocol(ProtocolConfig(rounds=4, attack=optimal_params(0.1), seed=3))
        path = tmp_path / "transcript.csv"
        write_transcript(t, str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join([*lines[:2], "# a comment", *lines[2:]]) + "\n")
        with pytest.raises(ValueError):
            read_transcript(str(path))


class TestBlockwise:
    """Sifting and binning go one block of rounds at a time, bit for bit as over whole columns."""

    @pytest.fixture(scope="class")
    def transcript(self):
        return run_protocol(ProtocolConfig(rounds=2 * _BLOCK + 3, attack=optimal_params(0.3), seed=41))

    @pytest.mark.parametrize("n", [0, 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK])
    def test_block_walk_covers_every_round_once(self, n):
        blocks = _blocks(n)
        assert [i for s in blocks for i in range(s.start, s.stop)] == list(range(n))
        assert all(s.step is None and s.stop <= n for s in blocks)
        assert [s.stop - s.start for s in blocks[:-1]] == [_BLOCK] * (len(blocks) - 1)

    @pytest.mark.parametrize("cells", [(16, 32), (3, 5), (3, 1), (1, 1)])
    def test_sift_matches_whole_column_reference(self, transcript, cells):
        partition = SiftingPartition(*cells)
        assert_same_transcript(sift(transcript, partition), oracle.sift(transcript, partition))

    @pytest.mark.parametrize("fold", [False, True], ids=["unfolded", "folded"])
    @pytest.mark.parametrize("party", ["alice", "bob"])
    def test_party_codes_match_whole_column_reference(self, transcript, party, fold):
        binning = SiftingPartition(8, 16)
        want = oracle.party_codes(transcript, party, binning, fold)
        seams = [0, _BLOCK, 2 * _BLOCK, len(transcript)]
        for start, stop in zip(seams, seams[1:]):
            got = _party_codes(transcript, party, binning, fold, slice(start, stop))
            assert got.dtype == want.dtype and got.tobytes() == want[start:stop].tobytes()
            assert got.max() < _alphabet_size(binning, fold)

    @pytest.mark.parametrize("fold", [False, True], ids=["unfolded", "folded"])
    def test_information_estimates_match_whole_column_reference(self, transcript, fold):
        for rounds, cells in itertools.product([1, _BLOCK, len(transcript)], [(8, 16), (3, 5), (1, 1), (64, 128)]):
            t = transcript.subset(slice(0, rounds))
            binning = SiftingPartition(*cells)
            alice, bob = (oracle.party_codes(t, p, binning, fold) for p in ("alice", "bob"))
            eve = t.eve_bit.astype(np.int64)
            got = (
                empirical_mi(t, binning, binning, miller_madow=True, fold_antipodal=fold),
                empirical_mi_with_probe(t, binning, "alice", miller_madow=True, fold_antipodal=fold),
                empirical_mi_with_probe(t, binning, "bob", miller_madow=True, fold_antipodal=fold),
            )
            pairs = [(alice, bob), (alice, eve), (bob, eve)]
            want = tuple(oracle.plugin_mi(x, y, True) for x, y in pairs)
            assert got == want, (rounds, cells)


# Memory bounds on a transcript of eight blocks.  The unit is one block parsed
# as a table of nine float64 fields; whole-column temporaries of the same
# transcript come to several units per float column.
MEMORY_ROUNDS = 8 * _BLOCK
BLOCK_BYTES = 9 * 8 * _BLOCK


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes ``tracemalloc`` saw allocated during the call."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def transcript_bytes(t: Transcript) -> int:
    return sum(getattr(t, f.name).nbytes for f in fields(Transcript))


class TestBoundedMemory:
    @pytest.fixture(scope="class")
    def memory_run(self, tmp_path_factory):
        t = run_protocol(ProtocolConfig(rounds=MEMORY_ROUNDS, attack=optimal_params(0.2), seed=43))
        path = tmp_path_factory.mktemp("memory") / "transcript.csv"
        write_transcript(t, str(path))
        return t, str(path)

    def test_read_peak_is_the_columns_plus_a_few_blocks(self, memory_run):
        t, path = memory_run
        back, peak = traced_peak(read_transcript, path)
        assert_same_transcript(back, t)
        assert peak <= transcript_bytes(back) + 4 * BLOCK_BYTES

    def test_read_overhead_does_not_grow_with_the_run(self, tmp_path):
        # Four times the rounds of memory_run: joining per-block parts at the
        # end would add one float column, which alone is 3.6 units here.
        t = run_protocol(ProtocolConfig(rounds=4 * MEMORY_ROUNDS, attack=optimal_params(0.2), seed=44))
        path = str(tmp_path / "transcript.csv")
        write_transcript(t, path)
        back, peak = traced_peak(read_transcript, path)
        assert_same_transcript(back, t)
        assert peak <= transcript_bytes(back) + 3 * BLOCK_BYTES

    def test_pool_write_keeps_the_text_out_of_the_caller(self, memory_run, tmp_path, monkeypatch):
        # Two workers render the blocks to part files; text piped back to the
        # caller would cost it about five blocks here.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        t, written = memory_run
        path = tmp_path / "transcript.csv"
        write_transcript(t, str(path))  # warms the pool's imports
        _, peak = traced_peak(write_transcript, t, str(path))
        assert path.read_bytes() == Path(written).read_bytes()
        assert peak <= 3 * BLOCK_BYTES

    def test_sift_transient_is_the_masks_plus_a_few_blocks(self, memory_run):
        t, _ = memory_run
        kept, peak = traced_peak(sift, t, SiftingPartition(16, 32))
        masks = 2 * len(t)  # keep and flip, one byte per round each
        assert peak <= masks + transcript_bytes(kept) + 2 * BLOCK_BYTES

    def test_information_estimate_transient_is_a_few_blocks(self, memory_run):
        t, _ = memory_run
        binning = SiftingPartition(8, 16)
        _, peak = traced_peak(empirical_mi, t, binning, binning, True, True)
        assert peak <= 2 * BLOCK_BYTES

    def test_probe_information_estimate_transient_is_a_few_blocks(self, memory_run):
        t, _ = memory_run
        _, peak = traced_peak(empirical_mi_with_probe, t, SiftingPartition(8, 16), "alice", True, True)
        assert peak <= 2 * BLOCK_BYTES
