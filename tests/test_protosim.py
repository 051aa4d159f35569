"""Monte Carlo driver: sampling exactness, sifting, empirical information."""

import math

import numpy as np
import pytest

from contqkd import (
    AttackParams,
    ProtocolConfig,
    SiftingPartition,
    Transcript,
    empirical_mi,
    optimal_params,
    qber_sphere_averaged,
    read_transcript,
    run_protocol,
    sift,
    write_transcript,
)
from contqkd.attack import attacked_pure_state
from contqkd.protosim import _CHUNK, _outcome_probabilities, _pick, sifted_error_rate
from conftest import cos_polar_azimuth, random_direction

NO_ATTACK = optimal_params(0.0)
Z = np.array([0.0, 0.0, 1.0])


def born(attack: AttackParams, dirs_a: np.ndarray, dirs_b: np.ndarray) -> np.ndarray:
    """Exact outcome distributions, shape (n, 2, 2, 2), for unit-vector rows."""
    p = _outcome_probabilities(
        attacked_pure_state(attack), *cos_polar_azimuth(dirs_a), *cos_polar_azimuth(dirs_b)
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
        # Round i is row i of one (rounds, 5) Philox block: directions from
        # columns 0-3, the outcome picked from the Born distribution by
        # column 4.  The run spans a chunk seam, the block is drawn whole.
        cfg = ProtocolConfig(rounds=_CHUNK + 3, attack=optimal_params(0.15), seed=12345)
        t = run_protocol(cfg)
        draws = np.random.Generator(np.random.Philox(key=cfg.seed)).random((cfg.rounds, 5))
        two_pi = 2.0 * math.pi
        np.testing.assert_array_equal(t.alice_u, 2.0 * draws[:, 0] - 1.0)
        np.testing.assert_array_equal(t.alice_phi, two_pi * draws[:, 1])
        np.testing.assert_array_equal(t.bob_u, 2.0 * draws[:, 2] - 1.0)
        np.testing.assert_array_equal(t.bob_phi, two_pi * draws[:, 3])
        p = _outcome_probabilities(
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
    def test_single_cell_keeps_everything(self):
        cfg = ProtocolConfig(rounds=300, attack=NO_ATTACK, seed=2)
        t = run_protocol(cfg)
        assert len(sift(t, SiftingPartition(1, 1))) == len(t)

    def test_keep_rate_matches_partition_measure(self):
        part = SiftingPartition(8, 16)
        cfg = ProtocolConfig(rounds=200_000, attack=NO_ATTACK, seed=4)
        kept = len(sift(run_protocol(cfg), part))
        expected = part.expected_keep_rate()
        sigma = math.sqrt(expected * (1 - expected) * cfg.rounds)
        assert abs(kept - expected * cfg.rounds) < 4.0 * sigma

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

    def test_sifted_rate_approaches_one_bit(self):
        cfg = ProtocolConfig(rounds=300_000, attack=NO_ATTACK, seed=23)
        sifted = sift(run_protocol(cfg), SiftingPartition(16, 32))
        one = SiftingPartition(1, 1)
        val = empirical_mi(sifted, one, one, miller_madow=True)
        assert val == pytest.approx(1.0, abs=0.08)


class TestTranscriptIO:
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

    def test_header_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_transcript(str(path))
