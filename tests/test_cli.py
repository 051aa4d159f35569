"""Command-line interface: outputs, formats, manifests, exit codes."""

import json
import math

import numpy as np
import pytest

from contqkd.cli import MI_CELLS_PHI, MI_CELLS_U, _parse_angle, run
from conftest import SINGLET_BITS

LIGHT = ["--quad-polar", "12", "--quad-azimuth", "24"]


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestAngleParsing:
    def test_radians_default(self):
        assert _parse_angle("0.5") == pytest.approx(0.5)

    def test_degree_suffix(self):
        assert _parse_angle("22.5deg") == pytest.approx(math.pi / 8)

    def test_rad_suffix(self):
        assert _parse_angle("1.0rad") == pytest.approx(1.0)


class TestSurface:
    def test_grid_and_dominance(self, tmp_path):
        out = tmp_path / "surface.csv"
        code = run(
            ["surface", "--theta-steps", "3", "--phi-steps", "3", "--output", str(out), *LIGHT]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["theta", "phi", "i_ab", "i_ae", "i_be"]
        assert len(rows) == 9
        by_point = {(float(r[0]), float(r[1])): tuple(float(x) for x in r[2:]) for r in rows}
        quarter = math.pi / 4
        no_attack = by_point[(0.0, quarter)]
        assert no_attack[0] == pytest.approx(SINGLET_BITS, abs=1e-4)
        assert no_attack[1] == pytest.approx(0.0, abs=1e-9)
        for vals in by_point.values():
            assert vals[1] >= vals[2] - 1e-6
        assert (out.parent / (out.name + ".manifest.json")).exists()

    def test_manifest_rerun_reproduces_bytes(self, tmp_path):
        out = tmp_path / "surface.csv"
        args = ["surface", "--theta-steps", "2", "--phi-steps", "2", "--output", str(out), *LIGHT]
        assert run(args) == 0
        first = out.read_bytes()
        manifest = json.loads((tmp_path / "surface.csv.manifest.json").read_text())
        rebuilt = [
            "surface",
            "--theta-steps", str(manifest["parameters"]["theta_steps"]),
            "--phi-steps", str(manifest["parameters"]["phi_steps"]),
            "--quad-polar", str(manifest["quadrature"][0]),
            "--quad-azimuth", str(manifest["quadrature"][1]),
            "--format", manifest["parameters"]["format"],
            "--output", str(out),
        ]
        assert run(rebuilt) == 0
        assert out.read_bytes() == first


class TestCurve:
    def test_columns_and_endpoints(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run(["curve", "--theta-steps", "3", "--output", str(out), *LIGHT]) == 0
        header, rows = read_csv(out)
        assert header == ["theta", "i_ab", "i_ae", "i_be", "qber", "cier"]
        first, last = rows[0], rows[-1]
        assert float(first[1]) == pytest.approx(SINGLET_BITS, abs=1e-4)
        assert float(first[4]) == 0.0
        assert float(last[1]) == pytest.approx(0.0, abs=1e-9)
        assert float(last[2]) == pytest.approx(SINGLET_BITS, abs=1e-4)
        assert float(last[4]) == pytest.approx(0.5, abs=1e-9)
        assert float(first[5]) == pytest.approx(0.0, abs=1e-3)
        assert float(last[5]) == pytest.approx(1.0, abs=1e-9)

    def test_reconciled_start_is_one_bit(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run(
            ["curve", "--theta-steps", "2", "--reconciled", "--output", str(out), *LIGHT]
        ) == 0
        _, rows = read_csv(out)
        assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-5)

    def test_json_roundtrip(self, tmp_path):
        out = tmp_path / "curve.json"
        assert run(
            ["curve", "--theta-steps", "3", "--format", "json", "--output", str(out), *LIGHT]
        ) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"manifest", "data"}
        assert payload["data"]["columns"][0] == "theta"
        assert len(payload["data"]["rows"]) == 3
        assert payload["manifest"]["version"]


class TestCritical:
    def test_report_contents(self, tmp_path, capsys):
        out = tmp_path / "critical.json"
        code = run(
            ["critical", "--tol", "1e-3", "--format", "json", "--output", str(out), *LIGHT]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        data = payload["data"]
        assert data["theta0"] == pytest.approx(math.pi / 8, abs=5e-3)
        assert data["qber0"] == pytest.approx(math.sin(math.pi / 8) ** 2, abs=1e-3)
        assert "sphere_averaged" in data["disturbance_readings"]
        assert "sin(theta0)" in data["disturbance_readings"]["note"]
        assert data["cier_normalizations"]["continuous_readout_max"] is not None
        printed = capsys.readouterr().out
        assert "theta0" in printed


class TestDims:
    def test_rows_and_monotonicity(self, tmp_path):
        out = tmp_path / "dims.csv"
        assert run(["dims", "--d-max", "16", "--output", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["d", "accessible_bits", "i_max_bits", "critical_cier"]
        assert rows[0][0] == "2"
        assert float(rows[0][1]) == pytest.approx(SINGLET_BITS, abs=1e-12)
        assert float(rows[0][2]) == pytest.approx(1.0)
        assert float(rows[0][3]) == pytest.approx(0.7213, abs=1e-4)
        ciers = [float(r[3]) for r in rows]
        assert all(b > a for a, b in zip(ciers, ciers[1:]))


class TestSimulate:
    def test_deterministic_outputs(self, tmp_path):
        out = tmp_path / "run.csv"
        args = [
            "simulate", "--rounds", "400", "--theta", "0.2", "--seed", "7",
            "--output", str(out), *LIGHT,
        ]
        blobs = []
        for _ in range(2):
            assert run(args) == 0
            blobs.append(
                (out.read_bytes(), (tmp_path / "run.csv.summary.json").read_bytes())
            )
        assert blobs[0][0] == blobs[1][0]
        assert blobs[0][1] == blobs[1][1]

    def test_summary_fields(self, tmp_path):
        out = tmp_path / "run.csv"
        assert run(
            [
                "simulate", "--rounds", "3000", "--theta", "22.5deg", "--seed", "5",
                "--output", str(out), *LIGHT,
            ]
        ) == 0
        summary = json.loads((tmp_path / "run.csv.summary.json").read_text())["summary"]
        assert summary["on_optimal_line"] is True
        assert summary["unsifted"]["binning_cells"] == [MI_CELLS_U, MI_CELLS_PHI]
        assert isinstance(summary["security_verdict"]["empirical_i_ab_dominates"], bool)
        assert summary["quadrature_reference"]["qber"] == pytest.approx(
            math.sin(math.pi / 8) ** 2, abs=1e-9
        )
        assert summary["sifted"]["expected_keep_rate"] == pytest.approx(2.0 / 512.0)

    def test_off_line_has_no_reference(self, tmp_path):
        out = tmp_path / "run.csv"
        assert run(
            [
                "simulate", "--rounds", "500", "--theta", "0.1", "--phi", "0.1",
                "--seed", "5", "--output", str(out), *LIGHT,
            ]
        ) == 0
        summary = json.loads((tmp_path / "run.csv.summary.json").read_text())["summary"]
        assert summary["on_optimal_line"] is False
        assert summary["quadrature_reference"] is None

    def test_transcript_roundtrip_json(self, tmp_path):
        out = tmp_path / "run.json"
        assert run(
            [
                "simulate", "--rounds", "50", "--seed", "9", "--format", "json",
                "--output", str(out), *LIGHT,
            ]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["data"]["columns"][0] == "round"
        assert len(payload["data"]["rows"]) == 50


class TestExitCodes:
    def test_usage_error(self):
        assert run(["curve", "--theta-steps"]) == 1

    def test_unknown_command(self):
        assert run(["transmogrify"]) == 1

    def test_bad_parameter_value(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run(["simulate", "--rounds", "0", "--output", str(out)]) == 1

    def test_single_step_grid_rejected(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run(["curve", "--theta-steps", "1", "--output", str(out)]) == 1
        assert run(["surface", "--theta-steps", "1", "--output", str(out)]) == 1

    def test_io_failure(self):
        assert run(
            ["dims", "--d-max", "4", "--output", "/nonexistent-dir/deep/x.csv"]
        ) == 3

    def test_numerical_failure(self, monkeypatch):
        import contqkd.cli as cli_mod
        from contqkd.security import BracketError

        def boom(*args, **kwargs):
            raise BracketError("no sign change")

        monkeypatch.setattr(cli_mod, "critical_point", boom)
        assert run(["critical", "--tol", "1e-3", *LIGHT]) == 2

    def test_nonfinite_tol_rejected(self, capsys):
        for tol in ("nan", "inf", "-inf"):
            assert run(["critical", "--reconciled", "--tol", tol, *LIGHT]) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["surface", "--phi-steps", "1"],
            ["curve", "--quad-polar", "1"],
            ["curve", "--quad-azimuth", "3"],
            ["critical", "--tol", "0"],
            ["dims", "--d-max", "1"],
            ["dims", "--quad-polar", "5"],
            ["simulate", "--theta", "nan"],
            ["simulate", "--phi", "infdeg"],
            ["simulate", "--seed", "-1"],
            ["simulate", "--seed", str(2**64)],
            ["simulate", "--disclose-fraction", "nan"],
            ["simulate", "--disclose-fraction", "1"],
            ["simulate", "--cells-u", "0"],
            ["simulate", "--mi-cells-phi", "0"],
            ["simulate", "--rounds", "1.5"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_rejected_at_the_boundary(self, argv, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run([*argv, "--output", str(out)]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    def test_invariant_failure_exits_2(self, monkeypatch, tmp_path, capsys):
        import contqkd.security as security

        # Rates that break the probe-vs-receiver dominance invariant of InfoCurve.
        monkeypatch.setattr(security, "information_rates", lambda *args: (0.0, 0.0, 0.1))
        out = tmp_path / "curve.csv"
        assert run(["curve", "--theta-steps", "3", "--output", str(out), *LIGHT]) == 2
        assert "dominance" in capsys.readouterr().err


class TestFormatLosslessness:
    def test_csv_and_json_agree_bit_for_bit(self, tmp_path):
        # Identical parameters must yield identical numbers in both formats.
        args = ["curve", "--theta-steps", "3", *LIGHT]
        csv_out = tmp_path / "c.csv"
        json_out = tmp_path / "c.json"
        assert run(args + ["--output", str(csv_out)]) == 0
        assert run(args + ["--format", "json", "--output", str(json_out)]) == 0
        _, rows = read_csv(csv_out)
        parsed = [[float(x) for x in row] for row in rows]
        stored = json.loads(json_out.read_text())["data"]["rows"]
        assert parsed == stored
