"""Command-line interface: outputs, formats, manifests, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import contqkd
from contqkd import ProtocolConfig, cier, optimal_params, run_protocol, write_transcript
from contqkd.cli import MI_CELLS_PHI, MI_CELLS_U, _parse_angle, run
from contqkd.protosim import _BLOCK
from contqkd.security import NONSELECTED_MAX_BITS, RECONCILED_MAX_BITS
from conftest import SINGLET_BITS
from oracle import render_transcript

LIGHT = ["--quad-polar", "12", "--quad-azimuth", "24"]


def argv_from_manifest(manifest):
    """The command line a manifest records, rebuilt from its keys alone."""
    argv = [manifest["command"]]
    for key, value in manifest["parameters"].items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is not False and value is not None:
            argv += [flag, str(value)]
    if manifest["quadrature"] is not None:
        polar, azimuth = manifest["quadrature"]
        argv += ["--quad-polar", str(polar), "--quad-azimuth", str(azimuth)]
    if manifest["seed"] is not None:
        argv += ["--seed", str(manifest["seed"])]
    return argv


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
        # Every table command in both formats and simulate with its one csv
        # transcript, each option away from its default: the argv rebuilt
        # from the manifest alone must reproduce every file byte for byte, so
        # a manifest that drops an option fails here.
        tables = [
            ["surface", "--theta-steps", "2", "--phi-steps", "3", *LIGHT],
            ["curve", "--theta-steps", "3", *LIGHT],
            ["curve", "--theta-steps", "3", "--reconciled", *LIGHT],
            ["dims", "--d-max", "5"],
            ["critical", "--reconciled", "--tol", "1e-3", *LIGHT],
        ]
        simulations = [
            [
                "simulate", "--rounds", "300", "--theta", "0.2", "--phi", "0.3",
                "--cells-u", "4", "--cells-phi", "6", "--seed", "7",
                "--disclose-fraction", "0.25", "--mi-cells-u", "3", "--mi-cells-phi", "5", *LIGHT,
            ],
            ["simulate", "--rounds", "300", "--theta", "22.5deg", "--seed", "8", *LIGHT],
        ]
        commands = [[*argv, "--format", fmt] for argv in tables for fmt in ("csv", "json")] + simulations
        for k, argv in enumerate(commands):
            out = tmp_path / f"out{k}"
            assert run([*argv, "--output", str(out)]) == 0
            written = [out, *tmp_path.glob(out.name + ".summary.json")]
            first = [path.read_bytes() for path in written]
            manifest = json.loads((tmp_path / (out.name + ".manifest.json")).read_text())
            assert run(argv_from_manifest(manifest)) == 0, manifest
            assert [path.read_bytes() for path in written] == first, argv


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

    @pytest.mark.parametrize("reconciled", [False, True], ids=["continuous", "reconciled"])
    def test_cier_normalizations_are_cier(self, tmp_path, reconciled):
        # Even at a 2x4 rule both readings are cier of i0, with no case of their own.
        out = tmp_path / "critical.json"
        argv = ["critical", "--tol", "1e-3", "--quad-polar", "2", "--quad-azimuth", "4"]
        argv += ["--format", "json", "--output", str(out)] + (["--reconciled"] if reconciled else [])
        assert run(argv) == 0
        data = json.loads(out.read_text())["data"]
        assert data["cier_normalizations"] == {
            "continuous_readout_max": cier(data["i0_bits"], NONSELECTED_MAX_BITS),
            "reconciled_max": cier(data["i0_bits"], RECONCILED_MAX_BITS),
        }

    def test_tol_below_double_spacing_returns(self):
        # --tol accepts any positive float; one below the spacing of doubles
        # at the threshold must still end the search.  A subprocess with a
        # timeout turns a hang into a failure.
        src = str(Path(contqkd.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = ["critical", "--tol", "1e-300", "--quad-polar", "4", "--quad-azimuth", "8"]
        done = subprocess.run(
            [sys.executable, "-m", "contqkd", *argv], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        theta0 = json.loads(done.stdout)["data"]["theta0"]
        assert abs(theta0 - math.pi / 8) <= 1e-15


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
        # --phi was omitted: the manifest records the resolved pi/4 - theta.
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        assert manifest["parameters"]["phi"] == pytest.approx(math.pi / 8, abs=1e-15)

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

    def test_writers_match_rowwise_reference_across_chunk_seam(self, tmp_path):
        rounds, theta, seed = _BLOCK + 3, 0.2, 4
        transcript = run_protocol(ProtocolConfig(rounds=rounds, attack=optimal_params(theta), seed=seed))
        reference = render_transcript(transcript)
        write_transcript(transcript, str(tmp_path / "run.csv"))
        assert (tmp_path / "run.csv").read_text() == reference


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

    def test_format_without_output_rejected(self, capsys):
        # --format only shapes the --output file; the report on stdout is JSON.
        for fmt in ("csv", "json"):
            assert run(["critical", "--tol", "1e-2", "--format", fmt, *LIGHT]) == 1
            captured = capsys.readouterr()
            assert "usage error" in captured.err
            assert captured.out == ""
        assert run(["critical", "--tol", "1e-2", *LIGHT]) == 0
        manifest = json.loads(capsys.readouterr().out)["manifest"]
        assert manifest["parameters"]["format"] == "csv"
        assert manifest["parameters"]["output"] is None

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
            ["simulate", "--mi-cells-u", "1000000", "--mi-cells-phi", "100000"],
            ["simulate", "--rounds", "1.5"],
            ["simulate", "--format", "json"],
            ["simulate", "--format", "csv"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_rejected_at_the_boundary(self, argv, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run([*argv, "--output", str(out)]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1", "2.0", "two"])
    def test_integer_flag_error_names_the_flag_and_range(self, value, tmp_path, capsys):
        # Out of range or not an integer at all: one message from the one integer check.
        assert run(["dims", "--d-max", value, "--output", str(tmp_path / "d.csv")]) == 1
        err = capsys.readouterr().err
        assert f"argument --d-max: expected an integer in [2, inf), got '{value}'" in err

    def test_mi_binning_limit_is_the_pair_key_limit(self, tmp_path, capsys):
        # 3037000499 folded cells per party is the most whose pairs fit an int64 key.
        out = tmp_path / "x.csv"
        argv = ["simulate", "--rounds", "3", "--mi-cells-phi", "1", "--output", str(out)]
        assert run([*argv, "--mi-cells-u", "3037000499"]) == 0
        out.unlink()
        assert run([*argv, "--mi-cells-u", "3037000500"]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    def test_invariant_failure_exits_2(self, monkeypatch, tmp_path, capsys):
        import contqkd.security as security

        # Rates that break the probe-vs-receiver dominance invariant of InfoCurve.
        monkeypatch.setattr(security, "information_rates", lambda *args: (0.0, 0.0, 0.1))
        out = tmp_path / "curve.csv"
        assert run(["curve", "--theta-steps", "3", "--output", str(out), *LIGHT]) == 2
        assert "dominance" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "target, argv",
        [
            ("run_protocol", ["simulate", "--rounds", "1000000000000"]),
            ("dimension_table", ["dims", "--d-max", str(2**40)]),
        ],
        ids=["simulate", "dims"],
    )
    def test_allocation_failure_exits_4(self, target, argv, monkeypatch, tmp_path, capsys):
        # The stand-in raises before anything is allocated.
        import contqkd.cli as cli

        monkeypatch.setattr(cli, target, _raise_memory_error)
        out = tmp_path / "x.csv"
        assert run([*argv, "--output", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("out of memory: ") and err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()


def _raise_memory_error(*args, **kwargs):
    raise MemoryError("Unable to allocate 7.28 TiB for an array")


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


class TestProcessBoundary:
    def test_exit_status_reaches_the_process(self, tmp_path):
        package_root = str(Path(contqkd.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")]))

        def contqkd_main(*argv):
            return subprocess.run(
                [sys.executable, "-m", "contqkd", *argv], capture_output=True, text=True, env=env, timeout=120
            )

        done = contqkd_main("critical", "--quad-polar", "4", "--quad-azimuth", "8", "--tol", "1e-2")
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["data"]["theta0"] == pytest.approx(math.pi / 8, abs=1e-2)
        assert contqkd_main("critical", "--no-such-flag").returncode == 1
        missing = tmp_path / "missing" / "dims.csv"
        assert contqkd_main("dims", "--d-max", "4", "--output", str(missing)).returncode == 3

    def test_allocation_failure_reaches_the_process(self, tmp_path):
        # The process's own entry point, with the sampler replaced by one that
        # raises MemoryError as numpy does: nothing is allocated for real.
        package_root = str(Path(contqkd.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")]))
        code = (
            "import sys, contqkd.cli as cli\n"
            "def fail(cfg): raise MemoryError('Unable to allocate 7.28 TiB for an array')\n"
            "cli.run_protocol = fail\n"
            "sys.argv = ['contqkd', 'simulate', '--rounds', '1000000000000', '--output', sys.argv[1]]\n"
            "cli.main()\n"
        )
        out = tmp_path / "x.csv"
        done = subprocess.run(
            [sys.executable, "-c", code, str(out)], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 4
        assert done.stderr == "out of memory: Unable to allocate 7.28 TiB for an array\n"
        assert not out.exists()

    def test_dead_writer_worker_is_an_io_failure(self, tmp_path):
        # Spawned workers import the main module as __mp_main__; this one
        # kills each of them on start-up, so the pool breaks mid-write.
        package_root = str(Path(contqkd.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")]))
        script = tmp_path / "wrapper.py"
        script.write_text(
            "import os\n"
            "if __name__ != '__main__':\n"
            "    os._exit(9)\n"
            "import contqkd.cli\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "contqkd.cli.main()\n"
        )
        argv = ["simulate", "--rounds", str(_BLOCK + 1), "--theta", "22.5deg", "--seed", "1", *LIGHT]
        done = subprocess.run(
            [sys.executable, str(script), *argv, "--output", "run.csv"],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
        )
        assert done.returncode == 3, done.stderr
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("i/o failure: ") and done.stderr.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["wrapper.py"]  # no transcript, part file or sidecar

    def test_transcripts_identical_across_blas_thread_counts(self, tmp_path):
        # The sampler's per-block matmul goes through BLAS; the bytes written
        # must not depend on how many threads BLAS uses.
        package_root = str(Path(contqkd.__file__).resolve().parents[1])
        written = {}
        for threads in ("1", "2"):
            env = dict(
                os.environ,
                OPENBLAS_NUM_THREADS=threads,
                PYTHONPATH=os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")]),
            )
            workdir = tmp_path / f"threads{threads}"
            workdir.mkdir()
            # A relative output path keeps the manifests equal too.
            argv = ["simulate", "--rounds", str(_BLOCK + 3), "--theta", "0.3", "--seed", "21", *LIGHT]
            done = subprocess.run(
                [sys.executable, "-m", "contqkd", *argv, "--output", "run.csv"],
                capture_output=True, text=True, env=env, cwd=workdir, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            # The transcript and its sidecars, and no part file the writer's workers rendered.
            listed = sorted(p.name for p in workdir.iterdir())
            assert listed == ["run.csv", "run.csv.manifest.json", "run.csv.summary.json"]
            written[threads] = [(workdir / name).read_bytes() for name in ("run.csv", "run.csv.summary.json")]
        assert written["1"] == written["2"]
