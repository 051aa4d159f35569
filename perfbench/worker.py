"""One benchmark child process: set-up, one workload pass, output checks.

``run.py`` starts a fresh interpreter on this file for every pass, so that
set-up time and peak memory belong to one pass.  Modes:

* ``setup``: import ``contqkd`` and build the default quadrature, then stop.
* ``probe``: ``setup``, then record the environment block and the singlet
  accuracy probe (the surface value at (theta, phi) = (0, pi/4)).
* ``prepare-replay``: write the transcript that the ``replay`` workload
  reads, and the reference columns it must read back bit for bit.
* ``pass``: one timed workload pass, traced or not, then its checks.

The child writes its figures as JSON to ``--out``; the monotonic clock it
stamps when set-up is done is comparable with the parent's, which gives the
set-up time including interpreter start.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import shutil
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import contqkd  # noqa: E402
from contqkd import cli, protosim  # noqa: E402
from contqkd.attack import AttackParams, attacked_state, bipartite_reductions  # noqa: E402
from contqkd.infocalc import default_quadrature, nonselected_information  # noqa: E402

import tracer as tracing  # noqa: E402

SINGLET_BITS = 1.0 - 1.0 / (2.0 * math.log(2.0))
QUARTER_PI = 0.25 * math.pi

# Reconciled threshold information error rate at the seed commit (32x64, tol 1e-4).
SEED_RECONCILED_CIER0 = 0.8187283470956148

SIM_THETA = "22.5deg"
SIFT_CELLS = (16, 32)  # the CLI's default sifting partition
MI_CELLS = (cli.MI_CELLS_U, cli.MI_CELLS_PHI)
SIGMAS = 5.0  # binomial standard deviations allowed in the Monte Carlo checks

# Work per pass.  "full" is the benchmark; "tiny" only serves the smoke test.
SIZES = {
    "full": {
        "quad": (32, 64),
        "tol": 1e-4,
        "grid": 3,
        "sim_rounds": 1_000_000,
        "replay_rounds": 500_000,
        "singlet_tol": 1e-5,
        "cier_tol": 1e-3,
    },
    "tiny": {
        "quad": (8, 16),
        "tol": 1e-2,
        "grid": 2,
        "sim_rounds": 20_000,
        "replay_rounds": 20_000,
        "singlet_tol": 1e-3,
        "cier_tol": 1e-2,
    },
}

# Wrappers each workload must fire; a silent one fails the traced pass.
PREDICTED_SPANS = {
    "threshold": (
        "cli.run", "security.critical_point", "security.reconciled_i_ab",
        "security.qber_sphere_averaged", "infocalc.nonselected_information",
        "attack.attacked_state", "attack.bipartite_reductions", "qstate.partial_trace",
        "infocalc.SphereQuadrature.gauss_product",
    ),
    "surface": (
        "cli.run", "infocalc.nonselected_information", "attack.attacked_state",
        "attack.bipartite_reductions", "qstate.partial_trace",
        "infocalc.SphereQuadrature.gauss_product",
    ),
    "simulate": (
        "cli.run", "protosim.run_protocol", "protosim.write_transcript", "protosim.sift",
        "protosim.empirical_mi", "protosim.empirical_mi_with_probe",
        "infocalc.nonselected_information", "security.qber_sphere_averaged",
        "attack.attacked_state", "attack.bipartite_reductions", "qstate.partial_trace",
    ),
    "replay": (
        "protosim.read_transcript", "protosim.sift", "protosim.empirical_mi",
        "protosim.empirical_mi_with_probe",
    ),
}

REPLAY_COLUMNS = ("alice_u", "alice_phi", "alice_bit", "bob_u", "bob_phi", "bob_bit", "eve_bit", "disclosed")


class Checks:
    """Operations attempted and failed in one pass, with the failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, label: str, passed: bool, detail: str = "") -> None:
        self.attempted += 1
        if not passed:
            self.failures.append(f"{label}: {detail}")


def _quad_args(size: dict) -> list[str]:
    polar, azimuth = size["quad"]
    return ["--quad-polar", str(polar), "--quad-azimuth", str(azimuth)]


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run the public CLI in-process; return its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


def _sim_config(rounds: int, seed: int) -> protosim.ProtocolConfig:
    theta = math.radians(22.5)
    return protosim.ProtocolConfig(rounds=rounds, attack=AttackParams(theta, QUARTER_PI - theta), seed=seed)


def _within_sigmas(observed: float, expected: float, n: int) -> tuple[bool, str]:
    sigma = math.sqrt(expected * (1.0 - expected) / n)
    return abs(observed - expected) <= SIGMAS * sigma, f"{observed!r} vs {expected!r} (sigma {sigma:.3g})"


# ---------------------------------------------------------------- workloads
# Each workload has a timed ``run`` and a ``check`` that runs after the clock
# stops.  A CLI workload's ``run`` returns {"calls": [(exit code, stdout)], ...}.


@dataclass(frozen=True)
class Job:
    size: dict
    seed: int
    workdir: Path  # shared by the passes of one benchmark run (replay input)
    outdir: Path  # this pass's own output files


def threshold_run(job):
    base = ["critical", "--tol", repr(job.size["tol"]), *_quad_args(job.size)]
    return {"calls": [_cli(base), _cli(base + ["--reconciled"])]}


def threshold_check(job, outputs, checks):
    for (code, stdout), reconciled in zip(outputs["calls"], (False, True)):
        label = "critical --reconciled" if reconciled else "critical"
        if code != 0:
            checks.op(label, False, f"exit code {code}")
            continue
        data = json.loads(stdout)["data"]
        t0 = data["theta0"]
        bad = []
        # g(pi/8) = 0 exactly by the receiver/probe symmetry of the attack.
        if not reconciled and abs(t0 - QUARTER_PI / 2) > job.size["tol"]:
            bad.append(f"theta0 {t0!r} is not within tol of pi/8")
        if abs(data["qber0"] - math.sin(t0) ** 2) > 1e-12:
            bad.append(f"qber0 {data['qber0']!r} != sin^2(theta0)")
        deficit = data["disturbance_readings"]["pair_fidelity_deficit"]
        if abs(deficit - (1.0 - math.cos(t0) ** 4)) > 1e-10:
            bad.append(f"pair-fidelity deficit {deficit!r} != 1 - cos^4(theta0)")
        if reconciled and abs(data["cier0"] - SEED_RECONCILED_CIER0) > job.size["cier_tol"]:
            bad.append(f"cier0 {data['cier0']!r} moved from {SEED_RECONCILED_CIER0!r}")
        checks.op(label, not bad, "; ".join(bad))
    return {}


def surface_run(job):
    n = str(job.size["grid"])
    path = str(job.outdir / "surface.csv")
    argv = ["surface", "--theta-steps", n, "--phi-steps", n, *_quad_args(job.size), "--output", path]
    return {"calls": [_cli(argv)], "path": path}


def surface_check(job, outputs, checks):
    ((code, _),) = outputs["calls"]
    if code != 0:
        checks.op("surface", False, f"exit code {code}")
        return {}
    with open(outputs["path"], newline="") as fh:
        rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    n = job.size["grid"]
    bad = []
    if len(rows) != n * n:
        bad.append(f"{len(rows)} rows, expected {n * n}")
    if any(not (0.0 <= r[k] <= 1.0) for r in rows for k in ("i_ab", "i_ae", "i_be")):
        bad.append("a rate lies outside [0, 1] bits")
    undisturbed = [r for r in rows if r["theta"] == 0.0 and r["phi"] == QUARTER_PI]
    if len(undisturbed) != 1:
        checks.op("surface", False, "; ".join(bad + ["no single row at (0, pi/4)"]))
        return {}
    row = undisturbed[0]
    if abs(row["i_ab"] - SINGLET_BITS) > job.size["singlet_tol"]:
        bad.append(f"i_ab(0, pi/4) = {row['i_ab']!r}, closed form {SINGLET_BITS!r}")
    if row["i_ae"] != 0.0 or row["i_be"] != 0.0:
        bad.append(f"probe rates at (0, pi/4) are {row['i_ae']!r}, {row['i_be']!r}, not 0")
    checks.op("surface", not bad, "; ".join(bad))
    return {"singlet_err_bits": singlet_error(row["i_ab"])}


def simulate_run(job):
    path = str(job.outdir / "simulate.csv")
    argv = [
        "simulate", "--rounds", str(job.size["sim_rounds"]), "--theta", SIM_THETA,
        "--seed", str(job.seed), *_quad_args(job.size), "--output", path,
    ]
    return {"calls": [_cli(argv)], "path": path}


def simulate_check(job, outputs, checks):
    ((code, _),) = outputs["calls"]
    if code != 0:
        checks.op("simulate", False, f"exit code {code}")
        return {}
    path = outputs["path"]
    rounds = job.size["sim_rounds"]
    with open(path + ".summary.json") as fh:
        summary = json.load(fh)["summary"]
    sifted = summary["sifted"]
    bad = []
    if summary["rounds"] != rounds:
        bad.append(f"summary reports {summary['rounds']} rounds")
    ok, text = _within_sigmas(sifted["keep_rate"], sifted["expected_keep_rate"], rounds)
    if not ok:
        bad.append(f"keep rate {text}")
    reference = summary["quadrature_reference"]
    if reference is None or not sifted["kept_rounds"]:
        bad.append("no quadrature reference or no sifted rounds")
    else:
        ok, text = _within_sigmas(sifted["error_rate"], reference["qber_sphere_averaged"], sifted["kept_rounds"])
        if not ok:
            bad.append(f"sifted error rate {text}")
    with open(path, "rb") as fh:
        fh.seek(max(0, os.path.getsize(path) - 256))
        last = fh.read().splitlines()[-1]
    if not last.startswith(f"{rounds - 1},".encode()):
        bad.append("transcript does not end with the last round")
    checks.op("simulate", not bad, "; ".join(bad))
    return {}


def replay_run(job):
    transcript = protosim.read_transcript(str(job.workdir / "replay.csv"))
    sifted = protosim.sift(transcript, protosim.SiftingPartition(*SIFT_CELLS))
    binning = protosim.SiftingPartition(*MI_CELLS)
    mi = (
        protosim.empirical_mi(transcript, binning, binning, miller_madow=True, fold_antipodal=True),
        protosim.empirical_mi_with_probe(transcript, binning, "alice", miller_madow=True, fold_antipodal=True),
        protosim.empirical_mi_with_probe(transcript, binning, "bob", miller_madow=True, fold_antipodal=True),
    )
    return {"transcript": transcript, "sifted": sifted, "mi": mi}


def replay_check(job, outputs, checks):
    transcript = outputs["transcript"]
    reference = np.load(job.workdir / "replay_reference.npz")
    differing = [
        c for c in REPLAY_COLUMNS
        if getattr(transcript, c).dtype != reference[c].dtype
        or getattr(transcript, c).tobytes() != reference[c].tobytes()
    ]
    checks.op("read_transcript", not differing, f"columns not bit-identical: {differing}")
    bad = []
    if not all(math.isfinite(x) and 0.0 <= x <= 1.0 for x in outputs["mi"]):
        bad.append(f"information estimates {outputs['mi']!r} outside [0, 1]")
    expected = protosim.SiftingPartition(*SIFT_CELLS).expected_keep_rate()
    ok, text = _within_sigmas(len(outputs["sifted"]) / len(transcript), expected, len(transcript))
    if not ok:
        bad.append(f"keep rate {text}")
    checks.op("sift+empirical_mi", not bad, "; ".join(bad))
    return {}


# name: (run, check, items per pass)
WORKLOADS = {
    "threshold": (threshold_run, threshold_check, lambda size: 2),
    "surface": (surface_run, surface_check, lambda size: size["grid"] ** 2),
    "simulate": (simulate_run, simulate_check, lambda size: size["sim_rounds"]),
    "replay": (replay_run, replay_check, lambda size: size["replay_rounds"]),
}


# ---------------------------------------------------------------- modes


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    import ctypes
    import glob

    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(glob.glob(str(libs_dir / "*openblas*"))):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "contqkd": contqkd.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
    }


def singlet_error(i_ab: float) -> float:
    """|i_ab(0, pi/4) - closed form|, floored at one ulp of the closed form,
    below which the difference is not resolvable (so it is never 0)."""
    return max(abs(i_ab - SINGLET_BITS), math.ulp(SINGLET_BITS))


def singlet_probe() -> float:
    """singlet_error of i_ab at (0, pi/4), computed exactly as the surface does."""
    rab, _, _ = bipartite_reductions(attacked_state(AttackParams(0.0, QUARTER_PI)))
    quad = default_quadrature()
    return singlet_error(nonselected_information(rab, quad, quad))


def prepare_replay(size: dict, seed: int, workdir: Path) -> None:
    transcript = protosim.run_protocol(_sim_config(size["replay_rounds"], seed))
    protosim.write_transcript(transcript, str(workdir / "replay.csv"))
    np.savez(workdir / "replay_reference.npz", **{c: getattr(transcript, c) for c in REPLAY_COLUMNS})


def run_pass(workload: str, job: Job, tracer) -> dict:
    run, check, items = WORKLOADS[workload]
    checks = Checks()
    result: dict = {}
    start = time.perf_counter()
    try:
        if tracer is None:
            outputs = run(job)
        else:
            with tracer.span(tracing.PASS_SPAN):
                outputs = run(job)
    except Exception:
        wall = time.perf_counter() - start
        checks.op(workload, False, traceback.format_exc(limit=3))
        outputs = {}
    else:
        wall = time.perf_counter() - start
        try:
            result.update(check(job, outputs, checks))
        except Exception:
            checks.op(f"{workload} check", False, traceback.format_exc(limit=3))
    if tracer is not None:
        written = sum(p.stat().st_size for p in job.outdir.iterdir() if p.is_file())
        written += sum(len(stdout.encode()) for _, stdout in outputs.get("calls", ()))
        result["layers"] = tracing.layer_metrics(tracer.spans, written)
        seen = {span.name for span in tracer.spans}
        silent = [name for name in PREDICTED_SPANS[workload] if name not in seen]
        checks.op("trace guard", not silent, f"predicted wrappers recorded no calls: {silent}")
    result.update(wall_s=wall, items=items(job.size), attempted=checks.attempted, failures=checks.failures)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("mode", choices=("setup", "probe", "prepare-replay", "pass"))
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)
    size = SIZES[args.size]

    tracer = None
    if args.mode == "pass" and args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        with tracer.span(tracing.SETUP_SPAN):
            default_quadrature()
    else:
        default_quadrature()
    result: dict = {"ready_at": time.monotonic()}

    if args.mode == "probe":
        result["environment"] = environment()
        result["singlet_err_bits"] = singlet_probe()
    elif args.mode == "prepare-replay":
        prepare_replay(size, args.seed, args.workdir)
    elif args.mode == "pass":
        job = Job(size, args.seed, args.workdir, args.workdir / f"pass-{os.getpid()}")
        job.outdir.mkdir()
        try:
            result.update(run_pass(args.workload, job, tracer))
        finally:
            # Delete the outputs now so the next pass does not pay for their writeback.
            shutil.rmtree(job.outdir)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
