"""contqkd benchmark: four workloads, end-to-end metrics, traced per-layer run.

Usage (from the repository root):

    python3 perfbench/run.py --workload threshold --seed 1 --seconds 15 --trace 0

Every pass runs in a fresh child interpreter (``worker.py``), one at a time,
so set-up time and peak memory are per pass and the load is one process.
BLAS is pinned to one thread.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  The last line of stdout is the result object; the line
before it is a report with the environment block and every pass.  Outputs
go to a scratch directory under the repository root that is removed at exit.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

from tracer import LAYER_UNITS  # noqa: E402

WORKLOADS = ("threshold", "surface", "simulate", "replay")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "singlet_err_bits": "bits",
    "ok_frac": "ratio",
}

MIN_PASSES = 2  # untraced passes per run, however long a pass takes
SETUP_SAMPLES = {"full": 12, "tiny": 3}  # set-up measurements per run
CHILD_TIMEOUT_S = 170.0
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Runner:
    """Starts worker children one at a time inside a scratch directory."""

    def __init__(self, workdir: Path, size: str, seed: int, workload: str) -> None:
        self.workdir = workdir
        self.common = ["--workdir", str(workdir), "--size", size, "--seed", str(seed), "--workload", workload]
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(workdir))
        self.env.update({name: "1" for name in THREAD_ENV})
        self.setup_samples: list[float] = []
        self._count = 0

    def child(self, mode: str, *extra: str, setup_sample: bool = True) -> dict:
        """Run one worker to completion; return its figures plus peak RSS."""
        self._count += 1
        out = self.workdir / f"child-{self._count}.json"
        argv = [sys.executable, str(WORKER), mode, *self.common, "--out", str(out), *extra]
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, env=self.env, cwd=str(ROOT), stdout=sys.stderr)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
        result = json.loads(out.read_text())
        result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
        if setup_sample:
            self.setup_samples.append(result["ready_at"] - spawned)
        return result


def _run_passes(runner: Runner, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
    """Untraced and traced passes: at least MIN_PASSES (traced: one pair), then
    more while the next one is expected to end within ``seconds``."""
    untraced: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        untraced.append(runner.child("pass", "--trace", "0"))
        if trace:
            traced.append(runner.child("pass", "--trace", "1", setup_sample=False))
        step = time.monotonic() - t0
        enough = len(traced) >= 1 if trace else len(untraced) >= MIN_PASSES
        if enough and time.monotonic() - start + step > seconds:
            return untraced, traced


def _median(values) -> float:
    return float(statistics.median(values))


def _end_to_end(untraced: list[dict], setup: list[float], singlet_err: float, attempted: int, failed: int) -> dict:
    return {
        "wall_s": _median(p["wall_s"] for p in untraced),
        "setup_s": _median(setup),
        "items_per_s": _median(p["items"] / p["wall_s"] for p in untraced),
        "peak_rss_mb": _median(p["peak_rss_mb"] for p in untraced),
        "singlet_err_bits": singlet_err,
        "ok_frac": (attempted - failed) / attempted,
    }


def _per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    metrics = {name: _median(p["layers"][name] for p in traced) for name in LAYER_UNITS if not name.startswith("trace.")}
    traced_wall = _median(p["layers"]["trace.traced_wall_s"] for p in traced)
    untraced_wall = _median(p["wall_s"] for p in untraced)
    metrics.update(
        {
            "trace.traced_wall_s": traced_wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
            "trace.coverage": _median(p["layers"]["trace.coverage"] for p in traced),
        }
    )
    return metrics


def benchmark(workload: str, seed: int, seconds: float, trace: bool, size: str, workdir: Path) -> tuple[dict, dict]:
    runner = Runner(workdir, size, seed, workload)
    probe = runner.child("probe")
    if workload == "replay":
        runner.child("prepare-replay", setup_sample=False)
    untraced, traced = _run_passes(runner, seconds, trace)
    while len(runner.setup_samples) < SETUP_SAMPLES[size]:
        runner.child("setup")

    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    # The surface row itself on `surface`, the probe's identical computation elsewhere.
    singlet_err = next((p["singlet_err_bits"] for p in untraced if "singlet_err_bits" in p), probe["singlet_err_bits"])
    if trace:
        metrics, units = _per_layer(untraced, traced), LAYER_UNITS
    else:
        metrics = _end_to_end(untraced, runner.setup_samples, singlet_err, attempted, len(failures))
        units = END_TO_END_UNITS
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    report = {
        "environment": {**probe["environment"], "workload": workload, "seed": seed, "size": size},
        "failures": failures,
        "setup_samples_s": runner.setup_samples,
        "passes": [
            {k: v for k, v in p.items() if k not in ("failures", "ready_at")} | {"traced": "layers" in p}
            for p in passes
        ],
    }
    return result, report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True, help="Monte Carlo seed of simulate and replay")
    p.add_argument("--seconds", type=float, required=True, help="measurement time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(SETUP_SAMPLES), default="full", help="tiny: smoke-test size")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not (ROOT / "src" / "contqkd" / "__init__.py").is_file():
        print(f"perfbench: no contqkd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        result, report = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.size, workdir)
    except (RuntimeError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
