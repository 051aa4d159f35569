"""Command-line front end: surface/curve/critical/dims tables and simulation runs.

The table commands (surface, curve, critical, dims) emit machine-readable
data in one of two formats chosen by ``--format`` (CSV with a header row, or
JSON shaped {"manifest": ..., "data": ...}).  ``simulate`` has no
``--format``: it writes the csv transcript of ``protosim.write_transcript``
plus a JSON summary sidecar.  Every command with ``--output`` also writes a
JSON manifest sidecar recording every parsed option, seed, quadrature
resolution, tool version and wall-clock duration.  Re-running a command with
the manifest's parameters reproduces the data files byte for byte within one
Python/numpy/BLAS environment.  ``critical`` prints its report to stdout and
writes files only with ``--output``; ``--format`` without ``--output`` is a
usage error.

Angles in output files are always radians.  Input angle flags accept radians
by default or degrees with an explicit ``deg`` suffix (e.g. ``--theta 22.5deg``).

Exit codes: 0 success; 1 usage error, for a malformed command line or any
parameter value the computation would reject (every value is validated while
parsing); 2 numerical failure, for a failed bracket or a broken invariant,
including any ValueError raised while computing; 3 I/O failure, a dead
transcript-writer worker included; 4 out of memory, for an allocation the
machine cannot meet (say ``simulate --rounds`` far beyond the memory).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Any, Callable, Sequence

import numpy as np

from . import __version__
from .attack import AttackParams
from .infocalc import DEFAULT_RULE, SphereQuadrature
from .protosim import (
    ProtocolConfig,
    SiftingPartition,
    Transcript,
    empirical_mi,
    empirical_mi_with_probe,
    run_protocol,
    sift,
    sifted_error_rate,
    write_transcript,
)
from .qstate import NumericalCorruptionError, check_int
from .security import (
    NONSELECTED_MAX_BITS,
    QUARTER_PI,
    RECONCILED_MAX_BITS,
    BracketError,
    cier,
    critical_point,
    dimension_table,
    information_rates,
    i_max_bits,
    optimal_params,
    pair_fidelity_deficit,
    qber,
    qber_sphere_averaged,
    sweep_curve,
)

USAGE_ERROR, NUMERICAL_ERROR, IO_ERROR, MEMORY_ERROR = 1, 2, 3, 4

# Default binning of the cross-validation information estimate in `simulate`:
# fine enough to track the continuous value, coarse enough that the
# Miller-Madow-corrected histogram estimator is unbiased at 1e5 rounds.
MI_CELLS_U, MI_CELLS_PHI = 8, 16
# The estimates key each pair of folded symbols, one per cell, as one int64.
MI_CELLS_MAX = math.isqrt(np.iinfo(np.int64).max)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _parse_angle(text: str) -> float:
    """Radians by default; an explicit 'deg' or 'rad' suffix is honored."""
    s = text.strip().lower()
    try:
        if s.endswith("deg"):
            value = math.radians(float(s[:-3]))
        elif s.endswith("rad"):
            value = float(s[:-3])
        else:
            value = float(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"angle must be finite, got {text!r}")
    return value


def _int_in(low: int, high: float = math.inf) -> Callable[[str], int]:
    """Parser for an integer in [low, high); ``qstate.check_int`` checks the range."""

    def parse(text: str) -> int:
        try:
            value = int(text)
            check_int("value", value, low, high)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer in [{low}, {high}), got {text!r}") from None
        return value

    return parse


def _float_in(low: float, high: float) -> Callable[[str], float]:
    """Parser for a float in the open interval (low, high); nan never passes."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
        if not low < value < high:
            raise argparse.ArgumentTypeError(f"must lie in ({low}, {high}), got {text!r}")
        return value

    return parse


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_table(
    path: str, fmt: str, manifest: dict, columns: Sequence[str], rows: Sequence[Sequence[Any]]
) -> None:
    if fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(x) for x in row) + "\n")
    else:
        data = {"columns": list(columns), "rows": [list(row) for row in rows]}
        _write_json(path, {"manifest": manifest, "data": data})


def _quad_from_args(args: argparse.Namespace) -> SphereQuadrature:
    return SphereQuadrature.gauss_product(args.quad_polar, args.quad_azimuth)


def _add_quadrature(p: argparse.ArgumentParser) -> None:
    polar, azimuth = DEFAULT_RULE
    p.add_argument("--quad-polar", type=_int_in(2), default=polar, help="Gauss-Legendre nodes in cos(theta)")
    p.add_argument("--quad-azimuth", type=_int_in(4), default=azimuth, help="uniform azimuth nodes")


def _add_common(p: argparse.ArgumentParser, output_required: bool = True) -> None:
    p.add_argument("--output", required=output_required, help="output file path")
    p.add_argument("--format", choices=("csv", "json"), help="output format")


def _cmd_surface(args: argparse.Namespace, manifest: dict) -> None:
    quad = _quad_from_args(args)
    thetas = np.linspace(0.0, QUARTER_PI, args.theta_steps)
    phis = np.linspace(0.0, QUARTER_PI, args.phi_steps)
    rows = []
    for t in thetas:
        for p in phis:
            rates = information_rates(AttackParams(float(t), float(p)), quad)
            rows.append((float(t), float(p), *rates))
    _write_table(args.output, args.format, manifest, ("theta", "phi", "i_ab", "i_ae", "i_be"), rows)


def _cmd_curve(args: argparse.Namespace, manifest: dict) -> None:
    quad = _quad_from_args(args)
    grid = np.linspace(0.0, QUARTER_PI, args.theta_steps)
    curve = sweep_curve(grid, reconciled=args.reconciled, quad=quad)
    i_max = i_max_bits(args.reconciled)
    rows = []
    for k, t in enumerate(curve.thetas):
        rows.append(
            (
                float(t),
                float(curve.i_ab[k]),
                float(curve.i_ae[k]),
                float(curve.i_be[k]),
                qber(optimal_params(float(t))),
                cier(float(curve.i_ab[k]), i_max),
            )
        )
    _write_table(
        args.output, args.format, manifest, ("theta", "i_ab", "i_ae", "i_be", "qber", "cier"), rows
    )


def critical_report(reconciled: bool, quad: SphereQuadrature, tol: float) -> dict:
    """Threshold summary with every error-rate reading spelled out."""
    report = critical_point(reconciled=reconciled, quad=quad, tol=tol)
    params0 = optimal_params(report.theta0)
    sin_reading = math.sin(report.theta0)
    sin_sq_reading = math.sin(report.theta0) ** 2
    return {
        "reconciled": report.reconciled,
        "theta0": report.theta0,
        "i0_bits": report.i0,
        "qber0": report.q0,
        "cier0": report.q_cier0,
        "i_max_bits": i_max_bits(reconciled),
        "cier_normalizations": {
            "continuous_readout_max": cier(report.i0, NONSELECTED_MAX_BITS),
            "reconciled_max": cier(report.i0, RECONCILED_MAX_BITS),
        },
        "disturbance_readings": {
            "transmission_basis": report.q0,
            "sphere_averaged": qber_sphere_averaged(params0, quad),
            "pair_fidelity_deficit": pair_fidelity_deficit(params0),
            "note": (
                "historical threshold readings are ambiguous: sin(theta0)="
                f"{sin_reading!r} vs sin(theta0)^2={sin_sq_reading!r}; the computed "
                "transmission-basis error matches the squared form"
            ),
        },
    }


def _cmd_critical(args: argparse.Namespace, manifest: dict) -> None:
    quad = _quad_from_args(args)
    data = critical_report(args.reconciled, quad, args.tol)
    payload = {"manifest": manifest, "data": data}
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.output and args.format == "csv":
        cols = ("reconciled", "theta0", "i0_bits", "qber0", "cier0", "i_max_bits")
        _write_table(args.output, "csv", manifest, cols, [[data[c] for c in cols]])
    elif args.output:
        _write_json(args.output, payload)


def _cmd_dims(args: argparse.Namespace, manifest: dict) -> None:
    ds, acc, imax, q = dimension_table(args.d_max)
    rows = [
        (int(ds[i]), float(acc[i]), float(imax[i]), float(q[i])) for i in range(ds.size)
    ]
    _write_table(
        args.output, args.format, manifest, ("d", "accessible_bits", "i_max_bits", "critical_cier"), rows
    )


def simulate_summary(
    cfg: ProtocolConfig,
    quad: SphereQuadrature,
    mi_binning: SiftingPartition,
    transcript: Transcript,
) -> dict:
    """Summarize the transcript of a protocol run with configuration ``cfg``."""
    partition = SiftingPartition(cfg.cells_u, cfg.cells_phi)
    sifted = sift(transcript, partition)
    bitwise = SiftingPartition(1, 1)

    mi_ab = empirical_mi(transcript, mi_binning, mi_binning, miller_madow=True, fold_antipodal=True)
    mi_ae = empirical_mi_with_probe(transcript, mi_binning, "alice", miller_madow=True, fold_antipodal=True)
    mi_be = empirical_mi_with_probe(transcript, mi_binning, "bob", miller_madow=True, fold_antipodal=True)

    on_line = abs(cfg.attack.theta + cfg.attack.phi - QUARTER_PI) < 1e-9
    reference = None
    verdict_reference = None
    if on_line:
        ref_ab, ref_ae, ref_be = information_rates(cfg.attack, quad)
        reference = {
            "i_ab_bits": ref_ab,
            "i_ae_bits": ref_ae,
            "i_be_bits": ref_be,
            "qber": qber(cfg.attack),
            "qber_sphere_averaged": qber_sphere_averaged(cfg.attack, quad),
        }
        verdict_reference = bool(ref_ab > max(ref_ae, ref_be))

    summary = {
        "rounds": cfg.rounds,
        "attack": {"theta": cfg.attack.theta, "phi": cfg.attack.phi},
        "on_optimal_line": on_line,
        "disclosed_rounds": int(transcript.disclosed.sum()),
        "unsifted": {
            "mi_alice_bob_bits": mi_ab,
            "mi_alice_probe_bits": mi_ae,
            "mi_bob_probe_bits": mi_be,
            "binning_cells": [mi_binning.cells_u, mi_binning.cells_phi],
            "miller_madow": True,
            "fold_antipodal": True,
        },
        "sifted": {
            "cells": [cfg.cells_u, cfg.cells_phi],
            "kept_rounds": len(sifted),
            "keep_rate": len(sifted) / len(transcript),
            "expected_keep_rate": partition.expected_keep_rate(),
            "mi_bits": empirical_mi(sifted, bitwise, bitwise, miller_madow=True)
            if len(sifted)
            else None,
            "error_rate": sifted_error_rate(sifted) if len(sifted) else None,
        },
        "quadrature_reference": reference,
        "security_verdict": {
            "empirical_i_ab_dominates": bool(mi_ab > max(mi_ae, mi_be)),
            "quadrature_i_ab_dominates": verdict_reference,
        },
    }
    return summary


def _cmd_simulate(args: argparse.Namespace, manifest: dict) -> None:
    phi = args.phi if args.phi is not None else QUARTER_PI - args.theta
    manifest["parameters"]["phi"] = phi
    cfg = ProtocolConfig(
        rounds=args.rounds,
        attack=AttackParams(args.theta, phi),
        cells_u=args.cells_u,
        cells_phi=args.cells_phi,
        seed=args.seed,
        disclose_fraction=args.disclose_fraction,
    )
    quad = _quad_from_args(args)
    mi_binning = SiftingPartition(args.mi_cells_u, args.mi_cells_phi)

    transcript = run_protocol(cfg)
    summary = simulate_summary(cfg, quad, mi_binning, transcript)
    write_transcript(transcript, args.output)
    _write_json(args.output + ".summary.json", {"manifest": manifest, "summary": summary})


def build_parser() -> _Parser:
    parser = _Parser(prog="contqkd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("surface", help="information rates over the attack-angle square")
    p.add_argument("--theta-steps", type=_int_in(2), default=17)
    p.add_argument("--phi-steps", type=_int_in(2), default=17)
    _add_quadrature(p)
    _add_common(p)
    p.set_defaults(func=_cmd_surface)

    p = sub.add_parser("curve", help="rates along the optimal-eavesdropping line")
    p.add_argument("--theta-steps", type=_int_in(2), default=33)
    p.add_argument("--reconciled", action="store_true")
    _add_quadrature(p)
    _add_common(p)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("critical", help="security threshold on the optimal line")
    p.add_argument("--reconciled", action="store_true")
    p.add_argument(
        "--tol", type=_float_in(0.0, math.inf), default=1e-12, help="root-finder tolerance, radians"
    )
    _add_quadrature(p)
    _add_common(p, output_required=False)
    p.set_defaults(func=_cmd_critical)

    p = sub.add_parser("dims", help="alphabet-dimension scaling table")
    p.add_argument("--d-max", type=_int_in(2), default=64)
    _add_common(p)
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("simulate", help="Monte Carlo protocol run")
    p.add_argument("--rounds", type=_int_in(1), default=100_000)
    p.add_argument("--theta", type=_parse_angle, default=0.0, help="attack angle (rad, or e.g. 22.5deg)")
    p.add_argument(
        "--phi",
        type=_parse_angle,
        default=None,
        help="attack angle; defaults to pi/4 - theta (the optimal line)",
    )
    p.add_argument("--cells-u", type=_int_in(1), default=ProtocolConfig.cells_u)
    p.add_argument("--cells-phi", type=_int_in(1), default=ProtocolConfig.cells_phi)
    p.add_argument("--seed", type=_int_in(0, 2**64), default=ProtocolConfig.seed)
    p.add_argument("--disclose-fraction", type=_float_in(0.0, 1.0), default=ProtocolConfig.disclose_fraction)
    p.add_argument("--mi-cells-u", type=_int_in(1), default=MI_CELLS_U)
    p.add_argument("--mi-cells-phi", type=_int_in(1), default=MI_CELLS_PHI)
    _add_quadrature(p)
    p.add_argument("--output", required=True, help="transcript csv path")
    p.set_defaults(func=_cmd_simulate)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse, run one command, then write its manifest sidecar; return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "format", None) and not args.output:
            parser.error("--format needs --output")
        if args.command == "simulate" and args.mi_cells_u * args.mi_cells_phi > MI_CELLS_MAX:
            parser.error(f"--mi-cells-u x --mi-cells-phi must be <= {MI_CELLS_MAX}")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    started = time.monotonic()
    if hasattr(args, "format"):
        args.format = args.format or "csv"
    options = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    seed = options.pop("seed", None)
    rule = [options.pop("quad_polar"), options.pop("quad_azimuth")] if "quad_polar" in options else None
    manifest = {
        "command": args.command,
        "parameters": options,
        "seed": seed,
        "quadrature": rule,
        "version": __version__,
    }
    try:
        args.func(args, manifest)
        if args.output:
            manifest["wall_seconds"] = time.monotonic() - started
            _write_json(args.output + ".manifest.json", manifest)
        return 0
    except (ValueError, BracketError, NumericalCorruptionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return IO_ERROR
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return MEMORY_ERROR


def main() -> None:
    sys.exit(run())
