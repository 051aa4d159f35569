"""Mutation checks kept with the tests: each row breaks the package in one known way, and its tests must fail.

Run from anywhere, ``python tests/mutants.py``, with no options (``--help`` prints this and runs
nothing); pytest does not collect this file.  The runner copies ``src``, ``tests`` and
``pyproject.toml`` into a temporary directory, never touching the working tree, and first runs every
named test there unmutated: they must pass.  Then, for each row, it replaces the row's snippet, which
must occur exactly once in its file, in a fresh copy and runs only the row's tests with that copy's
``src`` first on the path.  A mutant is killed when every one of its tests fails (a test named
without parameters fails when any of its cases does).  The exit status is 1 if a snippet is missing
or repeated, a named test fails unmutated, or a mutant survives, and 2 on any argument but ``--help``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SEAMS = "tests/test_protosim.py::TestTranscriptIO::test_writer_matches_rowwise_reference_across_block_seams"
LAYOUTS = "tests/test_protosim.py::TestTranscriptIO::test_line_endings_and_trailing_lines_read_back"
BARE_CR = "tests/test_protosim.py::TestTranscriptIO::test_bare_carriage_return_is_rejected"
SIFT = "tests/test_protosim.py::TestBlockwise::test_sift_matches_whole_column_reference"
SUMMARY = "tests/test_cli.py::TestSimulate::test_summary_matches_its_transcript"
CURVE = "tests/test_security.py::TestSweepCurve::test_curve_arrays_rejected"
EXACT = "tests/test_infocalc.py::TestKernelExactness"
ORBITS = "tests/test_cli.py::TestSurfaceOrbits"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    snippet: str  # must occur exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # pytest node ids that must all fail


MUTANTS = (
    Mutant(
        "build_isometry negates g10 instead of g11",
        "src/contqkd/attack.py",
        "(-1.0 if m and n else 1.0)",
        "(-1.0 if m and not n else 1.0)",
        ("tests/test_attack.py::TestClosedForm::test_reductions_match_closed_forms",),
    ),
    Mutant(
        "_antipode a quarter turn off",
        "src/contqkd/protosim.py",
        "np.mod(phi + math.pi, TWO_PI)",
        "np.mod(phi + math.pi / 2, TWO_PI)",
        ("tests/test_acceptance.py::test_criterion_9_monte_carlo_cross_validation",),
    ),
    Mutant(
        "_law_matrix reads the probe with the opposite sign",
        "src/contqkd/protosim.py",
        "np.stack([c[:, :, 0] + c[:, :, 3], c[:, :, 0] - c[:, :, 3]], axis=-1)",
        "np.stack([c[:, :, 0] - c[:, :, 3], c[:, :, 0] + c[:, :, 3]], axis=-1)",
        # The probe's two outcomes swap labels, which no information estimate sees: only the Born-rule oracle does.
        (
            "tests/test_protosim.py::TestRoundSampling::test_real_law_matches_complex_born_rule",
            "tests/test_protosim.py::TestRunProtocol::test_stream_contract_across_chunk_seam",
        ),
    ),
    Mutant(
        "_snap_zero snaps below 1e-6",
        "src/contqkd/security.py",
        "return q if q > 1e-12 else 0.0",
        "return q if q > 1e-6 else 0.0",
        ("tests/test_security.py::TestQber::test_readings_match_closed_forms",),
    ),
    Mutant(
        "Miller-Madow correction without its +1",
        "src/contqkd/protosim.py",
        "(keys.size - cx.size - cy.size + 1)",
        "(keys.size - cx.size - cy.size)",
        ("tests/test_protosim.py::TestBlockwise::test_information_estimates_match_whole_column_reference",),
    ),
    Mutant(
        "ITP without its one step of slack",
        "src/contqkd/security.py",
        "_ITP_N0 = 1\n",
        "_ITP_N0 = 0\n",
        ("tests/test_pinned_outputs.py::test_outputs_match_pinned_values[critical --tol 1e-4 --reconciled]",),
    ),
    Mutant(
        "inner-sphere kernel switches to its series at 1e-1",
        "src/contqkd/infocalc.py",
        "_SERIES_X = 1e-2\n",
        "_SERIES_X = 1e-1\n",
        ("tests/test_infocalc.py::TestSphereKernel::test_matches_mpmath",),
    ),
    Mutant(
        "inner-sphere kernel applies its closed form to the series lanes too",
        "src/contqkd/infocalc.py",
        "    closed = ~series\n",
        "    closed = np.ones_like(series)\n",
        (f"{EXACT}::test_mixed_lanes_match_all_lanes_reference",),
    ),
    Mutant(
        "nonselected_information takes the receiver's term from the first lane",
        "src/contqkd/infocalc.py",
        "float(rel[-1])",
        "float(rel[0])",
        (f"{EXACT}::test_rates_match_reference_on_the_attack_grid",),
    ),
    Mutant(
        "nonselected_information's r misses its third component",
        "src/contqkd/infocalc.py",
        " + c[2] * c[2]",
        "",
        (f"{EXACT}::test_rates_match_reference_on_the_attack_grid",),
    ),
    Mutant(
        "transcript declares alice_bit before alice_u",
        "src/contqkd/protosim.py",
        '    alice_u: np.ndarray = field(metadata={"kind": _U})\n'
        '    alice_phi: np.ndarray = field(metadata={"kind": _PHI})\n'
        '    alice_bit: np.ndarray = field(metadata={"kind": _BIT})\n',
        '    alice_bit: np.ndarray = field(metadata={"kind": _BIT})\n'
        '    alice_u: np.ndarray = field(metadata={"kind": _U})\n'
        '    alice_phi: np.ndarray = field(metadata={"kind": _PHI})\n',
        (SEAMS,),
    ),
    Mutant(
        "writer keeps each part file until the end",
        "src/contqkd/protosim.py",
        "                    os.remove(part)\n",
        "",
        (f"{SEAMS}[16387-1cpu]", f"{SEAMS}[16387-4cpu]"),
    ),
    Mutant(
        "the writer skips the kind check",
        "src/contqkd/protosim.py",
        "        _check_column(name, col, start)  # before the render",
        "        pass  # before the render",
        ("tests/test_protosim.py::TestTranscriptIO::test_value_the_reader_rejects_is_not_written",),
    ),
    Mutant(
        "the writer renders a float column with %.17g instead of repr",
        "src/contqkd/protosim.py",
        "lambda col: map(repr, col.tolist())",
        'lambda col: map("%.17g".__mod__, col.tolist())',
        (SEAMS,),
    ),
    Mutant(
        "_row_count drops a last line with no line end",
        "src/contqkd/protosim.py",
        'lines += tail not in (b"", b"\\n")',
        "lines += 0",
        (
            "tests/test_protosim.py::TestTranscriptIO::test_row_bound_is_the_text_layer_line_count",
            f"{LAYOUTS}[no final newline-whole blocks]",
            f"{LAYOUTS}[no final newline-partial block]",
        ),
    ),
    Mutant(
        "read_transcript's text layer takes universal newlines",
        "src/contqkd/protosim.py",
        'open(path, "r", encoding="utf-8", newline="\\n")',
        'open(path, "r", encoding="utf-8", newline=None)',
        # The header then reads back, and the read fails later, on numpy's broadcast into columns sized by '\n'.
        (f"{BARE_CR}[bare cr-whole blocks]", f"{BARE_CR}[bare cr-partial block]"),
    ),
    Mutant(
        "read_transcript reads the header line whole",
        "src/contqkd/protosim.py",
        "fh.readline(len(_HEADER) + 3)",
        "fh.readline()",
        ("tests/test_protosim.py::TestTranscriptIO::test_file_without_line_ends_is_rejected_with_a_short_message",),
    ),
    Mutant(
        "read_transcript takes a first line cut at the bound",
        "src/contqkd/protosim.py",
        ' or len(first) == len(_HEADER) + 3 and not first.endswith("\\n")',
        "",
        ("tests/test_protosim.py::TestTranscriptIO::test_record_on_the_header_line_rejected",),
    ),
    Mutant(
        "_cast_block lets u up to 1.5",
        "src/contqkd/protosim.py",
        "(col >= -1.0) & (col <= 1.0)",
        "(col >= -1.0) & (col <= 1.5)",
        ("tests/test_protosim.py::TestTranscriptIO::test_record_outside_the_schema_rejected[u above 1]",),
    ),
    Mutant(
        "_joint_counts never rebuilds its table",
        "src/contqkd/protosim.py",
        "if sum(k.size for k in new_keys) > keys.size:",
        "if False:",
        ("tests/test_protosim.py::TestBoundedMemory::test_information_estimate_transient_is_a_few_blocks",),
    ),
    Mutant(
        "ITP projects to the far side of the midpoint",
        "src/contqkd/security.py",
        "mid - sigma * max(r, 0.0)",
        "mid + sigma * max(r, 0.0)",
        (
            "tests/test_security.py::TestCriticalPoint::test_itp_steps_match_the_reference[flat then steep]",
            "tests/test_security.py::TestCriticalPoint::test_itp_steps_match_the_reference[unequal step]",
        ),
    ),
    Mutant(
        "cier clamps overshoot up to 1e-2",
        "src/contqkd/security.py",
        "if i > i_max + 1e-4:",
        "if i > i_max + 1e-2:",
        ("tests/test_security.py::TestCier::test_overshoot_past_the_clamp_rejected",),
    ),
    Mutant(
        "gauss_product divides the azimuth weights by n_polar",
        "src/contqkd/infocalc.py",
        "np.repeat(wx, n_azimuth) / float(n_azimuth)",
        "np.repeat(wx, n_azimuth) / float(n_polar)",
        ("tests/test_infocalc.py::TestSphereQuadrature::test_product_rule_is_exact_to_degree_two",),
    ),
    Mutant(
        "sift flips the receiver's bit in a cell that holds its own antipode",
        "src/contqkd/protosim.py",
        "anti[s] = (cell_a == cell_b_anti) & ~same",
        "anti[s] = cell_a == cell_b_anti",
        (f"{SIFT}[cells2]", f"{SIFT}[cells3]"),  # the partitions (3, 1) and (1, 1)
    ),
    Mutant(
        "expected_keep_rate counts a self-antipodal cell's overlap as one band",
        "src/contqkd/protosim.py",
        "rate -= 1.0 / (self.cells_u * self.cells_u)",
        "rate -= 1.0 / self.cells_u",
        ("tests/test_protosim.py::TestSift::test_keep_rate_matches_partition_measure",),
    ),
    Mutant(
        "simulate_summary estimates the receiver-probe information for the sender",
        "src/contqkd/cli.py",
        '"bob", **_UNSIFTED_ESTIMATOR',
        '"alice", **_UNSIFTED_ESTIMATOR',
        (f"{SUMMARY}[on line]", f"{SUMMARY}[off line]"),
    ),
    Mutant(
        "simulate_summary sifts on the partition with its two cell counts swapped",
        "src/contqkd/cli.py",
        "SiftingPartition(cfg.cells_u, cfg.cells_phi)",
        "SiftingPartition(cfg.cells_phi, cfg.cells_u)",
        # expected_keep_rate is symmetric in the swap, so only the counts read back from the transcript see it.
        (f"{SUMMARY}[on line]", f"{SUMMARY}[off line]"),
    ),
    Mutant(
        "surface fills a half-turn partner without exchanging i_ab and i_ae",
        "src/contqkd/cli.py",
        "((n - 1 - i, m - 1 - j), True)",
        "((n - 1 - i, m - 1 - j), False)",
        (f"{ORBITS}::test_rows_match_direct_evaluation[4x6]", f"{ORBITS}::test_partners_are_bit_equal[4x6]"),
    ),
    Mutant(
        "surface fills a reflection partner with i_ab and i_ae exchanged",
        "src/contqkd/cli.py",
        "((m - 1 - j, n - 1 - i), False)",
        "((m - 1 - j, n - 1 - i), True)",
        (f"{ORBITS}::test_rows_match_direct_evaluation[3x3]", f"{ORBITS}::test_partners_are_bit_equal[3x3]"),
    ),
    Mutant(
        "surface applies the swap and the reflection to unequal grids",
        "src/contqkd/cli.py",
        "            if n == m:\n",
        "            if True:\n",
        (
            f"{ORBITS}::test_rows_match_direct_evaluation[2x3]",
            f"{ORBITS}::test_rows_match_direct_evaluation[5x7]",
            f"{ORBITS}::test_one_rate_evaluation_per_orbit[2x3]",
        ),
    ),
    Mutant(
        "_joint_law holds its rows to 1e-10 instead of qstate.ATOL",
        "src/contqkd/protosim.py",
        "if not deviation <= ATOL:",
        "if not deviation <= 1e-10:",
        ("tests/test_protosim.py::TestRoundSampling::test_off_normal_law_rejected",),
    ),
    Mutant(
        "Transcript takes columns of unequal length",
        "src/contqkd/protosim.py",
        "if any(c.size != columns[0].size for c in columns):",
        "if False:",
        ("tests/test_protosim.py::TestTranscriptIO::test_columns_of_unequal_length_rejected",),
    ),
    Mutant(
        "_cast_block skips its field count",
        "src/contqkd/protosim.py",
        "if table.shape[1] != width:",
        "if False:",
        # The missing column then raises a KeyError, which is no ValueError.
        ("tests/test_protosim.py::TestTranscriptIO::test_rows_all_one_field_short_rejected",),
    ),
    Mutant(
        "_cast_block skips its row count",
        "src/contqkd/protosim.py",
        "if rows != block.stop - block.start:",
        "if False:",
        # A short block then fails the round order or the field count instead, neither naming the blank line.
        ("tests/test_protosim.py::TestTranscriptIO::test_blank_lines_rejected",),
    ),
    Mutant(
        "read_transcript passes numpy's parse error on unnamed",
        "src/contqkd/protosim.py",
        "                except ValueError as exc:",
        "                except TypeError as exc:",
        (
            "tests/test_protosim.py::TestTranscriptIO::test_record_outside_the_schema_rejected[u abc]",
            "tests/test_protosim.py::TestTranscriptIO::test_record_outside_the_schema_rejected[u abc in the second block]",
        ),
    ),
    Mutant(
        "cier takes information down to -1e-2",
        "src/contqkd/security.py",
        "if i < -1e-12:",
        "if i < -1e-2:",
        ("tests/test_security.py::TestCier::test_rejects_negative_information",),
    ),
    Mutant(
        "InfoCurve takes a theta grid outside [0, pi/4]",
        "src/contqkd/security.py",
        "if not (th[0] >= -1e-12 and th[-1] <= QUARTER_PI + 1e-12):",
        "if False:",
        (f"{CURVE}[below 0]", f"{CURVE}[past pi/4]"),
    ),
    Mutant(
        "InfoCurve takes a theta grid with a repeated point",
        "src/contqkd/security.py",
        "if not np.all(np.diff(th) > 0.0):",
        "if not np.all(np.diff(th) >= 0.0):",
        (f"{CURVE}[repeated theta]",),
    ),
    Mutant(
        "InfoCurve takes non-finite arrays",
        "src/contqkd/security.py",
        "if not all(np.isfinite(arr).all() for arr in arrays.values()):",
        "if False:",
        ("tests/test_security.py::TestSweepCurve::test_non_finite_curve_rejected",),
    ),
    Mutant(
        "SecurityReport takes a nan i0",
        "src/contqkd/security.py",
        "if not self.i0 >= 0.0:",
        "if self.i0 < 0.0:",
        ("tests/test_security.py::TestSecurityReport::test_figure_out_of_range_rejected",),
    ),
    Mutant(
        "bipartite_reductions swaps the sender-probe and receiver-probe pairs",
        "src/contqkd/attack.py",
        "        partial_trace(rho_abe, (0, 2)),\n        partial_trace(rho_abe, (1, 2)),\n",
        "        partial_trace(rho_abe, (1, 2)),\n        partial_trace(rho_abe, (0, 2)),\n",
        ("tests/test_attack.py::TestClosedForm::test_reductions_match_closed_forms",),
    ),
    Mutant(
        "the line rule at step 1/4, 25 nodes",
        "src/contqkd/security.py",
        '"step": 0.125, "nodes": 51',
        '"step": 0.25, "nodes": 25',
        # The rate is then up to 2.9e-10 off (at 0.7); the threshold moves by only 1.6e-13, inside the root test's 1e-12.
        ("tests/test_security.py::TestLineRates::test_default_rule_matches_mpmath",),
    ),
    Mutant(
        "the reconciled rate skips its symmetry check",
        "src/contqkd/security.py",
        "if not off <= ATOL:",
        "if False:",
        ("tests/test_security.py::TestLineRule::test_pair_off_symmetry_rejected",),
    ),
    Mutant(
        "reconciled_i_ab clamps at 0 instead of snapping at ZERO_BITS",
        "src/contqkd/security.py",
        "return value if value > ZERO_BITS else 0.0",
        "return max(0.0, value)",
        ("tests/test_security.py::TestLineRule::test_full_swap_reads_exact_zero",),
    ),
    Mutant(
        "DensityMatrix holds Hermiticity to 1e-10 instead of qstate.ATOL",
        "src/contqkd/qstate.py",
        "if np.abs(mat - mat.conj().T).max() > ATOL:",
        "if np.abs(mat - mat.conj().T).max() > 1e-10:",
        ("tests/test_qstate.py::TestDensityMatrix::test_hermiticity_floor_is_atol",),
    ),
    Mutant(
        "_require_density lets a nan density through",
        "src/contqkd/infocalc.py",
        "if not PSD_FLOOR <= low:",
        "if low < PSD_FLOOR:",
        ("tests/test_infocalc.py::TestPositivityChecks::test_nan_table_raises",),
    ),
    Mutant(
        "gauss_product's cache ignores the argument types",
        "src/contqkd/infocalc.py",
        "@lru_cache(maxsize=8, typed=True)",
        "@lru_cache(maxsize=8, typed=False)",
        ("tests/test_infocalc.py::TestSphereQuadrature::test_rule_is_built_once_and_a_float_count_still_rejected",),
    ),
    Mutant(
        "_reductions keeps no point (a cache of size 0)",
        "src/contqkd/security.py",
        "@functools.lru_cache(maxsize=1)",
        "@functools.lru_cache(maxsize=0)",
        (
            "tests/test_security.py::TestReductionCache::test_report_reduces_no_more_than_the_search",
            "tests/test_security.py::TestReductionCache::test_summary_reduces_its_attack_point_once",
        ),
    ),
    Mutant(
        "run always parses with the full parser",
        "src/contqkd/cli.py",
        "parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)",
        "parser = build_parser(None)",
        ("tests/test_cli.py::TestCommandParsers::test_run_builds_only_its_commands_parser",),
    ),
)


def copy_tree(dest: Path) -> None:
    """The files the tests need, without caches."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def failed_tests(copy: Path, tests: tuple[str, ...]) -> tuple[int, list[str]]:
    """Run ``tests`` in ``copy`` with its ``src`` first on the path; the exit code and the failed node ids."""
    path = os.pathsep.join(filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")]))
    # Plain asserts: the runner reads only which tests failed, not why.
    argv = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", "--assert=plain", *tests]
    done = subprocess.run(argv, cwd=copy, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    lines = done.stdout.splitlines()
    return done.returncode, [line.split(" ", 1)[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]


def caught(test: str, failed: list[str]) -> bool:
    return any(f == test or f.startswith((test + " ", test + "[")) for f in failed)


def main() -> int:
    argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    bad = [m for m in MUTANTS if (ROOT / m.file).read_text(encoding="utf-8").count(m.snippet) != 1]
    for m in bad:
        print(f"BAD ROW   {m.name}: its snippet is not in {m.file} exactly once")
    if bad:
        return 1
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        baseline = Path(tmp, "baseline")
        copy_tree(baseline)
        code, failed = failed_tests(baseline, tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests)))
        if code != 0:
            print(f"BASELINE  the named tests fail without a mutant (exit {code}): {failed}")
            return 1
        for k, m in enumerate(MUTANTS):
            copy = Path(tmp, f"mutant-{k}")
            copy_tree(copy)
            source = (copy / m.file).read_text(encoding="utf-8")
            (copy / m.file).write_text(source.replace(m.snippet, m.replacement), encoding="utf-8")
            missed = [t for t in m.tests if not caught(t, failed_tests(copy, m.tests)[1])]
            print(f"{'SURVIVED' if missed else 'killed':9} {m.name}" + (f": passed {missed}" if missed else ""))
            status |= bool(missed)
            shutil.rmtree(copy)
    return status


if __name__ == "__main__":
    sys.exit(main())
