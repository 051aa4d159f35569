"""The analysis commands' outputs at the default 32x64 rule, pinned to committed values.

Every number that ``critical``, ``curve`` and ``surface`` print is compared with
``pinned_outputs.json`` at 1e-12 relative, with a 1e-15 absolute floor for the
exact zeros.  The numbers are bit-identical across OpenBLAS kernels, and
across numpy SIMD targets they move by up to about 3e-14 relative, while a
change to the threshold search, say ITP's slack ``_ITP_N0`` at 0 instead of 1,
moves the reconciled theta0 at ``--tol 1e-4`` from 0.5139002 to 0.5139123.  At
``--tol 1e-12`` the search ends within tol of the root, and one roundoff flip of
the sign of i_ab - i_ae at a probe that close can move theta0 by up to tol, so
every number of those reports also gets 100 tol absolute: each is a function of
theta0 whose slope there is at most 4.8 in size (the reconciled report's
continuous-readout cier; measured by central differences).  A change that moves an output
regenerates the file (``python tests/test_pinned_outputs.py``, with ``src`` on
the path) and records the diff.
"""

import json
from pathlib import Path

import pytest

from contqkd.cli import run

PINNED = Path(__file__).with_name("pinned_outputs.json")
REL, FLOOR = 1e-12, 1e-15
# Each command, and the absolute slack its numbers get beyond REL and FLOOR.
COMMANDS = {
    "critical --tol 1e-4": 0.0,
    "critical --tol 1e-4 --reconciled": 0.0,
    "critical --tol 1e-12": 100 * 1e-12,
    "critical --tol 1e-12 --reconciled": 100 * 1e-12,
    "curve --theta-steps 5": 0.0,
    "curve --theta-steps 5 --reconciled": 0.0,
    "surface --theta-steps 3 --phi-steps 3": 0.0,
}


def output(command: str, directory: Path):
    """The ``data`` block of the command's json output, written under ``directory``."""
    path = directory / "out.json"
    assert run([*command.split(), "--format", "json", "--output", str(path)]) == 0
    return json.loads(path.read_text())["data"]


def numbers(data, key=""):
    """(key path, value) of every number in ``data``; strings, such as the report's note, are left out."""
    if isinstance(data, dict):
        return [pair for k in sorted(data) for pair in numbers(data[k], f"{key}/{k}")]
    if isinstance(data, list):
        return [pair for i, item in enumerate(data) for pair in numbers(item, f"{key}/{i}")]
    return [] if isinstance(data, str) else [(key, data)]


@pytest.mark.parametrize("command", COMMANDS)
def test_outputs_match_pinned_values(command, tmp_path):
    want = numbers(json.loads(PINNED.read_text())[command])
    got = numbers(output(command, tmp_path))
    assert [k for k, _ in got] == [k for k, _ in want]
    for (key, g), (_, w) in zip(got, want):
        if isinstance(w, float):
            assert abs(g - w) <= max(REL * abs(w), FLOOR, COMMANDS[command]), (key, g, w)
        else:
            assert g == w and type(g) is type(w), key


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pinned = {command: output(command, Path(tmp)) for command in COMMANDS}
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
