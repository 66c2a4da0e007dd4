"""Byte-for-byte CLI goldens: stdout and exit code of fixed invocations.

`golden_cli.json` holds, for every argv below in each of the three output
formats, the exact stdout and exit code the CLI produced when the file was
recorded. Re-record only for an intended output change, with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import csv
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from distribq.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

# The README "Command line" examples, then solve giving ALL and NONE, check
# giving UNDEFINED, and solve on each hard case by operation-pair name; then
# one invocation per remaining output shape: empty and NONE rows, every kind
# of --params value, truncated verify lists, FAILS, a negative verdict on
# member and a constraint error (exit 3, nothing printed).
COMMANDS = [
    "check --outer sub --inner mul --triple 6,4,-3",
    "classify --triple 0,2,3",
    "member --case 12 --triple 2,5,1",
    "generate --case 12 --family 4 --params delta=2",
    "solve --case 13 --r1 3 --r3 -1",
    "diophantine --p 1 --q 1 --t 1",
    "construct12 --n1 3 --n2 2 --delta 2",
    "construct12 --n1 3 --n2 2 --list 10",
    "family5 --a 4 --f 1 --k 1 --sign=-",
    "search --case 12 --num-bound 5 --den-bound 2 --jobs 8",
    "verify --case 12 --num-bound 6 --den-bound 1",
    "solve --case 12 --r1 2 --r3 1",
    "solve --case 13 --r1 0 --r3 5",
    "solve --case 12 --r1 4 --r3 2",
    "solve --case 14 --r1 2 --r3 1",
    "check --outer add --inner div --triple 1,1,-1",
    "check --outer div --inner add --triple 1,0,0",
    "solve --case sub/mul --r1 7/3 --r3=-5/2",
    "solve --case add/div --r1=-3/4 --r3 2/5",
    "solve --case sub/div --r1 1 --r3 1/3",
    "diophantine --p 2 --q 4 --t 3",
    "diophantine --p 0 --q 5 --t 10",
    "diophantine --p -6 --q 4 --t 10",
    "construct12 --n1 3 --n2 2 --delta 1",
    "construct12 --n1 3 --n2 2 --delta 1 --allow-degenerate",
    "construct12 --n1 5 --n2 3 --list 4 --allow-degenerate",
    "generate --case 13 --family 5 --params a=4,f=1,k=1,sign=-",
    "generate --case 14 --family 3 --params e=1,f=3,printed_form=1",
    "generate --case 11 --family 2 --params r2=1/2,r3=-1/3",
    "generate --case 12 --family 1 --params r3=2/3",
    "generate --case 12 --family 4 --params delta=1",
    "verify --case 13 --num-bound 3 --den-bound 2 --limit 2",
    "verify --case 1 --num-bound 2 --den-bound 2",
    "search --case 7 --num-bound 1 --den-bound 1",
    "classify --triple 1,-1/2,2/3",
    "classify --triple 0,0,0",
    "member --case 12 --triple 2,5,2",
    "check --outer div --inner div --triple 0,1,1",
    "check --outer mul --inner div --triple 1/2,-3,5/7",
    "family5 --a 3 --f 1 --k 0 --sign +",
]
FORMATS = ["plain", "json", "csv"]


def _run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _invocations() -> list[list[str]]:
    return [command.split() + ["--format", fmt] for command in COMMANDS for fmt in FORMATS]


@pytest.fixture(scope="module")
def golden() -> dict[str, dict]:
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {" ".join(entry["argv"]): entry for entry in recorded}


def test_golden_file_covers_every_invocation(golden):
    assert list(golden) == [" ".join(argv) for argv in _invocations()]


@pytest.mark.parametrize("argv", _invocations(), ids=" ".join)
def test_cli_output_matches_golden(golden, argv):
    entry = golden[" ".join(argv)]
    code, out = _run(argv)
    assert code == entry["exit"]
    assert out == entry["stdout"]


@pytest.mark.parametrize("argv", [argv for argv in _invocations() if argv[-1] == "csv"],
                         ids=" ".join)
def test_no_csv_cell_needs_quoting(golden, argv):
    # The CLI joins CSV cells with "," and quotes none; csv.writer would
    # quote a cell holding a comma, a quote or a newline.
    out = golden[" ".join(argv)]["stdout"]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(csv.reader(io.StringIO(out)))
    assert buf.getvalue() == out


if __name__ == "__main__":
    records = []
    for argv in _invocations():
        code, out = _run(argv)
        records.append({"argv": argv, "exit": code, "stdout": out})
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
