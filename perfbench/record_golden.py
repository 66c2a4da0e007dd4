"""Record the exit code and stdout sha256 of every grid command into golden.json.

    python3 perfbench/record_golden.py

Run this only on the commit whose output is the reference; every benchmark
run afterwards compares its grid output byte for byte against the file.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from distribq import cli

    golden = {}
    for workload in ("verify-hard", "search-all"):
        for argv in workloads.grid_commands(workload, jobs=2):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.run(argv)
            golden[workloads.golden_key(argv)] = workloads.output_digest(rc, out.getvalue())
            print(workloads.golden_key(argv), golden[workloads.golden_key(argv)], file=sys.stderr)
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
