"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Workloads and metrics are listed,
with units, in BENCHMARK.json; perfbench/README.md explains them.

With `--trace 0` the set-up time is measured in fresh interpreters, then
the workload runs for `--seconds` in one more fresh interpreter and every
end-to-end metric is printed. With `--trace 1` the workload runs once
untraced and once with every layer wrapped, and the per-layer metrics are
printed instead. The last line of stdout is always the result object; the
line before it records the machine and the run's sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-hard", "search-all", "point-queries")
SETUP_PROBES = 9
TIME_LIMIT_S = 170  # the whole run, children included


def run_child(extra: list[str], deadline: float) -> dict:
    """Run child.py in a fresh interpreter and return its last stdout line."""
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT), *extra]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool workers
        proc.communicate()
        raise RuntimeError(f"{' '.join(extra)} ran past {TIME_LIMIT_S} s") from None
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"child {' '.join(extra)} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine() -> dict:
    """What the figures were measured on; read only, nothing is changed."""
    model = next((line.partition(":")[2].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f).strip() for f in ("level", "type", "size"))
        if size:
            caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "distribq").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "distribq" / "cli.py").is_file():
        print(f"no distribq sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        probes = [] if args.trace else [run_child(["--probe"], deadline)
                                        for _ in range(SETUP_PROBES)]
        result = run_child(["--workload", args.workload, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)],
                           deadline)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    figures = dict(result["metrics"])
    if probes:
        figures["setup_s"] = statistics.median(p["setup_s"] for p in probes)
    missing = [m["name"] for m in wanted if m["name"] not in figures]
    if missing:
        print(f"benchmark failed: no figure for {', '.join(missing)}", file=sys.stderr)
        return 1

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": result["passes"],
        "query_samples": result.get("query_samples"),
        "setup_samples": len(probes),
        "raw_setup_s": statistics.median(p["raw_setup_s"] for p in probes) if probes else None,
        "raw_wall_s": result.get("raw_wall_s"),
        "self_check": result.get("self_check"),
        "machine": machine(),
    }))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
