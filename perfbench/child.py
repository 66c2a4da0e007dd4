"""One benchmark run inside a fresh interpreter.

    python3 perfbench/child.py --root DIR --probe
    python3 perfbench/child.py --root DIR --workload W --seed N --seconds S --trace 0|1

`--probe` imports the package, makes one warm-up call and prints the time
that took. Otherwise the workload is driven in-process through
`distribq.cli.run(argv)` with stdout captured in memory, every answer is
checked, and one JSON object with the raw figures is printed as the last
line. `run.py` starts this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads
from calibrate import KERNEL_REFERENCE_S, Calibrator, kernel_time, steal_seconds

WARMUP_ARGV = ["check", "--outer", "sub", "--inner", "mul", "--triple", "6,4,-3"]
BLOCK = 500  # point queries per pass
SUB_BLOCK = 100  # point queries between calibration readings
TRACED_QUERIES = 2000  # point queries in each half of a traced run


def import_package(root: Path):
    """Import distribq from the checkout's src/ and make the warm-up call."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import distribq
    from distribq import cli

    if Path(distribq.__file__).resolve().parent != src / "distribq":
        raise SystemExit(f"distribq was imported from {distribq.__file__}, not {src}")
    with contextlib.redirect_stdout(io.StringIO()):
        cli.run(WARMUP_ARGV)
    return cli


def cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Runner:
    """Sends commands to `cli.run`, times them and judges the answers."""

    def __init__(self, cli):
        self.cli = cli
        self.run = cli.run
        self.tracer = None  # set while a traced pass runs
        self.attempted = 0
        self.failed = 0
        self.bytes_out = 0
        self.exit3 = 0

    def send(self, argv: list[str]) -> tuple[int | None, str, float, float]:
        """(exit code or None on a traceback, stdout, wall s, cpu s)."""
        out = io.StringIO()
        if self.tracer is not None:
            self.tracer.request = self.attempted
        self.attempted += 1
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = self.run(argv)
        except Exception as exc:  # a traceback is a failed operation, not a crash
            print(f"traceback from {argv}: {exc!r}", file=sys.stderr)
            rc = None
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - c0
        text = out.getvalue()
        self.bytes_out += len(text.encode("utf-8"))
        self.exit3 += rc == 3
        return rc, text, wall, cpu

    def fail(self, argv: list[str], why: str) -> None:
        self.failed += 1
        print(f"failed: {' '.join(argv)}: {why}", file=sys.stderr)

    def grid_pass(self, commands: list[list[str]], golden: dict) -> dict:
        walls, cpus = [], []
        for argv in commands:
            rc, text, wall, cpu = self.send(argv)
            walls.append(wall)
            cpus.append(cpu)
            if workloads.output_digest(rc, text) != golden[workloads.golden_key(argv)]:
                self.fail(argv, f"exit {rc} or output bytes differ from golden.json")
        triples = sum(workloads.command_triples(a) for a in commands)
        return {"wall": sum(walls), "cpu": sum(cpus), "latencies": walls, "cpus": cpus,
                "queries": len(commands), "triples": triples}

    def query_pass(self, maker: workloads.QueryMaker, count: int) -> dict:
        walls, cpus, triples = [], [], 0
        for _ in range(count):
            query = maker.next()
            rc, text, wall, cpu = self.send(query.argv)
            walls.append(wall)
            cpus.append(cpu)
            triples += query.triples
            try:
                ok = rc is not None and query.judge(query.argv[-1], rc, text)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                ok = False
                print(f"unreadable answer: {exc!r}", file=sys.stderr)
            if not ok:
                self.fail(query.argv, f"exit {rc}, answer rejected: {text[:200]!r}")
        return {"wall": sum(walls), "cpu": sum(cpus), "latencies": walls, "cpus": cpus,
                "queries": count, "triples": triples}


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024


def run_passes(units, jobs: int, reps: int, calibrator: Calibrator,
               unit_latencies: list[list[float]], seconds: float) -> list[dict]:
    """Calibrated totals of each pass; appends each unit's query times."""
    passes = []
    before = calibrator.read(reps)
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        totals = {"wall": 0.0, "raw_wall": 0.0, "cpu": 0.0, "queries": 0, "triples": 0}
        for i, unit in enumerate(units):
            stolen, elapsed = steal_seconds(), time.perf_counter()
            done = unit()
            stolen, elapsed = steal_seconds() - stolen, time.perf_counter() - elapsed
            after = calibrator.read(reps)
            scale = KERNEL_REFERENCE_S / ((before + after) / 2)
            before = after
            if jobs == 1:
                # In-process and CPU-bound: its CPU time is its wall time on
                # a core of its own, whatever the hypervisor took meanwhile.
                times = done["cpus"]
            else:
                # Take out the share of the unit during which the hypervisor
                # ran something else on the unit's cores.
                kept = max(1 - stolen / jobs / elapsed, 0.0)
                times = [kept * x for x in done["latencies"]]
            times = [scale * x for x in times]
            totals["wall"] += sum(times)
            totals["raw_wall"] += done["wall"]
            totals["cpu"] += scale * done["cpu"]
            totals["queries"] += done["queries"]
            totals["triples"] += done["triples"]
            unit_latencies[i] += times
        passes.append(totals)
    return passes


def end_to_end(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    """Repeat passes for `seconds`; medians of calibrated pass figures.

    A pass is every command of a grid workload once, or BLOCK point
    queries. Each unit of a pass (one grid command, or SUB_BLOCK queries)
    is bracketed by calibration readings on as many cores as it uses, and
    its times are rescaled by their mean (see calibrate.py).
    """
    if workload == "point-queries":
        maker = workloads.QueryMaker(seed)
        jobs, reps = 1, 8
        units = [lambda: runner.query_pass(maker, SUB_BLOCK)] * (BLOCK // SUB_BLOCK)
    else:
        golden = workloads.load_golden()
        jobs = 2 if workload == "verify-hard" else 1
        reps = 150 if workload == "verify-hard" else 4
        units = [lambda argv=argv: runner.grid_pass([argv], golden)
                 for argv in workloads.grid_commands(workload, jobs)]

    unit_latencies = [[] for _ in units]
    calibrator = Calibrator(jobs)
    try:
        passes = run_passes(units, jobs, reps, calibrator, unit_latencies, seconds)
    finally:
        calibrator.close()
    if workload == "point-queries":
        latencies = [x for unit in unit_latencies for x in unit]
    else:
        # A grid command repeats every pass: take its median, so one
        # interrupted repetition does not become the tail.
        latencies = [statistics.median(unit) for unit in unit_latencies]
    return {
        "passes": len(passes),
        "query_samples": sum(len(unit) for unit in unit_latencies),
        "raw_wall_s": statistics.median(p["raw_wall"] for p in passes),
        "metrics": {
            "wall_s": statistics.median(p["wall"] for p in passes),
            "cpu_s": statistics.median(p["cpu"] for p in passes),
            "triples_per_s": statistics.median(p["triples"] / p["wall"] for p in passes),
            "queries_per_s": statistics.median(p["queries"] / p["wall"] for p in passes),
            "query_p50_ms": 1000 * statistics.median(latencies),
            "query_p99_ms": 1000 * percentile(latencies, 99),
            "peak_rss_mb": peak_rss_mb(),
        },
    }


def traced(runner: Runner, workload: str, seed: int, out_dir: Path) -> dict:
    """Per-layer figures from untraced and traced jobs-1 runs of the same work.

    The work is cut into units: one grid command, or one block of point
    queries. Each unit runs once untraced and once traced, alternating which
    goes first, so drift on a shared machine cancels out of the tracing
    overhead. Spans from forked pool workers would be lost, hence jobs 1.
    """
    from tracer import Tracer

    tracer = Tracer()
    traced_run = tracer.wrap(runner.cli.run, "cli", "cli.run", keep_span=True)
    jobs2 = None
    if workload == "point-queries":
        makers = {False: workloads.QueryMaker(seed), True: workloads.QueryMaker(seed)}
        units = [lambda on: runner.query_pass(makers[on], BLOCK)] * (TRACED_QUERIES // BLOCK)
    else:
        golden = workloads.load_golden()
        if workload == "verify-hard":
            jobs2 = runner.grid_pass(workloads.grid_commands(workload, 2), golden)
        units = [lambda on, argv=argv: runner.grid_pass([argv], golden)
                 for argv in workloads.grid_commands(workload, 1)]

    plain = {"wall": 0.0, "triples": 0}
    traced_pass = {"wall": 0.0, "triples": 0}
    bytes_out = exit3 = 0
    for i, unit in enumerate(units):
        for on in ((False, True) if i % 2 == 0 else (True, False)):
            if not on:
                done = unit(False)
                plain["wall"] += done["wall"]
                continue
            bytes_before, exit3_before = runner.bytes_out, runner.exit3
            runner.run, runner.tracer = traced_run, tracer
            with tracer:
                done = unit(True)
            runner.run, runner.tracer = runner.cli.run, None
            bytes_out += runner.bytes_out - bytes_before
            exit3 += runner.exit3 - exit3_before
            traced_pass["wall"] += done["wall"]
            traced_pass["triples"] += done["triples"]

    check = tracer.stat("identity.check")
    generate = tracer.stat("catalog.generate")
    number_theory = tracer.layer("number_theory.")
    cli_run = tracer.stat("cli.run")
    oracle_top = [tracer.stat("oracle.search_solutions"),
                  tracer.stat("oracle.verify_characterization")]
    metrics = {
        "identity.check.calls": check.calls,
        "identity.check.busy_s": check.busy,
        "identity.check.self_us": 1e6 * check.self_time / max(check.calls, 1),
        "identity.check.hold_ratio": check.holds / max(check.calls, 1),
        "identity.check.undefined": check.undefined,
        "catalog.member.calls": tracer.stat("catalog.member").calls,
        "catalog.member.busy_s": tracer.stat("catalog.member").busy,
        "catalog.family_union_member.calls": tracer.stat("catalog.family_union_member").calls,
        "catalog.family_union_member.busy_s": tracer.stat("catalog.family_union_member").busy,
        "catalog.solve_r2.calls": tracer.stat("catalog.solve_r2").calls,
        "catalog.solve_r2.busy_s": tracer.stat("catalog.solve_r2").busy,
        "catalog.generate.calls": generate.calls,
        "catalog.generate.busy_s": generate.busy,
        "catalog.generate.accept_ratio": (generate.calls - generate.errors) / max(generate.calls, 1),
        "number_theory.calls": number_theory.calls,
        "number_theory.busy_s": number_theory.layer_busy,
        "oracle.triples": traced_pass["triples"] if workload != "point-queries" else 0,
        "oracle.enumerate_rationals.busy_s": tracer.stat("oracle.enumerate_rationals").busy,
        "oracle.scan_self_s": sum(s.self_time for s in oracle_top),
        "oracle.pool_overhead_s": jobs2["wall"] - plain["wall"] / 2 if jobs2 else 0.0,
        "oracle.jobs2_efficiency": plain["wall"] / (2 * jobs2["wall"]) if jobs2 else 0.0,
        "cli.runs": cli_run.calls,
        "cli.self_s": cli_run.self_time,
        "cli.self_us_per_run": 1e6 * cli_run.self_time / max(cli_run.calls, 1),
        "cli.bytes_out": bytes_out,
        "cli.exit3": exit3,
        "trace.overhead_s": traced_pass["wall"] - plain["wall"],
    }
    self_check = {}
    if workload != "point-queries":
        self_check["identity.check.calls"] = (check.calls, traced_pass["triples"])
    if workload == "verify-hard":
        self_check["catalog.member.calls"] = (metrics["catalog.member.calls"], traced_pass["triples"])
    for name, (seen, expected) in self_check.items():
        if seen != expected:
            runner.fail([workload], f"tracer saw {name} = {seen}, expected {expected}")

    out_dir.mkdir(exist_ok=True)
    dump = out_dir / f"trace-{workload}-seed{seed}.json"
    dump.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "untraced_wall_s": plain["wall"],
        "traced_wall_s": traced_pass["wall"],
        "stats": {name: {k: getattr(s, k) for k in s.__slots__} for name, s in tracer.stats.items()},
        "spans": tracer.span_dicts(),
    }) + "\n")
    return {"passes": 2 * len(units) + bool(jobs2), "self_check": self_check, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    t0 = time.process_time()  # CPU time: a 50 ms figure cannot shed steal in 10 ms ticks
    cli = import_package(args.root)
    setup = time.process_time() - t0
    if args.probe:
        scale = KERNEL_REFERENCE_S / kernel_time(60)
        print(json.dumps({"setup_s": scale * setup, "raw_setup_s": setup}))
        return 0

    runner = Runner(cli)
    if args.trace:
        result = traced(runner, args.workload, args.seed, args.root / ".perfbench")
    else:
        result = end_to_end(runner, args.workload, args.seed, args.seconds)
    result.update(attempted=runner.attempted, failed=runner.failed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
