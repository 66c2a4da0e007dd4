"""Tests of the benchmark itself: tracer counts, answer checkers, golden check.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def cli():
    return child.import_package(ROOT)


def _send(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.run(argv)
    return rc, out.getvalue()


def _small_grid(argv):
    return [a if a not in ("10", "6") else "3" for a in argv]


def test_tracer_sees_every_per_triple_call(cli):
    verify = [_small_grid(a) for a in workloads.grid_commands("verify-hard", jobs=1)]
    search = [_small_grid(a) for a in workloads.grid_commands("search-all", jobs=1)]
    for commands, member_calls in ((verify, True), (search, False)):
        tracer = Tracer()
        with tracer:
            for argv in commands:
                assert _send(cli, argv)[0] in (0, 1)
        triples = sum(workloads.command_triples(a) for a in commands)
        assert tracer.stat("identity.check").calls == triples
        assert tracer.stat("catalog.member").calls == (triples if member_calls else 0)
        assert tracer.stat("oracle.enumerate_rationals").calls > 0
    # uninstall puts the package's own functions back
    from distribq import oracle, identity

    assert oracle.check is identity.check


def test_tracer_times_generator_steps(cli):
    tracer = Tracer()
    with tracer:
        rc, out = _send(cli, ["construct12", "--n1", "3", "--n2", "2", "--list", "5"])
    assert rc == 0 and len(out.splitlines()) == 5
    enum = tracer.stat("number_theory.case12_enumerate")
    assert enum.calls == 1 and enum.busy > 0
    nested = tracer.stat("number_theory.solve_linear_diophantine")
    assert nested.calls == 1 and nested.layer_busy == 0  # inside case12_enumerate
    assert tracer.layer("number_theory.").layer_busy == pytest.approx(enum.busy)


def test_point_query_answers_are_accepted(cli):
    maker = workloads.QueryMaker(seed=7)
    kinds = set()
    for _ in range(600):
        query = maker.next()
        rc, out = _send(cli, query.argv)
        assert query.judge(query.argv[-1], rc, out), (query.argv, rc, out)
        kinds.add((query.kind, query.argv[-1]))
    assert len(kinds) == 8 * 3  # every kind in every format


_LAST_RATIONAL = re.compile(r"(-?\d+)/(\d+)(?!.*\d+/\d+)", re.S)


def _corrupt(kind: str, out: str) -> str | None:
    """A wrong answer in the same format, or None if the kind is not corrupted here."""
    if kind in ("check", "classify") and "HOLDS" in out:
        return out.replace("HOLDS", "FAILS", 1)
    if kind == "member":
        return out.replace("true", "false") if "true" in out else out.replace("false", "true")
    if kind == "solve" and not ("unique" in out or out.startswith("r2 = ")):
        return None  # ALL or NONE: the only rationals are the echoed inputs
    if kind in ("generate", "family5", "solve") and _LAST_RATIONAL.search(out):
        return _LAST_RATIONAL.sub(lambda m: f"{int(m.group(1)) + 1}/{m.group(2)}", out)
    return None


def test_point_query_checkers_reject_wrong_answers(cli):
    maker = workloads.QueryMaker(seed=11)
    rejected = 0
    for _ in range(400):
        query = maker.next()
        rc, out = _send(cli, query.argv)
        if rc != 0:
            continue
        bad = _corrupt(query.kind, out)
        if bad is not None and bad != out:
            assert not query.judge(query.argv[-1], rc, bad), (query.argv, bad)
            rejected += 1
        assert not query.judge(query.argv[-1], 2, out)
    assert rejected > 100


def test_query_stream_depends_only_on_seed():
    def stream(seed):
        maker = workloads.QueryMaker(seed)
        return [maker.next().argv for _ in range(50)]

    assert stream(3) == stream(3) != stream(4)


def test_golden_digest_catches_one_changed_byte(cli):
    golden = workloads.load_golden()
    argv = workloads.grid_commands("search-all", jobs=1)[13]  # case 14, the cheapest
    rc, out = _send(cli, argv)
    key = workloads.golden_key(argv)
    assert workloads.output_digest(rc, out) == golden[key]
    assert workloads.output_digest(rc, out.replace("1", "2", 1)) != golden[key]
    assert workloads.output_digest(1, out) != golden[key]


def test_benchmark_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search-all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
