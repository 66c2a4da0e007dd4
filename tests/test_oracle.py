"""Grid enumeration, exhaustive verification, and deterministic parallelism."""

import concurrent.futures
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import distribq
from distribq import catalog, identity, oracle
from distribq.identity import ALL_CASES, BinOp, Triple, Verdict, case_from_label
from distribq.oracle import (
    SearchBounds,
    enumerate_rationals,
    search_solutions,
    verify_characterization,
)
from distribq import DomainError

T = Triple.of


def test_enumerate_smallest_grids():
    assert enumerate_rationals(SearchBounds(1, 1)) == [-1, 0, 1]
    assert enumerate_rationals(SearchBounds(1, 2)) == [
        Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)
    ]
    assert len(enumerate_rationals(SearchBounds(2, 2))) == 7


def test_enumerate_is_sorted_canonical_and_duplicate_free():
    values = enumerate_rationals(SearchBounds(6, 4))
    assert values == sorted(values)
    assert len(values) == len(set(values))
    for q in values:
        assert 1 <= q.denominator <= 4
        assert abs(q.numerator) <= 6
        assert gcd(abs(q.numerator), q.denominator) == 1


def test_enumerate_rejects_bad_bounds():
    with pytest.raises(DomainError):
        enumerate_rationals(SearchBounds(0, 1))


def test_base_law_search_covers_the_whole_grid():
    solutions = search_solutions(case_from_label("L1"), SearchBounds(1, 1))
    assert len(solutions) == 27


def test_search_respects_grid_order():
    values = enumerate_rationals(SearchBounds(2, 1))
    solutions = search_solutions(case_from_label(1), SearchBounds(2, 1))
    expected = [Triple(Fraction(0), r2, r3) for r2 in values for r3 in values]
    assert solutions == expected


def test_search_case14_contains_hand_checked_triple():
    solutions = search_solutions(case_from_label(14), SearchBounds(2, 1))
    assert T(2, 1, 1) in solutions


def test_search_division_over_addition_solutions():
    solutions = search_solutions(case_from_label(9), SearchBounds(2, 1))
    for t in solutions:
        assert t.r1 == 0 and t.r2 * t.r3 != 0 and t.r2 + t.r3 != 0
    assert T(0, 1, 1) in solutions
    assert T(0, 1, -1) not in solutions


def test_characterizations_are_exact_for_every_case():
    bounds = SearchBounds(3, 2)
    for case in ALL_CASES:
        report = verify_characterization(case, bounds)
        assert report.exact, case.label
        assert report.missing == () and report.spurious == ()
        assert report.total_triples == len(enumerate_rationals(bounds)) ** 3


def test_coverage_gap_examples():
    gap12 = verify_characterization(case_from_label(12), SearchBounds(6, 1))
    assert T(2, 5, 1) in gap12.coverage_gap
    gap14 = verify_characterization(case_from_label(14), SearchBounds(6, 1))
    assert T(2, 5, 1) in gap14.coverage_gap
    gap13 = verify_characterization(case_from_label(13), SearchBounds(6, 2))
    assert gap13.coverage_gap_count > 0


def test_easy_cases_have_no_coverage_gap():
    bounds = SearchBounds(4, 2)
    for label in list(range(1, 12)) + ["L1", "L2"]:
        report = verify_characterization(case_from_label(label), bounds)
        assert report.coverage_gap_count == 0, label


def test_list_limit_truncates_lists_but_not_counts():
    report = verify_characterization(
        case_from_label(12), SearchBounds(6, 1), list_limit=5
    )
    assert len(report.coverage_gap) == 5
    assert report.coverage_gap_count > 5
    unlimited = verify_characterization(
        case_from_label(12), SearchBounds(6, 1), list_limit=None
    )
    assert len(unlimited.coverage_gap) == unlimited.coverage_gap_count


def test_parallel_runs_match_single_threaded_exactly():
    case = case_from_label(12)
    bounds = SearchBounds(4, 2)
    assert search_solutions(case, bounds, jobs=1) == search_solutions(
        case, bounds, jobs=4
    )
    assert verify_characterization(case, bounds, jobs=1) == verify_characterization(
        case, bounds, jobs=4
    )


def _count_per_triple_calls(monkeypatch) -> dict:
    """Replace `oracle.check` and `oracle.member` with counting wrappers.

    The scans must reach both through these module attributes, once per
    triple: perfbench's tracer wraps the same attributes, and its self-check
    requires the counts to equal the grid volume.
    """
    calls = {"check": 0, "member": 0}

    def counting(name):
        original = getattr(oracle, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    monkeypatch.setattr(oracle, "check", counting("check"))
    monkeypatch.setattr(oracle, "member", counting("member"))
    return calls


def test_verify_calls_check_and_member_once_per_triple(monkeypatch):
    calls = _count_per_triple_calls(monkeypatch)
    family_args = []
    original = oracle.family_union_member

    def recording(case, t):
        family_args.append(t)
        return original(case, t)

    monkeypatch.setattr(oracle, "family_union_member", recording)
    bounds = SearchBounds(3, 2)
    report = verify_characterization(case_from_label(13), bounds, jobs=1)
    volume = len(enumerate_rationals(bounds)) ** 3
    assert report.total_triples == volume
    assert calls == {"check": volume, "member": volume}
    # Family shapes read fields by name: they see the holding triples alone,
    # each as a Triple.
    assert len(family_args) == report.holds > 0
    assert all(type(t) is Triple for t in family_args)


@pytest.mark.parametrize("label", ["12", "4", "L1"])
def test_search_calls_check_once_per_triple_and_never_member(monkeypatch, label):
    calls = _count_per_triple_calls(monkeypatch)
    bounds = SearchBounds(3, 2)
    search_solutions(case_from_label(label), bounds, jobs=1)
    assert calls == {"check": len(enumerate_rationals(bounds)) ** 3, "member": 0}


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda case: case.label)
def test_scans_allocate_no_decided_check_result(monkeypatch, case):
    # Both scans read only the verdict, so every result they get is one of
    # the seven shared results: `_HELD`, `_FAILED` and one UNDEFINED per site.
    results = []
    original = oracle.check

    def recording(*args):
        results.append(original(*args))
        return results[-1]

    monkeypatch.setattr(oracle, "check", recording)
    bounds = SearchBounds(2, 1)
    assert 0 in enumerate_rationals(bounds)
    search_solutions(case, bounds, jobs=1)
    verify_characterization(case, bounds, jobs=1)
    assert len(results) == 2 * len(enumerate_rationals(bounds)) ** 3
    shared = {id(r) for r in (identity._HELD, identity._FAILED, *identity._UNDEFINED_AT)}
    assert all(id(r) in shared for r in results)
    decided = [r for r in results if r.verdict is not Verdict.UNDEFINED]
    assert decided
    # A case that divides is undefined somewhere on a grid with zeros.
    assert (len(decided) < len(results)) == (BinOp.DIV in case)


def test_each_scan_enumerates_the_grid_once(monkeypatch):
    calls = []
    original = oracle.enumerate_rationals

    def counting(bounds):
        calls.append(bounds)
        return original(bounds)

    monkeypatch.setattr(oracle, "enumerate_rationals", counting)
    bounds = SearchBounds(2, 2)
    verify_characterization(case_from_label(12), bounds)
    assert calls == [bounds]
    search_solutions(case_from_label(12), bounds)
    assert calls == [bounds, bounds]


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the worker count and the
    chunks of tasks, and runs the initializer and the tasks in-process, so no
    worker is ever started."""

    created: list = []
    chunks: list = []

    def __init__(self, max_workers, initializer, initargs):
        self.created.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, tasks, chunksize):
        tasks = list(tasks)
        self.chunks.append([tasks[i:i + chunksize] for i in range(0, len(tasks), chunksize)])
        return map(fn, tasks)


def _pin_cpus(monkeypatch, cpus, affinity):
    """Report `cpus` cores and the `affinity` set; `affinity` None stands
    for a platform without os.sched_getaffinity."""
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: cpus)
    if affinity is None:
        monkeypatch.delattr(oracle.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: affinity, raising=False)


def _record_pools(monkeypatch, cpus, affinity=None):
    """Make every pool a _RecordingPool, on `cpus` CPUs."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(oracle, "_pool_state", None)
    _pin_cpus(monkeypatch, cpus, affinity)
    monkeypatch.setattr(_RecordingPool, "created", [])
    monkeypatch.setattr(_RecordingPool, "chunks", [])


@pytest.mark.parametrize(
    ("jobs", "cpus", "affinity", "bounds", "workers"),
    [
        (64, 4, None, SearchBounds(1, 1), 3),  # three partitions
        (64, 4, None, SearchBounds(2, 2), 4),  # four cores
        (3, 8, None, SearchBounds(2, 2), 3),  # as asked
        (8, 1, None, SearchBounds(2, 2), None),  # one core: no pool
        (8, None, None, SearchBounds(2, 2), None),  # core count unknown: no pool
        (1, 8, None, SearchBounds(2, 2), None),
        (8, 8, {5}, SearchBounds(2, 2), None),  # affinity 1 of 8 CPUs: no pool
        (8, 8, {0, 3}, SearchBounds(2, 2), 2),  # affinity 2 of 8 CPUs
        (2, 2, None, SearchBounds(6, 3), 2),  # 27 partitions in chunks of 4
    ],
)
def test_worker_count_is_clamped_to_cores_and_partitions(
    monkeypatch, jobs, cpus, affinity, bounds, workers
):
    case = case_from_label(12)
    serial_search = search_solutions(case, bounds)
    serial_verify = verify_characterization(case, bounds)
    _record_pools(monkeypatch, cpus, affinity)
    assert search_solutions(case, bounds, jobs=jobs) == serial_search
    assert verify_characterization(case, bounds, jobs=jobs) == serial_verify
    assert _RecordingPool.created == ([] if workers is None else [workers, workers])
    # A task is a first-component position; each pool maps every position
    # once, in order, in at most about four chunks per worker.
    volume = len(enumerate_rationals(bounds))
    for chunks in _RecordingPool.chunks:
        assert [i for chunk in chunks for i in chunk] == list(range(volume))
        assert all(type(i) is int for chunk in chunks for i in chunk)
        assert workers <= len(chunks) <= 4 * workers


def test_a_pool_starts_after_the_parent_has_built_the_case_s_kernels(monkeypatch):
    # Workers started by fork inherit the parent's kernel tables, so the
    # parent builds what the scan's partitions call before the pool starts:
    # the case's check kernel, and for verify its member kernel too. Under
    # spawn the workers build their own, as before.
    case, built = case_from_label("13"), []

    class Pool(_RecordingPool):
        def __init__(self, *args, **kwargs):
            built.append((case in identity._KERNELS, case in catalog._MEMBERS))
            super().__init__(*args, **kwargs)

    _record_pools(monkeypatch, cpus=2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    for scan, member_too in ((search_solutions, False), (verify_characterization, True)):
        monkeypatch.setattr(identity, "_KERNELS", identity._Kernels())
        monkeypatch.setattr(catalog, "_MEMBERS", identity._Kernels(catalog._build_member))
        scan(case, SearchBounds(2, 2), jobs=2)
        assert built.pop() == (True, member_too), scan.__name__
    assert case in identity._KERNELS and case in catalog._MEMBERS


def test_listings_cross_the_pool_as_positions_into_the_parents_grid(monkeypatch):
    """Missing and spurious triples, which an exact characterization never
    lists, forced here by a wrong membership predicate: every listing and
    count is the same through the pool, and every listed component is one
    of the parent's grid values."""
    monkeypatch.setattr(oracle, "member", lambda case, t: t[1] > 0)
    case, bounds = case_from_label(13), SearchBounds(3, 2)
    serial = [verify_characterization(case, bounds, list_limit=limit) for limit in (2, None)]
    grids = _capture_grids(monkeypatch)
    _record_pools(monkeypatch, cpus=2)
    pooled = [verify_characterization(case, bounds, jobs=2, list_limit=limit)
              for limit in (2, None)]
    assert _RecordingPool.created == [2, 2]
    assert pooled == serial
    assert all(r.missing and r.spurious and r.coverage_gap for r in pooled)
    for report, grid in zip(pooled, grids):
        _assert_components_are_grid_values(
            report.missing + report.spurious + report.coverage_gap, grid)


@pytest.mark.parametrize("pooled", [False, True], ids=["jobs1", "pool"])
def test_a_search_holds_one_partitions_positions_at_a_time(monkeypatch, pooled):
    """Each partition's positions become triples as the partition arrives, so
    the peak is the returned list and about one partition's positions."""
    case, bounds, jobs = case_from_label("L1"), SearchBounds(6, 3), 1
    if pooled:
        _record_pools(monkeypatch, cpus=2)
        jobs = 2
    size = len(enumerate_rationals(bounds))
    search_solutions(case, bounds, jobs=jobs)  # generates the case's kernel
    tracemalloc.start()
    try:
        solutions = search_solutions(case, bounds, jobs=jobs)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A position is an int object and a list slot; L1 lists the whole plane.
    partition = size**2 * (sys.getsizeof(size**2) + 8)
    assert len(solutions) == size**3
    assert _RecordingPool.created == ([2, 2] if pooled else [])
    assert peak - kept <= 2 * partition, (peak - kept, partition)


def _capture_grids(monkeypatch) -> list:
    """Keep every grid that oracle enumerates, in order."""
    grids = []
    original = oracle.enumerate_rationals

    def keeping(bounds):
        grids.append(original(bounds))
        return grids[-1]

    monkeypatch.setattr(oracle, "enumerate_rationals", keeping)
    return grids


def _assert_components_are_grid_values(triples, grid):
    ids = {id(q) for q in grid}
    assert all(id(q) in ids for t in triples for q in t)


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda case: case.label)
def test_a_real_pool_searches_as_one_process_does(monkeypatch, case):
    bounds = SearchBounds(3, 2)
    serial = search_solutions(case, bounds, jobs=1)
    _pin_cpus(monkeypatch, 2, {0, 1})  # a real pool of two on any machine
    grids = _capture_grids(monkeypatch)
    pooled = search_solutions(case, bounds, jobs=2)
    assert pooled == serial and type(pooled[0]) is Triple
    _assert_components_are_grid_values(pooled, grids[0])


@pytest.mark.parametrize("limit", [oracle.DEFAULT_LIST_LIMIT, 2, None])
def test_a_real_pool_verifies_as_one_process_does(monkeypatch, limit):
    # Cases 12 to 14 list coverage gaps at (6,3); 12's and 14's run past 100.
    bounds = SearchBounds(6, 3)
    cases = [case_from_label(label) for label in ("12", "13", "14", "L1")]
    serial = [verify_characterization(c, bounds, list_limit=limit) for c in cases]
    _pin_cpus(monkeypatch, 2, {0, 1})
    grids = _capture_grids(monkeypatch)
    pooled = [verify_characterization(c, bounds, jobs=2, list_limit=limit) for c in cases]
    assert pooled == serial
    for report, grid in zip(pooled, grids):
        _assert_components_are_grid_values(report.coverage_gap, grid)


def _child_env() -> dict:
    """The environment in which a fresh interpreter imports this checkout."""
    src = str(Path(distribq.__file__).resolve().parent.parent)
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


_ONE_SHOT = """
import sys
import distribq
from distribq import cli

runs = [
    ["check", "--outer", "sub", "--inner", "mul", "--triple", "6,4,-3"],
    ["classify", "--triple", "0,2,3"],
    ["member", "--case", "12", "--triple", "2,5,1"],
    ["solve", "--case", "13", "--r1", "3", "--r3", "-1"],
    ["generate", "--case", "12", "--family", "4", "--params", "delta=2"],
    ["diophantine", "--p", "3", "--q", "5", "--t", "1"],
    ["construct12", "--n1", "3", "--n2", "2", "--delta", "2"],
    ["family5", "--a", "3", "--f", "1", "--k", "0", "--sign", "+"],
    ["verify", "--case", "12", "--num-bound", "2", "--den-bound", "2", "--jobs", "1"],
    ["verify", "--case", "13", "--num-bound", "2", "--den-bound", "2", "--format", "csv"],
]
codes = [cli.run(argv) for argv in runs]
assert codes == [0] * len(runs), codes
loaded = sorted({"concurrent.futures", "multiprocessing", "array", "dataclasses", "csv"}
                & set(sys.modules))
assert not loaded, loaded
# A search keeps its positions in arrays, so it alone loads array.
assert cli.run(["search", "--case", "12", "--num-bound", "2", "--den-bound", "2",
                "--jobs", "1"]) == 0
loaded = sorted({"concurrent.futures", "multiprocessing", "dataclasses", "csv"}
                & set(sys.modules))
assert not loaded, loaded
"""


def test_one_shot_commands_never_load_the_process_pool():
    """Every command, and search and verify at --jobs 1, in a fresh
    interpreter: the pool's imports come only with a pool, and no command
    loads dataclasses (and with it inspect, ast and dis) or csv."""
    done = subprocess.run([sys.executable, "-c", _ONE_SHOT], env=_child_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


_START_METHOD = """
import multiprocessing, os, sys
from distribq import cli

if __name__ == "__main__":
    method, out1, out2 = sys.argv[1:]
    multiprocessing.set_start_method(method)
    os.sched_getaffinity = lambda pid: {0, 1}  # a pool of two on any machine
    os.cpu_count = lambda: 2
    argv = ["search", "--case", "L1", "--num-bound", "3", "--den-bound", "2", "--format", "csv"]
    assert cli.run([*argv, "--jobs", "1", "--output", out1]) == 0
    assert "concurrent.futures" not in sys.modules
    assert cli.run([*argv, "--jobs", "2", "--output", out2]) == 0
    assert "concurrent.futures" in sys.modules
    assert multiprocessing.get_start_method() == method
"""


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_the_pool_needs_no_fork_to_see_the_grid(tmp_path, method):
    """Under spawn (macOS's default) and forkserver (Linux's from Python
    3.14) a worker inherits nothing from the parent: the initializer alone
    gives it the case and the grid."""
    import multiprocessing

    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    out1, out2 = tmp_path / "jobs1.csv", tmp_path / "jobs2.csv"
    done = subprocess.run([sys.executable, "-c", _START_METHOD, method, str(out1), str(out2)],
                          env=_child_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert out1.read_bytes().count(b"\n") == 1 + 11**3
    assert out2.read_bytes() == out1.read_bytes()


def test_partitions_keep_exact_counts_but_at_most_list_limit_triples():
    case = case_from_label(12)
    values = enumerate_rationals(SearchBounds(6, 1))
    longest = 0
    for r1 in values:
        full = oracle._verify_partition(case, r1, values)
        capped = oracle._verify_partition(case, r1, values, list_limit=2)
        assert capped[0] == full[0]
        for (kept_count, kept), (count, every) in zip(capped[1:], full[1:]):
            assert kept_count == count == len(every)
            assert kept == every[:2]
            longest = max(longest, count)
    assert longest > 2
