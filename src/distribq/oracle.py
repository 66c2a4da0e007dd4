"""Bounded exhaustive search over canonical rationals.

The grid is every canonical fraction n/d with |n| <= num_bound and
1 <= d <= den_bound, enumerated in ascending value order. Scans walk the
grid cubed and compare three views of each case: the identity checker, the
membership predicate, and the union of listed families. Work is
partitioned by the first component; partitions share no mutable state and
are merged in first-component order, so the output is identical whether it
was produced by one worker or many.

Both scans walk `product((r1,), values, values)` and hand `check` and
`member` its plain tuples, which they read only as `r1, r2, r3 = t`.
Family shapes read a triple's fields by name, so verify builds a `Triple`
for `family_union_member` alone, and only for the triples that hold. Both
ask `check` for its verdict only and compare the result with the shared
`_HELD`, so no result is built per triple. The flag is passed by position,
so that a wrapper of `oracle.check` that takes only `*args` still sees it.

In this process or in a pool, a partition lists a triple as j*V + k for
(values[j], values[k]) as r2 and r3. A search partition returns its
positions in an `array('q')`, not as one int object each, and
`search_positions` hands them with the grid to the CLI, which writes the
rows by position. `_triples` rebuilds triples from the parent's grid only
for the library entry points `search_solutions` and
`verify_characterization`. A verify partition returns its holding count
and, for each of missing, spurious and coverage gap, the category's count
and its first `list_limit` positions. A pool gets the case, the grid and
the partition function once per worker, through its initializer, and
tasks are first-component positions. The process-pool machinery is
imported only when a pool starts, and `array` by the first search
partition, so one-shot commands and `--jobs 1` runs never load the pool.

`jobs` is an int >= 1, and verify's `list_limit` None or an int >= 0; an
integral Fraction reads as its int, and any other value raises DomainError
before the scan starts.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import partial
from itertools import product, repeat
from math import gcd
from typing import TYPE_CHECKING, Iterator, NamedTuple

from . import _EXPORTS
from .catalog import family_union_member, member
from .identity import DEFAULT_LIST_LIMIT, _HELD, CaseId, DomainError, Triple, _as_int, check

if TYPE_CHECKING:
    from array import array

# tuple.__new__ skips the NamedTuple's Python-level __new__ where a Triple is
# built (in `_triples`, and for `family_union_member`).
_new = tuple.__new__

__all__ = _EXPORTS["oracle"]


class SearchBounds(NamedTuple):
    num_bound: int
    den_bound: int


def enumerate_rationals(bounds: SearchBounds) -> list[Fraction]:
    """All canonical n/d with |n| <= num_bound, d <= den_bound, ascending.
    Each bound is an int or an integral Fraction; any other value, a float
    or a bool among them, raises DomainError."""
    num_bound, den_bound = map(_as_int, bounds, SearchBounds._fields)
    if num_bound < 1 or den_bound < 1:
        raise DomainError("bounds must be >= 1")
    values = [
        Fraction(n, d)
        for d in range(1, den_bound + 1)
        for n in range(-num_bound, num_bound + 1)
        if gcd(abs(n), d) == 1
    ]
    values.sort()
    return values


def _count(value, name: str, least: int) -> int:
    """`value` through `_as_int`; one below `least` raises DomainError."""
    value = _as_int(value, name)
    if value < least:
        raise DomainError(f"{name} must be >= {least}")
    return value


def _search_partition(case: CaseId, r1: Fraction, values: list[Fraction]) -> array:
    from array import array  # loaded by the first search, not on import

    return array("q", [p for p, t in enumerate(product((r1,), values, values))
                       if check(case, t, True) is _HELD])


def _verify_partition(
    case: CaseId, r1: Fraction, values: list[Fraction], list_limit: int | None = None
) -> tuple:
    """The holding count, then (count, first `list_limit` positions) of the
    missing, spurious and coverage-gap triples whose first component is r1."""
    holds = 0
    missing, spurious, gap = [], [], []
    for p, t in enumerate(product((r1,), values, values)):
        holds_here = check(case, t, True) is _HELD
        is_member = member(case, t)
        if holds_here:
            holds += 1
            if not is_member:
                missing.append(p)
            if not family_union_member(case, _new(Triple, t)):
                gap.append(p)
        elif is_member:
            spurious.append(p)
    return holds, *((len(found), found[:list_limit]) for found in (missing, spurious, gap))


def _triples(values: list[Fraction], partitions) -> list[Triple]:
    """The triples that `partitions` list, in order: the i-th partition's
    j*V + k stands for (values[i], values[j], values[k])."""
    size = len(values)
    found = []
    for r1, positions in zip(values, partitions):
        for p in positions:
            j, k = divmod(p, size)
            found.append(_new(Triple, (r1, values[j], values[k])))
    return found


# (worker, case, values) in a pool worker, set once by _start_worker.
_pool_state: tuple | None = None


def _start_worker(*state) -> None:
    global _pool_state
    _pool_state = state


def _pool_partition(i: int):
    worker, case, values = _pool_state
    return worker(case, values[i], values)


def _run_partitions(worker, case: CaseId, values: list[Fraction], jobs: int):
    """Yield `worker(case, r1, values)` for each r1 of the grid, in order."""
    # The CPUs this process may run on; taskset or a container can pin fewer.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(jobs, cpus or 1, len(values))
    if workers <= 1:
        yield from map(worker, repeat(case), values, repeat(values))
        return
    from concurrent.futures import ProcessPoolExecutor

    # About four chunks per worker: few round trips, yet an even finish.
    chunksize = -(-len(values) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers, initializer=_start_worker,
                             initargs=(worker, case, values)) as pool:
        yield from pool.map(_pool_partition, range(len(values)), chunksize=chunksize)


def search_positions(
    case: CaseId, bounds: SearchBounds, jobs: int = 1
) -> tuple[list[Fraction], Iterator[array]]:
    """The grid's values, and an iterator that yields, for each r1 =
    values[i] in order, the ascending positions j*V + k of the triples
    (values[i], values[j], values[k]) whose identity check HOLDS. The scan
    runs as the iterator is read; a pool, if one starts, closes when the
    iterator is exhausted; `jobs` is checked before it is made."""
    jobs = _count(jobs, "jobs", 1)
    values = enumerate_rationals(bounds)
    return values, _run_partitions(_search_partition, case, values, jobs)


def search_solutions(case: CaseId, bounds: SearchBounds, jobs: int = 1) -> list[Triple]:
    """All triples on the grid whose identity check HOLDS, in grid order."""
    return _triples(*search_positions(case, bounds, jobs))


class VerificationReport(NamedTuple):
    """Grid-wide comparison of checker, membership predicate, and families.

    `missing` are triples that hold but the predicate rejects; `spurious`
    the reverse; the characterization is exact on the grid iff both are
    empty. `coverage_gap` are holding triples outside every listed family.
    The three lists are truncated to `list_limit` entries (counts are
    never truncated).
    """

    case: CaseId
    bounds: SearchBounds
    total_triples: int
    holds: int
    missing_count: int
    spurious_count: int
    coverage_gap_count: int
    missing: tuple[Triple, ...]
    spurious: tuple[Triple, ...]
    coverage_gap: tuple[Triple, ...]
    list_limit: int | None

    @property
    def exact(self) -> bool:
        return self.missing_count == 0 and self.spurious_count == 0


def verify_characterization(
    case: CaseId,
    bounds: SearchBounds,
    jobs: int = 1,
    list_limit: int | None = DEFAULT_LIST_LIMIT,
) -> VerificationReport:
    """Exhaustively compare check, member, and family_union_member on the grid."""
    jobs = _count(jobs, "jobs", 1)
    if list_limit is not None:
        list_limit = _count(list_limit, "list_limit", 0)
    values = enumerate_rationals(bounds)
    holds, *listings = zip(*_run_partitions(
        partial(_verify_partition, list_limit=list_limit), case, values, jobs
    ))

    def merge(listing) -> tuple[int, tuple[Triple, ...]]:
        # Each partition kept its first list_limit triples in grid order, so
        # the first list_limit of their concatenation are the grid's first.
        counts, positions = zip(*listing)
        return sum(counts), tuple(_triples(values, positions)[:list_limit])

    (missing_count, missing), (spurious_count, spurious), (gap_count, gap) = map(merge, listings)
    return VerificationReport(
        case=case,
        bounds=bounds,
        total_triples=len(values) ** 3,
        holds=sum(holds),
        missing_count=missing_count,
        spurious_count=spurious_count,
        coverage_gap_count=gap_count,
        missing=missing,
        spurious=spurious,
        coverage_gap=gap,
        list_limit=list_limit,
    )
